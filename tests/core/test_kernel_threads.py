"""The retired kernel thread knob on the no-binding path.

Each bounded dispatch of the compiled backend is one native call; the
thread splitter and its ``REPRO_KERNEL_THREADS`` knob are retired
(DESIGN.md, "One native call per bounded dispatch").  An environment
that still sets the knob must run exactly as one that does not.
"""

from tests.core.test_kernel_parity import _run_fallback_probe


class TestThreadedFallback:
    def test_threaded_glove_without_binding(self):
        # No accelerated tier and the retired thread knob still set: the
        # auto backend degrades to the NumPy walk, which moves no probe
        # through a batched native entry and still counts its kernel
        # calls, and the publication is the one the knob-free NumPy
        # backend makes.
        proc = _run_fallback_probe(
            """
            from repro.core import kernels
            assert kernels.COMPILED_TIER is None

            from repro.core.artifacts import ArtifactStore, dataset_digest
            from repro.core.config import ComputeConfig, GloveConfig
            from repro.core.glove import glove
            from repro.core.pipeline import Pipeline
            from repro.core.scenarios import get_scenario

            sc = get_scenario("bench").scaled(n_users=24, days=1, seed=0)
            dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
            result = glove(dataset, GloveConfig(k=2), ComputeConfig(backend="auto"))
            assert result.dataset.is_k_anonymous(2)
            assert result.stats.n_batched_probes == 0
            assert result.stats.n_boundary_crossings > 0
            print("threaded-fallback-ok", dataset_digest(result.dataset))
            """,
            {"REPRO_CC_KERNEL": "0", "REPRO_KERNEL_THREADS": "2"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "threaded-fallback-ok" in proc.stdout

        from repro.core.artifacts import ArtifactStore, dataset_digest
        from repro.core.config import ComputeConfig, GloveConfig
        from repro.core.glove import glove
        from repro.core.pipeline import Pipeline
        from repro.core.scenarios import get_scenario

        sc = get_scenario("bench").scaled(n_users=24, days=1, seed=0)
        dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
        reference = glove(dataset, GloveConfig(k=2), ComputeConfig(backend="numpy"))
        assert proc.stdout.split()[-1] == dataset_digest(reference.dataset)
