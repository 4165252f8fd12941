"""Thread-splitter determinism and degradation of the compiled tier.

The compiled backend may split a batched multi-probe dispatch across
``kernel_threads`` GIL-released native calls.  Probes are independent in
the batched kernels (per-pair scratch re-zeroing, DESIGN.md D11), so any
split reproduces the unsplit call bit for bit — these tests pin that
guarantee end-to-end (whole ``glove()`` runs) and at the backend level,
plus the config/CLI validation surface and the no-binding degradation
path (the NumPy walk, no crash).
"""

import hashlib

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import ComputeConfig, GloveConfig
from repro.core.engine import StretchEngine, _effective_kernel_threads
from repro.core.glove import glove

from tests.core.test_kernel_parity import _run_fallback_probe


def _digest(result) -> str:
    h = hashlib.sha256()
    for fp in sorted(result.dataset, key=lambda f: f.uid):
        h.update(fp.uid.encode())
        h.update(np.ascontiguousarray(fp.data).tobytes())
        h.update(str(fp.count).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def bench_dataset():
    from repro.core.artifacts import ArtifactStore
    from repro.core.pipeline import Pipeline
    from repro.core.scenarios import get_scenario

    sc = get_scenario("bench").scaled(n_users=48, days=2, seed=3)
    return sc.synthesize(Pipeline(ArtifactStore(root=None)))


@pytest.mark.skipif(
    not kernels.COMPILED_AVAILABLE, reason="no accelerated kernel binding"
)
class TestThreadDeterminism:
    def test_glove_identical_across_thread_counts(self, bench_dataset):
        digests = {}
        for nt in (1, 2, 8):
            result = glove(
                bench_dataset,
                GloveConfig(k=2),
                ComputeConfig(backend="compiled", kernel_threads=nt),
            )
            digests[nt] = _digest(result)
        assert digests[1] == digests[2] == digests[8]

    def test_counters_identical_across_thread_counts(self, bench_dataset):
        # Every walk counter is the unsplit call's.  The memo hits are a
        # cost count: split calls cannot recall each other's entries of
        # the same call, so they may read lower, never higher.
        stats = {}
        for nt in (1, 2, 8):
            s = glove(
                bench_dataset,
                GloveConfig(k=2),
                ComputeConfig(backend="compiled", kernel_threads=nt),
            ).stats
            stats[nt] = s
        walk = {
            nt: (s.n_merges, s.n_exact_evaluations, s.n_bound_pruned,
                 s.n_lb1_evaluations, s.n_probe_dispatches, s.n_batched_probes)
            for nt, s in stats.items()
        }
        assert walk[1] == walk[2] == walk[8]
        for nt in (2, 8):
            assert 0 < stats[nt].n_exact_memo_hits <= stats[1].n_exact_memo_hits
            assert 0 < stats[nt].n_lb1_memo_hits <= stats[1].n_lb1_memo_hits

    def test_split_calls_write_their_own_memo(self, small_civ):
        # One call of the thread splitter reads the engine's memo and
        # writes only its own, which is absorbed after the join.
        fps = list(small_civ)[:10]
        with StretchEngine(fps, compute=ComputeConfig(backend="compiled")) as engine:
            resident, memo = engine._resident, engine._memo
            args = engine.backend._args()
            targets = np.arange(len(fps), dtype=np.int64)
            inf = np.full(len(fps), np.inf)
            kernels.bounded_many_vs_all_arrays(resident, targets[:3], targets, inf[:3], *args)
            shared = memo.entries()
            own = memo.spawn()
            *_, hits = kernels.bounded_many_vs_all_arrays(
                resident, targets[3:], targets, inf[3:], *args, own
            )
            assert memo.entries() == shared
            assert hits[0] > 0 and own.entries()[1] > 0
            kernels.absorb_memo(resident, own)
            assert memo.entries() == tuple(a + b for a, b in zip(shared, own.entries()))
            *_, hits = kernels.bounded_many_vs_all_arrays(
                resident, targets[3:], targets, inf[3:], *args
            )
            assert hits[1] == own.entries()[1]

    def test_glove_matches_numpy_reference(self, bench_dataset):
        reference = glove(
            bench_dataset, GloveConfig(k=2), ComputeConfig(backend="numpy")
        )
        threaded = glove(
            bench_dataset,
            GloveConfig(k=2),
            ComputeConfig(backend="compiled", kernel_threads=2),
        )
        assert _digest(threaded) == _digest(reference)

    def test_backend_rows_identical_across_splits(self, small_civ):
        fps = list(small_civ)[:12]
        probes = np.arange(5, dtype=np.int64)
        targets = np.arange(len(fps), dtype=np.int64)
        t_lists = [targets[5 : 5 + 2 * p + 1] for p in range(5)]
        rev_lists = [np.ones(t.size, dtype=bool) for t in t_lists]
        best_vals = np.full(2 * len(fps), 0.5)
        baseline = None
        for nt in (1, 2, 3, 8):
            with StretchEngine(
                fps, compute=ComputeConfig(backend="compiled", kernel_threads=nt)
            ) as engine:
                argmin = engine.bounded_argmin(probes, targets)
                rows, pruned = engine.bounded_rows_some(
                    probes, t_lists, rev_lists, best_vals
                )
            flat = np.concatenate(rows)
            if baseline is None:
                baseline = (argmin, flat, pruned)
                continue
            for got, ref in zip(argmin, baseline[0]):
                np.testing.assert_array_equal(got, ref)
            assert flat.tobytes() == baseline[1].tobytes()
            np.testing.assert_array_equal(pruned, baseline[2])
        # Evaluated positions are the NumPy reference's rows, bitwise.
        with StretchEngine(fps, compute=ComputeConfig(backend="numpy")) as engine:
            for p, (row, tgts) in enumerate(zip(rows, t_lists)):
                ev = row < np.inf
                np.testing.assert_array_equal(row[ev], engine.row(p, tgts)[ev])

    def test_thread_splitter_counts_crossings_per_slice(self, small_civ):
        fps = list(small_civ)[:8]
        with StretchEngine(
            fps, compute=ComputeConfig(backend="compiled", kernel_threads=3)
        ) as engine:
            _, _, pruned = engine.bounded_argmin(np.arange(6), np.arange(len(fps)))
            backend = engine.backend
        assert backend.n_boundary_crossings == 3
        assert backend.n_probe_dispatches == 6
        assert backend.n_batched_probes == 6
        assert backend.n_bound_pruned == int(pruned.sum())


class TestKernelThreadsConfig:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="kernel_threads"):
            ComputeConfig(kernel_threads=0)
        with pytest.raises(ValueError, match="kernel_threads"):
            ComputeConfig(kernel_threads=-2)

    def test_explicit_field_wins(self):
        assert _effective_kernel_threads(ComputeConfig(kernel_threads=4)) == 4

    def test_env_knob_default_and_degradation(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
        assert _effective_kernel_threads(ComputeConfig()) == 1
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
        assert _effective_kernel_threads(ComputeConfig()) == 3
        # Knobs degrade, never error (DESIGN.md D6): malformed and
        # out-of-range env values fall back to one thread.
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "banana")
        assert _effective_kernel_threads(ComputeConfig()) == 1
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "-4")
        assert _effective_kernel_threads(ComputeConfig()) == 1


class TestKernelThreadsAuto:
    """The ``auto`` spelling resolves to the host CPU count.

    On a single-CPU host ``auto`` therefore never splits — the measured
    sweep on this class of workload (sharded large-n) is 18.5 s at one
    thread vs 23.9 s at eight, so over-splitting is a pessimization the
    resolver must not introduce on its own.
    """

    def test_config_auto_resolves_to_cpu_count(self):
        import os

        expected = max(1, os.cpu_count() or 1)
        assert _effective_kernel_threads(ComputeConfig(kernel_threads="auto")) == expected

    def test_env_auto_resolves_to_cpu_count(self, monkeypatch):
        import os

        expected = max(1, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "auto")
        assert _effective_kernel_threads(ComputeConfig()) == expected
        # Case-insensitive, whitespace-tolerant — env knobs degrade,
        # they never error (DESIGN.md D6).
        monkeypatch.setenv("REPRO_KERNEL_THREADS", " AUTO ")
        assert _effective_kernel_threads(ComputeConfig()) == expected

    def test_config_validation_accepts_auto_rejects_other_strings(self):
        assert ComputeConfig(kernel_threads="auto").kernel_threads == "auto"
        with pytest.raises(ValueError, match="kernel_threads"):
            ComputeConfig(kernel_threads="banana")

    def test_cli_type_accepts_auto_and_ints(self):
        from repro.core.config import kernel_threads_arg

        assert kernel_threads_arg("auto") == "auto"
        assert kernel_threads_arg(" AUTO ") == "auto"
        assert kernel_threads_arg("4") == 4

    def test_cli_rejects_non_int_non_auto_with_exit_2(self):
        import argparse

        from repro.cli import build_parser
        from repro.core.config import kernel_threads_arg

        with pytest.raises(argparse.ArgumentTypeError):
            kernel_threads_arg("banana")
        parser = build_parser()
        # argparse converts the ArgumentTypeError into a usage error,
        # which exits with status 2 — the strict CLI policy.
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["measure", "ds.json", "--kernel-threads", "banana"])
        assert exc.value.code == 2
        args = parser.parse_args(["measure", "ds.json", "--kernel-threads", "auto"])
        assert args.kernel_threads == "auto"


class TestThreadedFallback:
    def test_threaded_glove_without_binding(self):
        # No accelerated tier: a threaded glove run must still work (the
        # splitter lives in CompiledBackend, which cannot be constructed
        # — the auto backend degrades to the NumPy walk).
        proc = _run_fallback_probe(
            """
            from repro.core import kernels
            assert kernels.COMPILED_TIER is None

            from repro.core.config import ComputeConfig, GloveConfig
            from repro.core.glove import glove
            from repro.core.scenarios import get_scenario
            from repro.core.pipeline import Pipeline
            from repro.core.artifacts import ArtifactStore

            sc = get_scenario("bench").scaled(n_users=24, days=1, seed=0)
            dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
            result = glove(
                dataset, GloveConfig(k=2),
                ComputeConfig(backend="auto", kernel_threads=2),
            )
            assert result.dataset.is_k_anonymous(2)
            assert result.stats.n_batched_probes == 0
            assert result.stats.n_boundary_crossings > 0
            print("threaded-fallback-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "threaded-fallback-ok" in proc.stdout
