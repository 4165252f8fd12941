"""Shared configuration of the benchmark suite.

Each benchmark regenerates one paper figure/table at a reproducible
scale and records the headline numbers in ``extra_info`` so that
``pytest benchmarks/ --benchmark-only`` output documents paper-vs-
measured (see EXPERIMENTS.md).

Scale is controlled by environment variables so the suite can be run
larger on beefier machines:

* ``REPRO_BENCH_USERS`` (default 120) — synthetic users per dataset;
* ``REPRO_BENCH_DAYS`` (default 4) — recording period;
* ``REPRO_BENCH_SEED`` (default 0).

At session end the suite also emits ``BENCH_glove.json`` at the repo
root: wall-clock of a seeded 500-fingerprint ``glove()`` run per
compute backend against the pre-engine dense-matrix baseline
(:mod:`benchmarks.seed_path`), a ``kernel`` microbenchmark of the
per-call ``one_vs_all`` dispatch cost (numpy vs compiled tier, small
and large target counts) plus the bounded row entry across prune
rates, a 10k+-fingerprint sharded-tier audit with dispatch
counters and the spread of its repeated runs, an ``ingest`` record
reading that population back from an event CSV,
a ``suite_cached`` record timing a repeated experiment-suite run cold
vs warm through the artifact pipeline, a ``stream`` record with the
streaming tier's throughput and per-window latency on the stream-500
scenario, a ``baselines`` record comparing every registered
anonymizer (GLOVE, W4M-LC, NWA, generalization) at Table-2 settings,
and a ``metrics_overhead`` record guarding the always-on-cheap
contract of the D12 observability layer.
Scale/skip knobs:

* ``REPRO_BENCH_GLOVE`` — set to ``0`` to skip the emission;
* ``REPRO_BENCH_GLOVE_USERS`` (default 500), ``REPRO_BENCH_GLOVE_DAYS``
  (default 2) — scale of the timed run;
* ``REPRO_BENCH_SHARD_USERS`` (default 10500; ``0`` skips the large-n
  and ingest records), ``REPRO_BENCH_SHARD_DAYS`` (default 2);
* ``REPRO_BENCH_SUITE_USERS`` (default 60; ``0`` skips the
  suite_cached record);
* ``REPRO_BENCH_STREAM_USERS`` (default 500; ``0`` skips the stream
  throughput record), ``REPRO_BENCH_STREAM_DAYS`` (default 2);
* ``REPRO_BENCH_BASELINES_USERS`` (default 48; ``0`` skips the
  baselines comparison record), ``REPRO_BENCH_BASELINES_DAYS``
  (default 2);
* ``REPRO_BENCH_CONCURRENT_WORKERS`` (default 4; ``0`` skips the
  ``cache_concurrent`` record), ``REPRO_BENCH_CONCURRENT_USERS``
  (default 150) — the multi-process single-flight dedup record: M
  forked workers request the same cold dataset through a shared
  disk artifact store and the record asserts exactly one compute with
  byte-identical results;
* ``REPRO_BENCH_METRICS`` (default 1; ``0`` skips the
  ``metrics_overhead`` record) — the always-on-cheap guard: the
  glove-500 run and the stream-500 replay timed with the metrics
  registry disabled vs installed (min-of-3 each), asserting the
  instrumented overhead stays under the 5% budget (DESIGN.md D12).

Every emission record is itself a content-addressed artifact
(:mod:`repro.core.artifacts`), keyed by its scenario parameters plus a
digest of the package sources: re-running the tier-1 suite with
unchanged code and scenarios serves the records from the store instead
of re-paying the multi-run ``glove()`` price, while any source edit
recomputes them.  ``REPRO_CACHE=0`` forces a full re-measure.
"""

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.core.artifacts import ArtifactStore, canonical_key, source_digest
from repro.core.config import env_int
from repro.core.pipeline import Pipeline
from repro.core.scenarios import get_scenario

BENCH_USERS = env_int("REPRO_BENCH_USERS", 120)
BENCH_DAYS = env_int("REPRO_BENCH_DAYS", 4)
BENCH_SEED = env_int("REPRO_BENCH_SEED", 0)

GLOVE_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_glove.json"
_REPO_ROOT = Path(__file__).resolve().parent.parent
_SEED_PATH_FILE = Path(__file__).resolve().parent / "seed_path.py"

#: The emission's workload scenarios, env-scaled from the registry.
BENCH_SCENARIO = get_scenario("bench").scaled(
    n_users=BENCH_USERS, days=BENCH_DAYS, seed=BENCH_SEED
)
GLOVE_SCENARIO = get_scenario("glove-500").scaled(
    n_users=env_int("REPRO_BENCH_GLOVE_USERS", 500),
    days=env_int("REPRO_BENCH_GLOVE_DAYS", 2),
    seed=BENCH_SEED,
)
SHARD_BENCH_USERS = env_int("REPRO_BENCH_SHARD_USERS", 10500)
SHARD_SCENARIO = get_scenario("large-n").scaled(
    n_users=max(SHARD_BENCH_USERS, 1),
    days=env_int("REPRO_BENCH_SHARD_DAYS", 2),
    seed=BENCH_SEED,
)
SUITE_BENCH_USERS = env_int("REPRO_BENCH_SUITE_USERS", 60)
SUITE_SCENARIO = get_scenario("suite").scaled(n_users=max(SUITE_BENCH_USERS, 1))
STREAM_BENCH_USERS = env_int("REPRO_BENCH_STREAM_USERS", 500)
STREAM_SCENARIO = get_scenario("stream-500").scaled(
    n_users=max(STREAM_BENCH_USERS, 1),
    days=env_int("REPRO_BENCH_STREAM_DAYS", 2),
    seed=BENCH_SEED,
)
BASELINES_BENCH_USERS = env_int("REPRO_BENCH_BASELINES_USERS", 48)
BASELINES_SCENARIO = get_scenario("baselines-smoke").scaled(
    n_users=max(BASELINES_BENCH_USERS, 1),
    days=env_int("REPRO_BENCH_BASELINES_DAYS", 2),
    seed=BENCH_SEED,
)
METRICS_BENCH = env_int("REPRO_BENCH_METRICS", 1)
CONCURRENT_BENCH_WORKERS = env_int("REPRO_BENCH_CONCURRENT_WORKERS", 4)
CONCURRENT_SCENARIO = get_scenario("bench").scaled(
    n_users=max(env_int("REPRO_BENCH_CONCURRENT_USERS", 150), 1),
    days=2,
    seed=BENCH_SEED,
)

#: One store (and pipeline) for the whole benchmark session: dataset
#: synthesis and emission records persist across runs.
_STORE = ArtifactStore.from_env()
_PIPELINE = Pipeline(_STORE)


def _load_module(name: str, path: Path):
    """Import a module by file path (seed baseline, test-side checker)."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def bench_scale():
    """The (n_users, days, seed) triple used across the suite."""
    return BENCH_USERS, BENCH_DAYS, BENCH_SEED


@pytest.fixture(scope="session")
def civ_dataset():
    """Session-cached synth-civ dataset at benchmark scale."""
    return _PIPELINE.dataset(
        "synth-civ", n_users=BENCH_USERS, days=BENCH_DAYS, seed=BENCH_SEED
    )


@pytest.fixture(scope="session")
def sen_dataset():
    """Session-cached synth-sen dataset at benchmark scale."""
    return _PIPELINE.dataset(
        "synth-sen", n_users=BENCH_USERS, days=BENCH_DAYS, seed=BENCH_SEED
    )


def _bench_record_key(name: str, scenario) -> str:
    """Artifact key of one emission record: scenario + sources.

    The source digest makes code edits (anywhere in ``repro``, the
    preserved seed path, or this harness itself — a new measured field
    must re-measure, not be served from a record that lacks it)
    invalidate the cached measurement, so BENCH numbers always
    describe the checked-out implementation (DESIGN.md D6).
    """
    return canonical_key(
        "bench",
        {
            "record": name,
            "scenario": scenario.key_params(),
            "sources": source_digest(
                "repro", str(_SEED_PATH_FILE), str(Path(__file__).resolve())
            ),
        },
    )


#: Timed runs behind each spread (min/median/max) record.
SPREAD_RUNS = 3


def _spread(times) -> dict:
    """The min/median/max of a row's timed runs, in seconds."""
    return {
        "runs": len(times),
        "min_s": round(min(times), 3),
        "median_s": round(statistics.median(times), 3),
        "max_s": round(max(times), 3),
    }


def _run_glove_bench() -> dict:
    """Time a seeded GLOVE run on the baseline and on every backend.

    The ``compiled`` row repeats its run :data:`SPREAD_RUNS` times and
    records the spread, ``wall_s`` being its median; every other row
    times one run.
    """
    import numpy as np

    from repro.core.config import ComputeConfig, GloveConfig
    from repro.core.glove import glove

    seed_path = _load_module("benchmarks_seed_path", _SEED_PATH_FILE)
    seed_glove = seed_path.seed_glove

    dataset = GLOVE_SCENARIO.synthesize(_PIPELINE)
    config = GloveConfig(k=GLOVE_SCENARIO.k)

    def digest(result):
        return (
            result.stats.n_merges,
            len(result.dataset),
            sum(float(fp.data.sum()) for fp in result.dataset),
        )

    t0 = time.time()
    baseline = seed_glove(dataset, config)
    seed_s = time.time() - t0
    reference = digest(baseline)

    record = {
        "n_fingerprints": len(dataset),
        "days": GLOVE_SCENARIO.days,
        "seed": GLOVE_SCENARIO.seed,
        "k": config.k,
        # Timed rows read against the CPUs they ran on.
        "host_cpus": os.cpu_count(),
        "seed_path_s": round(seed_s, 3),
        "seed_path_exact_evaluations": baseline.stats.n_exact_evaluations,
        "backends": {},
    }
    compute_by_backend = {
        "numpy": ComputeConfig(backend="numpy"),
    }
    # The compiled tier rides the same identity harness: acceptance is
    # bitwise equality with the seed path, same as the numpy reference.
    from repro.core import kernels

    record["kernel_tier"] = kernels.COMPILED_TIER
    if kernels.COMPILED_AVAILABLE:
        compute_by_backend["compiled"] = ComputeConfig(backend="compiled")
    for backend, compute in compute_by_backend.items():
        times = []
        for _ in range(SPREAD_RUNS if backend == "compiled" else 1):
            t0 = time.time()
            result = glove(dataset, config, compute)
            times.append(time.time() - t0)
        elapsed = statistics.median(times)
        consistent = digest(result) == reference and all(
            a.members == b.members and np.array_equal(a.data, b.data)
            for a, b in zip(result.dataset, baseline.dataset)
        )
        stats = result.stats
        record["backends"][backend] = {
            "wall_s": round(elapsed, 3),
            "speedup_vs_seed_path": round(seed_s / elapsed, 2) if elapsed > 0 else None,
            "exact_evaluations": stats.n_exact_evaluations,
            "pruned_evaluations": stats.n_pruned_evaluations,
            "bound_pruned": stats.n_bound_pruned,
            "lb1_evaluations": stats.n_lb1_evaluations,
            "exact_memo_hits": stats.n_exact_memo_hits,
            "lb1_memo_hits": stats.n_lb1_memo_hits,
            "boundary_crossings": stats.n_boundary_crossings,
            "probe_dispatches": stats.n_probe_dispatches,
            "batched_probes": stats.n_batched_probes,
            "probes_per_crossing": round(
                stats.n_probe_dispatches / max(stats.n_boundary_crossings, 1), 1
            ),
            "identical_to_seed_path": consistent,
        }
        if len(times) > 1:
            record["backends"][backend]["spread"] = _spread(times)

    # The sharded tier on the same scenario: output is k-anonymous but
    # not byte-identical at shards > 1 (grouping is shard-local), so the
    # row records the anonymity audit instead of the identity check.
    t0 = time.time()
    sharded = glove(dataset, config, ComputeConfig(backend="sharded", shards=4))
    elapsed = time.time() - t0
    record["backends"]["sharded"] = {
        "wall_s": round(elapsed, 3),
        "shards_used": sharded.stats.shards_used,
        "boundary_repaired": sharded.stats.boundary_repaired,
        "speedup_vs_seed_path": round(seed_s / elapsed, 2) if elapsed > 0 else None,
        "exact_evaluations": sharded.stats.n_exact_evaluations,
        "pruned_evaluations": sharded.stats.n_pruned_evaluations,
        "bound_pruned": sharded.stats.n_bound_pruned,
        "lb1_evaluations": sharded.stats.n_lb1_evaluations,
        "exact_memo_hits": sharded.stats.n_exact_memo_hits,
        "lb1_memo_hits": sharded.stats.n_lb1_memo_hits,
        "boundary_crossings": sharded.stats.n_boundary_crossings,
        "probe_dispatches": sharded.stats.n_probe_dispatches,
        "batched_probes": sharded.stats.n_batched_probes,
        "k_anonymous": sharded.dataset.is_k_anonymous(config.k),
        "covers_all_users": sharded.dataset.n_users == dataset.n_users,
    }
    return record


def _run_kernel_bench() -> dict:
    """Per-call dispatch cost of the stretch kernels, numpy vs compiled.

    Times ``one_vs_all`` at a small and a large target count on the
    glove-500 population — the dispatch-overhead claim behind Issue 6:
    the greedy loop issues thousands of tiny calls, where the NumPy
    kernel's per-call fixed cost dominates the arithmetic.
    Also cross-checks that every timed call is bitwise equal across the
    tiers, so the microbenchmark doubles as a parity probe.
    """
    import numpy as np

    from repro.core import kernels
    from repro.core.config import ComputeConfig, StretchConfig
    from repro.core.engine import CompiledBackend, NumpyBackend
    from repro.core.pairwise import PaddedFingerprints

    dataset = GLOVE_SCENARIO.synthesize(_PIPELINE)
    fps = list(dataset)
    packed = PaddedFingerprints(fps)
    compute, stretch = ComputeConfig(backend="numpy"), StretchConfig()
    probe = fps[0]

    backends = {"numpy": NumpyBackend(compute, stretch)}
    if kernels.COMPILED_AVAILABLE:
        backends["compiled"] = CompiledBackend(compute, stretch)

    n = len(fps)
    target_sets = {
        "small": np.arange(1, min(5, n), dtype=np.int64),
        "large": np.arange(1, n, dtype=np.int64),
    }
    calls_by_size = {"small": 400, "large": 20}
    record = {
        "n_fingerprints": n,
        "m_max": int(packed.data.shape[1]),
        "kernel_tier": kernels.COMPILED_TIER,
        "target_counts": {size: int(t.size) for size, t in target_sets.items()},
        "backends": {},
    }
    reference = {
        size: backends["numpy"].one_vs_all(probe.data, probe.count, packed, targets)
        for size, targets in target_sets.items()
    }
    for name, backend in backends.items():
        row = {}
        for size, targets in target_sets.items():
            calls = calls_by_size[size]
            out = backend.one_vs_all(probe.data, probe.count, packed, targets)  # warm-up
            t0 = time.perf_counter()
            for _ in range(calls):
                out = backend.one_vs_all(probe.data, probe.count, packed, targets)
            elapsed = time.perf_counter() - t0
            per_call = elapsed / calls
            row[size] = {
                "per_call_us": round(per_call * 1e6, 1),
                "per_pair_us": round(per_call / targets.size * 1e6, 2),
                "calls": calls,
                "identical_to_numpy": bool(np.array_equal(out, reference[size])),
            }
        record["backends"][name] = row
    if "compiled" in record["backends"]:
        record["dispatch_speedup_small"] = round(
            record["backends"]["numpy"]["small"]["per_call_us"]
            / record["backends"]["compiled"]["small"]["per_call_us"],
            2,
        )
        compiled = backends["compiled"]

        # The fused bounded row entry across the prune-rate spectrum
        # (Issue 10): per-probe dispatch cost when the in-kernel bound
        # never fires (~0%), fires on about half the pairs (~50%), and
        # at the natural rate of this population (~90%).  The 0%/50%
        # rows run against widened hull summaries (plus -inf thresholds
        # on half the probes for the 50% anchor) — a timing instrument
        # only — so parity is judged on the evaluated positions, which
        # always run the exact kernel faithfully.
        from repro.core.engine import StretchEngine

        with StretchEngine(
            fps, stretch=stretch, compute=ComputeConfig(backend="compiled")
        ) as engine:
            store = engine.store
            probe_slots = np.arange(8, dtype=np.int64)
            bd_targets = np.arange(8, store.size, dtype=np.int64)
            t_lists = [bd_targets] * probe_slots.size
            rev = [np.zeros(bd_targets.size, dtype=bool)] * probe_slots.size
            best_vals = np.full(store.capacity, np.inf)
            ref_rows = [engine.row(int(p), bd_targets) for p in probe_slots]

            hull, bhull, bocc = engine._hull, engine._bucket_hull, engine._bucket_occ
            # ~0%: every slot summarized by the global envelope — all
            # hull gaps are zero, so the bound can never beat a best.
            wide_hull = np.empty_like(hull)
            wide_bhull = bhull.copy()
            for lo, hi in ((0, 1), (2, 3), (4, 5)):
                wide_hull[lo] = hull[lo].min()
                wide_hull[hi] = hull[hi].max()
                wide_bhull[..., lo] = hull[lo].min()
                wide_bhull[..., hi] = hull[hi].max()
            # ~50%: wide hulls again (no bound ever fires on its own)
            # but every other probe's threshold pinned to -inf, so its
            # whole row prunes — exactly half the pairs, without the
            # running-best feedback that drags a displaced-hull mix to
            # ~100%.
            open_tau = np.full(probe_slots.size, np.inf)
            half_tau = open_tau.copy()
            half_tau[1::2] = -np.inf
            # Memo-less bindings, so each timed repeat runs the kernels:
            # the engine's own Resident would recall repeats 2-30 from
            # its pair memo (DESIGN.md D13).
            def bind(hull, bhull):
                return kernels.Resident(store, hull, bhull, bocc, engine._bucket_edges)

            settings = {
                "prune_0": (bind(wide_hull, wide_bhull), open_tau),
                "prune_50": (bind(wide_hull, wide_bhull), half_tau),
                "natural": (bind(hull, bhull), open_tau),
            }
            bounded = {}
            for key, (bounds, thresholds) in settings.items():
                rows, pruned = compiled.bounded_many_vs_some(
                    probe_slots, store, bounds, t_lists, thresholds, rev, best_vals
                )
                total = bd_targets.size * probe_slots.size
                parity = all(
                    bool(np.array_equal(row[row < np.inf], ref_rows[p][row < np.inf]))
                    for p, row in enumerate(rows)
                )
                calls = 30
                t0 = time.perf_counter()
                for _ in range(calls):
                    compiled.bounded_many_vs_some(
                        probe_slots, store, bounds, t_lists, thresholds, rev, best_vals
                    )
                elapsed = time.perf_counter() - t0
                bounded[key] = {
                    "per_probe_us": round(elapsed / calls / probe_slots.size * 1e6, 2),
                    "prune_rate": round(float(pruned.sum()) / total, 3),
                    "parity_at_evaluated": parity,
                }
            record["bounded_dispatch"] = bounded

    return record


def _run_shard_bench() -> dict:
    """Sharded GLOVE on a 10k+-fingerprint population, audited for
    k-anonymity with the reusable test-harness checker.

    The run repeats :data:`SPREAD_RUNS` times: the first is audited and
    counted, and ``wall_s`` is the median of all of them, recorded with
    their ``spread``.
    """
    from repro.core import kernels
    from repro.core.config import ComputeConfig, GloveConfig
    from repro.core.glove import glove

    harness = _load_module(
        "tests_properties_k_anonymity",
        _REPO_ROOT / "tests" / "properties" / "test_k_anonymity.py",
    )
    dataset = SHARD_SCENARIO.synthesize(_PIPELINE)
    config = GloveConfig(k=SHARD_SCENARIO.k)
    compute = ComputeConfig(backend="sharded")
    t0 = time.time()
    result = glove(dataset, config, compute)
    times = [time.time() - t0]
    for _ in range(SPREAD_RUNS - 1):
        t0 = time.time()
        glove(dataset, config, compute)
        times.append(time.time() - t0)
    # Record the *computed* audit results: a raise here would leave the
    # previous (green) BENCH_glove.json on disk, hiding the regression.
    try:
        harness.assert_k_anonymous(result.dataset, config.k)
        k_anonymous = True
    except AssertionError:
        k_anonymous = False
    # Coverage is judged independently of the group-size audit so the
    # record attributes a regression to the right invariant.
    covered = {member for fp in result.dataset for member in fp.members}
    stats = result.stats
    return {
        "n_fingerprints": len(dataset),
        "n_users": SHARD_SCENARIO.n_users,
        "days": SHARD_SCENARIO.days,
        "seed": SHARD_SCENARIO.seed,
        "k": config.k,
        "host_cpus": os.cpu_count(),
        "backend": "sharded",
        "shards_used": stats.shards_used,
        "shard_strategy": compute.shard_strategy,
        "boundary_repaired": stats.boundary_repaired,
        "wall_s": round(statistics.median(times), 3),
        "spread": _spread(times),
        "n_merges": stats.n_merges,
        "n_output_groups": len(result.dataset),
        "exact_evaluations": stats.n_exact_evaluations,
        "bound_pruned": stats.n_bound_pruned,
        "lb1_evaluations": stats.n_lb1_evaluations,
        "exact_memo_hits": stats.n_exact_memo_hits,
        "lb1_memo_hits": stats.n_lb1_memo_hits,
        "boundary_crossings": stats.n_boundary_crossings,
        "probe_dispatches": stats.n_probe_dispatches,
        "batched_probes": stats.n_batched_probes,
        "probes_per_crossing": round(
            stats.n_probe_dispatches / max(stats.n_boundary_crossings, 1), 1
        ),
        "k_anonymous": k_anonymous,
        "covers_all_users": covered == set(dataset.uids),
        "kernel_tier": kernels.COMPILED_TIER,
    }


def _run_ingest_bench() -> dict:
    """Ingest: the large-n population read back from an event CSV.

    ``read_s`` is the spread of :data:`SPREAD_RUNS` reads in this
    process, ``import_cli_s`` the median wall time of as many fresh
    ``python -c "import repro.cli"`` processes (interpreter start
    included), and ``scipy_loaded`` whether a fresh process holds a
    scipy module after importing the CLI and after reading the CSV.
    """
    import subprocess
    import sys
    import tempfile
    import textwrap

    from repro.cdr.io import read_events_csv, write_events_csv

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )

    def python(code: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        ).stdout

    dataset = SHARD_SCENARIO.synthesize(_PIPELINE)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "large_n.csv"
        rows = write_events_csv(dataset, path)
        reads = []
        for _ in range(SPREAD_RUNS):
            t0 = time.perf_counter()
            users = len(read_events_csv(path))
            reads.append(time.perf_counter() - t0)
        imports = []
        for _ in range(SPREAD_RUNS):
            t0 = time.perf_counter()
            python("import repro.cli")
            imports.append(time.perf_counter() - t0)
        after_import, after_read = python(textwrap.dedent(f"""
            import sys

            import repro.cli
            from repro.cdr.io import read_events_csv

            def scipy_loaded():
                return any(m.split(".")[0] == "scipy" for m in sys.modules)

            after_import = scipy_loaded()
            read_events_csv({str(path)!r})
            print(after_import, scipy_loaded())
        """)).split()
    return {
        "rows": rows,
        "users": users,
        "read_s": _spread(reads),
        "import_cli_s": round(statistics.median(imports), 3),
        "scipy_loaded": {
            "after_import": after_import == "True",
            "after_read": after_read == "True",
        },
        "host_cpus": os.cpu_count(),
    }


def _run_suite_bench() -> dict:
    """The repeated-suite scenario: cold vs warm through the pipeline.

    Runs the scenario's experiment suite twice against one fresh
    memo-only pipeline — the first pass computes every artifact, the
    second is served entirely from the store — and records the
    compute-once discipline: each (preset, n_users, days, seed) dataset
    synthesized exactly once, plus the cold/warm speedup.
    """
    import io

    from repro.experiments.runner import run_experiments

    pipeline = Pipeline(ArtifactStore(root=None))
    sc = SUITE_SCENARIO

    def one_pass() -> float:
        t0 = time.time()
        run_experiments(
            list(sc.experiments),
            n_users=sc.n_users,
            days=sc.days,
            seed=sc.seed,
            stream=io.StringIO(),
            pipeline=pipeline,
        )
        return time.time() - t0

    cold_s = one_pass()
    warm_s = one_pass()
    dataset_stats = pipeline.stats["dataset"]
    glove_stats = pipeline.stats["glove"]
    return {
        "experiments": list(sc.experiments),
        "preset": sc.preset,
        "n_users": sc.n_users,
        "days": sc.days,
        "seed": sc.seed,
        "cold_s": round(cold_s, 3),
        "warm_s": round(warm_s, 3),
        "speedup_warm_vs_cold": round(cold_s / warm_s, 2) if warm_s > 0 else None,
        "datasets_computed": dataset_stats.computed,
        "datasets_unique": len(dataset_stats.computed_labels),
        "synthesized_each_once": all(
            count == 1 for count in dataset_stats.computed_labels.values()
        ),
        "glove_runs_computed": glove_stats.computed,
        "glove_requests": glove_stats.requests,
    }


def _run_stream_bench() -> dict:
    """Throughput of the streaming tier on the stream-500 scenario.

    Replays the scenario's dataset as an event feed, anonymizes it
    window by window with carry-over, audits every emitted window with
    the reusable k-anonymity checker, and records the serving metrics:
    events per second and per-window latency quantiles.
    """
    from repro.core.config import GloveConfig
    from repro.stream.driver import stream_glove

    harness = _load_module(
        "tests_properties_k_anonymity",
        _REPO_ROOT / "tests" / "properties" / "test_k_anonymity.py",
    )
    dataset = STREAM_SCENARIO.synthesize(_PIPELINE)
    config = GloveConfig(k=STREAM_SCENARIO.k)
    stream_cfg = STREAM_SCENARIO.stream_config()
    result = stream_glove(dataset, config, stream_cfg)
    k_anonymous = True
    try:
        for window in result.emitted:
            harness.assert_k_anonymous(window.dataset, config.k)
    except AssertionError:
        k_anonymous = False
    published = {m for w in result.emitted for fp in w.dataset for m in fp.members}
    stats = result.stats
    return {
        "n_fingerprints": len(dataset),
        "days": STREAM_SCENARIO.days,
        "seed": STREAM_SCENARIO.seed,
        "k": config.k,
        "window_min": stream_cfg.window_min,
        "slide_min": stream_cfg.slide,
        "max_lag_min": stream_cfg.max_lag_min,
        "carry_over": stream_cfg.carry_over,
        "n_events": stats.n_events,
        "n_windows": stats.n_windows,
        "n_deferred_windows": stats.n_deferred_windows,
        "n_groups": stats.n_groups,
        "max_carried_members": stats.max_carried_members,
        "wall_s": round(stats.wall_s, 3),
        "events_per_sec": round(stats.events_per_sec, 1),
        "latency_p50_ms": round(stats.latency_p50_s * 1000.0, 1),
        "latency_p95_ms": round(stats.latency_p95_s * 1000.0, 1),
        "every_window_k_anonymous": k_anonymous,
        "covers_all_users": published == set(dataset.uids),
    }


def _run_baselines_bench() -> dict:
    """Table-2-style head-to-head of every registered anonymizer.

    Runs each method of the :mod:`repro.core.anonymizer` registry at
    its Table-2 settings on the baselines-smoke scenario, recording
    wall-clock, the normalized provenance schema, and a group-size
    audit over the method's anonymity groups.
    """
    from repro.core.anonymizer import anonymize_dataset, available_anonymizers
    from repro.experiments.table2 import method_config

    dataset = BASELINES_SCENARIO.synthesize(_PIPELINE)
    k = BASELINES_SCENARIO.k
    record = {
        "n_fingerprints": len(dataset),
        "days": BASELINES_SCENARIO.days,
        "seed": BASELINES_SCENARIO.seed,
        "k": k,
        "methods": {},
    }
    for method in available_anonymizers():
        t0 = time.time()
        result = anonymize_dataset(dataset, method, method_config(method, k))
        stats = result.stats  # normalization counts toward the method's cost
        elapsed = time.time() - t0
        record["methods"][method] = {
            "wall_s": round(elapsed, 3),
            "discarded_fingerprints": stats.discarded_fingerprints,
            "created_fraction": round(stats.created_fraction, 4),
            "deleted_fraction": round(stats.deleted_fraction, 4),
            "mean_position_error_m": round(stats.mean_position_error_m, 1),
            "mean_time_error_min": round(stats.mean_time_error_min, 1),
            "groups_all_k_anonymous": all(len(g) >= k for g in result.groups),
        }
    return record


def _cache_concurrent_worker(store_dir, scenario, barrier, out_q):
    """One contender of the cache_concurrent record (forked process)."""
    from repro.core.artifacts import ArtifactStore, dataset_digest

    pipeline = Pipeline(ArtifactStore(root=store_dir))
    barrier.wait()  # maximize contention: everyone requests at once
    dataset = scenario.synthesize(pipeline)
    out_q.put((pipeline.stats["dataset"].computed, dataset_digest(dataset)))


def _run_cache_concurrent_bench() -> dict:
    """Single-flight dedup under real multi-process contention.

    M worker processes, each with its own store over one shared root,
    simultaneously request the same cold scenario dataset.  The seed
    store (per-process memo over an unlocked LRU) computed it M times;
    with single-flight locking exactly one worker computes and the
    rest are served the stored bytes.
    """
    import multiprocessing as mp
    import shutil
    import tempfile

    if "fork" not in mp.get_all_start_methods():
        return {"skipped": "no fork start method on this host"}
    ctx = mp.get_context("fork")
    workers = CONCURRENT_BENCH_WORKERS
    record = {
        "n_users": CONCURRENT_SCENARIO.n_users,
        "days": CONCURRENT_SCENARIO.days,
        "seed": CONCURRENT_SCENARIO.seed,
        "workers": workers,
        # What the pre-single-flight store did on this workload: every
        # worker missed and computed, so duplicate work scaled with M.
        "seed_duplicate_computes": workers,
    }
    store_dir = tempfile.mkdtemp(prefix="repro-conc-")
    try:
        barrier = ctx.Barrier(workers, timeout=120)
        out_q = ctx.Queue()
        procs = [
            ctx.Process(
                target=_cache_concurrent_worker,
                args=(store_dir, CONCURRENT_SCENARIO, barrier, out_q),
            )
            for _ in range(workers)
        ]
        t0 = time.time()
        for p in procs:
            p.start()
        outs = [out_q.get(timeout=600) for _ in procs]
        for p in procs:
            p.join(timeout=60)
        elapsed = time.time() - t0
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    computes = sum(c for c, _ in outs)
    record.update(
        wall_s=round(elapsed, 3),
        computes=computes,
        exactly_one_compute=computes == 1,
        byte_identical_results=len({d for _, d in outs}) == 1,
        # 1 means no duplicated work; the seed behavior is `workers`
        # (everyone recomputed the same artifact).
        duplicate_work_factor=computes,
    )
    return record


def _run_metrics_overhead_bench() -> dict:
    """The always-on-cheap guard behind the D12 instrumentation.

    Times the glove-500 run and the stream-500 replay in two modes: the
    process registry at its disabled default (every instrument is the
    shared null object) and a live registry installed.  The modes are
    interleaved round-by-round so machine-load drift hits both equally,
    and min-of-N per mode tames scheduler noise; the record stores the
    overhead fraction against the 5% budget, plus the timing-free
    invariant that the instrumented runs' dispatch counters match the
    uninstrumented baselines exactly.
    """
    from repro.core.config import GloveConfig
    from repro.core.glove import glove
    from repro.obs import MetricsRegistry, set_metrics
    from repro.stream.driver import stream_glove

    glove_dataset = GLOVE_SCENARIO.synthesize(_PIPELINE)
    stream_dataset = STREAM_SCENARIO.synthesize(_PIPELINE)
    stream_cfg = STREAM_SCENARIO.stream_config()

    def counters(result):
        stats = result.stats
        return (
            stats.n_merges,
            stats.n_boundary_crossings,
            stats.n_probe_dispatches,
            stats.n_batched_probes,
        )

    def one_run(fn, registry):
        previous = set_metrics(registry)
        try:
            t0 = time.perf_counter()
            result = fn()
            return time.perf_counter() - t0, result
        finally:
            set_metrics(previous)

    repeats = 5
    budget = 0.05
    record = {"budget_fraction": budget, "runs_per_mode": repeats, "workloads": {}}
    workloads = {
        "glove": (
            len(glove_dataset),
            lambda: glove(glove_dataset, GloveConfig(k=GLOVE_SCENARIO.k)),
        ),
        "stream": (
            len(stream_dataset),
            lambda: stream_glove(
                stream_dataset, GloveConfig(k=STREAM_SCENARIO.k), stream_cfg
            ),
        ),
    }
    for name, (n, fn) in workloads.items():
        fn()  # warm-up: first call pays any lazy import/JIT cost
        registry = MetricsRegistry(enabled=True)
        base_s = inst_s = None
        baseline = instrumented = None
        for _ in range(repeats):
            elapsed, baseline = one_run(fn, registry=None)
            base_s = elapsed if base_s is None else min(base_s, elapsed)
            elapsed, instrumented = one_run(fn, registry=registry)
            inst_s = elapsed if inst_s is None else min(inst_s, elapsed)
        overhead = (inst_s - base_s) / base_s if base_s > 0 else 0.0
        record["workloads"][name] = {
            "n_fingerprints": n,
            "uninstrumented_s": round(base_s, 4),
            "instrumented_s": round(inst_s, 4),
            "overhead_fraction": round(overhead, 4),
            "overhead_ok": overhead < budget,
            "counters_match_baseline": counters(instrumented) == counters(baseline),
        }
    record["overhead_ok"] = all(
        row["overhead_ok"] for row in record["workloads"].values()
    )
    return record


#: Minimum tests in the session before the timed benchmark runs, so a
#: deselected one-test run doesn't pay the multi-run glove() price.
_GLOVE_BENCH_MIN_TESTS = 50


def pytest_sessionfinish(session, exitstatus):
    """Emit BENCH_glove.json after a green full session.

    Skipped on failures, on ``--collect-only``, on heavily deselected
    runs (fewer than ``_GLOVE_BENCH_MIN_TESTS`` tests), or when
    ``REPRO_BENCH_GLOVE=0``.  Each record is fetched through the
    artifact store: with unchanged sources and scenarios the emission
    costs one cache lookup instead of a multi-run ``glove()`` session.
    """
    if os.environ.get("REPRO_BENCH_GLOVE", "1") == "0":
        return
    if exitstatus != 0:
        return
    if session.config.getoption("collectonly", False):
        return
    if session.testscollected < _GLOVE_BENCH_MIN_TESTS:
        return
    record, glove_origin = _STORE.fetch(
        "bench", _bench_record_key("glove", GLOVE_SCENARIO), _run_glove_bench
    )
    origins = {glove_origin}
    from repro.core import kernels as _kernels

    # Keyed on the resolved kernel tier so gaining or losing the cc
    # binding (a system compiler) forces a re-measure.
    record["kernel"], origin = _STORE.fetch(
        "bench",
        _bench_record_key(f"kernel[{_kernels.COMPILED_TIER}]", GLOVE_SCENARIO),
        _run_kernel_bench,
    )
    origins.add(origin)
    if SHARD_BENCH_USERS > 0:
        # Tier-keyed like the kernel row: the timings and dispatch
        # counters describe the resolved compiled tier.
        record["large_n"], origin = _STORE.fetch(
            "bench",
            _bench_record_key(f"large_n[{_kernels.COMPILED_TIER}]", SHARD_SCENARIO),
            _run_shard_bench,
        )
        origins.add(origin)
        record["ingest"], origin = _STORE.fetch(
            "bench", _bench_record_key("ingest", SHARD_SCENARIO), _run_ingest_bench
        )
        origins.add(origin)
    if SUITE_BENCH_USERS > 0:
        record["suite_cached"], origin = _STORE.fetch(
            "bench", _bench_record_key("suite_cached", SUITE_SCENARIO), _run_suite_bench
        )
        origins.add(origin)
    if STREAM_BENCH_USERS > 0:
        record["stream"], origin = _STORE.fetch(
            "bench", _bench_record_key("stream", STREAM_SCENARIO), _run_stream_bench
        )
        origins.add(origin)
    if BASELINES_BENCH_USERS > 0:
        record["baselines"], origin = _STORE.fetch(
            "bench",
            _bench_record_key("baselines", BASELINES_SCENARIO),
            _run_baselines_bench,
        )
        origins.add(origin)
    if CONCURRENT_BENCH_WORKERS > 0:
        record["cache_concurrent"], origin = _STORE.fetch(
            "bench",
            _bench_record_key(
                f"cache_concurrent[{CONCURRENT_BENCH_WORKERS}]", CONCURRENT_SCENARIO
            ),
            _run_cache_concurrent_bench,
        )
        origins.add(origin)
    if METRICS_BENCH > 0:
        # Keyed on both workload scenarios (and the kernel tier, via the
        # resolved "auto" backend) so either scale knob re-measures.
        record["metrics_overhead"], origin = _STORE.fetch(
            "bench",
            canonical_key(
                "bench",
                {
                    "record": f"metrics_overhead[{_kernels.COMPILED_TIER}]",
                    "scenario": GLOVE_SCENARIO.key_params(),
                    "stream_scenario": STREAM_SCENARIO.key_params(),
                    "sources": source_digest(
                        "repro", str(_SEED_PATH_FILE), str(Path(__file__).resolve())
                    ),
                },
            ),
            _run_metrics_overhead_bench,
        )
        origins.add(origin)
    GLOVE_BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        numpy_speedup = record["backends"]["numpy"]["speedup_vs_seed_path"]
        line = (
            f"[BENCH_glove] n={record['n_fingerprints']} seed-path "
            f"{record['seed_path_s']}s, numpy backend x{numpy_speedup}"
        )
        if record.get("kernel", {}).get("dispatch_speedup_small") is not None:
            kern = record["kernel"]
            line += (
                f"; kernel dispatch x{kern['dispatch_speedup_small']} "
                f"({kern['kernel_tier']} tier)"
            )
        if "large_n" in record:
            big = record["large_n"]
            audit = "k-anonymous" if big["k_anonymous"] else "K-ANONYMITY VIOLATED"
            line += (
                f"; sharded n={big['n_fingerprints']} in {big['wall_s']}s "
                f"({big['shards_used']} shards, {audit})"
            )
        if "ingest" in record:
            ingest = record["ingest"]
            line += (
                f"; ingest {ingest['rows']:,} rows in "
                f"{ingest['read_s']['median_s']}s"
            )
        if "suite_cached" in record:
            suite = record["suite_cached"]
            line += (
                f"; suite warm x{suite['speedup_warm_vs_cold']} "
                f"({suite['datasets_computed']} datasets synthesized)"
            )
        if "baselines" in record:
            base = record["baselines"]
            glove_ok = base["methods"].get("glove", {}).get("groups_all_k_anonymous")
            audit = "glove k-anonymous" if glove_ok else "GLOVE AUDIT FAILED"
            line += (
                f"; baselines n={base['n_fingerprints']} "
                f"x{len(base['methods'])} methods ({audit})"
            )
        if "cache_concurrent" in record and "computes" in record["cache_concurrent"]:
            conc = record["cache_concurrent"]
            audit = "1 compute" if conc["exactly_one_compute"] else "DUPLICATE COMPUTES"
            line += (
                f"; cache_concurrent {conc['workers']} workers "
                f"{conc['wall_s']}s ({audit})"
            )
        if "stream" in record:
            stream = record["stream"]
            audit = (
                "k-anonymous"
                if stream["every_window_k_anonymous"]
                else "K-ANONYMITY VIOLATED"
            )
            line += (
                f"; stream {stream['events_per_sec']:,.0f} ev/s over "
                f"{stream['n_windows']} windows (p95 "
                f"{stream['latency_p95_ms']}ms, {audit})"
            )
        if "metrics_overhead" in record:
            rows = record["metrics_overhead"]["workloads"]
            audit = (
                "<5% OK" if record["metrics_overhead"]["overhead_ok"] else "OVER BUDGET"
            )
            line += "; metrics overhead " + " ".join(
                f"{name} {row['overhead_fraction']:+.1%}"
                for name, row in sorted(rows.items())
            ) + f" ({audit})"
        if origins != {"computed"}:
            line += " [records served from artifact store]"
        reporter.write_line(line + f" -> {GLOVE_BENCH_PATH.name}")
