"""The measured program: one benchmark workload against the public API of ``repro``.

``run.py`` starts it on an input CSV.  It sets up (imports ``repro``,
reads the CSV), runs one untimed warm-up operation, then runs
operations back to back, one at a time, for the requested number of
seconds, checking every output.  Its last stdout line is one JSON
object with the attempt counts and the metrics.

    python3 perfbench/workload.py --workload stream-3h --input in.csv \
        --seconds 12 --trace 0 --t-launch "$(date +%s.%N)"

``--setup-only`` stops once set-up is done and reports only its time.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional

REPO = Path(__file__).resolve().parent.parent
K_ANONYMITY_HARNESS = REPO / "tests" / "properties" / "test_k_anonymity.py"
K = 2

#: Largest share by which a traced operation's self times may miss its
#: wall time.  Nested spans on one thread sum to the root span, which is
#: within microseconds of the wall time; spans that overlap (a traced
#: call on another thread) or escape the root span break the sum.
RECONCILE_TOL = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``populations`` independent inputs of one run are used in turn, where
    one population's heaviest users would otherwise set the whole run's
    time.  ``warmup_fps`` warms up on a prefix of the first population
    instead of the whole of it, where a full operation would cost more
    than the timed runs it precedes.  ``reference_backend`` names a
    second tier whose output on the same input must match byte for byte.
    """

    population: str
    backend: str
    stream: bool = False
    populations: int = 1
    warmup_fps: Optional[int] = None
    reference_backend: Optional[str] = None
    min_windows: int = 0


WORKLOADS = {
    # City-scale publisher job: 10,463 fingerprints in 14 time shards.
    # Bounded kernels and merge dominate, so their optimisations show here.
    "sharded-10k": Workload("civ-10500", "sharded", warmup_fps=1536),
    # 498 users replayed through 180-min tumbling windows: many small
    # engines, so per-window fixed costs (engine set-up, windowing) show.
    # 100 windows put ten samples beyond the 90th percentile.
    "stream-3h": Workload("civ-500", "compiled", stream=True, min_windows=100),
    # The only workload on the Python-side pruned walk and NumPy kernels;
    # merge is a few percent here, so a merge change should not move it.
    # The NumPy kernels pad every pair to the longest fingerprint, so
    # one heavy user sets a population's time: three populations a run.
    "glove-500-numpy": Workload("civ-500", "numpy", populations=3,
                                reference_backend="compiled"),
}

#: Every ComputeConfig knob, pinned so that no environment variable
#: (REPRO_KERNEL_THREADS, the CPU count behind workers=None) changes
#: what is measured.  Knobs a later revision drops are skipped.
PINNED_COMPUTE = dict(
    chunk=256,
    workers=1,
    shards=None,
    shard_strategy="time",
    pruning=True,
    lb_bucket_minutes=360.0,
    lb_max_buckets=48,
    parallel_matrix_threshold=192,
    parallel_targets_threshold=4096,
    kernel_threads=1,
)


class CheckFailed(Exception):
    """An operation's output broke an invariant."""


@dataclasses.dataclass
class OpOutcome:
    """What one checked operation left behind."""

    seconds: float
    digest: str
    counters: dict
    window_ms: List[float]
    published: list


def compute_config(backend: str):
    from repro.core import ComputeConfig

    fields = {f.name for f in dataclasses.fields(ComputeConfig)}
    unpinned = fields - set(PINNED_COMPUTE) - {"backend"}
    if unpinned:
        print(f"warning: ComputeConfig knobs left at default: {sorted(unpinned)}",
              file=sys.stderr)
    kwargs = {k: v for k, v in PINNED_COMPUTE.items() if k in fields}
    return ComputeConfig(backend=backend, **kwargs)


def load_harness():
    spec = importlib.util.spec_from_file_location("k_anonymity", K_ANONYMITY_HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.assert_k_anonymous


def make_op(workload: Workload, backend: str) -> Callable:
    """The operation: one ``glove`` call or one full stream replay."""
    from repro.core import GloveConfig, glove
    from repro.stream import StreamConfig, stream_glove

    config = GloveConfig(k=K)
    compute = compute_config(backend)
    if workload.stream:
        windows = StreamConfig(
            window_min=180.0, slide_min=None, max_lag_min=30.0,
            carry_over=True, late_policy="redirect",
        )
        return lambda dataset: stream_glove(dataset, config, windows, compute)
    return lambda dataset: glove(dataset, config, compute)


def check(workload: Workload, dataset, result, seconds: float,
          assert_k_anonymous) -> OpOutcome:
    """Check an operation's output; returns its digest and counters.

    A batch result is one publication; a stream result publishes once
    per emitted window.
    """
    from repro.core import dataset_digest

    if workload.stream:
        published = [w.dataset for w in result.emitted]
    else:
        published = [result.dataset]
    covered = set()
    for window in published:
        try:
            covered |= assert_k_anonymous(window, K)
        except AssertionError as exc:
            raise CheckFailed(f"not {K}-anonymous: {exc}") from None
    if covered != set(dataset.uids):
        missing = len(set(dataset.uids) - covered)
        raise CheckFailed(f"{missing} input users unpublished, "
                          f"{len(covered - set(dataset.uids))} unknown")
    stats = result.stats
    if stats.n_merges <= 0:
        raise CheckFailed("no merge ran: the output was not computed")
    digest = hashlib.sha256()
    for window in published:
        digest.update(dataset_digest(window).encode())
    if workload.stream:
        glove_stats = [w.result.stats for w in result.emitted]
        counters = dict(
            exact=sum(s.n_exact_evaluations for s in glove_stats),
            pruned=sum(s.n_pruned_evaluations for s in glove_stats),
            repaired=0,
            events=stats.n_events,
            windows=stats.n_windows,
        )
        window_ms = [1000.0 * s for s in stats.window_wall_s]
    else:
        counters = dict(
            exact=stats.n_exact_evaluations,
            pruned=stats.n_pruned_evaluations,
            repaired=stats.boundary_repaired,
            events=0,
            windows=0,
        )
        window_ms = []
    counters.update(
        bound_pruned=stats.n_bound_pruned,
        probes=stats.n_probe_dispatches,
        crossings=stats.n_boundary_crossings,
        merges=stats.n_merges,
    )
    return OpOutcome(seconds, digest.hexdigest(), counters, window_ms, published)


def check_truthful(dataset, published) -> None:
    """Every original sample lies inside a published sample of its group."""
    import numpy as np
    from repro.core.merge import covers

    by_member = {}
    for window in published:
        for group in window:
            for member in group.members:
                by_member.setdefault(member, []).append(group.data)
    for fp in dataset:
        if not covers(np.vstack(by_member[fp.uid]), fp.data):
            raise CheckFailed(f"published groups of {fp.uid!r} do not cover its samples")


class Runner:
    """Runs and checks operations, counting attempts and failures.

    Operations take the input populations in turn.  The first operation
    on each population fixes the digest that every later one on it must
    reproduce.
    """

    def __init__(self, workload: Workload, datasets: list, op: Callable):
        self.workload = workload
        self.datasets = datasets
        self.op = op
        self.assert_k_anonymous = load_harness()
        self.attempted = 0
        self.failed = 0
        self.first: List[Optional[OpOutcome]] = [None] * len(datasets)

    def run(self, index: int = 0, call: Optional[Callable] = None,
            dataset=None) -> Optional[OpOutcome]:
        """One checked operation on population ``index``; ``None`` when it failed.

        A ``dataset`` given instead (a warm-up prefix) is checked for
        k-anonymity and coverage but not for the digest.
        """
        own = dataset is None
        dataset = self.datasets[index] if own else dataset
        call = self.op if call is None else call
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = call(dataset)
            seconds = time.perf_counter() - t0
            outcome = check(self.workload, dataset, result, seconds, self.assert_k_anonymous)
            if own:
                first = self.first[index]
                if first is None:
                    self.first[index] = outcome
                elif outcome.digest != first.digest:
                    raise CheckFailed("output differs from the run's first operation")
                else:
                    outcome.published = []
        except Exception as exc:  # every failure is counted, not raised
            self.failed += 1
            print(f"operation {self.attempted} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        return outcome

    def loop(self, seconds: float, min_windows: int = 0, call=None) -> List[OpOutcome]:
        """Closed loop with one client until ``seconds`` of operations ran.

        Ends on a whole number of rounds over the populations, so that
        each weighs the same in the median.
        """
        outcomes: List[OpOutcome] = []
        busy = 0.0
        windows = 0
        n = len(self.datasets)
        while not outcomes or len(outcomes) % n or busy < seconds or windows < min_windows:
            outcome = self.run(len(outcomes) % n, call)
            if outcome is None:
                break
            outcomes.append(outcome)
            busy += outcome.seconds
            windows += len(outcome.window_ms)
        return outcomes


def quantile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def end_to_end(runner: Runner, outcomes: List[OpOutcome]) -> dict:
    from repro.analysis.accuracy import extent_accuracy

    # Group uids may repeat across stream windows, so the groups are
    # passed as a plain sequence rather than one FingerprintDataset.
    groups = [group for first in runner.first for window in first.published
              for group in window]
    spatial, temporal = extent_accuracy(groups)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_s": (statistics.median(o.seconds for o in outcomes), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "spatial_m_p50": (spatial.median, "m"),
        "temporal_min_p50": (temporal.median, "min"),
    }


def per_layer(plain: List[OpOutcome], traced: List[OpOutcome], totals: dict):
    """Per-op layer self times, calls and counters; medians over traced ops.

    Also returns the number of traced operations whose self times do not
    add up to their wall time within :data:`RECONCILE_TOL`.
    """
    from tracer import LAYER_METRICS

    unreconciled = 0
    per_op = []
    for op_id, outcome in enumerate(traced):
        layers = totals.get(op_id, {})
        unknown = set(layers) - set(LAYER_METRICS)
        if unknown:
            raise CheckFailed(f"spans of unlisted layers: {sorted(unknown)}")
        row = {}
        for layer, (time_metric, calls_metric) in LAYER_METRICS.items():
            self_s, calls = layers.get(layer, (0.0, 0))
            row[time_metric] = (self_s, "s")
            if calls_metric is not None:
                row[calls_metric] = (calls, "count")
        reconcile = sum(s for s, _ in layers.values()) / outcome.seconds
        if abs(1.0 - reconcile) > RECONCILE_TOL:
            unreconciled += 1
            print(f"traced operation {op_id}: self times sum to {reconcile:.4f} "
                  "of its wall time", file=sys.stderr)
        c = outcome.counters
        row.update({
            "trace.reconcile_frac": (reconcile, "ratio"),
            "kernels.exact_evals": (c["exact"], "count"),
            "kernels.bound_pruned": (c["bound_pruned"], "count"),
            "kernels.prune_ratio": (c["pruned"] / max(1, c["pruned"] + c["exact"]), "ratio"),
            "kernels.probes_per_crossing": (c["probes"] / max(1, c["crossings"]),
                                            "probes/crossing"),
            "glove.merges": (c["merges"], "count"),
            "shard.repaired": (c["repaired"], "count"),
            "stream.events": (c["events"], "count"),
            "stream.windows": (c["windows"], "count"),
        })
        per_op.append(row)
    metrics = {name: (statistics.median(row[name][0] for row in per_op), unit)
               for name, (_, unit) in per_op[0].items()}
    metrics["io.read_s"] = (totals["setup"]["io.read"][0], "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(o.seconds for o in traced)
        / statistics.median(o.seconds for o in plain) - 1.0,
        "ratio",
    )
    # The stream's per-window latency, from the untraced replays.
    window_ms = [ms for o in plain for ms in o.window_ms]
    metrics["stream.window_ms_p50"] = (quantile(window_ms, 0.5) if window_ms else 0.0, "ms")
    metrics["stream.window_ms_p90"] = (quantile(window_ms, 0.9) if window_ms else 0.0, "ms")
    return metrics, unreconciled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--input", type=Path, nargs="+", required=True,
                        help="one event CSV per population")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t-launch", type=float, required=True,
                        help="wall-clock time (time.time()) the process was launched at")
    parser.add_argument("--spans", type=Path, help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    # Set-up: import repro (binds the kernel tier, builds it on a cold
    # cache) and read the input.
    import repro  # noqa: F401
    from repro.cdr import io as cdr_io

    tracer = None
    if args.trace:
        from tracer import ROOT, Tracer, layer_totals

        tracer = Tracer()
        for target in tracer.install():
            print(f"warning: not traced, the program has no {target}", file=sys.stderr)
        tracer.op = "setup"
    datasets = [cdr_io.read_events_csv(path) for path in args.input]
    setup_s = time.time() - args.t_launch
    if tracer is not None:
        tracer.op = None
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from repro.core import kernels

    tier = kernels.COMPILED_TIER
    print(f"kernel tier: {tier}", file=sys.stderr)
    if tier is None:
        print("error: no accelerated kernel tier is bound; the measured program "
              "would fall back to the pure-Python twins", file=sys.stderr)
        return 3

    runner = Runner(workload, datasets, make_op(workload, workload.backend))
    if workload.reference_backend is not None:
        # Computed first, so every timed operation must match it.
        reference = make_op(workload, workload.reference_backend)
        for index in range(len(datasets)):
            runner.run(index, reference)
    if workload.warmup_fps is not None:
        from repro.core import FingerprintDataset

        runner.run(dataset=FingerprintDataset(list(datasets[0])[: workload.warmup_fps]))
    else:
        runner.run()

    if tracer is None:
        outcomes = [] if runner.failed else runner.loop(args.seconds, workload.min_windows)
    elif not runner.failed:
        # Untraced then traced operations; their ratio is the overhead.
        plain = runner.loop(args.seconds / 2, workload.min_windows)
        op_ids = itertools.count()
        traced = runner.loop(
            args.seconds / 2,
            call=lambda ds: tracer.run(next(op_ids), ROOT, runner.op, ds),
        )
    if tracer is not None:
        tracer.uninstall()
    if not runner.failed:
        try:
            for dataset, first in zip(datasets, runner.first):
                check_truthful(dataset, first.published)
        except CheckFailed as exc:
            runner.failed += 1
            print(f"truthfulness check failed: {exc}", file=sys.stderr)

    metrics = {}
    if not runner.failed:
        if tracer is None:
            metrics = end_to_end(runner, outcomes)
            metrics["setup_s"] = (setup_s, "s")
        else:
            metrics, unreconciled = per_layer(plain, traced, layer_totals(tracer.spans))
            runner.failed += unreconciled
            if args.spans is not None:
                tracer.write(args.spans)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
