"""The ``glove`` command-line tool: anonymize CDR files end to end.

Subcommands (all operating on the CSV formats of :mod:`repro.cdr.io`):

* ``generate`` — synthesize a preset (or scenario) dataset into an
  event CSV;
* ``measure``  — anonymizability statistics (k-gap) of an event CSV;
* ``anonymize`` — anonymize a dataset into a publishable fingerprint
  CSV with GLOVE or any registered baseline (``--method glove|w4m-lc|
  nwa|generalization`` plus per-method options, see DESIGN.md D8);
* ``stream``   — replay a dataset as a timestamped event feed and
  anonymize it window by window (``--window/--slide/--carry-over/
  --max-lag``, see DESIGN.md D7);
* ``attack``   — mount record-linkage attacks against a publication,
  or anonymize-then-attack any registered method (``--method``);
* ``info``     — summarize any dataset file and name the bound kernel
  tier (or why none is bound).

Example session::

    glove generate synth-civ --users 150 --days 5 -o raw.csv
    glove measure raw.csv -k 2
    glove anonymize raw.csv -k 2 --suppress 15000 360 -o published.csv
    glove attack raw.csv published.csv -k 2

Large populations can be anonymized on the sharded tier
(``--backend sharded --shards 8``): shards are k-anonymized
concurrently and the shard boundaries repaired, see DESIGN.md D5.

``generate``, ``measure`` and ``anonymize`` request their expensive
stages (synthesis, k-gap matrices, GLOVE runs) through the
content-addressed artifact pipeline (:mod:`repro.core.pipeline`);
repeating a command on unchanged inputs is served from the persistent
store (``--no-cache`` recomputes, byte-identically).  The store is one
file per artifact under ``--artifact-dir`` (DESIGN.md D10): concurrent
``glove`` invocations requesting the same cold artifact compute it
exactly once under its single-flight file locks.  ``generate`` also
accepts registered scenario names (``glove generate smoke``).  A
malformed input CSV exits with status 2 and an ``error:`` line naming
the file (and the line of a bad row), never a traceback; so does an
out-of-range setting, with a line naming the setting.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.analysis.accuracy import extent_accuracy
from repro.analysis.gyration import gyration_summary
from repro.attacks.record_linkage import (
    uniqueness_given_random_points,
    uniqueness_given_top_locations,
)
from repro.cdr.datasets import PRESETS
from repro.cdr.io import (
    FINGERPRINT_HEADER,
    read_events_csv,
    read_fingerprints_csv,
    write_events_csv,
    write_fingerprints_csv,
)
from repro.core import kernels
from repro.core.anonymizer import available_anonymizers, get_anonymizer
from repro.core.engine import DISPATCH_COUNTERS
from repro.core.config import (
    GloveConfig,
    SuppressionConfig,
    add_compute_arguments,
    compute_config_from_args,
)
from repro.core.pipeline import add_pipeline_arguments, pipeline_from_args
from repro.core.scenarios import available_scenarios, get_scenario
from repro.obs import (
    MetricsRegistry,
    dump_json,
    export_otlp,
    get_metrics,
    render_table,
    set_metrics,
)
from repro.stream.windows import add_stream_arguments, stream_config_from_args


def _read_any(path: str):
    """Read an event or a fingerprint CSV, chosen by its header line.

    Malformed input (an unknown header, a bad row, a non-finite value,
    an empty file or one without rows) prints ``error:`` with the
    reader's ``<path>[:<line>]: <reason>`` and exits with status 2.
    """
    try:
        # Undecodable bytes are left for the reader, which names the file.
        with open(path, newline="", errors="replace") as f:
            header = next(csv.reader(f), None)
        read = read_fingerprints_csv if header == FINGERPRINT_HEADER else read_events_csv
        dataset = read(path)
        if len(dataset) == 0:
            raise ValueError(f"{path}: no rows")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    return dataset


def _require_at_least(args, minimums) -> None:
    """Exit 2 with an ``error:`` line for an integer flag below its minimum.

    ``minimums`` maps argument names to their least valid value; unset
    (``None``) flags are skipped.  Follows the ``_method_config_from_args``
    convention for settings that no config object checks up front.
    """
    for name, least in minimums.items():
        value = getattr(args, name)
        if value is not None and value < least:
            print(f"error: {name} must be at least {least}, got {value}", file=sys.stderr)
            raise SystemExit(2)


def _record_store_metrics(pipeline) -> None:
    """Gauge the artifact store's size into the registry (D12).

    The operation counters (hits/misses/puts/evictions/flights) stream
    in live from the backend template methods; only the measured size
    needs an end-of-run reading.
    """
    metrics = get_metrics()
    if not metrics.enabled:
        return
    backend = pipeline.store.backend
    if backend is None:
        return
    stats = backend.stats()
    metrics.gauge(f"artifact_backend.{backend.name}.artifacts").set(stats.artifacts)
    metrics.gauge(f"artifact_backend.{backend.name}.total_bytes").set(stats.total_bytes)


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------
def cmd_generate(args) -> int:
    _require_at_least(args, {"users": 1, "days": 1})
    if args.preset in PRESETS:
        preset, users, days, seed = args.preset, args.users, args.days, args.seed
    else:
        scenario = get_scenario(args.preset)
        preset = scenario.preset
        users = args.users if args.users is not None else scenario.n_users
        days = args.days if args.days is not None else scenario.days
        seed = args.seed if args.seed is not None else scenario.seed
    users = users if users is not None else 150
    days = days if days is not None else 5
    seed = seed if seed is not None else 0
    pipeline = pipeline_from_args(args)
    dataset = pipeline.dataset(preset, n_users=users, days=days, seed=seed)
    rows = write_events_csv(dataset, args.output)
    _record_store_metrics(pipeline)
    print(f"wrote {rows} events for {len(dataset)} users to {args.output}")
    return 0


def cmd_measure(args) -> int:
    _require_at_least(args, {"k": 2})
    dataset = _read_any(args.dataset)
    if len(dataset) < args.k:
        print(
            f"error: {args.dataset}: dataset has {len(dataset)} users, k={args.k}",
            file=sys.stderr,
        )
        return 2
    pipeline = pipeline_from_args(args)
    result = pipeline.kgap(dataset, k=args.k, compute=compute_config_from_args(args))
    _record_store_metrics(pipeline)
    print(f"dataset: {dataset}")
    print(f"{args.k}-gap: median={result.quantile(0.5):.4f} "
          f"p90={result.quantile(0.9):.4f} max={result.gaps.max():.4f}")
    print(f"already {args.k}-anonymous: {result.fraction_anonymous():.1%}")
    print(gyration_summary(dataset))
    return 0


def _glove_config_from_args(args) -> GloveConfig:
    """The GloveConfig of the shared -k/--suppress/--no-reshape flags."""
    suppression = SuppressionConfig()
    if getattr(args, "suppress", None):
        suppression = SuppressionConfig(
            spatial_threshold_m=args.suppress[0],
            temporal_threshold_min=args.suppress[1],
        )
    return GloveConfig(
        k=args.k, suppression=suppression, reshape=not getattr(args, "no_reshape", False)
    )


#: Which methods each per-method option flag applies to.
_METHOD_FLAGS = {
    "delta": ("w4m-lc", "nwa"),
    "trash": ("w4m-lc", "nwa"),
    "period": ("nwa",),
    "grid": ("generalization",),
    "suppress": ("glove",),
    "no_reshape": ("glove",),
}


def _method_config_from_args(args, method: str):
    """Build the chosen method's config from the per-method flags.

    Flags belonging to a different method, and invalid values (e.g. a
    non-positive ``--delta``), exit with status 2 and an ``error:``
    line — the ``--workers``/``--shards``/``--window`` convention.
    """
    for flag, methods in _METHOD_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None and value is not False and method not in methods:
            flag_txt = "--" + flag.replace("_", "-")
            print(
                f"error: {flag_txt} only applies to --method "
                f"{'/'.join(methods)}, not {method!r}",
                file=sys.stderr,
            )
            raise SystemExit(2)
    try:
        if method == "glove":
            return _glove_config_from_args(args)
        options = {}
        if getattr(args, "delta", None) is not None:
            options["delta_m"] = args.delta
        if getattr(args, "trash", None) is not None:
            options["trash_fraction"] = args.trash
        if getattr(args, "period", None) is not None:
            options["period_min"] = args.period
        if getattr(args, "grid", None) is not None:
            options["spatial_m"], options["temporal_min"] = args.grid
        return get_anonymizer(method).make_config(k=args.k, **options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def cmd_anonymize(args) -> int:
    dataset = _read_any(args.dataset)
    method = args.method
    config = _method_config_from_args(args, method)
    pipeline = pipeline_from_args(args)
    try:
        result = pipeline.anonymize(
            dataset, config, compute=compute_config_from_args(args), method=method
        )
    except ValueError as exc:
        # A population that cannot reach k.
        print(f"error: {args.dataset}: {exc}", file=sys.stderr)
        return 2
    anonymizer = get_anonymizer(method)
    if anonymizer.guarantees_k_anonymity and not result.dataset.is_k_anonymous(args.k):
        print("error: output failed the k-anonymity audit", file=sys.stderr)
        return 3
    rows = write_fingerprints_csv(result.dataset, args.output)
    _record_store_metrics(pipeline)
    if method == "glove":
        stats = result.raw.stats
        # Absolute writes so a run served from the artifact cache (no
        # live engine, no finalize_result increments) still reports
        # its dispatch counters; a live run is overwritten in place
        # with identical totals.
        metrics = get_metrics()
        for name in DISPATCH_COUNTERS:
            metrics.counter("engine." + name[2:]).set_to(getattr(stats, name))
        metrics.counter("glove.merges").set_to(stats.n_merges)
        spatial, temporal = extent_accuracy(result.dataset)
        print(
            f"anonymized {result.dataset.n_users} users into "
            f"{len(result.dataset)} groups ({stats.n_merges} merges)"
        )
        print(
            f"accuracy: median extent {spatial.median / 1000:.2f} km / "
            f"{temporal.median:.0f} min; "
            f"suppressed {stats.suppression.discarded_fraction:.1%} of samples"
        )
        if stats.n_boundary_crossings:
            per_crossing = stats.n_probe_dispatches / stats.n_boundary_crossings
            print(
                f"dispatch: {stats.n_probe_dispatches} probe rows in "
                f"{stats.n_boundary_crossings} kernel calls "
                f"({per_crossing:.1f} probes/call, "
                f"{stats.n_batched_probes} via batched entries, "
                f"{stats.n_bound_pruned} pairs pruned by bounds)"
            )
    else:
        s = result.stats
        print(
            f"anonymized {dataset.n_users} users with {anonymizer.display}: "
            f"{len(result.dataset)} fingerprints in {s.n_groups} groups, "
            f"{s.discarded_fingerprints} discarded"
        )
        print(
            f"samples: created {s.created_samples} ({s.created_fraction:.1%}), "
            f"deleted {s.deleted_samples} ({s.deleted_fraction:.1%}); "
            f"mean errors {s.mean_position_error_m / 1000:.2f} km / "
            f"{s.mean_time_error_min:.0f} min"
        )
    print(f"wrote {rows} sample rows to {args.output}")
    return 0


def cmd_stream(args) -> int:
    dataset = _read_any(args.dataset)
    stream_cfg = stream_config_from_args(args)
    config = _method_config_from_args(args, "glove")
    pipeline = pipeline_from_args(args)
    try:
        result = pipeline.stream(
            dataset,
            config,
            stream_cfg,
            compute=compute_config_from_args(args),
            max_jitter_min=args.feed_jitter,
            seed=args.feed_seed,
        )
    except ValueError as exc:
        # An under-populated window with --no-carry-over, or a
        # population that cannot reach k at all.
        print(f"error: {args.dataset}: {exc}", file=sys.stderr)
        return 2
    for window in result.emitted:
        if not window.dataset.is_k_anonymous(args.k):
            print(
                f"error: window {window.index} failed the k-anonymity audit",
                file=sys.stderr,
            )
            return 3
    combined = result.combined_dataset(name=f"{dataset.name}-stream")
    rows = write_fingerprints_csv(combined, args.output)
    _record_store_metrics(pipeline)
    stats = result.stats
    # Harvest the run's aggregates whether it executed live or was
    # served from the artifact store; record_metrics writes absolute
    # values, so a live run's in-flight updates are simply re-asserted.
    stats.record_metrics(get_metrics())
    print(
        f"streamed {stats.n_events} events from {stats.n_users} users into "
        f"{stats.n_emitted_windows} windows ({stats.n_deferred_windows} deferred, "
        f"{stats.n_groups} groups, {stats.n_merges} merges)"
    )
    print(
        f"late events: {stats.n_late_redirected} redirected, "
        f"{stats.n_late_dropped} dropped"
    )
    if stats.n_unpublished_members:
        print(
            f"warning: {stats.n_unpublished_members} subscribers left below "
            f"k={args.k} by dropped events; their residue was suppressed",
            file=sys.stderr,
        )
    for window in result.windows:
        supp = window.stats.suppression
        supp_txt = (
            f"suppressed {supp.discarded_fraction:.1%}" if supp is not None else "deferred"
        )
        print(
            f"  window {window.index} [{window.start_min:.0f}, {window.end_min:.0f}) min: "
            f"{window.stats.n_events} events -> {window.stats.n_groups} groups, "
            f"{supp_txt}"
        )
    stream_stage = pipeline.stats.get("stream")
    cached = stream_stage is not None and stream_stage.hits > 0
    print(
        f"throughput: {stats.events_per_sec:,.0f} events/s; per-window latency "
        f"p50 {stats.latency_p50_s * 1000:.0f} ms, p95 {stats.latency_p95_s * 1000:.0f} ms"
        + (" [measured when computed; served from artifact store]" if cached else "")
    )
    print(f"wrote {rows} sample rows to {args.output}")
    return 0


def cmd_attack(args) -> int:
    _require_at_least(args, {"locations": 1, "points": 1})
    original = _read_any(args.original)
    if args.published is not None and args.method is not None:
        print(
            "error: give either a published dataset file or --method, not both",
            file=sys.stderr,
        )
        return 2
    if args.published is not None:
        stray = [
            "--" + flag.replace("_", "-")
            for flag in ("delta", "trash", "period", "grid")
            if getattr(args, flag, None) is not None
        ]
        if stray:
            print(
                f"error: {'/'.join(stray)} only apply when anonymizing with "
                "--method, not to an already published file",
                file=sys.stderr,
            )
            return 2
        published = _read_any(args.published)
    else:
        # Anonymize-then-attack through the cached stage: point the
        # record-linkage attacks head-to-head at any registered method.
        method = args.method if args.method is not None else "glove"
        config = _method_config_from_args(args, method)
        pipeline = pipeline_from_args(args)
        try:
            result = pipeline.anonymize(original, config, method=method)
        except ValueError as exc:
            # A population that cannot reach k.
            print(f"error: {args.original}: {exc}", file=sys.stderr)
            return 2
        published = result.dataset
        _record_store_metrics(pipeline)
        print(f"attacking {get_anonymizer(method).display} output (cached anonymize stage)")
    top = uniqueness_given_top_locations(original, published, n_locations=args.locations)
    rnd = uniqueness_given_random_points(
        original, published, n_points=args.points, seed=args.seed
    )
    print(f"top-{args.locations}-locations attack: "
          f"{top.fraction_identified_within(args.k):.1%} identified below k={args.k}")
    print(f"{args.points}-random-points attack:   "
          f"{rnd.fraction_identified_within(args.k):.1%} identified below k={args.k}")
    safe = (
        top.fraction_identified_within(args.k) == 0.0
        and rnd.fraction_identified_within(args.k) == 0.0
    )
    print("verdict:", "SAFE (no user below k)" if safe else "UNSAFE")
    return 0 if safe else 4


def cmd_info(args) -> int:
    dataset = _read_any(args.dataset)
    print(f"dataset: {dataset}")
    t_min, t_max = dataset.time_extent()
    print(f"time extent: {t_min:.0f}..{t_max:.0f} min "
          f"({(t_max - t_min) / (24 * 60):.1f} days)")
    lengths = np.array([fp.m for fp in dataset])
    print(f"fingerprint length: median {np.median(lengths):.0f}, "
          f"mean {lengths.mean():.1f}, max {lengths.max()}")
    print(f"minimum anonymity-set size: {dataset.min_anonymity()}")
    print(kernels.tier_line())
    if not kernels.COMPILED_AVAILABLE:
        print("note: Eq. 10, merge, reshape and the bound summaries "
              "run on the NumPy reference")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_metrics_arguments(parser) -> None:
    """Attach the shared --metrics reporting flags (every subcommand)."""
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics table (registry snapshot) after the run",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the metrics snapshot (repro.metrics.v1 JSON) to PATH",
    )
    parser.add_argument(
        "--metrics-otlp",
        metavar="ENDPOINT",
        default=None,
        help="push the snapshot to an OTLP/HTTP collector",
    )


def _add_method_arguments(parser, default: Optional[str]) -> None:
    """Attach the shared --method + per-method option flags."""
    parser.add_argument(
        "--method",
        choices=available_anonymizers(),
        default=default,
        help="anonymization technique (default: glove); baselines are "
        "cached through the same anonymize stage",
    )
    parser.add_argument(
        "--delta",
        type=float,
        default=None,
        metavar="METRES",
        help="(w4m-lc, nwa) spatiotemporal cylinder diameter",
    )
    parser.add_argument(
        "--trash",
        type=float,
        default=None,
        metavar="FRACTION",
        help="(w4m-lc, nwa) max fraction of trajectories trashed",
    )
    parser.add_argument(
        "--period",
        type=float,
        default=None,
        metavar="MINUTES",
        help="(nwa) synchronized-timeline sampling period",
    )
    parser.add_argument(
        "--grid",
        nargs=2,
        type=float,
        default=None,
        metavar=("METRES", "MINUTES"),
        help="(generalization) uniform space/time bin sizes",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``glove`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="glove", description="k-anonymize mobile traffic fingerprints (GLOVE)."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a preset or scenario dataset")
    g.add_argument(
        "preset",
        choices=sorted(PRESETS) + available_scenarios(),
        help="dataset preset, or a registered scenario name (whose "
        "scale fills in --users/--days/--seed)",
    )
    g.add_argument("--users", type=int, default=None, help="default: 150")
    g.add_argument("--days", type=int, default=None, help="default: 5")
    g.add_argument("--seed", type=int, default=None, help="default: 0")
    g.add_argument("-o", "--output", required=True)
    add_pipeline_arguments(g)
    _add_metrics_arguments(g)
    g.set_defaults(func=cmd_generate)

    m = sub.add_parser("measure", help="anonymizability statistics")
    m.add_argument("dataset")
    m.add_argument("-k", type=int, default=2)
    add_compute_arguments(m)
    add_pipeline_arguments(m)
    _add_metrics_arguments(m)
    m.set_defaults(func=cmd_measure)

    a = sub.add_parser(
        "anonymize", help="anonymize with GLOVE or any registered baseline"
    )
    a.add_argument("dataset")
    a.add_argument("-k", type=int, default=2)
    a.add_argument(
        "--suppress",
        nargs=2,
        type=float,
        metavar=("METRES", "MINUTES"),
        help="(glove) suppression thresholds (e.g. 15000 360)",
    )
    a.add_argument("--no-reshape", action="store_true")
    _add_method_arguments(a, default="glove")
    a.add_argument("-o", "--output", required=True)
    add_compute_arguments(a, pruning=True)
    add_pipeline_arguments(a)
    _add_metrics_arguments(a)
    a.set_defaults(func=cmd_anonymize)

    st = sub.add_parser(
        "stream",
        help="windowed incremental GLOVE over a replayed event feed",
    )
    st.add_argument("dataset")
    st.add_argument("-k", type=int, default=2)
    st.add_argument(
        "--suppress",
        nargs=2,
        type=float,
        metavar=("METRES", "MINUTES"),
        help="per-window suppression thresholds (e.g. 15000 360)",
    )
    st.add_argument("--no-reshape", action="store_true")
    st.add_argument("-o", "--output", required=True)
    add_stream_arguments(st)
    add_compute_arguments(st, pruning=True)
    add_pipeline_arguments(st)
    _add_metrics_arguments(st)
    st.set_defaults(func=cmd_stream)

    t = sub.add_parser("attack", help="record-linkage attack validation")
    t.add_argument("original")
    t.add_argument(
        "published",
        nargs="?",
        default=None,
        help="published dataset to attack; omit to anonymize the "
        "original with --method first (cached) and attack that",
    )
    t.add_argument("-k", type=int, default=2)
    t.add_argument("--locations", type=int, default=3)
    t.add_argument("--points", type=int, default=5)
    t.add_argument("--seed", type=int, default=0)
    _add_method_arguments(t, default=None)
    add_pipeline_arguments(t)
    _add_metrics_arguments(t)
    t.set_defaults(func=cmd_attack)

    i = sub.add_parser(
        "info", help="summarize a dataset file and the bound kernel tier"
    )
    i.add_argument("dataset")
    _add_metrics_arguments(i)
    i.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    The ``--metrics*`` flags (any subcommand) install a live process
    registry around the command and report its snapshot afterwards;
    without them the registry stays the disabled no-op and the
    instrumented paths cost nothing.
    """
    args = build_parser().parse_args(argv)
    wants_metrics = bool(
        getattr(args, "metrics", False)
        or getattr(args, "metrics_json", None)
        or getattr(args, "metrics_otlp", None)
    )
    if not wants_metrics:
        return args.func(args)
    registry = MetricsRegistry(enabled=True)
    # Pre-register the aggregate cache counters so the snapshot's key
    # set is stable whether or not the run happened to hit/miss.
    registry.counter("artifact.hits")
    registry.counter("artifact.misses")
    registry.gauge("kernel.cc_bound").set(float(kernels.COMPILED_AVAILABLE))
    previous = set_metrics(registry)
    try:
        code = args.func(args)
    finally:
        set_metrics(previous)
    snapshot = registry.snapshot()
    if args.metrics:
        print(render_table(snapshot))
        print(kernels.tier_line())
    if args.metrics_json:
        out = dump_json(snapshot, args.metrics_json)
        print(f"wrote metrics snapshot to {out}")
    if args.metrics_otlp:
        try:
            export_otlp(snapshot, args.metrics_otlp)
        except (OSError, ValueError) as exc:
            # An unreachable or refusing collector, or a malformed URL.
            reason = getattr(exc, "reason", exc)
            print(f"error: {args.metrics_otlp}: {reason}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
