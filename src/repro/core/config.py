"""Configuration of the stretch-effort metric and of GLOVE.

The paper fixes two saturation thresholds for the loss-of-accuracy
functions (footnote 3): ``phi_max_sigma`` = 20 km and ``phi_max_tau`` =
8 hours.  Beyond these values a sample is considered uninformative and
the corresponding loss function saturates at 1.  The ratio between the
two thresholds also sets the space/time exchange rate: a spatial
generalization of ~0.5 km weighs as much as a temporal generalization
of ~15 min.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

#: Targets per block in the bulk stretch kernels; with the kernels' cell
#: cap it bounds the peak memory of a kernel invocation.  Single source of truth —
#: :mod:`repro.core.pairwise` and :class:`ComputeConfig` both read it.
DEFAULT_CHUNK = 256


def env_float(name: str, default: Union[int, float]) -> float:
    """A float environment knob that degrades, never errors.

    Tuning knobs read from the environment (cache bounds, benchmark
    scales) must not crash a CLI on a typo: a malformed value falls
    back to the documented default with a one-line warning (the
    DESIGN.md D6 contract).  A non-finite value (``nan``, ``inf``,
    ``1e400``) counts as malformed.  Flags that *select semantics*
    still validate strictly — this helper is for knobs only.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return float(default)
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    print(
        f"warning: ignoring malformed {name}={raw!r}; "
        f"using default {default:g}",
        file=sys.stderr,
    )
    return float(default)


def env_int(name: str, default: int) -> int:
    """Integer twin of :func:`env_float`: degrade to default, warn once."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return int(default)
    try:
        return int(raw)
    except ValueError:
        print(
            f"warning: ignoring malformed {name}={raw!r}; "
            f"using default {default}",
            file=sys.stderr,
        )
        return int(default)


@dataclass(frozen=True)
class ComputeConfig:
    """Configuration of the stretch-compute substrate.

    Selects and parameterizes the :class:`repro.core.engine.StretchEngine`
    backend that executes the bulk Eq. 10 evaluations.  Kept separate
    from :class:`GloveConfig` on purpose: the latter describes *what* to
    compute (the anonymization semantics), this class describes *how*
    (which hardware tier, how much memory, whether to prune).  Two runs
    that differ only in their ``ComputeConfig`` produce byte-identical
    results.

    Attributes
    ----------
    backend:
        Name of a registered compute backend: ``"numpy"`` (single
        process, blocked NumPy kernels), ``"compiled"`` (C scalar
        kernels over the same padded layout; requires a system C
        compiler), ``"auto"`` (``compiled`` when a
        binding is bound, ``numpy`` otherwise), or ``"sharded"``
        (partition the population, anonymize shards concurrently,
        repair the boundaries).  All tiers are byte-identical (DESIGN.md
        D9).  Extensible through
        :func:`repro.core.engine.register_backend`.
    chunk:
        Targets per block in the bulk kernels.
    workers:
        Shard-level process-pool size of the ``sharded`` backend;
        ``None`` means ``min(cpu_count, 8)``.  Ignored by the other
        backends.
    shards:
        Shard count of the ``sharded`` backend; ``None`` picks one from
        the population size (roughly one shard per
        :data:`repro.core.shard.AUTO_SHARD_TARGET` fingerprints).
        Ignored by the other backends.
    shard_strategy:
        Population partitioning rule of the ``sharded`` backend:
        ``"time"`` (activity-midpoint locality, the default) or
        ``"hash"`` (deterministic uid hash, the locality-free
        fallback).
    pruning:
        Enable the bounding-box lower-bound pruning of exact Eq. 10
        evaluations in the GLOVE nearest-neighbour search.  Pruning is
        exact (never changes results).  Disabled, the engine keeps
        neutral bound summaries, so the same bounded entries evaluate
        every pair; use it for debugging or to measure what the bounds
        save.
    lb_bucket_minutes:
        Width of the time buckets of the level-1 lower bound (per-slot
        spatial hulls per time bucket).
    lb_max_buckets:
        Cap on the number of time buckets per slot (bucket width is
        stretched when the recording period is long).
    """

    backend: str = "auto"
    chunk: int = DEFAULT_CHUNK
    workers: Optional[int] = None
    shards: Optional[int] = None
    shard_strategy: str = "time"
    pruning: bool = True
    lb_bucket_minutes: float = 360.0
    lb_max_buckets: int = 48

    def __post_init__(self) -> None:
        if self.chunk < 1:
            raise ValueError(f"chunk must be at least 1, got {self.chunk}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be at least 1 or None, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be at least 1 or None, got {self.shards}")
        if self.shard_strategy not in ("time", "hash"):
            raise ValueError(
                f"shard_strategy must be 'time' or 'hash', got {self.shard_strategy!r}"
            )
        # Chained comparisons reject NaN, which fails every one of them.
        if not 0 < self.lb_bucket_minutes < math.inf:
            raise ValueError("lb_bucket_minutes must be positive and finite")
        if self.lb_max_buckets < 1:
            raise ValueError("lb_max_buckets must be at least 1")


def add_compute_arguments(parser, pruning: bool = False) -> None:
    """Attach the shared compute-substrate flags to an argparse parser.

    Used by the ``glove`` CLI and the ``glove-repro`` experiment runner
    so the substrate surface is declared once.
    """
    from repro.core.engine import available_backends

    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default="auto",
        help="stretch-compute backend (default: auto = compiled when a "
        "kernel binding is bound, else numpy)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard-level process-pool size of the sharded backend "
        "(default: min(CPU count, 8))",
    )
    parser.add_argument(
        "--chunk", type=int, default=None, help="targets per block"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count for the sharded backend (default: pick from the "
        "population size; must be at least 1)",
    )
    parser.add_argument(
        "--shard-strategy",
        choices=("time", "hash"),
        default=None,
        help="sharded backend partitioning rule (default: time = "
        "activity-midpoint locality; hash = deterministic uid hash)",
    )
    if pruning:
        parser.add_argument(
            "--no-prune",
            action="store_true",
            help="evaluate every pair: neutral lower bounds prune nothing "
            "(identical results, slower)",
        )


def compute_config_from_args(args) -> "ComputeConfig":
    """Build a :class:`ComputeConfig` from parsed compute flags.

    Invalid values exit with status 2 and an ``error:`` line, argparse
    style, instead of a traceback.
    """
    import sys

    kwargs = {"backend": args.backend}
    if getattr(args, "workers", None) is not None:
        kwargs["workers"] = args.workers
    if getattr(args, "chunk", None) is not None:
        kwargs["chunk"] = args.chunk
    if getattr(args, "shards", None) is not None:
        kwargs["shards"] = args.shards
    if getattr(args, "shard_strategy", None) is not None:
        kwargs["shard_strategy"] = args.shard_strategy
    if getattr(args, "no_prune", False):
        kwargs["pruning"] = False
    try:
        return ComputeConfig(**kwargs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


@dataclass(frozen=True)
class StretchConfig:
    """Parameters of the sample/fingerprint stretch effort (Eq. 1-3).

    Attributes
    ----------
    phi_max_sigma_m:
        Spatial saturation threshold in metres (paper: 20 km).  A spatial
        stretch of this magnitude yields the maximum spatial loss of 1.
    phi_max_tau_min:
        Temporal saturation threshold in minutes (paper: 8 hours).
    w_sigma, w_tau:
        Normalization weights of the spatial and temporal contributions
        in Eq. 1.  The paper uses 1/2 and 1/2 so that the sample stretch
        effort lies in [0, 1].
    """

    phi_max_sigma_m: float = 20_000.0
    phi_max_tau_min: float = 8.0 * 60.0
    w_sigma: float = 0.5
    w_tau: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.phi_max_sigma_m < math.inf:
            raise ValueError("phi_max_sigma_m must be positive and finite")
        if not 0 < self.phi_max_tau_min < math.inf:
            raise ValueError("phi_max_tau_min must be positive and finite")
        if not (self.w_sigma >= 0 and self.w_tau >= 0):
            raise ValueError("weights must be non-negative")
        if abs(self.w_sigma + self.w_tau - 1.0) > 1e-9:
            raise ValueError("w_sigma + w_tau must equal 1 so delta lies in [0, 1]")


@dataclass(frozen=True)
class SuppressionConfig:
    """Thresholds for sample suppression (paper Section 7.1).

    A generalized sample is discarded when its spatial extent exceeds
    ``spatial_threshold_m`` (on either axis) or its temporal extent
    exceeds ``temporal_threshold_min``.  ``None`` disables the
    corresponding check.  The paper's Table 2 uses 15 km and 6 hours.

    ``keep_at_least_one`` prevents a fingerprint from being suppressed
    into nothingness: when every sample of a group exceeds the
    thresholds, the least-stretched one is retained.  The paper reports
    zero discarded fingerprints for GLOVE at its (much larger) dataset
    scale; this safeguard preserves that property at reproduction scale
    (see DESIGN.md).
    """

    spatial_threshold_m: float = None
    temporal_threshold_min: float = None
    keep_at_least_one: bool = True

    def __post_init__(self) -> None:
        for name in ("spatial_threshold_m", "temporal_threshold_min"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite or None, got {value}"
                )

    @property
    def enabled(self) -> bool:
        """Whether any suppression threshold is active."""
        return self.spatial_threshold_m is not None or self.temporal_threshold_min is not None


@dataclass(frozen=True)
class GloveConfig:
    """Full GLOVE configuration.

    Attributes
    ----------
    k:
        Target anonymity level: every published fingerprint must hide at
        least ``k`` subscribers.
    stretch:
        Parameters of the stretch-effort metric.
    suppression:
        Optional sample-suppression thresholds applied to the output.
    reshape:
        Whether to run the reshaping pass that resolves temporal overlaps
        in merged fingerprints (paper Fig. 6b).  On by default, as in the
        paper.
    """

    k: int = 2
    stretch: StretchConfig = field(default_factory=StretchConfig)
    suppression: SuppressionConfig = field(default_factory=SuppressionConfig)
    reshape: bool = True

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")
