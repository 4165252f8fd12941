"""The staged compute-once pipeline over the artifact store.

Every expensive stage of the reproduction — CDR synthesis, GLOVE
anonymization, pairwise stretch matrices and the k-gap measure derived
from them — is requested through a :class:`Pipeline` instead of being
recomputed by each caller.  Stage outputs are content-addressed
artifacts (:mod:`repro.core.artifacts`):

* ``dataset``  -- parameter-addressed: (preset, n_users, days, seed,
  screening) plus a digest of the synthesis sources;
* ``glove``    -- content-addressed: the input dataset's record digest,
  the full :class:`~repro.core.config.GloveConfig`, and the
  *result-affecting* part of the compute substrate (see
  :func:`compute_result_signature`);
* ``anonymize`` -- the method-generic stage over the anonymizer
  registry (:mod:`repro.core.anonymizer`): method name + the method's
  own config + the dataset digest.  ``method="glove"`` delegates to the
  ``glove`` stage above (byte-identical artifacts and keys, DESIGN.md
  D8);
* ``matrix``   -- content-addressed: dataset digest + stretch config.
  The k-gap of any ``k`` derives from one cached matrix, exactly as
  the paper's Fig. 3b reuses a single Delta matrix.

Backends, chunk sizes, worker counts and pruning are *excluded* from
every key: DESIGN.md D4 guarantees their outputs byte-identical, so two
runs differing only in those knobs share artifacts.  The one exception
is the sharded glove driver at shards != 1, whose grouping is
shard-local (DESIGN.md D5); its runs are keyed separately.  Rationale
and invalidation rules live in DESIGN.md D6.

Entry points (``glove-repro``, the ``glove`` CLI, the benchmark suite)
install a process-wide default pipeline via
:func:`set_default_pipeline`; the ``cached_*`` helpers route through it
so the thirteen experiment modules need no per-function plumbing —
mirroring :func:`repro.core.engine.set_default_compute`.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.artifacts import (
    ArtifactStore,
    canonical_key,
    dataset_digest,
    source_digest,
)
from repro.core.config import ComputeConfig, GloveConfig, StretchConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import get_default_compute, get_glove_driver
from repro.core.kgap import KGapResult, kgap as _kgap
from repro.obs import get_metrics

#: Sources whose edits invalidate synthesized datasets.
DATASET_SOURCES = (
    "repro.cdr",
    "repro.geo",
    "repro.core.sample",
    "repro.core.fingerprint",
    "repro.core.dataset",
)

#: Sources whose edits invalidate GLOVE runs and stretch matrices.
CORE_SOURCES = ("repro.core",)

#: Sources whose edits invalidate replayed feeds and streaming runs.
STREAM_SOURCES = ("repro.core", "repro.stream")


def compute_result_signature(
    compute: Optional[ComputeConfig], n_fingerprints: Optional[int] = None
) -> Dict[str, Any]:
    """The result-affecting projection of a compute config.

    Kernel-level backends are value-transparent (DESIGN.md D4): numpy,
    compiled and auto produce byte-identical results, so they map to
    the empty signature and share artifacts.  A backend with a
    registered *glove driver* may change results (the sharded tier's
    grouping is shard-local, DESIGN.md D5) — except at one shard, which
    is byte-identical to the unsharded path and normalizes back to the
    empty signature.

    With ``n_fingerprints`` given, the sharded tier's shard count is
    resolved to its *effective* value for that population (auto picks
    and clamping are deterministic in ``n``), so e.g. ``--backend
    sharded`` over a population small enough for a single shard shares
    the unsharded artifact.
    """
    compute = compute if compute is not None else get_default_compute()
    if get_glove_driver(compute.backend) is None:
        return {}
    shards = compute.shards
    if compute.backend == "sharded" and n_fingerprints is not None:
        from repro.core.shard import resolve_shards

        shards = resolve_shards(compute, n_fingerprints)
    if shards == 1:
        return {}
    return {
        "backend": compute.backend,
        "shards": shards,
        "shard_strategy": compute.shard_strategy,
    }


@dataclass
class StageStats:
    """Hit/compute counters of one pipeline stage."""

    computed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    computed_labels: Counter = field(default_factory=Counter)

    @property
    def hits(self) -> int:
        """Requests served without recomputing."""
        return self.memo_hits + self.disk_hits

    @property
    def requests(self) -> int:
        """Total requests seen by the stage."""
        return self.computed + self.hits


class Pipeline:
    """Staged dataset -> anonymization -> derived-metric compute graph.

    Parameters
    ----------
    store:
        Backing :class:`~repro.core.artifacts.ArtifactStore`; defaults
        to :meth:`ArtifactStore.from_env`.
    enabled:
        ``False`` turns the pipeline into a pass-through that computes
        every request fresh (the ``--no-cache`` path) — byte-identical
        outputs, no reuse.
    """

    def __init__(self, store: Optional[ArtifactStore] = None, enabled: bool = True):
        self.store = store if store is not None else ArtifactStore.from_env()
        self.enabled = enabled
        self.stats: Dict[str, StageStats] = {}
        self._digests: "weakref.WeakKeyDictionary[FingerprintDataset, str]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _stage(self, name: str) -> StageStats:
        return self.stats.setdefault(name, StageStats())

    def _fetch(self, stage: str, params: Dict[str, Any], label: str, compute: Callable[[], Any]) -> Any:
        stats = self._stage(stage)
        metrics = get_metrics()
        if not self.enabled:
            stats.computed += 1
            stats.computed_labels[label] += 1
            with metrics.span(f"pipeline.{stage}.wall_s"):
                value = compute()
            metrics.counter(f"pipeline.{stage}.computed").inc()
            metrics.counter("artifact.misses").inc()
            return value
        key = canonical_key(stage, params)
        with metrics.span(f"pipeline.{stage}.wall_s"):
            value, origin = self.store.fetch(stage, key, compute)
        if origin == "computed":
            stats.computed += 1
            stats.computed_labels[label] += 1
            metrics.counter(f"pipeline.{stage}.computed").inc()
            metrics.counter("artifact.misses").inc()
        elif origin == "memo":
            stats.memo_hits += 1
            metrics.counter(f"pipeline.{stage}.memo_hits").inc()
            metrics.counter("artifact.hits").inc()
        else:
            stats.disk_hits += 1
            metrics.counter(f"pipeline.{stage}.disk_hits").inc()
            metrics.counter("artifact.hits").inc()
        return value

    def digest(self, dataset: FingerprintDataset) -> str:
        """Content digest of a dataset, memoized per object.

        Pipeline inputs are treated as immutable: mutating a dataset
        after it has been digested would serve stale artifacts.
        """
        cached = self._digests.get(dataset)
        if cached is None:
            cached = dataset_digest(dataset)
            self._digests[dataset] = cached
        return cached

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def dataset(
        self,
        preset: str,
        n_users: int = 300,
        days: int = 7,
        seed: int = 0,
        screened: bool = True,
    ) -> FingerprintDataset:
        """Stage 1: a synthesized preset dataset (compute-once)."""
        from repro.cdr.datasets import synthesize

        return self._fetch(
            "dataset",
            {
                "preset": preset,
                "n_users": n_users,
                "days": days,
                "seed": seed,
                "screened": screened,
                "sources": source_digest(*DATASET_SOURCES),
            },
            label=f"{preset}/n{n_users}/d{days}/s{seed}",
            compute=lambda: synthesize(
                preset, n_users=n_users, days=days, seed=seed, screened=screened
            ),
        )

    def glove(
        self,
        dataset: FingerprintDataset,
        config: GloveConfig = GloveConfig(),
        compute: Optional[ComputeConfig] = None,
    ):
        """Stage 2 (GLOVE form): a GLOVE run over any dataset.

        Returns the full :class:`~repro.core.glove.GloveResult`
        (anonymized population plus run statistics).
        """
        from repro.core.glove import glove

        digest = self.digest(dataset)
        return self._fetch(
            "glove",
            {
                "dataset": digest,
                "config": config,
                "compute": compute_result_signature(compute, len(dataset)),
                "sources": source_digest(*CORE_SOURCES),
            },
            label=f"{digest[:10]}/k{config.k}",
            compute=lambda: glove(dataset, config, compute),
        )

    def anonymize(
        self,
        dataset: FingerprintDataset,
        config=None,
        compute: Optional[ComputeConfig] = None,
        method: str = "glove",
    ):
        """Stage 2: anonymize a dataset with any registered method.

        Returns a normalized
        :class:`~repro.core.anonymizer.AnonymizationResult` whatever
        the method.  Keys fold in the method name and the method's own
        config (DESIGN.md D8).  ``method="glove"`` routes through the
        historical ``glove`` stage with the suppression thresholds
        stripped from the key and re-applied as the byte-identical
        post-filter of :func:`~repro.core.anonymizer.
        apply_glove_suppression` — so one greedy-loop artifact serves
        every suppression setting and all pre-existing cache keys
        survive.  Baselines ignore the compute substrate entirely, so
        it never enters their keys.
        """
        from repro.core.anonymizer import (
            get_anonymizer,
            normalize_glove,
            strip_suppression,
        )

        anonymizer = get_anonymizer(method)
        if method == "glove":
            config = config if config is not None else GloveConfig()
            base = strip_suppression(config)
            return normalize_glove(dataset, self.glove(dataset, base, compute), config)
        config = config if config is not None else anonymizer.make_config()
        digest = self.digest(dataset)
        return self._fetch(
            "anonymize",
            {
                "method": method,
                "dataset": digest,
                "config": config,
                "sources": source_digest(*anonymizer.sources),
            },
            label=f"{method}/{digest[:10]}/k{getattr(config, 'k', '-')}",
            # The compute substrate is excluded from the key, so it must
            # not reach the run either: a registered method whose output
            # varied with ComputeConfig would otherwise serve one
            # config's artifact for another's request.
            compute=lambda: anonymizer.run(dataset, config, None),
        )

    def matrix(
        self,
        dataset: FingerprintDataset,
        config: StretchConfig = StretchConfig(),
        compute: Optional[ComputeConfig] = None,
    ) -> np.ndarray:
        """Stage 3: the pairwise Delta matrix (content-addressed).

        Byte-identical across every backend (DESIGN.md D4), so the
        compute substrate never enters the key.
        """
        from repro.core.engine import compute_pairwise_matrix

        digest = self.digest(dataset)
        return self._fetch(
            "matrix",
            {
                "dataset": digest,
                "config": config,
                "sources": source_digest(*CORE_SOURCES),
            },
            label=digest[:10],
            compute=lambda: compute_pairwise_matrix(list(dataset), config, compute),
        )

    def kgap(
        self,
        dataset: FingerprintDataset,
        k: int = 2,
        config: StretchConfig = StretchConfig(),
        compute: Optional[ComputeConfig] = None,
    ) -> KGapResult:
        """Stage 4: the k-gap measure, derived from the cached matrix.

        The derivation (a k-smallest selection per row) is cheap, so
        only the matrix is stored; every ``k`` shares it.
        """
        return _kgap(dataset, k=k, config=config, matrix=self.matrix(dataset, config, compute))

    def feed(
        self,
        dataset: FingerprintDataset,
        max_jitter_min: float = 0.0,
        seed: int = 0,
    ):
        """Stage 5: an arrival-ordered replay of a dataset (content-addressed).

        Returns the :class:`repro.stream.feed.ReplayFeed` of the
        dataset — the event table every streaming run of that dataset
        consumes, shared across window/k sweeps (e.g. the
        ``stream_eval`` experiment replays each dataset exactly once).
        """
        from repro.stream.feed import replay_dataset

        digest = self.digest(dataset)
        return self._fetch(
            "feed",
            {
                "dataset": digest,
                "max_jitter_min": max_jitter_min,
                "seed": seed,
                "sources": source_digest(*STREAM_SOURCES),
            },
            label=f"{digest[:10]}/j{max_jitter_min:g}",
            compute=lambda: replay_dataset(
                dataset, max_jitter_min=max_jitter_min, seed=seed, name=f"{dataset.name}-feed"
            ),
        )

    def stream(
        self,
        dataset: FingerprintDataset,
        config: GloveConfig = GloveConfig(),
        stream=None,
        compute: Optional[ComputeConfig] = None,
        max_jitter_min: float = 0.0,
        seed: int = 0,
    ):
        """Stage 6: a windowed streaming GLOVE run (content-addressed).

        Returns the full :class:`repro.stream.driver.StreamResult`.
        The key folds in the dataset digest, both configs, the feed
        replay parameters and — like the ``glove`` stage — only the
        result-affecting projection of the compute substrate.
        """
        from repro.stream.driver import stream_glove

        digest = self.digest(dataset)
        if stream is None:
            from repro.stream.windows import StreamConfig

            stream = StreamConfig(window_min=24 * 60.0)
        return self._fetch(
            "stream",
            {
                "dataset": digest,
                "config": config,
                "stream": stream,
                "max_jitter_min": max_jitter_min,
                "seed": seed,
                "compute": compute_result_signature(compute),
                "sources": source_digest(*STREAM_SOURCES),
            },
            label=f"{digest[:10]}/k{config.k}/w{stream.window_min:g}",
            compute=lambda: stream_glove(
                dataset,
                config,
                stream,
                compute,
                feed=self.feed(dataset, max_jitter_min=max_jitter_min, seed=seed),
            ),
        )


# ----------------------------------------------------------------------
# Process-wide default pipeline
# ----------------------------------------------------------------------
_default_pipeline: Optional[Pipeline] = None


def get_default_pipeline() -> Pipeline:
    """The process-wide pipeline, lazily built from the environment."""
    global _default_pipeline
    if _default_pipeline is None:
        _default_pipeline = Pipeline()
    return _default_pipeline


def set_default_pipeline(pipeline: Optional[Pipeline]) -> Optional[Pipeline]:
    """Install a new default pipeline; returns the previous one.

    ``None`` resets to lazy re-initialization from the environment.
    """
    global _default_pipeline
    old = _default_pipeline
    _default_pipeline = pipeline
    return old


def cached_dataset(
    preset: str, n_users: int = 300, days: int = 7, seed: int = 0, screened: bool = True
) -> FingerprintDataset:
    """:meth:`Pipeline.dataset` on the default pipeline."""
    return get_default_pipeline().dataset(
        preset, n_users=n_users, days=days, seed=seed, screened=screened
    )


def cached_glove(
    dataset: FingerprintDataset,
    config: GloveConfig = GloveConfig(),
    compute: Optional[ComputeConfig] = None,
):
    """:meth:`Pipeline.glove` on the default pipeline.

    A thin delegate kept for the experiment modules: same stage, same
    keys, same :class:`~repro.core.glove.GloveResult` as ever.  The
    method-generic entry point is :func:`cached_anonymize`.
    """
    return get_default_pipeline().glove(dataset, config, compute)


def cached_anonymize(
    dataset: FingerprintDataset,
    method: str = "glove",
    config=None,
    compute: Optional[ComputeConfig] = None,
):
    """:meth:`Pipeline.anonymize` on the default pipeline."""
    return get_default_pipeline().anonymize(dataset, config, compute, method=method)


def cached_matrix(
    dataset: FingerprintDataset,
    config: StretchConfig = StretchConfig(),
    compute: Optional[ComputeConfig] = None,
) -> np.ndarray:
    """:meth:`Pipeline.matrix` on the default pipeline."""
    return get_default_pipeline().matrix(dataset, config, compute)


def cached_kgap(
    dataset: FingerprintDataset,
    k: int = 2,
    config: StretchConfig = StretchConfig(),
    compute: Optional[ComputeConfig] = None,
) -> KGapResult:
    """:meth:`Pipeline.kgap` on the default pipeline."""
    return get_default_pipeline().kgap(dataset, k=k, config=config, compute=compute)


def cached_stream(
    dataset: FingerprintDataset,
    config: GloveConfig = GloveConfig(),
    stream=None,
    compute: Optional[ComputeConfig] = None,
    max_jitter_min: float = 0.0,
    seed: int = 0,
):
    """:meth:`Pipeline.stream` on the default pipeline."""
    return get_default_pipeline().stream(
        dataset, config, stream, compute, max_jitter_min=max_jitter_min, seed=seed
    )


# ----------------------------------------------------------------------
# CLI plumbing (shared by glove-repro and the glove subcommands)
# ----------------------------------------------------------------------
def add_pipeline_arguments(parser) -> None:
    """Attach the shared artifact-store flags to an argparse parser."""
    parser.add_argument(
        "--artifact-dir",
        default=None,
        help="artifact store directory (default: $REPRO_ARTIFACT_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every stage fresh; results are byte-identical to "
        "the cached path",
    )


def pipeline_from_args(args) -> Pipeline:
    """Build a :class:`Pipeline` from parsed ``add_pipeline_arguments`` flags.

    Flags beat environment: ``--no-cache`` wins over everything, and an
    explicit ``--artifact-dir`` enables the persistent layer even under
    ``REPRO_CACHE=0``.
    """
    if getattr(args, "no_cache", False):
        return Pipeline(ArtifactStore(root=None), enabled=False)
    root = getattr(args, "artifact_dir", None)
    return Pipeline(
        ArtifactStore.from_env(root=root, enabled=True if root is not None else None)
    )
