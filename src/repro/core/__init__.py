"""Core data model and the GLOVE algorithm.

Public surface:

* data model -- :class:`~repro.core.sample.Sample`,
  :class:`~repro.core.fingerprint.Fingerprint`,
  :class:`~repro.core.dataset.FingerprintDataset`;
* anonymizability metric -- :func:`~repro.core.stretch.sample_stretch`,
  :func:`~repro.core.stretch.fingerprint_stretch`,
  :func:`~repro.core.kgap.kgap`;
* anonymization -- :func:`~repro.core.glove.glove` with
  :class:`~repro.core.config.GloveConfig`, and the method registry
  (:mod:`repro.core.anonymizer`) normalizing GLOVE and every baseline
  behind one protocol;
* compute substrate -- :class:`~repro.core.engine.StretchEngine` with
  :class:`~repro.core.config.ComputeConfig` and the backend registry
  (:func:`~repro.core.engine.register_backend`).
"""

from repro.core.config import (
    ComputeConfig,
    GloveConfig,
    StretchConfig,
    SuppressionConfig,
)
from repro.core.dataset import FingerprintDataset
from repro.core.engine import (
    SlotStore,
    StretchBackend,
    StretchEngine,
    available_backends,
    compute_pairwise_matrix,
    get_default_compute,
    register_backend,
    register_glove_driver,
    set_default_compute,
)
from repro.core.fingerprint import Fingerprint
from repro.core.glove import GloveResult, GloveStats, glove
from repro.core.kgap import (
    KGapResult,
    StretchComponentCache,
    kgap,
    kgap_sweep,
    stretch_decomposition,
)
from repro.core.merge import merge_fingerprints
from repro.core.pairwise import PaddedFingerprints, one_vs_all, pairwise_matrix
from repro.core.partial import (
    PartialResult,
    partial_glove,
    time_window_model,
    top_locations_model,
)
from repro.core.reshape import reshape_fingerprint
from repro.core.sample import Sample
from repro.core.anonymizer import (
    AnonymizationResult,
    AnonymizationStats,
    Anonymizer,
    anonymize_dataset,
    available_anonymizers,
    get_anonymizer,
    register_anonymizer,
)
from repro.core.artifacts import ArtifactStore, canonical_key, dataset_digest, source_digest
from repro.core.pipeline import (
    Pipeline,
    cached_anonymize,
    cached_dataset,
    cached_glove,
    cached_kgap,
    cached_matrix,
    get_default_pipeline,
    set_default_pipeline,
)
from repro.core.scenarios import (
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.core.shard import partition_indices, resolve_shards, sharded_glove
from repro.core.stretch import fingerprint_stretch, sample_stretch, stretch_matrix
from repro.core.suppression import SuppressionStats, suppress_dataset

__all__ = [
    "Sample",
    "Fingerprint",
    "FingerprintDataset",
    "StretchConfig",
    "SuppressionConfig",
    "ComputeConfig",
    "GloveConfig",
    "StretchEngine",
    "StretchBackend",
    "SlotStore",
    "available_backends",
    "register_backend",
    "register_glove_driver",
    "compute_pairwise_matrix",
    "get_default_compute",
    "set_default_compute",
    "GloveResult",
    "GloveStats",
    "glove",
    "sharded_glove",
    "partition_indices",
    "resolve_shards",
    "kgap",
    "kgap_sweep",
    "KGapResult",
    "StretchComponentCache",
    "stretch_decomposition",
    "sample_stretch",
    "fingerprint_stretch",
    "stretch_matrix",
    "merge_fingerprints",
    "reshape_fingerprint",
    "suppress_dataset",
    "SuppressionStats",
    "pairwise_matrix",
    "one_vs_all",
    "PaddedFingerprints",
    "ArtifactStore",
    "canonical_key",
    "dataset_digest",
    "source_digest",
    "Pipeline",
    "cached_anonymize",
    "cached_dataset",
    "cached_glove",
    "cached_kgap",
    "cached_matrix",
    "Anonymizer",
    "AnonymizationResult",
    "AnonymizationStats",
    "anonymize_dataset",
    "available_anonymizers",
    "get_anonymizer",
    "register_anonymizer",
    "get_default_pipeline",
    "set_default_pipeline",
    "Scenario",
    "available_scenarios",
    "get_scenario",
    "register_scenario",
    "partial_glove",
    "PartialResult",
    "top_locations_model",
    "time_window_model",
]
