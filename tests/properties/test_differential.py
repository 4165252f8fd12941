"""Whole-run differential oracle on hostile populations (DESIGN.md D9/D13).

Every compute path must publish the same bytes as the preserved seed
path (:mod:`benchmarks.seed_path`), not only on the seeded populations
the benchmarks use but on small inputs built to hit the corners of the
kernels, the bounds and the merge:

* exact duplicate fingerprints (effort ties, the lowest-id rule);
* single-sample users;
* zero-extent samples;
* ``-0.0`` coordinates and times;
* coordinates near 1e6 with subnormal times;
* plain random inputs.

Per example and per ``k`` the oracle compares ``dataset_digest`` across
the seed path, numpy with pruning on and off, compiled at one and two
kernel threads and with pruning off (when a binding is bound), auto,
sharded with one shard, and the stream whole-window ``--no-carry-over``
anchor; it also audits k-anonymity, full coverage and truthfulness
(:func:`repro.core.merge.covers`) of the published groups.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.seed_path import seed_glove
from repro.core import kernels
from repro.core.artifacts import dataset_digest
from repro.core.config import ComputeConfig, GloveConfig
from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.glove import glove
from repro.core.merge import covers
from repro.core.sample import DT, DX, DY, NCOLS, T, X, Y
from repro.stream.driver import stream_glove
from repro.stream.windows import StreamConfig
from tests.properties.test_k_anonymity import assert_k_anonymous

REGIMES = (
    "duplicates",
    "single-sample",
    "zero-extent",
    "negative-zero",
    "far-subnormal",
    "random",
)

#: Exact multiples of the smallest subnormal double.
_SUBNORMAL = st.integers(min_value=0, max_value=1 << 20).map(lambda i: i * 5e-324)
_SIGNED_ZERO = st.sampled_from([0.0, -0.0])


def _fingerprint_rows(draw, regime, m):
    rows = np.empty((m, NCOLS))
    for r in range(m):
        if regime == "far-subnormal":
            near = st.floats(min_value=1e6 - 500.0, max_value=1e6 + 500.0)
            rows[r, [X, Y]] = draw(near), draw(near)
            rows[r, [DX, DY]] = 100.0
            rows[r, [T, DT]] = draw(_SUBNORMAL), draw(_SUBNORMAL)
            continue
        if regime == "negative-zero":
            coord = _SIGNED_ZERO | st.floats(min_value=0, max_value=2e3)
            time = _SIGNED_ZERO | st.floats(min_value=0, max_value=60.0)
        else:
            coord = st.floats(min_value=0, max_value=6e4)
            time = st.floats(min_value=0, max_value=4e3)
        rows[r, [X, Y, T]] = draw(coord), draw(coord), draw(time)
        rows[r, [DX, DY, DT]] = 0.0 if regime == "zero-extent" else (100.0, 100.0, 1.0)
    return rows


@st.composite
def hostile_populations(draw):
    """2..9 single-subscriber fingerprints drawn in one hostile regime."""
    regime = draw(st.sampled_from(REGIMES))
    n = draw(st.integers(min_value=2, max_value=9))
    max_m = 1 if regime == "single-sample" else 5
    if regime == "duplicates":
        # Fewer distinct fingerprints than users: some are exact copies.
        bases = [
            _fingerprint_rows(draw, "random", draw(st.integers(1, max_m)))
            for _ in range(draw(st.integers(min_value=1, max_value=n - 1)))
        ]
        rows = [bases[draw(st.integers(0, len(bases) - 1))] for _ in range(n)]
    else:
        rows = [
            _fingerprint_rows(draw, regime, draw(st.integers(1, max_m)))
            for _ in range(n)
        ]
    fps = [Fingerprint(f"u{i}", r.copy()) for i, r in enumerate(rows)]
    return FingerprintDataset(fps, name=f"hostile-{regime}")


def _compute_paths():
    paths = {
        "numpy": ComputeConfig(backend="numpy"),
        "numpy-no-prune": ComputeConfig(backend="numpy", pruning=False),
        "auto": ComputeConfig(backend="auto"),
        "sharded-1": ComputeConfig(backend="sharded", shards=1, workers=1),
    }
    if kernels.COMPILED_AVAILABLE:
        paths["compiled-t1"] = ComputeConfig(backend="compiled", kernel_threads=1)
        paths["compiled-t2"] = ComputeConfig(backend="compiled", kernel_threads=2)
        paths["compiled-no-prune"] = ComputeConfig(
            backend="compiled", kernel_threads=1, pruning=False
        )
    return paths


#: One window over any recording the strategy draws, no carry-over.
WHOLE_WINDOW = StreamConfig(window_min=1e9, carry_over=False)


class TestDifferentialOracle:
    @given(hostile_populations())
    @settings(max_examples=60, deadline=None)
    def test_every_path_publishes_the_seed_bytes(self, dataset):
        for k in (2, 3):
            if len(dataset) < k:
                continue
            config = GloveConfig(k=k)
            reference = seed_glove(dataset, config).dataset
            digests = {"seed": dataset_digest(reference)}
            for name, compute in _compute_paths().items():
                digests[name] = dataset_digest(glove(dataset, config, compute).dataset)
            anchor = stream_glove(dataset, config, WHOLE_WINDOW, ComputeConfig())
            assert len(anchor.emitted) == 1
            digests["stream-anchor"] = dataset_digest(anchor.emitted[0].dataset)
            assert set(digests.values()) == {digests["seed"]}, (k, digests)

            assert assert_k_anonymous(reference, k) == set(dataset.uids)
            group_of = {member: fp for fp in reference for member in fp.members}
            for fp in dataset:
                assert covers(group_of[fp.uid].data, fp.data), (k, fp.uid)
