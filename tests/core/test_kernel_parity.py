"""Parity and fallback tests for the compiled stretch-kernel tier.

The byte-identity policy (DESIGN.md D9) requires the system-cc binding
to return bit-for-bit the NumPy reference's results.  The property tests
below drive it against ``repro.core.pairwise``, the merge and reshape
bodies and ``StretchEngine._summarize`` on arbitrary padded tensors:
ragged lengths (masked tails), count weights, and coordinate spreads
that push the saturating terms to their 0/1 edges.  The bounded sweep's
``+inf`` sentinels and pruned counts are pinned against
:func:`_replay_walk`, a replay of the D13 walk on the NumPy reference.

The fallback tests run subprocesses with the cc tier disabled
(``REPRO_CC_KERNEL=0``) to prove the ``auto`` and ``compiled`` backends
degrade exactly as documented when no accelerated binding exists.
"""

import gc
import os
import subprocess
import sys
import textwrap
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import ComputeConfig, StretchConfig
from repro.core.engine import StretchEngine
from repro.core.fingerprint import Fingerprint
from repro.core.merge import merge_sample_arrays
from repro.core.pairwise import (
    PaddedFingerprints,
    bucket_lower_bounds,
    hull_lower_bounds,
    one_vs_all,
    pairwise_matrix,
)
from repro.core.reshape import ATOL, has_temporal_overlap, reshape_sample_array
from repro.core.sample import T, X, Y, Sample
from tests.properties.test_differential import SKEWED_STRETCH

# Wide value ranges on purpose: spatial spreads far beyond phi_sigma
# (20 km) and temporal gaps beyond phi_tau (480 min) exercise the
# saturated branch, tight clusters the near-zero clamp.
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
extents = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
times = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
durations = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def fingerprints(draw, uid, max_m=7):
    m = draw(st.integers(min_value=1, max_value=max_m))
    samples = [
        Sample(
            x=draw(coords),
            y=draw(coords),
            t=draw(times),
            dx=draw(extents),
            dy=draw(extents),
            dt=draw(durations),
        )
        for _ in range(m)
    ]
    count = draw(st.integers(min_value=1, max_value=50))
    members = [f"{uid}-{i}" for i in range(count)]
    return Fingerprint(uid, samples, count=count, members=members)


@st.composite
def collections(draw, min_n=2, max_n=6, max_m=7):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return [draw(fingerprints(f"u{i}", max_m=max_m)) for i in range(n)]


#: Samples per fingerprint in the exact-kernel parity draws: past 8,
#: where NumPy's pairwise summation leaves its sequential loop, so the
#: zero-padded means run the 8-accumulator tree.
WIDE_M = 40


def _wide_fingerprint(rng, uid, m, count=1):
    """``m`` seeded samples spread over both saturation thresholds."""
    data = np.column_stack(
        [
            rng.uniform(-3e4, 3e4, m),
            rng.uniform(0, 2e3, m) * (rng.random(m) < 0.7),
            rng.uniform(-3e4, 3e4, m),
            rng.uniform(0, 2e3, m) * (rng.random(m) < 0.7),
            rng.uniform(0, 2.9e3, m),
            rng.uniform(0, 600, m) * (rng.random(m) < 0.5),
        ]
    )
    return Fingerprint(uid, data, count=count, members=[f"{uid}-{i}" for i in range(count)])


def _config_args(config):
    return (
        config.w_sigma,
        config.w_tau,
        config.phi_max_sigma_m,
        config.phi_max_tau_min,
    )


BINDINGS = []
if kernels.COMPILED_AVAILABLE:
    BINDINGS.append(
        (kernels.COMPILED_TIER, kernels.one_vs_all_arrays, kernels.pairwise_matrix_arrays)
    )


@pytest.mark.parametrize("tier,ova,pm", BINDINGS, ids=[b[0] for b in BINDINGS])
class TestKernelParity:
    @given(
        probe=fingerprints("probe", max_m=WIDE_M),
        fps=collections(max_m=WIDE_M),
        data=st.data(),
    )
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow],
    )
    def test_one_vs_all_bitwise(self, tier, ova, pm, probe, fps, data):
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        subset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(fps) - 1),
                min_size=1,
                max_size=len(fps),
                unique=True,
            )
        )
        targets = np.array(subset, dtype=np.int64)
        reference = one_vs_all(probe.data, probe.count, packed, config, indices=targets)
        got = ova(
            np.ascontiguousarray(probe.data),
            float(probe.count),
            packed.data,
            packed.lengths,
            packed.counts,
            targets,
            *_config_args(config),
        )
        # Bitwise, not approx: the compiled tier replicates the NumPy
        # reference's operation order including pairwise summation.
        np.testing.assert_array_equal(got, reference)

    @given(fps=collections(max_m=WIDE_M))
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.data_too_large, HealthCheck.too_slow],
    )
    def test_pairwise_matrix_bitwise(self, tier, ova, pm, fps):
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        reference = pairwise_matrix(fps, config)
        got = pm(packed.data, packed.lengths, packed.counts, *_config_args(config))
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("chunk", [1, 3, 256])
    def test_store_wider_than_128_samples(self, tier, ova, pm, chunk):
        # m_max > 128: the zero-padded means recurse past NumPy's
        # 128-element summation block, on both directions of Eq. 10.
        rng = np.random.default_rng(11)
        fps = [
            _wide_fingerprint(rng, f"u{i}", m, count=1 + i % 4)
            for i, m in enumerate([150, 3, 129, 64, 9, 1, 140, 128])
        ]
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        targets = np.arange(len(fps), dtype=np.int64)
        for probe in fps:
            reference = one_vs_all(
                probe.data, probe.count, packed, config, indices=targets, chunk=chunk
            )
            got = ova(
                np.ascontiguousarray(probe.data), float(probe.count), packed.data,
                packed.lengths, packed.counts, targets, *_config_args(config),
            )
            np.testing.assert_array_equal(got, reference)
        reference = pairwise_matrix(fps, config, chunk=chunk)
        got = pm(packed.data, packed.lengths, packed.counts, *_config_args(config))
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("m_probe,m_store", [(40, 12), (140, 20), (260, 150)])
    def test_probe_longer_than_store(self, tier, ova, pm, m_probe, m_store):
        # ma > m_max, so pad_width = ma: the probe's length, not the
        # store's, sets the summation width of both means.
        rng = np.random.default_rng(m_probe)
        fps = [
            _wide_fingerprint(rng, f"u{i}", m, count=1 + i % 3)
            for i, m in enumerate([m_store, 1, m_store // 2, 9, m_store - 1])
        ]
        probe = _wide_fingerprint(rng, "probe", m_probe, count=2)
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        targets = np.array([4, 0, 2, 1, 3], dtype=np.int64)
        for chunk in (1, 3, 256):
            reference = one_vs_all(
                probe.data, probe.count, packed, config, indices=targets, chunk=chunk
            )
            got = ova(
                np.ascontiguousarray(probe.data), float(probe.count), packed.data,
                packed.lengths, packed.counts, targets, *_config_args(config),
            )
            np.testing.assert_array_equal(got, reference)

    def test_saturation_edges(self, tier, ova, pm):
        # One pair far beyond both saturation thresholds (delta == 1)
        # and one identical pair (delta == 0): the clamp edges must be
        # exact, not approximately so.
        near = Fingerprint(
            "a", [Sample(x=0.0, y=0.0, t=0.0)], count=3, members=["a0", "a1", "a2"]
        )
        far = Fingerprint("b", [Sample(x=1e8, y=1e8, t=1e7)], count=1)
        twin = Fingerprint(
            "c", [Sample(x=0.0, y=0.0, t=0.0)], count=2, members=["c0", "c1"]
        )
        packed = PaddedFingerprints([near, far, twin])
        config = StretchConfig()
        got = ova(
            np.ascontiguousarray(near.data),
            float(near.count),
            packed.data,
            packed.lengths,
            packed.counts,
            np.array([1, 2], dtype=np.int64),
            *_config_args(config),
        )
        assert got[0] == 1.0
        assert got[1] == 0.0


def _numpy_bounded():
    """``NumpyBackend``'s bounded pair behind one flat CSR signature.

    The NumPy pair takes ragged per-probe lists, so the adapter splits
    the flat targets and reverse flags the native entry takes.
    """
    from repro.core.engine import NumpyBackend

    backend = NumpyBackend(ComputeConfig(backend="numpy"), StretchConfig())

    def bmva(probe_slots, store, resident, targets, thresholds, *cfg_args):
        return backend.bounded_many_vs_all(
            probe_slots, store, resident, targets, thresholds
        )

    def bmvs(probe_slots, store, resident, flat, offsets, thresholds, reverse,
             best_vals, *cfg_args):
        def split(a):
            return [a[offsets[p] : offsets[p + 1]] for p in range(len(probe_slots))]

        rows, pruned = backend.bounded_many_vs_some(
            probe_slots, store, resident, split(flat), thresholds, split(reverse),
            best_vals,
        )
        return (np.concatenate(rows) if rows else np.empty(0)), pruned

    return bmva, bmvs


def _cc_bounded():
    """The native entries, which read the store through the resident block.

    Their trailing level-1 counts are pinned by :class:`TestLevel1Counter`.
    """

    def bmva(probe_slots, store, resident, targets, thresholds, *cfg_args):
        return kernels.bounded_many_vs_all_arrays(
            resident, probe_slots, targets, thresholds, *cfg_args
        )[:3]

    def bmvs(probe_slots, store, resident, flat, offsets, thresholds, reverse,
             best_vals, *cfg_args):
        return kernels.bounded_many_vs_some_arrays(
            resident, probe_slots, flat, offsets, thresholds, reverse, best_vals,
            *cfg_args,
        )[:2]

    return bmva, bmvs


BOUNDED_BINDINGS = [("numpy", *_numpy_bounded())]
if kernels.COMPILED_AVAILABLE:
    BOUNDED_BINDINGS.append((kernels.COMPILED_TIER, *_cc_bounded()))

#: Admissible per-probe thresholds including both infinities — a
#: threshold only decides *which* pairs evaluate, never their values.
threshold_values = st.one_of(
    st.sampled_from([np.inf, -np.inf, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)


def _bounded_engine(fps, pruning=True):
    return StretchEngine(fps, compute=ComputeConfig(backend="numpy", pruning=pruning))


def _bounded_args(engine, config):
    """The store and the resident summaries every bounded entry reads."""
    return (engine.store, engine._resident), _config_args(config)


def _replay_walk(engine, probe, targets, threshold, reverse=None, best_vals=None):
    """One probe's D13 walk, replayed on the NumPy reference.

    Candidates are visited in stable level-0 bound order.  A candidate
    is pruned — its position keeps the ``+inf`` sentinel — when its
    level-0, then its level-1 bound is strictly above the running best
    and, where reverse-flagged, at or above the target's cached best;
    otherwise it takes ``engine.row``'s value and the running best
    tightens per candidate under the lowest-id tie rule.  Returns
    ``(row, pruned, best, best_idx, reached)``, ``reached`` counting the
    candidates that got past level 0 to the level-1 bound.
    """
    cfg = engine.stretch
    lb0 = hull_lower_bounds(engine._hull, probe, targets, cfg)
    lb1 = bucket_lower_bounds(
        engine.store, engine._bucket_hull, engine._bucket_occ, probe, targets, cfg
    )
    exact = engine.row(probe, targets)
    if reverse is None:
        reverse = np.zeros(targets.size, dtype=bool)
    row = np.full(targets.size, np.inf)
    best, best_idx, pruned, reached = threshold, -1, 0, 0
    for j in np.argsort(lb0, kind="stable"):
        t = targets[j]

        def prunes(lb):
            return lb > best and (not reverse[j] or lb >= best_vals[t])

        if prunes(lb0[j]):
            pruned += 1
            continue
        reached += 1
        if prunes(lb1[j]):
            pruned += 1
            continue
        row[j] = exact[j]
        if exact[j] < best or (exact[j] == best and t < best_idx):
            best, best_idx = exact[j], t
    return row, pruned, best, best_idx, reached


def _csr(t_lists):
    offsets = np.zeros(len(t_lists) + 1, dtype=np.int64)
    np.cumsum([t.size for t in t_lists], out=offsets[1:])
    flat = np.concatenate(t_lists) if offsets[-1] else np.empty(0, dtype=np.int64)
    return flat, offsets


#: Populations of the bounded parity tests: 3–6 fingerprints, or 30–40.
WIDE_OR_SMALL = st.one_of(collections(min_n=3, max_n=6), collections(min_n=30, max_n=40))


def _wide_min(n, wide, small=0):
    """Least target count drawn from a population of ``n``: ``wide`` for
    a wide one (past the NumPy walk's first three rounds), else ``small``."""
    return wide if n >= 30 else small


@pytest.mark.parametrize(
    "tier,bmva,bmvs", BOUNDED_BINDINGS, ids=[b[0] for b in BOUNDED_BINDINGS]
)
class TestBoundedParity:
    """The bounded entries (DESIGN.md D13) of the NumPy pair and cc.

    Three invariants: (1) cc agrees bitwise with :func:`_replay_walk` —
    including the ``+inf`` sentinels and the per-probe pruned counts —
    while the NumPy pair, whose running best tightens per round rather
    than per candidate, evaluates every position the replay evaluates
    (a superset) with the same bits;
    (2) every *evaluated* position is bitwise the unbounded row's value
    — pruning decides which pairs run, never what they return; (3) the
    argmin mode returns exactly the exhaustive lowest-id argmin whenever
    the true minimum is strictly below the probe's threshold, and
    ``(threshold, -1)`` otherwise, for arbitrary admissible thresholds
    including both infinities.  Wide populations give a probe more than
    the 28 candidates of the NumPy walk's first three rounds (4 + 8 +
    16), so its walks reach the 32-candidate cap.
    """

    @given(fps=WIDE_OR_SMALL, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_mode_tiers_agree_and_match_unbounded(self, tier, bmva, bmvs, fps, data):
        engine = _bounded_engine(fps)
        config = engine.stretch
        n = len(fps)
        probes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1, max_size=3, unique=True,
            )
        )
        probe_slots = np.array(probes, dtype=np.int64)
        t_lists = [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=n - 1).filter(
                            lambda t, p=p: t != p
                        ),
                        min_size=_wide_min(n, 29), max_size=n - 1, unique=True,
                    )
                ),
                dtype=np.int64,
            )
            for p in probes
        ]
        thresholds = np.array(
            [data.draw(threshold_values) for _ in probes], dtype=np.float64
        )
        flat, offsets = _csr(t_lists)
        reverse = np.array(
            [data.draw(st.booleans()) for _ in range(int(offsets[-1]))], dtype=bool
        )
        best_vals = np.full(engine.store.capacity, np.inf)
        for t in range(n):
            if data.draw(st.booleans()):
                best_vals[t] = data.draw(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
                )
        arrays, cfg_args = _bounded_args(engine, config)
        out, pruned = bmvs(
            probe_slots, *arrays, flat, offsets, thresholds, reverse, best_vals,
            *cfg_args,
        )
        for p, probe_slot in enumerate(probes):
            row = out[offsets[p] : offsets[p + 1]]
            tgts = t_lists[p]
            assert int(pruned[p]) == int((row == np.inf).sum())
            if tgts.size == 0:
                continue
            rev_p = reverse[offsets[p] : offsets[p + 1]]
            ref_row, ref_pruned, _, _, _ = _replay_walk(
                engine, probe_slot, tgts, thresholds[p], rev_p, best_vals
            )
            if tier == "numpy":
                # (1) a superset of the replay's evaluations, bitwise.
                ref_ev = ref_row < np.inf
                np.testing.assert_array_equal(row[ref_ev], ref_row[ref_ev])
                assert pruned[p] <= ref_pruned
            else:
                # (1) bitwise agreement, sentinels and counts included.
                np.testing.assert_array_equal(row, ref_row)
                assert pruned[p] == ref_pruned
            exact = engine.row(probe_slot, tgts)
            ev = row < np.inf
            # (2) evaluated positions are the unbounded row, bitwise.
            np.testing.assert_array_equal(row[ev], exact[ev])
            # Reverse value-transparency: a pair whose exact value would
            # update the target's cached best is never pruned.
            must_eval = rev_p & (exact < best_vals[tgts])
            assert bool(ev[must_eval].all())

    @given(fps=WIDE_OR_SMALL, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_argmin_mode_matches_exhaustive(self, tier, bmva, bmvs, fps, data):
        engine = _bounded_engine(fps)
        config = engine.stretch
        n = len(fps)
        probes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1, max_size=3, unique=True,
            )
        )
        probe_slots = np.array(probes, dtype=np.int64)
        targets = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=_wide_min(n, 30, 1), max_size=n, unique=True,
                )
            ),
            dtype=np.int64,
        )
        thresholds = np.array(
            [data.draw(threshold_values) for _ in probes], dtype=np.float64
        )
        arrays, cfg_args = _bounded_args(engine, config)
        best, best_idx, pruned = bmva(
            probe_slots, *arrays, targets, thresholds, *cfg_args
        )
        for p, probe_slot in enumerate(probes):
            others = targets[targets != probe_slot]
            tau = thresholds[p]
            if others.size == 0:
                assert best[p] == tau and best_idx[p] == -1
                assert pruned[p] == 0
                continue
            # The probe meeting itself is skipped unseen, so the walk
            # over the other targets is the walk over all of them.
            _, ref_pruned, ref_best, ref_idx, _ = _replay_walk(
                engine, probe_slot, others, tau
            )
            assert best[p] == ref_best and best_idx[p] == ref_idx
            if tier == "numpy":
                assert pruned[p] <= ref_pruned
            else:
                assert pruned[p] == ref_pruned
            exact = engine.row(probe_slot, others)
            vmin = float(exact.min())
            if vmin < tau:
                assert best[p] == vmin
                assert best_idx[p] == int(others[exact == vmin].min())
            else:
                # Strictly-below-threshold semantics: a candidate whose
                # value merely *ties* the threshold never wins.
                assert best[p] == tau
                assert best_idx[p] == -1
            assert 0 <= int(pruned[p]) <= others.size

    def test_threshold_edges(self, tier, bmva, bmvs):
        twin_a = Fingerprint("a", [Sample(x=0.0, y=0.0, t=0.0)], count=1)
        twin_b = Fingerprint("b", [Sample(x=0.0, y=0.0, t=0.0)], count=1)
        far = Fingerprint("c", [Sample(x=1e8, y=1e8, t=1e7)], count=1)
        engine = _bounded_engine([twin_a, twin_b, far])
        arrays, cfg_args = _bounded_args(engine, engine.stretch)
        probe_slots = np.array([0], dtype=np.int64)
        targets = np.array([1, 2], dtype=np.int64)

        def run(tau):
            return bmva(
                probe_slots, *arrays, targets,
                np.array([tau], dtype=np.float64), *cfg_args,
            )

        # tau = +inf: the exhaustive argmin (twin pair, effort 0.0).
        best, idx, _ = run(np.inf)
        assert best[0] == 0.0 and idx[0] == 1
        # tau == exact minimum: strict inequality leaves no winner.
        best, idx, _ = run(0.0)
        assert best[0] == 0.0 and idx[0] == -1
        # tau = -inf: every pair pruned, sentinel result.
        best, idx, pruned = run(-np.inf)
        assert best[0] == -np.inf and idx[0] == -1
        assert pruned[0] == targets.size
        # Each edge in both modes against the replay.  At tau = 0.0 the
        # twin's bounds equal the threshold, and reverse-flagged they
        # equal its cached best of 0.0: only a bound strictly above the
        # running best, and at or above the cached best, may prune.
        best_vals = np.zeros(engine.store.capacity)
        for tau in (np.inf, 0.0, -np.inf):
            _, ref_pruned, ref_best, ref_idx, _ = _replay_walk(engine, 0, targets, tau)
            best, idx, pruned = run(tau)
            assert (best[0], idx[0]) == (ref_best, ref_idx)
            if tier == "numpy":
                continue
            assert pruned[0] == ref_pruned
            for reverse in (np.zeros(2, dtype=bool), np.ones(2, dtype=bool)):
                ref_row, ref_pruned, _, _, _ = _replay_walk(
                    engine, 0, targets, tau, reverse, best_vals
                )
                row, pruned = bmvs(
                    probe_slots, *arrays, targets, np.array([0, 2]), np.array([tau]),
                    reverse, best_vals, *cfg_args,
                )
                np.testing.assert_array_equal(row, ref_row)
                assert pruned[0] == ref_pruned


def _one_ulp_engine(backend="numpy"):
    """A level-1 bound above the exact effort it should bound.

    The probe's 27 zero-extent points, one per 120-min slot, face a
    single-point target (slot 1) and its same-data copy (slot 3); the
    50-sample slot 2 makes ``m_max > ma``.  The level-1 mean sums the 27
    per-sample bounds, the exact effort the same 27 cells zero-padded to
    width 50, and from 9 elements up NumPy's pairwise-summation trees
    for the two widths round differently.
    """
    rng = np.random.default_rng(2)
    probe = np.zeros((27, 6))
    probe[:, [X, Y]] = rng.uniform(0.0, 2e4, (27, 2))
    probe[:, T] = 120.0 * np.arange(27)
    target = np.zeros((1, 6))
    target[0, [X, Y, T]] = (1e4, 1e4, 1500.0)
    long = np.zeros((50, 6))
    long[:, T] = 60.0 * np.arange(50)
    return StretchEngine([
        Fingerprint("probe", probe), Fingerprint("target", target),
        Fingerprint("long", long), Fingerprint("copy", target),
    ], compute=ComputeConfig(backend=backend))


_ONE_ULP = (
    "the level-1 bound exceeds the exact effort by rounding when the probe "
    "has 9+ samples and m_max > ma; a fix moves the prune counters"
)


@pytest.mark.xfail(strict=True, reason=_ONE_ULP)
def test_level1_bound_admissible_past_eight_samples():
    engine = _one_ulp_engine()
    target = np.array([1])
    lb1 = bucket_lower_bounds(
        engine.store, engine._bucket_hull, engine._bucket_occ, 0, target, engine.stretch
    )
    assert lb1[0] <= engine.row(0, target)[0]


@pytest.mark.skipif(not kernels.COMPILED_AVAILABLE, reason="no accelerated kernel binding")
@pytest.mark.xfail(strict=True, reason=_ONE_ULP)
def test_argmin_survives_an_inadmissible_bound():
    # The copy is visited first and sets the running best; the target
    # ties it exactly, but its level-1 bound is above that best, so the
    # sweep prunes the lower id the exhaustive argmin picks.
    engine = _one_ulp_engine()
    best, idx, _, _, _ = kernels.bounded_many_vs_all_arrays(
        engine._resident, np.array([0]), np.array([3, 1]), np.array([np.inf]),
        *_config_args(engine.stretch),
    )
    assert (best[0], idx[0]) == (engine.row(0, np.array([1]))[0], 1)


#: Bucket counts of the level-1 parity test: one and two buckets, one
#: 8-wide stretch of bucket hulls, and the default cap of 48.
LEVEL1_BUCKETS = (1, 2, 8, 48)


@st.composite
def level1_populations(draw, n_buckets):
    """2–4 fingerprints of 1–40 samples over ``n_buckets`` hour-wide buckets.

    Fingerprint 0 opens at minute 0 and fingerprint 1 closes at
    ``60 * n_buckets``, so an engine with ``lb_bucket_minutes=60`` and
    ``lb_max_buckets=n_buckets`` puts its bucket edges on whole hours.
    Sample times fall on those edges or between them with short
    durations, which leaves buckets unoccupied; with the equal-lengths
    flag every fingerprint has the same sample count.  Times sit on a
    quarter-minute grid, so no sample's end rounds past the last edge.
    """
    span = 60.0 * n_buckets
    n = draw(st.integers(min_value=2, max_value=4))
    equal_m = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=40)))
    on_edge = st.integers(min_value=0, max_value=n_buckets).map(lambda h: 60.0 * h)
    time = st.one_of(on_edge, st.integers(0, 4 * int(span)).map(lambda q: q / 4))
    duration = st.one_of(
        st.sampled_from([0.0, 60.0]), st.integers(0, 720).map(lambda q: q / 4)
    )
    coord = st.floats(min_value=-3e4, max_value=3e4)
    extent = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5e3))
    fps = []
    for u in range(n):
        m = equal_m or draw(st.integers(min_value=1, max_value=40))
        rows = []
        for _ in range(m):
            t = draw(time)
            dt = min(draw(duration), span - t)
            rows.append((draw(coord), draw(extent), draw(coord), draw(extent), t, dt))
        fps.append(rows)
    x, dx, y, dy, _, _ = fps[0][0]
    fps[0][0] = (x, dx, y, dy, 0.0, 0.0)
    x, dx, y, dy, _, _ = fps[1][-1]
    fps[1][-1] = (x, dx, y, dy, span, 0.0)
    counts = [draw(st.integers(min_value=1, max_value=5)) for _ in fps]
    return [
        Fingerprint(f"u{u}", np.array(rows), count=c, members=[f"u{u}-{i}" for i in range(c)])
        for u, (rows, c) in enumerate(zip(fps, counts))
    ]


@pytest.mark.skipif(not kernels.COMPILED_AVAILABLE, reason="no accelerated kernel binding")
@pytest.mark.parametrize("n_buckets", LEVEL1_BUCKETS)
class TestLevel1Parity:
    """The native level-1 bound is bitwise ``bucket_lower_bounds``.

    The sweep folds each bucket across a side's samples at once
    (DESIGN.md D13), so fingerprints here run past one SIMD vector of
    samples.  Without a bound entry of its own, the native value is
    pinned by two single-target sweeps per ordered pair: at threshold
    ``L`` (the NumPy bound) the pair reaches level 1 and is evaluated,
    so the native bound is at most ``L``; one ulp below ``L`` it is
    pruned at level 1 wherever level 0 let it through, so the native
    bound is above that ulp.
    """

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bound_is_bitwise_the_numpy_bound(self, n_buckets, data):
        fps = data.draw(level1_populations(n_buckets))
        pruning = data.draw(st.booleans())
        engine = StretchEngine(fps, compute=ComputeConfig(
            backend="numpy", pruning=pruning,
            lb_bucket_minutes=60.0, lb_max_buckets=n_buckets,
        ))
        if pruning:
            assert engine._bucket_occ.shape[1] == n_buckets
            assert (np.diff(engine._bucket_edges) == 60.0).all()
        cfg = engine.stretch
        best_vals = np.full(engine.store.capacity, np.inf)
        n = len(fps)

        def sweep(a, c, tau):
            out, pruned, lb1, _ = kernels.bounded_many_vs_some_arrays(
                engine._resident, np.array([a]), np.array([c]), np.array([0, 1]),
                np.array([tau]), np.zeros(1, dtype=bool), best_vals,
                *_config_args(cfg),
            )
            return out[0] < np.inf, int(lb1[0])

        for a in range(n):
            for c in range(n):
                if a == c:
                    continue
                target = np.array([c])
                L = bucket_lower_bounds(
                    engine.store, engine._bucket_hull, engine._bucket_occ, a, target, cfg
                )[0]
                lb0 = hull_lower_bounds(engine._hull, a, target, cfg)[0]
                if lb0 <= L:
                    assert sweep(a, c, L) == (True, 1)
                if lb0 < L:
                    assert sweep(a, c, np.nextafter(L, -np.inf)) == (False, 1)


@pytest.mark.skipif(not kernels.COMPILED_AVAILABLE, reason="no accelerated kernel binding")
class TestLevel1Counter:
    """The pairs reaching the level-1 bound, counted per probe.

    Each such pair then runs the exact kernel or is pruned by level 1,
    so the native count is the replay's ``reached``: the sweep's exact
    evaluations plus its level-1 prunes.  The argmin sweep meets each
    probe's own slot in the shared targets and skips it uncounted.  With
    neutral summaries every non-self pair reaches level 1.
    """

    @given(
        fps=st.one_of(collections(min_n=3, max_n=6), level1_populations(8)),
        pruning=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_match_the_replay(self, fps, pruning, data):
        engine = _bounded_engine(fps, pruning=pruning)
        cfg_args = _config_args(engine.stretch)
        n = len(fps)
        probes = np.arange(n, dtype=np.int64)
        targets = np.arange(n, dtype=np.int64)
        thresholds = np.array([data.draw(threshold_values) for _ in probes])
        if not pruning:
            # Level 0 is 0 then, so any threshold of at least 0 (the
            # production +inf included) lets every pair through.
            thresholds = np.abs(thresholds)
        _, _, pruned, lb1, _ = kernels.bounded_many_vs_all_arrays(
            engine._resident, probes, targets, thresholds, *cfg_args
        )
        t_lists = [targets[targets != p] for p in probes]
        flat, offsets = _csr(t_lists)
        out, row_pruned, row_lb1, _ = kernels.bounded_many_vs_some_arrays(
            engine._resident, probes, flat, offsets, thresholds,
            np.zeros(flat.size, dtype=bool), np.full(engine.store.capacity, np.inf),
            *cfg_args,
        )
        for p in probes:
            _, ref_pruned, _, _, reached = _replay_walk(engine, p, t_lists[p], thresholds[p])
            evaluated = int((out[offsets[p] : offsets[p + 1]] < np.inf).sum())
            assert lb1[p] == row_lb1[p] == reached
            # Exact evaluations plus level-1 prunes.
            assert evaluated <= reached <= evaluated + ref_pruned
            if not pruning:
                assert reached == evaluated == n - 1 and pruned[p] == 0


def _memo_less(engine):
    """A Resident over the engine's arrays and summaries without a memo:
    every sweep through it runs every kernel."""
    return kernels.Resident(
        engine.store, engine._hull, engine._bucket_hull, engine._bucket_occ,
        engine._bucket_edges,
    )


def _both_sweeps(tier, engine, resident, stretch, probes, targets, thresholds, reverse,
                 best_vals):
    """Both bounded sweeps of ``tier`` over the engine's store, reading
    ``resident``: ``probes`` against ``targets``, each probe's own slot
    left out of its row.  Returns their outputs and summed memo hits.

    The native entries count the pairs reaching level 1 per probe; the
    NumPy walk's totals stand in as one-entry arrays.
    """
    t_lists = [targets[targets != p] for p in probes]
    flat, offsets = _csr(t_lists)
    reverse = reverse[: flat.size]
    if tier == "numpy":
        from repro.core.engine import NumpyBackend

        backend = NumpyBackend(ComputeConfig(backend="numpy"), stretch)
        best, idx, pruned = backend.bounded_many_vs_all(
            probes, engine.store, resident, targets, thresholds
        )
        lb1 = np.array([backend.n_lb1_evaluations])
        rows, row_pruned = backend.bounded_many_vs_some(
            probes, engine.store, resident, t_lists, thresholds,
            [reverse[offsets[p] : offsets[p + 1]] for p in range(len(probes))], best_vals,
        )
        out = np.concatenate(rows) if rows else np.empty(0)
        row_lb1 = np.array([backend.n_lb1_evaluations]) - lb1
        hits = np.array([backend.n_exact_memo_hits, backend.n_lb1_memo_hits])
    else:
        cfg_args = _config_args(stretch)
        best, idx, pruned, lb1, hits = kernels.bounded_many_vs_all_arrays(
            resident, probes, targets, thresholds, *cfg_args
        )
        out, row_pruned, row_lb1, row_hits = kernels.bounded_many_vs_some_arrays(
            resident, probes, flat, offsets, thresholds, reverse, best_vals, *cfg_args,
        )
        hits = hits + row_hits
    return (best, idx, pruned, lb1, out, row_pruned, row_lb1), hits


#: :class:`TestWalkPairMemo` runs :class:`TestPairMemo`'s ``@given``
#: bodies from a second class, which hypothesis reports unless told the
#: sharing is meant.
_TWO_TIERS = [HealthCheck.differing_executors]


class TestPairMemo:
    """The pair memo changes no output bit (DESIGN.md D13, "The pair memo").

    Each case runs both bounded sweeps of the tier (the native ones
    here, the NumPy walk's in :class:`TestWalkPairMemo`) through the
    engine's Resident, which carries its memo, and the same calls
    through a memo-less Resident over the same arrays, which runs every
    kernel: rows, ``+inf`` sentinels, best/best_idx, pruned and level-1
    counts must match bit for bit.  Exact efforts are keyed by the
    unordered pair, level-1 bounds by the ordered one.
    """

    tier, backend = kernels.COMPILED_TIER, "compiled"

    @pytest.fixture(autouse=True)
    def _bound_tier(self):
        if self.tier is None:
            pytest.skip("no accelerated kernel binding")

    def _engine(self, fps, pruning=True):
        return StretchEngine(fps, compute=ComputeConfig(backend=self.backend, pruning=pruning))

    @staticmethod
    def _inputs(data, engine, n_probes):
        thresholds = np.array([data.draw(threshold_values) for _ in range(n_probes)])
        if not engine.pruning:
            thresholds = np.abs(thresholds)
        reverse = np.array(data.draw(st.lists(
            st.booleans(), min_size=n_probes * engine.store.size,
            max_size=n_probes * engine.store.size,
        )), dtype=bool)
        best_vals = np.array(data.draw(st.lists(
            st.sampled_from([np.inf, 0.0, 0.25, 0.5, 1.0]),
            min_size=engine.store.capacity, max_size=engine.store.capacity,
        )))
        return thresholds, reverse, best_vals

    def _check(self, engine, probes, targets, thresholds, reverse, best_vals):
        """The sweeps' outputs, bitwise the memo-less ones; the memo hits."""
        args = (probes, targets, thresholds, reverse, best_vals)
        got, hits = _both_sweeps(self.tier, engine, engine._resident, engine.stretch, *args)
        ref, ref_hits = _both_sweeps(
            self.tier, engine, _memo_less(engine), engine.stretch, *args
        )
        assert ref_hits.tolist() == [0, 0]
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        return got, hits.tolist()

    @pytest.mark.parametrize("pruning", [True, False], ids=["pruning", "no-prune"])
    @given(
        fps=st.one_of(collections(min_n=3, max_n=6), level1_populations(8)),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=_TWO_TIERS)
    def test_repeated_calls(self, pruning, fps, data):
        engine = self._engine(fps, pruning)
        n = len(fps)
        probes = targets = np.arange(n, dtype=np.int64)
        for _ in range(2):
            inputs = self._inputs(data, engine, n)
            self._check(engine, probes, targets, *inputs)
            entries = engine._memo.entries()
            # The same call again walks the same pairs: the memo now holds
            # every level-1 bound and exact effort it reaches, so it
            # records nothing new and serves every exact evaluation.
            got, hits = self._check(engine, probes, targets, *inputs)
            _, _, pruned, lb1, out, _, row_lb1 = got
            evaluated = n * (n - 1) - int(pruned.sum()) + int(np.count_nonzero(out < np.inf))
            assert engine._memo.entries() == entries
            assert hits[0] == evaluated
            if self.tier == "numpy":
                assert hits[1] <= int(lb1.sum() + row_lb1.sum())
            else:
                assert hits[1] == int(lb1.sum() + row_lb1.sum())

    @given(fps=collections(min_n=2, max_n=4))
    @settings(max_examples=30, deadline=None, suppress_health_check=_TWO_TIERS)
    def test_swapped_roles(self, fps):
        # At a +inf threshold a lone pair is always evaluated.  Swapping
        # probe and target recalls the exact effort (unordered key) but
        # not the level-1 bound (ordered key); the original order then
        # recalls both.  The NumPy walk's lone pair never reaches a
        # finite best before its exact round, so it consults no bound.
        engine = self._engine(fps)
        best_vals = np.full(engine.store.capacity, np.inf)
        no_reverse = np.zeros(1, dtype=bool)

        def lone(a, c):
            got, hits = self._check(
                engine, np.array([a]), np.array([a, c]), np.array([np.inf]),
                no_reverse, best_vals,
            )
            assert got[4][0] < np.inf
            return hits

        expected = [[1, 1], [2, 1], [2, 2]]
        if self.tier == "numpy":
            expected = [[1, 0], [2, 0], [2, 0]]
        n = len(fps)
        for a in range(n):
            for c in range(a + 1, n):
                # The argmin sweep's values, recalled by the row sweep.
                assert [lone(a, c), lone(c, a), lone(a, c)] == expected

    def test_level1_keys_are_ordered(self):
        # D4's rounding case: the probe side means over its 27 samples,
        # the target side over the zero-padded width 50, so the two
        # directions of the level-1 bound differ in the last bit.  The
        # smaller one, recorded first, must not be recalled for the
        # other direction: one ulp below its own bound that pair prunes.
        engine = _one_ulp_engine(self.backend)
        cfg = engine.stretch
        best_vals = np.full(engine.store.capacity, np.inf)

        def sweep(a, c, tau):
            got, hits = _both_sweeps(
                self.tier, engine, engine._resident, cfg, np.array([a]), np.array([a, c]),
                np.array([tau]), np.zeros(1, dtype=bool), best_vals,
            )
            return bool(got[4][0] < np.inf), int(got[6].sum())

        bound = {
            (a, c): bucket_lower_bounds(
                engine.store, engine._bucket_hull, engine._bucket_occ, a, np.array([c]), cfg
            )[0]
            for a, c in ((0, 1), (1, 0))
        }
        assert bound[(1, 0)] < bound[(0, 1)]
        assert sweep(1, 0, bound[(1, 0)]) == (True, 1)
        assert sweep(0, 1, np.nextafter(bound[(0, 1)], -np.inf)) == (False, 1)
        assert sweep(0, 1, bound[(0, 1)]) == (True, 1)

    @given(fps=collections(min_n=3, max_n=5), data=st.data())
    @settings(max_examples=30, deadline=None, suppress_health_check=_TWO_TIERS)
    def test_across_a_store_growth(self, fps, data):
        # Slots keep their ids and bytes when the store grows, so the
        # memo carries over into the rebuilt Resident.
        engine = self._engine(fps)
        n = len(fps)
        probes = np.arange(n, dtype=np.int64)
        self._check(engine, probes, probes, *self._inputs(data, engine, n))
        before = engine._memo.entries()
        cap = engine.store.capacity
        while engine.store.capacity == cap:
            engine.merge_step(0, 1)
        assert engine._resident.memo is engine._memo
        assert engine._memo.entries() == before
        targets = np.arange(engine.store.size, dtype=np.int64)
        self._check(engine, probes, targets, *self._inputs(data, engine, n))
        inputs = self._inputs(data, engine, targets.size)
        self._check(engine, targets, targets, *inputs)
        entries = engine._memo.entries()
        _, again = self._check(engine, targets, targets, *inputs)
        assert engine._memo.entries() == entries
        # The NumPy walk may settle every probe before level 1 (D13).
        assert again[1] > 0 if self.tier != "numpy" else sum(again) > 0

    @given(fps=collections(min_n=4, max_n=6), data=st.data())
    @settings(max_examples=30, deadline=None, suppress_health_check=_TWO_TIERS)
    def test_past_the_cap(self, fps, data):
        # One entry of each kind per slot of capacity: the memo fills
        # and stops inserting, and nothing else changes.  Thresholds of
        # at most 2.0 prune nothing here (no pruning, efforts <= 1) but
        # give the NumPy walk a finite best, so it consults every
        # level-1 bound too.
        engine = self._engine(fps, pruning=False)
        engine._memo = type(engine._memo)(_config_args(engine.stretch), per_slot=1)
        engine._bind()
        limit = engine.store.capacity
        probes = np.arange(len(fps), dtype=np.int64)
        thresholds, reverse, best_vals = self._inputs(data, engine, probes.size)
        inputs = (np.minimum(thresholds, 2.0), reverse, best_vals)
        for _ in range(3):
            self._check(engine, probes, probes, *inputs)
        exact, level1 = engine._memo.entries()
        assert exact <= limit and level1 == min(limit, probes.size * (probes.size - 1))

    @given(fps=collections(min_n=3, max_n=6), data=st.data())
    @settings(max_examples=30, deadline=None, suppress_health_check=_TWO_TIERS)
    def test_other_summaries_never_read_the_memo(self, fps, data):
        # The bench's widened hulls: every bound reads 0, so a recalled
        # level-1 value of the engine's summaries would prune wrongly.
        engine = self._engine(fps)
        n = len(fps)
        probes = np.arange(n, dtype=np.int64)
        inputs = self._inputs(data, engine, n)
        self._check(engine, probes, probes, *inputs)
        entries = engine._memo.entries()
        hull, bhull = engine._hull.copy(), engine._bucket_hull.copy()
        for lo, hi in ((0, 1), (2, 3), (4, 5)):
            hull[lo], hull[hi] = -np.inf, np.inf
            bhull[..., lo], bhull[..., hi] = -np.inf, np.inf
        wide = kernels.Resident(
            engine.store, hull, bhull, engine._bucket_occ, engine._bucket_edges
        )
        assert wide.memo is None
        (best, idx, pruned, lb1, *_), hits = _both_sweeps(
            self.tier, engine, wide, engine.stretch, probes, probes, np.full(n, np.inf),
            np.zeros(n * n, dtype=bool), np.full(engine.store.capacity, np.inf),
        )
        assert hits.tolist() == [0, 0] and engine._memo.entries() == entries
        assert pruned.tolist() == [0] * n and int(lb1.sum()) == n * (n - 1)
        for p in probes:
            others = probes[probes != p]
            row = engine.row(p, others)
            assert (best[p], idx[p]) == (row.min(), others[row == row.min()].min())

    @given(fps=collections(min_n=3, max_n=5), data=st.data())
    @settings(max_examples=20, deadline=None, suppress_health_check=_TWO_TIERS)
    def test_another_configuration_bypasses_the_memo(self, fps, data):
        engine = self._engine(fps)
        n = len(fps)
        probes = np.arange(n, dtype=np.int64)
        inputs = (probes, probes) + self._inputs(data, engine, n)
        self._check(engine, *inputs)
        entries = engine._memo.entries()
        got, hits = _both_sweeps(self.tier, engine, engine._resident, SKEWED_STRETCH, *inputs)
        ref, _ = _both_sweeps(self.tier, engine, _memo_less(engine), SKEWED_STRETCH, *inputs)
        assert hits.tolist() == [0, 0] and engine._memo.entries() == entries
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, ref))

    def test_engines_do_not_share_a_memo(self):
        # Same slot ids, different bytes: a memo shared across engines
        # would serve one population's values to the other.
        rng = np.random.default_rng(5)
        probes = np.arange(4, dtype=np.int64)
        for _ in range(2):
            rows = np.zeros((4, 6))
            rows[:, [X, Y]] = rng.uniform(0.0, 2e4, (4, 2))
            rows[:, T] = rng.uniform(0.0, 600.0, 4)
            engine = self._engine([Fingerprint(f"u{i}", rows[i : i + 1]) for i in range(4)])
            assert engine._memo.entries() == (0, 0)
            _, hits = self._check(
                engine, probes, probes, np.full(4, np.inf), np.zeros(16, dtype=bool),
                np.full(engine.store.capacity, np.inf),
            )
            assert hits[0] > 0
            if self.tier != "numpy":
                assert hits[1] > 0


class TestWalkPairMemo(TestPairMemo):
    """:class:`TestPairMemo` on the NumPy walk's dict memo.

    The walk consults level 1 only once a probe's running best is
    finite, so the expected level-1 hits differ where a case keeps the
    best at ``+inf`` (DESIGN.md D13, "The NumPy pair").
    """

    tier = backend = "numpy"


MERGE_BINDINGS = []
if kernels.COMPILED_AVAILABLE:
    MERGE_BINDINGS.append(
        (
            kernels.COMPILED_TIER,
            kernels.summarize_arrays,
            kernels.merge_step,
        )
    )

#: Input regimes of the merge-product parity tests.
MERGE_REGIMES = ("duplicates", "zero-extent", "far-subnormal", "overlap", "random")

#: Exact multiples of the smallest subnormal double.
_SUBNORMAL = st.integers(min_value=0, max_value=1 << 20).map(lambda i: i * 5e-324)


def _regime_row(draw, regime):
    if regime == "far-subnormal":
        near = st.floats(min_value=1e6 - 500.0, max_value=1e6 + 500.0)
        return (draw(near), 100.0, draw(near), 100.0, draw(_SUBNORMAL), draw(_SUBNORMAL))
    if regime == "zero-extent":
        grid = st.sampled_from([0.0, -0.0, 50.0, 100.0, 250.0])
        return (draw(grid), 0.0, draw(grid), 0.0, draw(grid), 0.0)
    if regime == "overlap":
        # Long intervals packed into two hours: most of them overlap.
        coord = st.floats(min_value=0.0, max_value=2e3)
        ext = st.floats(min_value=0.0, max_value=500.0)
        return (
            draw(coord), draw(ext), draw(coord), draw(ext),
            draw(st.floats(min_value=0.0, max_value=120.0)),
            draw(st.floats(min_value=0.0, max_value=120.0)),
        )
    return (
        draw(coords), draw(extents), draw(coords), draw(extents),
        draw(times), draw(durations),
    )


@st.composite
def merge_inputs(draw, n_fps=2, max_m=40):
    """``n_fps`` fingerprints of 1..``max_m`` samples in one regime.

    Up to 40 samples, so stage-1 groups and reshape runs exceed the 8
    elements below which NumPy's reductions fold sequentially.  In the
    duplicates regime every row comes from one small shared pool, so
    efforts tie within and across the fingerprints.
    """
    regime = draw(st.sampled_from(MERGE_REGIMES))
    pool = None
    if regime == "duplicates":
        pool = [
            _regime_row(draw, "random")
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
    fps = []
    for u in range(n_fps):
        m = draw(st.integers(min_value=1, max_value=max_m))
        if pool is not None:
            rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(m)]
        else:
            rows = [_regime_row(draw, regime) for _ in range(m)]
        count = draw(st.integers(min_value=1, max_value=5))
        members = [f"u{u}-{i}" for i in range(count)]
        fps.append(Fingerprint(f"u{u}", np.array(rows), count=count, members=members))
    return fps


def _step_rows(merge_step, long, short, reshape_on):
    """The rows the merge-step entry writes for ``long`` (slot 0, so it
    leads on equal lengths) and ``short`` (slot 1)."""
    engine = StretchEngine([long, short], compute=ComputeConfig(backend="numpy"))
    dst = engine._next_slot()
    n = merge_step(
        engine._resident, 0, 1, dst, reshape_on, ATOL, False,
        *_config_args(engine.stretch),
    )
    return engine.store.data[dst, :n].copy()


def _summary_bytes(engine):
    n = engine.store.size
    return (
        engine._hull[:, :n].tobytes(),
        engine._bucket_hull[:n].tobytes(),
        engine._bucket_occ[:n].tobytes(),
    )


def _resident_bytes(engine):
    """Every resident array of an engine, whole capacity included."""
    store = engine.store
    return tuple(
        arr.tobytes()
        for arr in (
            store.data, store.mask, store.lengths, store.counts,
            engine._hull, engine._bucket_hull, engine._bucket_occ,
        )
    )


def _chain_product(a, b, reshape_on, config):
    """Fingerprints ``a`` and ``b`` merged through the NumPy chain.

    ``merge_sample_arrays`` with the longer leading (``a`` on equal
    lengths), the ``Fingerprint`` constructor's canonicalization, then
    ``reshape_sample_array`` when ``reshape_on`` and an overlap exists.
    """
    long, short = (a, b) if a.m >= b.m else (b, a)
    merged = Fingerprint(
        f"{a.uid}+{b.uid}",
        merge_sample_arrays(long.data, short.data, long.count, short.count, config),
        count=a.count + b.count,
        members=a.members + b.members,
    )
    if reshape_on and has_temporal_overlap(merged.data):
        merged = merged.with_samples(reshape_sample_array(merged.data))
    return merged


@pytest.mark.parametrize(
    "tier,summarize,merge_step",
    MERGE_BINDINGS,
    ids=[b[0] for b in MERGE_BINDINGS],
)
class TestMergeProductParity:
    """The merge-product entries equal the NumPy bodies byte for byte.

    ``summarize_arrays`` and the fused ``merge_step`` of the bound tier
    (its merge stage, its reshape stage and the whole step) against
    ``merge_sample_arrays``, ``reshape_sample_array`` and
    ``StretchEngine._summarize``, compared by ``tobytes()`` so a sign bit
    on a zero counts (DESIGN.md D9).
    """

    @given(fps=merge_inputs())
    @settings(max_examples=60, deadline=None)
    def test_merge_bitwise(self, tier, summarize, merge_step, fps):
        long, short = sorted(fps, key=lambda fp: -fp.m)
        reference = merge_sample_arrays(
            long.data, short.data, long.count, short.count, StretchConfig()
        )
        got = _step_rows(merge_step, long, short, reshape_on=False)
        assert got.shape == reference.shape
        assert got.tobytes() == reference.tobytes()

    @given(fps=merge_inputs())
    @settings(max_examples=60, deadline=None)
    def test_reshape_bitwise(self, tier, summarize, merge_step, fps):
        # The step's reshape stage on its own merge product: the sweep
        # where an overlap exists, the rows unchanged where none does.
        long, short = sorted(fps, key=lambda fp: -fp.m)
        merged = _step_rows(merge_step, long, short, reshape_on=False)
        reshaped = _step_rows(merge_step, long, short, reshape_on=True)
        overlap = has_temporal_overlap(merged)
        reference = reshape_sample_array(merged) if overlap else merged
        assert reshaped.tobytes() == reference.tobytes()
        assert (reshaped.shape[0] == merged.shape[0]) == (not overlap)

    @given(fps=merge_inputs(n_fps=5, max_m=12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_summaries_bitwise(
        self, tier, summarize, merge_step, fps, data
    ):
        # Hour-aligned times on hour buckets put samples exactly on
        # bucket edges; single-sample slots come from m = 1 draws.
        if data.draw(st.booleans()):
            hours = st.sampled_from([0.0, 60.0, 120.0, 300.0, 600.0])
            fps = [
                Fingerprint(
                    fp.uid,
                    np.column_stack([
                        fp.data[:, :4],
                        [data.draw(hours) for _ in range(fp.m)],
                        [data.draw(st.sampled_from([0.0, 30.0, 60.0])) for _ in range(fp.m)],
                    ]),
                    count=fp.count, members=fp.members,
                )
                for fp in fps
            ]
        engine = StretchEngine(
            fps, compute=ComputeConfig(backend="numpy", lb_bucket_minutes=60.0)
        )
        # Merging past the initial capacity (2n) grows every summary
        # array before the late slots are summarized.
        for _ in range(len(fps) + 1):
            i, j = data.draw(
                st.lists(
                    st.integers(0, engine.store.size - 1),
                    min_size=2, max_size=2, unique=True,
                )
            )
            engine.merge_step(i, j)
        assert engine.store.size > 2 * len(fps)
        own = _summary_bytes(engine)

        slots = np.arange(engine.store.size)
        for slot in slots:
            engine._summarize(slot)
        reference = _summary_bytes(engine)
        for arr in (engine._hull, engine._bucket_hull, engine._bucket_occ):
            arr[...] = 0
        summarize(engine._resident, slots)
        assert _summary_bytes(engine) == reference
        assert own == reference

    @given(
        fps=merge_inputs(n_fps=3, max_m=20),
        reshape_on=st.booleans(),
        pruning=st.booleans(),
        stretch=st.sampled_from([StretchConfig(), SKEWED_STRETCH]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_step_bitwise(
        self, tier, summarize, merge_step, fps, reshape_on, pruning,
        stretch, data,
    ):
        # n + 1 merges of filled slots (products included) fill the 2n
        # initial slots and grow the store, so the last products land
        # past a growth, through a freshly bound resident block.
        compute = ComputeConfig(backend="numpy", pruning=pruning, lb_bucket_minutes=60.0)
        reference = StretchEngine(fps, stretch, compute)
        engines = {body: StretchEngine(fps, stretch, compute) for body in ("cc", "numpy")}
        for _ in range(len(fps) + 1):
            i, j = data.draw(
                st.lists(
                    st.integers(0, reference.store.size - 1),
                    min_size=2, max_size=2, unique=True,
                )
            )
            product = _chain_product(
                reference.store.fps[i], reference.store.fps[j], reshape_on, stretch
            )
            slot = reference._next_slot()
            reference.store.append(product)
            if pruning:
                reference._summarize(slot)
            assert engines["cc"].merge_step(i, j, reshape_on) == slot
            with mock.patch.object(kernels, "COMPILED_AVAILABLE", False):
                assert engines["numpy"].merge_step(i, j, reshape_on) == slot
        assert reference.store.size > 2 * len(fps)
        want = _resident_bytes(reference)
        for body, engine in engines.items():
            assert _resident_bytes(engine) == want, body
            assert engine.store.size == reference.store.size
            for got, ref in zip(engine.store.fps, reference.store.fps[: reference.store.size]):
                assert (got.uid, got.count, got.members) == (ref.uid, ref.count, ref.members)
                assert got.data.tobytes() == ref.data.tobytes(), body

    def test_merge_step_rejects_bad_slots(
        self, tier, summarize, merge_step
    ):
        rows = np.zeros((3, 6))
        engine = _bounded_engine([Fingerprint("a", rows), Fingerprint("b", rows)])
        store = engine.store
        args = (True, ATOL, True, *_config_args(engine.stretch))
        # Out of range either way, and a slot that holds no fingerprint.
        for bad in (-1, store.capacity, store.size):
            with pytest.raises(ValueError, match="slot ids"):
                merge_step(engine._resident, bad, 0, store.size, *args)
            with pytest.raises(ValueError, match="slot ids"):
                merge_step(engine._resident, 0, bad, store.size, *args)
            with pytest.raises(ValueError, match="slot ids"):
                engine.merge_step(0, bad)
        for dst in (-1, store.capacity):
            with pytest.raises(ValueError, match="capacity"):
                merge_step(engine._resident, 0, 1, dst, *args)
        assert store.size == 2 and not store.lengths[2:].any()

    def test_signed_zero_inputs(self, tier, summarize, merge_step):
        # 12-row zero-extent +-0.0 fingerprints: the stage-1 groups and
        # the reshape run exceed 8 rows, where NumPy's min/max would
        # resolve a +-0.0 tie by SIMD lane.  The Fingerprint boundary
        # drops the sign bits, so every path gives the same bytes.
        zero = (0.0, -0.0)
        long_rows = np.zeros((12, 6))
        short_rows = np.zeros((12, 6))
        for i in range(12):
            # Long rows alternate between two places, so the two groups
            # interleave in time and the merge product overlaps itself.
            long_rows[i] = (zero[i % 2] + 1e3 * (i % 2), 0.0, zero[i // 2 % 2], 0.0,
                            zero[i % 3 == 0] + i // 2, 0.0)
            short_rows[i] = (zero[i % 2], 0.0, zero[(i + 1) % 2], 0.0, zero[i % 2], 0.0)
        short_rows[1, 0] = 1e3
        long = Fingerprint("a", long_rows)
        short = Fingerprint("b", short_rows)
        assert np.signbit(long_rows).any() and np.signbit(short_rows).any()

        reference = merge_sample_arrays(long.data, short.data, 1, 1)
        got = _step_rows(merge_step, long, short, reshape_on=False)
        assert got.tobytes() == reference.tobytes()
        merged = Fingerprint("m", reference)
        rows = _step_rows(merge_step, long, short, reshape_on=True)
        reshaped = reshape_sample_array(merged.data)
        assert rows.shape[0] < merged.m
        assert rows.tobytes() == reshaped.tobytes()
        assert not np.signbit(reshaped).any()


@pytest.mark.skipif(
    kernels.COMPILED_TIER != "cc", reason="the cc wrappers guard raw pointers"
)
def test_cc_merge_product_entries_validate_inputs():
    rows = np.zeros((3, 6))
    # The summaries' arrays are validated when the engine binds them
    # (TestResidentValidation); the slot ids are checked per call, as
    # the merge step's are (test_merge_step_rejects_bad_slots).
    engine = _bounded_engine([Fingerprint("a", rows), Fingerprint("b", rows)])
    store = engine.store
    # Out of range either way, and a slot that holds no fingerprint yet.
    for slot in (-1, store.capacity, store.size):
        with pytest.raises(ValueError, match="slot ids"):
            kernels.summarize_arrays(engine._resident, np.array([slot]))


class TestResidentValidation:
    """Validation before pointers (DESIGN.md D9, "Binding by address").

    An engine checks the shape, dtype and C-contiguity of every resident
    array when it is built and again after every growth, on every tier,
    before any address is taken; a mismatch raises ``ValueError``.
    """

    @staticmethod
    def _fps():
        rows = np.zeros((3, 6))
        rows[:, T] = (0.0, 60.0, 120.0)
        return [Fingerprint("a", rows), Fingerprint("b", rows + 1.0)]

    @pytest.mark.parametrize(
        "name,corrupt",
        [
            ("data", np.asfortranarray),
            ("data", lambda a: np.zeros(a.shape[:2] + (7,))),
            ("lengths", lambda a: a.astype(np.int32)),
            ("lengths", lambda a: np.append(a, 0)),
            ("counts", lambda a: a[::-1]),
            ("mask", lambda a: a.astype(np.uint8)),
        ],
        ids=[
            "fortran-data", "seven-column-data", "int32-lengths", "long-lengths",
            "strided-counts", "uint8-mask",
        ],
    )
    def test_rejected_at_build(self, monkeypatch, name, corrupt):
        from repro.core import engine as engine_module

        class Corrupted(engine_module.SlotStore):
            def __init__(self, fps):
                super().__init__(fps)
                setattr(self, name, corrupt(getattr(self, name)))

        monkeypatch.setattr(engine_module, "SlotStore", Corrupted)
        with pytest.raises(ValueError, match=f"resident array {name} "):
            StretchEngine(self._fps(), compute=ComputeConfig(backend="numpy"))

    @pytest.mark.parametrize(
        "owner,name,corrupt",
        [
            ("store", "counts", lambda a: a.astype(np.int32)),
            ("engine", "_bucket_hull", lambda a: a.astype(np.float32)),
            ("engine", "_bucket_occ", lambda a: a.view(np.uint8)),
        ],
        ids=["int32-counts", "float32-bucket-hull", "uint8-occupancy"],
    )
    def test_rejected_at_growth(self, owner, name, corrupt):
        engine = StretchEngine(self._fps(), compute=ComputeConfig(backend="numpy"))
        target = engine.store if owner == "store" else engine
        setattr(target, name, corrupt(getattr(target, name)))
        engine.merge_step(0, 1)
        engine.merge_step(0, 2)
        assert engine.store.size == engine.store.capacity
        with pytest.raises(ValueError, match=f"resident array {name.lstrip('_')} "):
            engine.merge_step(1, 3)

    def test_growth_releases_the_old_arrays(self):
        # A fresh resident block replaces the old one, so nothing keeps
        # the pre-growth arrays alive once the engine lets go of them.
        engine = StretchEngine(self._fps(), compute=ComputeConfig(backend="numpy"))
        old = [weakref.ref(engine.store.data), weakref.ref(engine._bucket_hull)]
        engine.merge_step(0, 1)
        engine.merge_step(0, 2)
        engine.merge_step(1, 3)
        assert engine.store.size > 4
        gc.collect()
        assert all(ref() is None for ref in old)


@pytest.mark.parametrize(
    "tier,bmva,bmvs", BOUNDED_BINDINGS, ids=[b[0] for b in BOUNDED_BINDINGS]
)
class TestBatchedParity:
    """The bounded entries as plain batched rows under neutral summaries.

    With ``pruning=False`` the engine's summaries are neutral: every
    bound is 0, so no entry of any tier prunes a pair, and row ``p`` of
    a multi-probe call is bitwise :meth:`StretchEngine.row` of probe
    ``p`` — the property that makes ``--no-prune`` value-transparent.
    """

    @given(probes=collections(min_n=1, max_n=4), fps=collections(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_many_vs_all_bitwise(self, tier, bmva, bmvs, probes, fps, data):
        engine = _bounded_engine(probes + fps, pruning=False)
        arrays, cfg_args = _bounded_args(engine, engine.stretch)
        probe_slots = np.arange(len(probes), dtype=np.int64)
        targets = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(probes) + len(fps) - 1),
                    min_size=1, max_size=len(fps), unique=True,
                )
            ),
            dtype=np.int64,
        )
        best, best_idx, pruned = bmva(
            probe_slots, *arrays, targets, np.full(len(probes), np.inf), *cfg_args
        )
        assert not pruned.any()
        for p in range(len(probes)):
            others = targets[targets != p]
            if others.size == 0:
                assert best[p] == np.inf and best_idx[p] == -1
                continue
            exact = engine.row(p, others)
            assert best[p] == exact.min()
            assert best_idx[p] == others[exact == exact.min()].min()

    @given(probes=collections(min_n=1, max_n=4), fps=collections(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_many_vs_some_bitwise_ragged(self, tier, bmva, bmvs, probes, fps, data):
        engine = _bounded_engine(probes + fps, pruning=False)
        arrays, cfg_args = _bounded_args(engine, engine.stretch)
        probe_slots = np.arange(len(probes), dtype=np.int64)
        # Per-probe target lists, empties allowed: the merge frontier
        # batches probes whose candidate lists may have emptied.
        t_lists = [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(
                            min_value=len(probes), max_value=len(probes) + len(fps) - 1
                        ),
                        min_size=0, max_size=len(fps), unique=True,
                    )
                ),
                dtype=np.int64,
            )
            for _ in probes
        ]
        flat, offsets = _csr(t_lists)
        reverse = np.array(
            [data.draw(st.booleans()) for _ in range(flat.size)], dtype=bool
        )
        best_vals = np.zeros(engine.store.capacity)
        out, pruned = bmvs(
            probe_slots, *arrays, flat, offsets, np.full(len(probes), np.inf),
            reverse, best_vals, *cfg_args,
        )
        assert out.shape == (flat.size,)
        assert not pruned.any()
        for p, tgts in enumerate(t_lists):
            if tgts.size:
                np.testing.assert_array_equal(
                    out[offsets[p] : offsets[p + 1]], engine.row(p, tgts)
                )

    def test_empty_batch(self, tier, bmva, bmvs):
        fp = Fingerprint("a", [Sample(x=0.0, y=0.0, t=0.0)], count=1)
        engine = _bounded_engine([fp, fp], pruning=False)
        arrays, cfg_args = _bounded_args(engine, engine.stretch)
        empty_i64 = np.zeros(0, dtype=np.int64)
        best, best_idx, pruned = bmva(
            empty_i64, *arrays, np.array([0], dtype=np.int64), np.zeros(0), *cfg_args
        )
        assert best.shape == best_idx.shape == pruned.shape == (0,)
        out, pruned = bmvs(
            empty_i64, *arrays, empty_i64, np.zeros(1, dtype=np.int64), np.zeros(0),
            np.zeros(0, dtype=bool), np.zeros(engine.store.capacity), *cfg_args,
        )
        assert out.shape == pruned.shape == (0,)

    def test_single_probe_matches_one_vs_all(self, tier, bmva, bmvs):
        probe = Fingerprint(
            "p", [Sample(x=10.0, y=20.0, t=5.0), Sample(x=1500.0, y=0.0, t=90.0)],
            count=3, members=["p0", "p1", "p2"],
        )
        fps = [
            Fingerprint("a", [Sample(x=0.0, y=0.0, t=0.0)], count=1),
            Fingerprint("b", [Sample(x=50_000.0, y=0.0, t=900.0)], count=2,
                        members=["b0", "b1"]),
        ]
        engine = _bounded_engine([probe] + fps, pruning=False)
        arrays, cfg_args = _bounded_args(engine, engine.stretch)
        targets = np.array([1, 2], dtype=np.int64)
        out, pruned = bmvs(
            np.array([0], dtype=np.int64), *arrays, targets,
            np.array([0, 2], dtype=np.int64), np.array([np.inf]),
            np.zeros(2, dtype=bool), np.zeros(engine.store.capacity), *cfg_args,
        )
        assert pruned[0] == 0
        packed = PaddedFingerprints([probe] + fps)
        reference = one_vs_all(
            probe.data, probe.count, packed, engine.stretch, indices=targets
        )
        np.testing.assert_array_equal(out, reference)


def _run_fallback_probe(body, env_updates):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    env.update(env_updates)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )


class TestFallback:
    def test_no_accelerated_tier_binds_no_entry(self):
        # The cc tier disabled: the module must still import, report no
        # compiled tier and why, and bind no native entry — every caller
        # keys on COMPILED_AVAILABLE and runs the NumPy bodies.
        proc = _run_fallback_probe(
            """
            from repro.core import kernels
            assert kernels.COMPILED_TIER is None
            assert not kernels.COMPILED_AVAILABLE
            for name in (
                "one_vs_all_arrays", "pairwise_matrix_arrays",
                "bounded_many_vs_all_arrays", "bounded_many_vs_some_arrays",
                "summarize_arrays", "merge_step", "greedy_merge",
            ):
                assert not hasattr(kernels, name), name
            assert kernels.FALLBACK_REASON == "disabled by REPRO_CC_KERNEL=0"
            print("fallback-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout

    def test_auto_backend_uses_numpy_without_compiled(self):
        proc = _run_fallback_probe(
            """
            from repro.core.config import ComputeConfig, StretchConfig
            from repro.core.engine import NumpyBackend, create_backend

            backend = create_backend(ComputeConfig(backend="auto"), StretchConfig())
            assert type(backend) is NumpyBackend
            print("auto-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "auto-ok" in proc.stdout

    def test_compiled_backend_raises_without_binding(self):
        proc = _run_fallback_probe(
            """
            from repro.core.config import ComputeConfig, StretchConfig
            from repro.core.engine import create_backend

            try:
                create_backend(ComputeConfig(backend="compiled"), StretchConfig())
            except RuntimeError as exc:
                assert "(disabled by REPRO_CC_KERNEL=0)" in str(exc), exc
                print("raise-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "raise-ok" in proc.stdout

    def test_glove_runs_without_accelerated_tier(self):
        # End-to-end: the default path stays fully functional with every
        # accelerated tier unavailable.  Merge, reshape and the bound
        # summaries run on their NumPy bodies (counted through the
        # module bindings their callers use), and the publication is
        # byte for byte the bound tier's.
        proc = _run_fallback_probe(
            """
            from repro.core import merge, reshape
            from repro.core.artifacts import ArtifactStore, dataset_digest
            from repro.core.config import ComputeConfig, GloveConfig
            from repro.core.engine import StretchEngine
            from repro.core.glove import glove
            from repro.core.pipeline import Pipeline
            from repro.core.scenarios import get_scenario

            calls = {"merge": 0, "reshape": 0, "summarize": 0}

            def counted(name, fn):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return fn(*args, **kwargs)
                return wrapper

            merge.merge_sample_arrays = counted("merge", merge.merge_sample_arrays)
            reshape.has_temporal_overlap = counted(
                "reshape", reshape.has_temporal_overlap
            )
            StretchEngine._summarize = counted("summarize", StretchEngine._summarize)
            sc = get_scenario("bench").scaled(n_users=24, days=1, seed=0)
            dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
            result = glove(dataset, GloveConfig(k=2), ComputeConfig(backend="auto"))
            assert result.dataset.is_k_anonymous(2)
            assert all(calls.values()), calls
            print("glove-ok", dataset_digest(result.dataset))
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "glove-ok" in proc.stdout
        if kernels.COMPILED_AVAILABLE:
            from repro.core.artifacts import ArtifactStore, dataset_digest
            from repro.core.config import ComputeConfig, GloveConfig
            from repro.core.glove import glove
            from repro.core.pipeline import Pipeline
            from repro.core.scenarios import get_scenario

            sc = get_scenario("bench").scaled(n_users=24, days=1, seed=0)
            dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
            bound = glove(dataset, GloveConfig(k=2), ComputeConfig(backend="auto"))
            assert proc.stdout.split()[-1] == dataset_digest(bound.dataset)

    @pytest.mark.parametrize(
        "env,reason",
        [
            ({"REPRO_CC_KERNEL": "0"}, "disabled by REPRO_CC_KERNEL=0"),
            (
                {"REPRO_CC_KERNEL": "1", "CC": "/nonexistent"},
                "no C compiler on PATH: /nonexistent",
            ),
        ],
        ids=["disabled", "no-compiler"],
    )
    def test_info_reports_why_no_tier_is_bound(self, tmp_path, env, reason):
        # An empty artifact root holds no cached library, so the cc tier
        # must build, and with CC pointing nowhere it cannot.
        raw = tmp_path / "raw.csv"
        raw.write_text("uid,t_min,x_m,y_m\nu1,0,1.0,2.0\nu2,5,3.0,4.0\n")
        proc = _run_fallback_probe(
            f"""
            from repro.cli import main
            assert main(["info", {str(raw)!r}]) == 0
            """,
            {**env, "REPRO_ARTIFACT_DIR": str(tmp_path / "artifacts")},
        )
        assert proc.returncode == 0, proc.stderr
        assert f"kernel tier: none ({reason})" in proc.stdout
        assert "bound summaries run on the NumPy reference" in proc.stdout
