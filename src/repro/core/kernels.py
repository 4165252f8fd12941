"""Accelerated stretch-kernel tier: Eq. 10 over the padded layout.

The paper's CUDA offload (Section 6.3) maps here to native scalar
kernels operating directly on the ``(N, m_max, 6)`` padded tensors of
:class:`repro.core.pairwise.PaddedFingerprints` /
:class:`repro.core.engine.SlotStore`.  Native calls remove the per-call
dispatch and broadcast-temporaries overhead of the NumPy reference at
small target counts (the GLOVE hot loop's regime).

**One definition (DESIGN.md D9).**  The kernels are written once, as C
text in :mod:`repro.core._ckernel`, built with the system compiler on
first import and called through :mod:`ctypes` (the ``cc`` tier).  Their
one reference is the NumPy bodies: :mod:`repro.core.pairwise`,
:func:`repro.core.merge.merge_sample_arrays`,
:func:`repro.core.reshape.reshape_sample_array` and
``StretchEngine._summarize``.  The C text replicates their exact
operation order — NumPy's maximum/minimum tie rule, explicit clamps so
``-0.0`` never appears where the reference produces ``+0.0``, and
NumPy's pairwise summation over the same zero-padded widths — so every
entry returns the reference's bits.

The ``*_arrays`` entries below are bound only when the library loads.
``COMPILED_TIER`` names the bound tier (``"cc"`` or ``None``) and
``COMPILED_AVAILABLE`` is true when it is bound — that is what
:class:`repro.core.engine.CompiledBackend`, the merge, the reshape and
the engine's bound summaries key on; without it they run the NumPy
bodies.  ``FALLBACK_REASON`` says why no tier is bound (``None`` when
one is).
"""

from __future__ import annotations

import numpy as np


def _sample_rows(name, rows):
    """``rows`` as a C-contiguous ``(m, 6)`` float64 array, or ``ValueError``."""
    rows = np.ascontiguousarray(rows)
    if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != 6:
        raise ValueError(
            f"{name} must be an (m, 6) float64 sample array, "
            f"got {rows.dtype} {rows.shape}"
        )
    return rows


def _bind_cc():
    """``(wrappers, None)`` over the system-compiled library, or
    ``(None, reason)`` when it did not load."""
    from repro.core import _ckernel

    lib = _ckernel.LIB
    if lib is None:
        return None, _ckernel.LOAD_ERROR

    def one_vs_all_cc(
        a_data, n_a, data, lengths, counts, targets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        out = np.empty(targets.shape[0], dtype=np.float64)
        rc = lib.glove_one_vs_all(
            np.ascontiguousarray(a_data), a_data.shape[0], float(n_a),
            data, data.shape[1], lengths, counts,
            np.ascontiguousarray(targets), targets.shape[0],
            w_sigma, w_tau, phi_sigma, phi_tau, out,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out

    def pairwise_matrix_cc(
        data, lengths, counts, w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        n = data.shape[0]
        mat = np.full((n, n), np.inf, dtype=np.float64)
        rc = lib.glove_pairwise_matrix(
            data, n, data.shape[1], lengths, counts,
            w_sigma, w_tau, phi_sigma, phi_tau, mat,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return mat

    def _occ_u8(bucket_occ):
        # The C entries take the occupancy mask as uint8; a bool array
        # is one byte per element, so this is a free reinterpret.
        return np.ascontiguousarray(bucket_occ).view(np.uint8)

    def bounded_many_vs_all_cc(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        targets, thresholds,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        P = probe_slots.shape[0]
        best = np.empty(P, dtype=np.float64)
        best_idx = np.empty(P, dtype=np.int64)
        pruned = np.zeros(P, dtype=np.int64)
        if P == 0:
            return best, best_idx, pruned
        rc = lib.glove_bounded_many_vs_all(
            np.ascontiguousarray(probe_slots), P,
            data, data.shape[1], lengths, counts,
            np.ascontiguousarray(hull), hull.shape[1],
            np.ascontiguousarray(bucket_hull), _occ_u8(bucket_occ),
            bucket_occ.shape[1],
            np.ascontiguousarray(targets), targets.shape[0],
            np.ascontiguousarray(thresholds),
            w_sigma, w_tau, phi_sigma, phi_tau,
            best, best_idx, pruned,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return best, best_idx, pruned

    def bounded_many_vs_some_cc(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        flat_targets, offsets, thresholds, reverse, best_vals,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        P = probe_slots.shape[0]
        out = np.empty(flat_targets.shape[0], dtype=np.float64)
        pruned = np.zeros(P, dtype=np.int64)
        if P == 0 or out.size == 0:
            return out, pruned
        rc = lib.glove_bounded_many_vs_some(
            np.ascontiguousarray(probe_slots), P,
            data, data.shape[1], lengths, counts,
            np.ascontiguousarray(hull), hull.shape[1],
            np.ascontiguousarray(bucket_hull), _occ_u8(bucket_occ),
            bucket_occ.shape[1],
            np.ascontiguousarray(flat_targets), np.ascontiguousarray(offsets),
            np.ascontiguousarray(thresholds), _occ_u8(reverse),
            np.ascontiguousarray(best_vals),
            w_sigma, w_tau, phi_sigma, phi_tau,
            out, pruned,
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out, pruned

    # The merge-product entries take pointers straight from their
    # callers, so shapes, dtypes and slot ids are checked here first.
    def merge_arrays_cc(
        long, short, n_long, n_short, w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        long = _sample_rows("long", long)
        short = _sample_rows("short", short)
        if not long.shape[0] >= short.shape[0] >= 1:
            raise ValueError(
                f"merge needs m_long >= m_short >= 1, "
                f"got {long.shape[0]} and {short.shape[0]}"
            )
        out = np.empty_like(short)
        n = lib.glove_merge(
            long, long.shape[0], short, short.shape[0], float(n_long), float(n_short),
            w_sigma, w_tau, phi_sigma, phi_tau, out,
        )
        if n < 0:
            raise MemoryError("merge kernel scratch allocation failed")
        return out[:n]

    def reshape_arrays_cc(data, atol):
        data = _sample_rows("data", data)
        out = np.empty_like(data)
        n = lib.glove_reshape(data, data.shape[0], atol, out)
        if n < 0:
            raise MemoryError("reshape kernel scratch allocation failed")
        return out, n

    def summarize_arrays_cc(
        slots, data, lengths, edges, hull, bucket_hull, bucket_occ,
    ):
        # The outputs are written in place, so nothing is copied: the
        # ndpointer argtypes reject a wrong dtype or a non-C layout.
        slots = np.ascontiguousarray(slots, dtype=np.int64)
        cap, m_max = data.shape[:2]
        n_buckets = edges.shape[0] - 1
        if not (
            n_buckets >= 1
            and data.shape[2:] == (6,)
            and lengths.shape == (cap,)
            and hull.shape == (6, cap)
            and bucket_hull.shape == (cap, n_buckets, 6)
            and bucket_occ.shape == (cap, n_buckets)
            and bucket_occ.dtype == np.bool_
        ):
            raise ValueError("summary arrays do not match the slot store's capacity")
        if slots.size and not (
            0 <= slots.min() and slots.max() < cap
            and (lengths[slots] >= 1).all() and (lengths[slots] <= m_max).all()
        ):
            raise ValueError("slot ids must name filled slots of the store")
        lib.glove_summarize(
            slots, slots.shape[0], data, cap, m_max, lengths, edges, n_buckets,
            hull, bucket_hull, bucket_occ.view(np.uint8),
        )

    return (
        one_vs_all_cc,
        pairwise_matrix_cc,
        bounded_many_vs_all_cc,
        bounded_many_vs_some_cc,
        merge_arrays_cc,
        reshape_arrays_cc,
        summarize_arrays_cc,
    ), None


_cc, FALLBACK_REASON = _bind_cc()
COMPILED_TIER = None if _cc is None else "cc"
if _cc is not None:
    (
        one_vs_all_arrays,
        pairwise_matrix_arrays,
        bounded_many_vs_all_arrays,
        bounded_many_vs_some_arrays,
        merge_arrays,
        reshape_arrays,
        summarize_arrays,
    ) = _cc

#: True when the ``cc`` binding backs the ``compiled`` backend.
COMPILED_AVAILABLE = COMPILED_TIER is not None
