"""Accelerated stretch-kernel tier: Eq. 10 over the padded layout.

The paper's CUDA offload (Section 6.3) maps here to native scalar
kernels operating directly on the ``(N, m_max, 6)`` padded tensors of
:class:`repro.core.pairwise.PaddedFingerprints` /
:class:`repro.core.engine.SlotStore`.  Native calls remove the per-call
dispatch overhead of the NumPy reference's few dozen array operations
per probe at small target counts (the GLOVE hot loop's regime).

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
entry returns the reference's bits.  :func:`greedy_merge` runs a whole
greedy loop of Alg. 1 on those entries in one call; its reference is
the Python loop ``repro.core.glove._python_greedy_merge`` (DESIGN.md
D9, "The loop").

The entries below are bound only when the library loads.
``COMPILED_TIER`` names the bound tier (``"cc"`` or ``None``) and
``COMPILED_AVAILABLE`` is true when it is bound — that is what
:class:`repro.core.engine.CompiledBackend`, the greedy loop and the
engine's merge step and bound summaries key on; without it they run the
NumPy bodies.
``FALLBACK_REASON`` says why no tier is bound (``None`` when one is).
The entries that read an engine's store and summaries take its
:class:`Resident`, validated once per binding, so a call converts only
its own small per-call arrays (DESIGN.md D9).  An engine's
:class:`PairMemo` rides on the Resident it builds, and the bounded
sweeps recall from it every slot pair's exact effort and level-1 bound
they already computed (DESIGN.md D13, "The pair memo").
"""

from __future__ import annotations

import ctypes
import weakref

import numpy as np

from repro.core import _ckernel


def _ptr(arr):
    """Address of a C-contiguous array's first element (``None`` when empty).

    ``c_char.from_buffer`` reads it in well under a microsecond, where
    ``arr.ctypes.data`` and an ``ndpointer`` argument each cost ~2.5 µs;
    a read-only array takes the general route.
    """
    if arr.nbytes == 0:
        return None
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except TypeError:
        return arr.ctypes.data


def _sample_rows(name, rows):
    """``rows`` as a C-contiguous ``(m, 6)`` float64 array, or ``ValueError``."""
    rows = np.ascontiguousarray(rows)
    if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != 6:
        raise ValueError(
            f"{name} must be an (m, 6) float64 sample array, "
            f"got {rows.dtype} {rows.shape}"
        )
    return rows


def _padded(data, lengths, counts):
    """A padded tensor's arrays as C-contiguous float64/int64, or ``ValueError``."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    n = data.shape[0] if data.ndim == 3 else -1
    if data.ndim != 3 or data.shape[2] != 6 or not lengths.shape == counts.shape == (n,):
        raise ValueError(
            f"expected an (n, m_max, 6) tensor with n lengths and counts, got "
            f"{data.shape}, {lengths.shape} and {counts.shape}"
        )
    return data, lengths, counts


def _check_writable(name, arr, dtype, shape):
    """``ValueError`` unless ``arr`` is a C-contiguous, writable array of
    ``dtype`` and ``shape``: an array a native entry writes in place."""
    if not (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.shape == shape
        and arr.flags.c_contiguous
        and arr.flags.writeable
    ):
        got = (
            f"{arr.dtype} {arr.shape} (C-contiguous: {arr.flags.c_contiguous}, "
            f"writable: {arr.flags.writeable})"
            if isinstance(arr, np.ndarray) else type(arr).__name__
        )
        raise ValueError(
            f"{name} must be a C-contiguous, writable "
            f"{np.dtype(dtype)} array of shape {shape}, got {got}"
        )


#: Entries per slot of store capacity a :class:`PairMemo` holds of each
#: kind at most, so an engine's loop state stays O(n) (DESIGN.md D4).
#: The fullest shard of the seed-0 ``large-n`` run peaks at 64 level-1
#: entries per slot of capacity and 16 exact entries per used slot.
MEMO_PER_SLOT = 128


class PairMemo:
    """One engine's native pair memo (DESIGN.md D13, "The pair memo").

    The exact efforts and level-1 bounds the bounded sweeps computed
    under the stretch configuration ``stretch_args`` (``w_sigma, w_tau,
    phi_sigma, phi_tau``), at most ``per_slot`` of each kind per store
    slot.  The table lives on the C side and is freed when the last
    object holding this one — its engine, a :class:`Resident` bound to
    it — lets go, so no block can keep a freed address.
    """

    def __init__(self, stretch_args, per_slot: int = MEMO_PER_SLOT):
        lib = _ckernel.LIB
        self.stretch_args, self.per_slot = tuple(stretch_args), per_slot
        self.address = lib.glove_memo_new(per_slot, *self.stretch_args)
        if not self.address:
            raise MemoryError("pair memo allocation failed")
        self._free = weakref.finalize(self, lib.glove_memo_free, self.address)

    def entries(self):
        """``(exact, level_1)``: the entries held of each kind."""
        return tuple(_ckernel.LIB.glove_memo_entries(self.address, k) for k in (0, 1))


class Resident:
    """A :class:`~repro.core.engine.StretchEngine`'s resident arrays,
    validated, behind the one address the native entries read them by.

    The slot store's ``(cap, m_max, 6)`` ``data``, its ``lengths``,
    ``counts`` and ``(cap, m_max)`` ``mask``; the ``(6, cap)`` ``hull``,
    the ``(cap, B, 6)`` ``bucket_hull``, the ``(cap, B)`` ``bucket_occ``
    and the ``B + 1`` bucket ``edges``.  Each must be C-contiguous and
    writable with its dtype and shape, or ``ValueError`` (DESIGN.md D9,
    "Binding by address").  The instance holds every array for as long
    as it lives, so its addresses cannot dangle; the engine builds one at
    construction and a fresh one after every growth, and the old one
    lets go of the retired arrays with it.  ``memo`` is the engine's
    pair memo: a :class:`PairMemo`, whose table the block points to, or
    the NumPy walk's dict memo, whose ``address`` is ``None``, so the
    native entries read no memo through it.  A Resident over other
    summaries carries none.
    """

    def __init__(self, store, hull, bucket_hull, bucket_occ, edges, memo=None):
        data = store.data
        if not isinstance(data, np.ndarray) or data.ndim != 3:
            raise ValueError(f"resident array data must be 3-D, got {np.shape(data)}")
        if not isinstance(edges, np.ndarray) or edges.ndim != 1 or edges.shape[0] < 2:
            raise ValueError(f"resident bucket edges must be 1-D with 2+ entries, "
                             f"got {np.shape(edges)}")
        cap, m_max = data.shape[:2]
        n_buckets = edges.shape[0] - 1
        specs = (
            ("data", data, np.float64, (cap, m_max, 6)),
            ("lengths", store.lengths, np.int64, (cap,)),
            ("counts", store.counts, np.int64, (cap,)),
            ("mask", store.mask, np.bool_, (cap, m_max)),
            ("hull", hull, np.float64, (6, cap)),
            ("bucket_hull", bucket_hull, np.float64, (cap, n_buckets, 6)),
            ("bucket_occ", bucket_occ, np.bool_, (cap, n_buckets)),
            ("edges", edges, np.float64, (n_buckets + 1,)),
        )
        for name, arr, dtype, shape in specs:
            _check_writable(f"resident array {name}", arr, dtype, shape)
        self.arrays = {name: arr for name, arr, _, _ in specs}
        self.lengths = store.lengths
        self.hull, self.bucket_hull, self.bucket_occ = hull, bucket_hull, bucket_occ
        self.cap, self.m_max, self.n_buckets = cap, m_max, n_buckets
        self.memo = memo
        self.block = _ckernel.ResidentBlock(
            cap=cap, m_max=m_max, n_buckets=n_buckets,
            memo=None if memo is None else memo.address,
            **{name: _ptr(arr) for name, arr in self.arrays.items()},
        )
        #: The block's address: the one pointer argument of a resident call.
        self.address = ctypes.addressof(self.block)

    def check_filled(self, slots) -> None:
        """``ValueError`` unless every slot id names a filled slot."""
        lengths = self.lengths
        if isinstance(slots, np.ndarray):
            filled = slots.size == 0 or bool(
                0 <= slots.min() and slots.max() < self.cap
                and (lengths[slots] >= 1).all() and (lengths[slots] <= self.m_max).all()
            )
        else:
            filled = all(0 <= s < self.cap and 1 <= lengths[s] <= self.m_max for s in slots)
        if not filled:
            raise ValueError("slot ids must name filled slots of the store")


def _bind_cc():
    """``(wrappers, None)`` over the system-compiled library, or
    ``(None, reason)`` when it did not load."""
    lib = _ckernel.LIB
    if lib is None:
        return None, _ckernel.LOAD_ERROR

    def one_vs_all_cc(
        a_data, n_a, data, lengths, counts, targets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        a_data = _sample_rows("a_data", a_data)
        data, lengths, counts = _padded(data, lengths, counts)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        out = np.empty(targets.shape[0], dtype=np.float64)
        rc = lib.glove_one_vs_all(
            _ptr(a_data), a_data.shape[0], float(n_a),
            _ptr(data), data.shape[1], _ptr(lengths), _ptr(counts),
            _ptr(targets), targets.shape[0],
            w_sigma, w_tau, phi_sigma, phi_tau, _ptr(out),
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out

    def pairwise_matrix_cc(
        data, lengths, counts, w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        data, lengths, counts = _padded(data, lengths, counts)
        n = data.shape[0]
        mat = np.full((n, n), np.inf, dtype=np.float64)
        rc = lib.glove_pairwise_matrix(
            _ptr(data), n, data.shape[1], _ptr(lengths), _ptr(counts),
            w_sigma, w_tau, phi_sigma, phi_tau, _ptr(mat),
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return mat

    # The bounded entries read the store, the summaries and the pair
    # memo through the engine's Resident; only their per-call arrays are
    # taken here.  Each also returns, per probe, the pairs that reached
    # the level-1 bound, and the call's (exact, level-1) memo hits.
    def bounded_many_vs_all_cc(
        resident, probe_slots, targets, thresholds,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        probe_slots = np.ascontiguousarray(probe_slots, dtype=np.int64)
        P = probe_slots.shape[0]
        best = np.empty(P, dtype=np.float64)
        best_idx = np.empty(P, dtype=np.int64)
        pruned = np.zeros(P, dtype=np.int64)
        lb1 = np.zeros(P, dtype=np.int64)
        hits = np.zeros(2, dtype=np.int64)
        if P == 0:
            return best, best_idx, pruned, lb1, hits
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        rc = lib.glove_bounded_many_vs_all(
            resident.address, _ptr(probe_slots), P,
            _ptr(targets), targets.shape[0], _ptr(thresholds),
            w_sigma, w_tau, phi_sigma, phi_tau,
            _ptr(best), _ptr(best_idx), _ptr(pruned), _ptr(lb1), _ptr(hits),
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return best, best_idx, pruned, lb1, hits

    def bounded_many_vs_some_cc(
        resident, probe_slots, flat_targets, offsets, thresholds, reverse, best_vals,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        probe_slots = np.ascontiguousarray(probe_slots, dtype=np.int64)
        P = probe_slots.shape[0]
        flat_targets = np.ascontiguousarray(flat_targets, dtype=np.int64)
        out = np.empty(flat_targets.shape[0], dtype=np.float64)
        pruned = np.zeros(P, dtype=np.int64)
        lb1 = np.zeros(P, dtype=np.int64)
        hits = np.zeros(2, dtype=np.int64)
        if P == 0 or out.size == 0:
            return out, pruned, lb1, hits
        # The C entry takes the reverse flags as uint8; a bool array is
        # one byte per element, so the view is a free reinterpret.
        reverse = np.ascontiguousarray(reverse, dtype=np.bool_).view(np.uint8)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        best_vals = np.ascontiguousarray(best_vals, dtype=np.float64)
        rc = lib.glove_bounded_many_vs_some(
            resident.address, _ptr(probe_slots), P,
            _ptr(flat_targets), _ptr(offsets),
            _ptr(thresholds), _ptr(reverse), _ptr(best_vals),
            w_sigma, w_tau, phi_sigma, phi_tau,
            _ptr(out), _ptr(pruned), _ptr(lb1), _ptr(hits),
        )
        if rc != 0:
            raise MemoryError("stretch kernel scratch allocation failed")
        return out, pruned, lb1, hits

    def summarize_arrays_cc(resident, slots):
        # The summaries are written in place through the resident block,
        # whose arrays were validated when the engine bound them; only
        # the slot ids are checked here.
        slots = np.ascontiguousarray(slots, dtype=np.int64)
        resident.check_filled(slots)
        lib.glove_summarize(resident.address, _ptr(slots), slots.shape[0])

    def merge_step_cc(
        resident, a, b, dst, reshape, atol, summarize,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        resident.check_filled((a, b))
        if not 0 <= dst < resident.cap:
            raise ValueError(f"product slot {dst} is outside the store's capacity")
        n = lib.glove_merge_step(
            resident.address, a, b, dst, bool(reshape), atol, bool(summarize),
            w_sigma, w_tau, phi_sigma, phi_tau,
        )
        if n < 0:
            raise MemoryError("merge kernel scratch allocation failed")
        return n

    def greedy_merge_cc(
        resident, size, k, pending, best_val, best_idx, reshape, atol, summarize,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # pending, best_val and best_idx are the loop's state, written in
        # place, so they are checked rather than converted.
        cap = resident.cap
        _check_writable("pending", pending, np.uint8, (cap,))
        _check_writable("best_val", best_val, np.float64, (cap,))
        _check_writable("best_idx", best_idx, np.int64, (cap,))
        live = np.flatnonzero(pending)
        resident.check_filled(live)
        n_products = max(live.size - 1, 0)
        if not (live.size == 0 or live[-1] < size) or size > cap - n_products:
            raise ValueError(
                f"{live.size} pending slots below slot {size} need {n_products} "
                f"free slots from it on, in a store of capacity {cap}"
            )
        log = np.empty((n_products, 3), dtype=np.int64)
        counts = np.zeros(6, dtype=np.int64)
        n = lib.glove_greedy_merge(
            resident.address, size, k, _ptr(pending), _ptr(best_val), _ptr(best_idx),
            bool(reshape), atol, bool(summarize), w_sigma, w_tau, phi_sigma, phi_tau,
            _ptr(log), _ptr(counts),
        )
        if n == -1:
            raise MemoryError("greedy loop scratch allocation failed")
        if n < 0:
            raise ValueError("a pending slot's cached neighbour is not a pending slot")
        return log[:n], counts

    return (
        one_vs_all_cc,
        pairwise_matrix_cc,
        bounded_many_vs_all_cc,
        bounded_many_vs_some_cc,
        summarize_arrays_cc,
        merge_step_cc,
        greedy_merge_cc,
    ), None


_cc, FALLBACK_REASON = _bind_cc()
COMPILED_TIER = None if _cc is None else "cc"
if _cc is not None:
    (
        one_vs_all_arrays,
        pairwise_matrix_arrays,
        bounded_many_vs_all_arrays,
        bounded_many_vs_some_arrays,
        summarize_arrays,
        merge_step,
        greedy_merge,
    ) = _cc

#: True when the ``cc`` binding backs the ``compiled`` backend.
COMPILED_AVAILABLE = COMPILED_TIER is not None


def tier_line() -> str:
    """``kernel tier: cc``, or ``kernel tier: none (<reason>)``."""
    return f"kernel tier: {COMPILED_TIER or f'none ({FALLBACK_REASON})'}"
