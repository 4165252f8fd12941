"""Compiled stretch-kernel tier: JIT Eq. 10 over the padded layout.

The paper's CUDA offload (Section 6.3) maps here to a ``numba``-JIT
scalar kernel operating directly on the ``(N, m_max, 6)`` padded
tensors of :class:`repro.core.pairwise.PaddedFingerprints` /
:class:`repro.core.engine.SlotStore`.  The JIT tier removes the
per-call dispatch and broadcast-temporaries overhead of the NumPy
reference at small target counts (the GLOVE hot loop's regime).

**Byte-identity policy (DESIGN.md D9).**  Every backend must return
bit-for-bit the NumPy reference's results.  The kernels below therefore
replicate the reference's exact operation order:

* elementwise maxima/minima use NumPy's tie rule (``in1 OP in2 ? in1 :
  in2``), and clamps are written as explicit compares so ``-0.0`` can
  never appear where the reference produces ``+0.0``;
* the per-direction means sum a zero-padded width-``max(ma, m_max)``
  vector with a faithful re-implementation of NumPy's pairwise
  summation: sequential below 8 elements, an 8-accumulator unrolled
  tree up to 128, recursive halving above with splits rounded down to a
  multiple of 8 (realized with an explicit stack — numba-friendly, no
  self-recursion).

The module binds three tiers to one kernel definition, best first:

1. ``numba`` — the ``[compiled]`` packaging extra; JITs the pure
   twins below unchanged.
2. ``cc`` — a :mod:`ctypes` binding of the same kernels transliterated
   to C (:mod:`repro.core._ckernel`), built on demand with the system
   compiler; covers containers where the extra cannot be installed.
3. ``pure`` — the undecorated Python twins; always importable, used by
   the parity property tests and as the stand-in when neither
   accelerated tier is available.

The family also holds the merge product — ``merge_arrays``,
``reshape_arrays`` and ``summarize_arrays``, twins of the NumPy bodies
in :mod:`repro.core.merge`, :mod:`repro.core.reshape` and
``StretchEngine._summarize`` (DESIGN.md D9).

``COMPILED_TIER`` names the bound tier (``"numba"``/``"cc"``/``None``)
and ``COMPILED_AVAILABLE`` is true when an accelerated tier is bound —
that is what :class:`repro.core.engine.CompiledBackend`, the merge and
the engine's bound summaries key on.  ``FALLBACK_REASON`` says why no
tier is bound (``None`` when one is).
"""

from __future__ import annotations

import numpy as np

from repro.core.sample import DT, DX, DY, T, X, Y

try:  # pragma: no cover - exercised via the compiled-parity CI job
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the default container path
    njit = None
    NUMBA_AVAILABLE = False

#: Stack depth for the iterative pairwise summation: each level at
#: least halves ``n``, so 64 frames cover any addressable array.
_PSUM_STACK = 64


def _build_kernels(decorate):
    """Build the kernel family, optionally JIT-decorated.

    Called twice: once undecorated (the always-available pure-Python
    twins) and once under ``numba.njit`` when the extra is installed.
    Both families run the very same source, so parity between them is
    parity between the compiled tier and this file's reference text.
    """

    @decorate
    def psum_leaf(a, lo, n):
        # NumPy's pairwise_sum base cases: sequential below 8 elements,
        # 8 independent accumulators combined as a balanced tree up to
        # the 128-element block size.
        if n < 8:
            res = 0.0
            for i in range(n):
                res += a[lo + i]
            return res
        r0 = a[lo]
        r1 = a[lo + 1]
        r2 = a[lo + 2]
        r3 = a[lo + 3]
        r4 = a[lo + 4]
        r5 = a[lo + 5]
        r6 = a[lo + 6]
        r7 = a[lo + 7]
        i = 8
        while i + 8 <= n:
            r0 += a[lo + i]
            r1 += a[lo + i + 1]
            r2 += a[lo + i + 2]
            r3 += a[lo + i + 3]
            r4 += a[lo + i + 4]
            r5 += a[lo + i + 5]
            r6 += a[lo + i + 6]
            r7 += a[lo + i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            res += a[lo + i]
            i += 1
        return res

    @decorate
    def pairwise_sum(a, lo, n):
        # NumPy's recursive halving (splits rounded down to a multiple
        # of 8) evaluated with an explicit left-first post-order stack.
        if n <= 128:
            return psum_leaf(a, lo, n)
        lo_st = np.empty(_PSUM_STACK, dtype=np.int64)
        n_st = np.empty(_PSUM_STACK, dtype=np.int64)
        state = np.empty(_PSUM_STACK, dtype=np.int8)
        left = np.empty(_PSUM_STACK, dtype=np.float64)
        top = 0
        lo_st[0] = lo
        n_st[0] = n
        state[0] = 0
        ret = 0.0
        while top >= 0:
            nn = n_st[top]
            if nn <= 128:
                ret = psum_leaf(a, lo_st[top], nn)
                top -= 1
                while top >= 0 and state[top] == 2:
                    ret = left[top] + ret
                    top -= 1
                if top >= 0:
                    # Parent was awaiting its left half; store it and
                    # descend into the right half.
                    left[top] = ret
                    state[top] = 2
                    n2 = n_st[top] // 2
                    n2 -= n2 % 8
                    lo_st[top + 1] = lo_st[top] + n2
                    n_st[top + 1] = n_st[top] - n2
                    state[top + 1] = 0
                    top += 1
            else:
                n2 = nn // 2
                n2 -= n2 % 8
                state[top] = 1
                lo_st[top + 1] = lo_st[top]
                n_st[top + 1] = n2
                state[top + 1] = 0
                top += 1
        return ret

    @decorate
    def pair_effort(
        a_data, n_a, b_data, mb, n_b,
        scratch_a, scratch_b, pad_width,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        ma = a_data.shape[0]
        w_a = n_a / (n_a + n_b)
        w_b = n_b / (n_a + n_b)
        for i in range(ma):
            scratch_a[i] = np.inf
        for j in range(mb):
            scratch_b[j] = np.inf
        for i in range(ma):
            axi = a_data[i, X]
            ayi = a_data[i, Y]
            ati = a_data[i, T]
            ahx = axi + a_data[i, DX]
            ahy = ayi + a_data[i, DY]
            aht = ati + a_data[i, DT]
            wa_ext = w_a * (a_data[i, DX] + a_data[i, DY])
            wa_t = w_a * a_data[i, DT]
            for j in range(mb):
                bxj = b_data[j, X]
                byj = b_data[j, Y]
                btj = b_data[j, T]
                bhx = bxj + b_data[j, DX]
                bhy = byj + b_data[j, DY]
                bht = btj + b_data[j, DT]
                ux = (ahx if ahx > bhx else bhx) - (axi if axi < bxj else bxj)
                uy = (ahy if ahy > bhy else bhy) - (ayi if ayi < byj else byj)
                ut = (aht if aht > bht else bht) - (ati if ati < btj else btj)
                raw_s = (ux + uy) - (wa_ext + w_b * (b_data[j, DX] + b_data[j, DY]))
                if not raw_s > 0.0:
                    raw_s = 0.0
                raw_t = ut - (wa_t + w_b * b_data[j, DT])
                if not raw_t > 0.0:
                    raw_t = 0.0
                s_term = raw_s / phi_sigma
                if not s_term < 1.0:
                    s_term = 1.0
                t_term = raw_t / phi_tau
                if not t_term < 1.0:
                    t_term = 1.0
                d = w_sigma * s_term + w_tau * t_term
                if d < scratch_a[i]:
                    scratch_a[i] = d
                if d < scratch_b[j]:
                    scratch_b[j] = d
        mean_a = pairwise_sum(scratch_a, 0, pad_width) / ma
        mean_b = pairwise_sum(scratch_b, 0, pad_width) / mb
        for i in range(ma):
            scratch_a[i] = 0.0
        for j in range(mb):
            scratch_b[j] = 0.0
        if ma > mb:
            return mean_a
        if mb > ma:
            return mean_b
        return (mean_a + mean_b) / 2.0

    @decorate
    def one_vs_all_arrays(
        a_data, n_a, data, lengths, counts, targets,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        ma = a_data.shape[0]
        m_max = data.shape[1]
        pad_width = ma if ma > m_max else m_max
        scratch_a = np.zeros(pad_width)
        scratch_b = np.zeros(pad_width)
        out = np.empty(targets.shape[0])
        for idx in range(targets.shape[0]):
            t = targets[idx]
            out[idx] = pair_effort(
                a_data, n_a, data[t], lengths[t], float(counts[t]),
                scratch_a, scratch_b, pad_width,
                w_sigma, w_tau, phi_sigma, phi_tau,
            )
        return out

    @decorate
    def pairwise_matrix_arrays(
        data, lengths, counts, w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        n = data.shape[0]
        m_max = data.shape[1]
        scratch_a = np.zeros(m_max)
        scratch_b = np.zeros(m_max)
        mat = np.full((n, n), np.inf)
        for i in range(n - 1):
            a_data = data[i, : lengths[i]]
            n_a = float(counts[i])
            for j in range(i + 1, n):
                v = pair_effort(
                    a_data, n_a, data[j], lengths[j], float(counts[j]),
                    scratch_a, scratch_b, m_max,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                mat[i, j] = v
                mat[j, i] = v
        return mat

    @decorate
    def interval_gap(a_lo, a_hi, b_lo, b_hi):
        # np.maximum(0.0, np.maximum(a_lo - b_hi, b_lo - a_hi)) with
        # NumPy's tie rule (in1 > in2 ? in1 : in2) written out, so the
        # scalar bound is bitwise the broadcast bound.
        g1 = a_lo - b_hi
        g2 = b_lo - a_hi
        g = g1 if g1 > g2 else g2
        return 0.0 if 0.0 > g else g

    @decorate
    def hull_bound(hull, a, t, w_sigma, w_tau, phi_sigma, phi_tau):
        # Level-0 bound: gap between the (6, cap) component-major hull
        # SoA columns of slots a and t — the scalar twin of
        # pairwise.hull_lower_bounds.
        gx = interval_gap(hull[0, a], hull[1, a], hull[0, t], hull[1, t])
        gy = interval_gap(hull[2, a], hull[3, a], hull[2, t], hull[3, t])
        gt = interval_gap(hull[4, a], hull[5, a], hull[4, t], hull[5, t])
        s_term = (gx + gy) / phi_sigma
        if not s_term < 1.0:
            s_term = 1.0
        t_term = gt / phi_tau
        if not t_term < 1.0:
            t_term = 1.0
        return w_sigma * s_term + w_tau * t_term

    @decorate
    def bucket_bound(
        data, lengths, bucket_hull, bucket_occ, a, c, lbbuf,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Level-1 bound: samples vs per-time-bucket hulls following
        # Eq. 10's longer-side rule — the scalar twin of
        # pairwise.bucket_lower_bounds.  The a-side direction folds
        # the minimum over *all* buckets (unoccupied contribute +inf);
        # the c-side direction folds only the probe's occupied buckets
        # and sums a zero-padded width-m_max vector, replicating the
        # reference's block-composition-independent masked mean.
        ma = lengths[a]
        mc = lengths[c]
        m_max = data.shape[1]
        n_buckets = bucket_occ.shape[1]
        la = 0.0
        lb = 0.0
        if ma >= mc:
            for i in range(ma):
                sx = data[a, i, X]
                shx = sx + data[a, i, DX]
                sy = data[a, i, Y]
                shy = sy + data[a, i, DY]
                st = data[a, i, T]
                sht = st + data[a, i, DT]
                m = np.inf
                for b in range(n_buckets):
                    if bucket_occ[c, b]:
                        gx = interval_gap(sx, shx, bucket_hull[c, b, 0], bucket_hull[c, b, 1])
                        gy = interval_gap(sy, shy, bucket_hull[c, b, 2], bucket_hull[c, b, 3])
                        gt = interval_gap(st, sht, bucket_hull[c, b, 4], bucket_hull[c, b, 5])
                        s_term = (gx + gy) / phi_sigma
                        if not s_term < 1.0:
                            s_term = 1.0
                        t_term = gt / phi_tau
                        if not t_term < 1.0:
                            t_term = 1.0
                        v = w_sigma * s_term + w_tau * t_term
                    else:
                        v = np.inf
                    if not m < v:
                        m = v
                lbbuf[i] = m
            la = pairwise_sum(lbbuf, 0, ma) / ma
        if mc >= ma:
            for j in range(mc):
                sx = data[c, j, X]
                shx = sx + data[c, j, DX]
                sy = data[c, j, Y]
                shy = sy + data[c, j, DY]
                st = data[c, j, T]
                sht = st + data[c, j, DT]
                m = np.inf
                for b in range(n_buckets):
                    if bucket_occ[a, b]:
                        gx = interval_gap(sx, shx, bucket_hull[a, b, 0], bucket_hull[a, b, 1])
                        gy = interval_gap(sy, shy, bucket_hull[a, b, 2], bucket_hull[a, b, 3])
                        gt = interval_gap(st, sht, bucket_hull[a, b, 4], bucket_hull[a, b, 5])
                        s_term = (gx + gy) / phi_sigma
                        if not s_term < 1.0:
                            s_term = 1.0
                        t_term = gt / phi_tau
                        if not t_term < 1.0:
                            t_term = 1.0
                        v = w_sigma * s_term + w_tau * t_term
                        if not m < v:
                            m = v
                lbbuf[j] = m
            for j in range(mc, m_max):
                lbbuf[j] = 0.0
            lb = pairwise_sum(lbbuf, 0, m_max) / mc
        if ma > mc:
            return la
        if mc > ma:
            return lb
        return (la + lb) / 2.0

    @decorate
    def stable_argsort(keys, idx, tmp):
        # Bottom-up stable mergesort of indices by key.  A stable sort's
        # permutation is unique, so this matches np.argsort(kind="stable")
        # exactly — the visit order of the NumPy walk.
        n = keys.shape[0]
        for i in range(n):
            idx[i] = i
        width = 1
        while width < n:
            lo = 0
            while lo < n:
                mid = lo + width
                if mid > n:
                    mid = n
                hi = lo + 2 * width
                if hi > n:
                    hi = n
                i = lo
                j = mid
                k = lo
                while i < mid and j < hi:
                    # Take from the right run only on a strict key win:
                    # equal keys keep their left-first (stable) order.
                    if keys[idx[j]] < keys[idx[i]]:
                        tmp[k] = idx[j]
                        j += 1
                    else:
                        tmp[k] = idx[i]
                        i += 1
                    k += 1
                while i < mid:
                    tmp[k] = idx[i]
                    i += 1
                    k += 1
                while j < hi:
                    tmp[k] = idx[j]
                    j += 1
                    k += 1
                lo = hi
            for i in range(n):
                idx[i] = tmp[i]
            width *= 2

    @decorate
    def bounded_many_vs_some_arrays(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        flat_targets, offsets, thresholds, reverse, best_vals,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Fused bound-and-prune ragged sweep (CSR layout: probe p
        # visits flat_targets[offsets[p] : offsets[p + 1]]; probes are
        # slot ids into the store tensors, because both bound levels
        # need the probe's hull and bucket summaries).  Each probe walks its
        # targets in level-0 bound order and runs the exact kernel only
        # where the level-0 then level-1 bound could still beat the
        # probe's running best (seeded from thresholds[p]) or — where
        # reverse allows — strictly beat the target's own cached best
        # (best_vals[t]).  Pruned positions get a +inf sentinel (exact
        # efforts never exceed 1.0, so the sentinel is unambiguous) and
        # count into the per-probe pruned total.
        P = probe_slots.shape[0]
        m_max = data.shape[1]
        out = np.empty(flat_targets.shape[0])
        pruned = np.zeros(P, dtype=np.int64)
        n_max = 0
        for p in range(P):
            n = offsets[p + 1] - offsets[p]
            if n > n_max:
                n_max = n
        lb0 = np.empty(n_max)
        order = np.empty(n_max, dtype=np.int64)
        tmp = np.empty(n_max, dtype=np.int64)
        scratch_a = np.zeros(m_max)
        scratch_b = np.zeros(m_max)
        lbbuf = np.empty(m_max)
        for p in range(P):
            a = probe_slots[p]
            ma = lengths[a]
            a_data = data[a, :ma]
            n_a = float(counts[a])
            off = offsets[p]
            n = offsets[p + 1] - off
            if n == 0:
                continue
            for idx in range(n):
                lb0[idx] = hull_bound(
                    hull, a, flat_targets[off + idx],
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
            stable_argsort(lb0[:n], order[:n], tmp[:n])
            best = thresholds[p]
            best_idx = np.int64(-1)
            for k in range(n):
                j = order[k]
                t = flat_targets[off + j]
                rev = reverse[off + j] != 0
                lb = lb0[j]
                if lb > best and ((not rev) or lb >= best_vals[t]):
                    out[off + j] = np.inf
                    pruned[p] += 1
                    continue
                lb1 = bucket_bound(
                    data, lengths, bucket_hull, bucket_occ, a, t, lbbuf,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                if lb1 > best and ((not rev) or lb1 >= best_vals[t]):
                    out[off + j] = np.inf
                    pruned[p] += 1
                    continue
                v = pair_effort(
                    a_data, n_a, data[t], lengths[t], float(counts[t]),
                    scratch_a, scratch_b, m_max,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                out[off + j] = v
                if v < best or (v == best and t < best_idx):
                    best = v
                    best_idx = t
        return out, pruned

    @decorate
    def bounded_many_vs_all_arrays(
        probe_slots, data, lengths, counts,
        hull, bucket_hull, bucket_occ,
        targets, thresholds,
        w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # Fused sweep with in-kernel (argmin, min) reduction over one
        # shared target set — for callers that only need the winner, so
        # no row is materialized at all.  Same walk as the ragged entry
        # minus reverse propagation; a probe meeting itself in the
        # shared set is skipped without counting as pruned.  Returns
        # (best, best_idx, pruned); a probe whose threshold no target
        # strictly beats keeps (thresholds[p], -1).
        P = probe_slots.shape[0]
        n = targets.shape[0]
        m_max = data.shape[1]
        best_out = np.empty(P)
        best_idx_out = np.empty(P, dtype=np.int64)
        pruned = np.zeros(P, dtype=np.int64)
        lb0 = np.empty(n)
        order = np.empty(n, dtype=np.int64)
        tmp = np.empty(n, dtype=np.int64)
        scratch_a = np.zeros(m_max)
        scratch_b = np.zeros(m_max)
        lbbuf = np.empty(m_max)
        for p in range(P):
            a = probe_slots[p]
            ma = lengths[a]
            a_data = data[a, :ma]
            n_a = float(counts[a])
            for idx in range(n):
                lb0[idx] = hull_bound(
                    hull, a, targets[idx], w_sigma, w_tau, phi_sigma, phi_tau
                )
            stable_argsort(lb0, order, tmp)
            best = thresholds[p]
            best_idx = np.int64(-1)
            for k in range(n):
                j = order[k]
                t = targets[j]
                if t == a:
                    continue
                if lb0[j] > best:
                    pruned[p] += 1
                    continue
                lb1 = bucket_bound(
                    data, lengths, bucket_hull, bucket_occ, a, t, lbbuf,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                if lb1 > best:
                    pruned[p] += 1
                    continue
                v = pair_effort(
                    a_data, n_a, data[t], lengths[t], float(counts[t]),
                    scratch_a, scratch_b, m_max,
                    w_sigma, w_tau, phi_sigma, phi_tau,
                )
                if v < best or (v == best and t < best_idx):
                    best = v
                    best_idx = t
            best_out[p] = best
            best_idx_out[p] = best_idx
        return best_out, best_idx_out, pruned

    # -- the merge product (DESIGN.md D9, "The merge-product entries") --
    # Twins of the NumPy bodies merge_sample_arrays, reshape_sample_array
    # and StretchEngine._summarize.  Min/max folds give a tie to the
    # later operand, as NumPy's reductions do; with the signed zeros
    # canonicalized at the Fingerprint boundary no tie can differ in a bit.

    @decorate
    def fold_min(acc, v):
        return acc if acc < v else v

    @decorate
    def fold_max(acc, v):
        return acc if acc > v else v

    @decorate
    def nearest_row(a, i, b, mb, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau):
        # First argmin over b[:mb] of row i of stretch_matrix(a, b), in
        # its operation order (the cell of pair_effort).
        axi = a[i, X]
        ayi = a[i, Y]
        ati = a[i, T]
        ahx = axi + a[i, DX]
        ahy = ayi + a[i, DY]
        aht = ati + a[i, DT]
        wa_ext = w_a * (a[i, DX] + a[i, DY])
        wa_t = w_a * a[i, DT]
        best = np.inf
        best_j = 0
        for j in range(mb):
            bxj = b[j, X]
            byj = b[j, Y]
            btj = b[j, T]
            bhx = bxj + b[j, DX]
            bhy = byj + b[j, DY]
            bht = btj + b[j, DT]
            ux = (ahx if ahx > bhx else bhx) - (axi if axi < bxj else bxj)
            uy = (ahy if ahy > bhy else bhy) - (ayi if ayi < byj else byj)
            ut = (aht if aht > bht else bht) - (ati if ati < btj else btj)
            raw_s = (ux + uy) - (wa_ext + w_b * (b[j, DX] + b[j, DY]))
            if not raw_s > 0.0:
                raw_s = 0.0
            raw_t = ut - (wa_t + w_b * b[j, DT])
            if not raw_t > 0.0:
                raw_t = 0.0
            s_term = raw_s / phi_sigma
            if not s_term < 1.0:
                s_term = 1.0
            t_term = raw_t / phi_tau
            if not t_term < 1.0:
                t_term = 1.0
            d = w_sigma * s_term + w_tau * t_term
            if d < best:
                best = d
                best_j = j
        return best_j

    @decorate
    def fold_bounds(acc, k, rows, r, first):
        # Fold sample rows[r] into the (lo, hi) pairs acc[k, 0:6] of the
        # x, y and t axes (lo at the low column, hi at the extent's).
        for c in range(0, 6, 2):
            lo = rows[r, c]
            hi = lo + rows[r, c + 1]
            if first:
                acc[k, c] = lo
                acc[k, c + 1] = hi
            else:
                acc[k, c] = fold_min(acc[k, c], lo)
                acc[k, c + 1] = fold_max(acc[k, c + 1], hi)

    @decorate
    def emit_bounds(acc, k, out, o):
        # Eq. 12-13: the covering sample (lo, hi - lo) per axis.
        for c in range(0, 6, 2):
            out[o, c] = acc[k, c]
            out[o, c + 1] = acc[k, c + 1] - acc[k, c]

    @decorate
    def sorted_on_t(rows, n):
        # rows[:n] stably sorted on T (np.argsort(kind="stable")).
        keys = np.empty(n)
        for i in range(n):
            keys[i] = rows[i, T]
        idx = np.empty(n, dtype=np.int64)
        tmp = np.empty(n, dtype=np.int64)
        stable_argsort(keys, idx, tmp)
        out = np.empty((n, 6))
        for i in range(n):
            for c in range(6):
                out[i, c] = rows[idx[i], c]
        return out

    @decorate
    def merge_arrays(
        long, short, n_long, n_short, w_sigma, w_tau, phi_sigma, phi_tau,
    ):
        # merge_sample_arrays.  Stage 1: every long row joins its
        # first-minimum short row; a group folds its long rows in order,
        # the short row last.  Stage 2: every unmatched short row picks
        # its target among the stage-1 rows first, then the folds run
        # one by one, re-deriving lo + ext from the stored extent.
        ml = long.shape[0]
        ms = short.shape[0]
        acc = np.empty((ms, 6))
        matched = np.zeros(ms, dtype=np.bool_)
        w_a = n_long / (n_long + n_short)
        w_b = n_short / (n_long + n_short)
        for i in range(ml):
            j = nearest_row(
                long, i, short, ms, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau
            )
            fold_bounds(acc, j, long, i, not matched[j])
            matched[j] = True
        rows = np.empty((ms, 6))
        k = 0
        for j in range(ms):
            if matched[j]:
                fold_bounds(acc, j, short, j, False)
                emit_bounds(acc, j, rows, k)
                k += 1
        n_b = n_long + n_short
        w_a = n_short / (n_short + n_b)
        w_b = n_b / (n_short + n_b)
        target = np.empty(ms, dtype=np.int64)
        for j in range(ms):
            if not matched[j]:
                target[j] = nearest_row(
                    short, j, rows, k, w_a, w_b, w_sigma, w_tau, phi_sigma, phi_tau
                )
        for j in range(ms):
            if not matched[j]:
                t = target[j]
                fold_bounds(acc, 0, rows, t, True)
                fold_bounds(acc, 0, short, j, False)
                emit_bounds(acc, 0, rows, t)
        return sorted_on_t(rows, k)

    @decorate
    def reshape_arrays(data, atol):
        # reshape_sample_array's sweep: every run of rows (in stable T
        # order) that starts before the running end minus atol folds
        # into one sample; a run of one keeps its row verbatim.
        # Returns (rows, n_groups); rows past n_groups are scratch.
        m = data.shape[0]
        out = np.empty((m, 6))
        if m < 2:
            for i in range(m):
                for c in range(6):
                    out[i, c] = data[i, c]
            return out, m
        rows = sorted_on_t(data, m)
        acc = np.empty((1, 6))
        n_groups = 0
        start = 0
        end = rows[0, T] + rows[0, DT]
        fold_bounds(acc, 0, rows, 0, True)
        for r in range(1, m + 1):
            if r < m and rows[r, T] < end - atol:
                fold_bounds(acc, 0, rows, r, False)
                e = rows[r, T] + rows[r, DT]
                if e > end:
                    end = e
                continue
            if r - start == 1:
                for c in range(6):
                    out[n_groups, c] = rows[start, c]
            else:
                emit_bounds(acc, 0, out, n_groups)
            n_groups += 1
            if r < m:
                start = r
                end = rows[r, T] + rows[r, DT]
                fold_bounds(acc, 0, rows, r, True)
        return out, n_groups

    @decorate
    def summarize_arrays(
        slots, data, lengths, edges, hull, bucket_hull, bucket_occ,
    ):
        # StretchEngine._summarize of each slot, written in place: the
        # (6, cap) hull column, and per time bucket the hull of the
        # samples whose closed interval touches it (bounds folded as the
        # reference folds them: minima of lo and of -hi, the time range
        # clamped to the bucket) and its occupancy.
        n_buckets = edges.shape[0] - 1
        for p in range(slots.shape[0]):
            s = slots[p]
            m = lengths[s]
            for c in range(0, 6, 2):
                lo = np.inf
                hi = -np.inf
                for i in range(m):
                    lo = fold_min(lo, data[s, i, c])
                    hi = fold_max(hi, data[s, i, c] + data[s, i, c + 1])
                hull[c, s] = lo
                hull[c + 1, s] = hi
            for b in range(n_buckets):
                e_lo = edges[b]
                e_hi = edges[b + 1]
                occ = False
                x_lo = np.inf
                nx_hi = np.inf
                y_lo = np.inf
                ny_hi = np.inf
                t_lo = np.inf
                nt_hi = np.inf
                for i in range(m):
                    t = data[s, i, T]
                    t_end = t + data[s, i, DT]
                    if t <= e_hi and t_end >= e_lo:
                        occ = True
                        x = data[s, i, X]
                        y = data[s, i, Y]
                        x_lo = fold_min(x_lo, x)
                        nx_hi = fold_min(nx_hi, -(x + data[s, i, DX]))
                        y_lo = fold_min(y_lo, y)
                        ny_hi = fold_min(ny_hi, -(y + data[s, i, DY]))
                        t_lo = fold_min(t_lo, t)
                        nt_hi = fold_min(nt_hi, -t_end)
                bucket_hull[s, b, 0] = x_lo
                bucket_hull[s, b, 1] = -nx_hi
                bucket_hull[s, b, 2] = y_lo
                bucket_hull[s, b, 3] = -ny_hi
                bucket_hull[s, b, 4] = t_lo if t_lo > e_lo else e_lo
                bucket_hull[s, b, 5] = -nt_hi if -nt_hi < e_hi else e_hi
                bucket_occ[s, b] = occ

    return (
        pairwise_sum,
        one_vs_all_arrays,
        pairwise_matrix_arrays,
        bounded_many_vs_all_arrays,
        bounded_many_vs_some_arrays,
        merge_arrays,
        reshape_arrays,
        summarize_arrays,
    )


# Pure-Python twins: always importable, used by the parity property
# tests (and as the stand-in bindings below when no accelerated tier
# is available).
(
    pairwise_sum_py,
    one_vs_all_pure,
    pairwise_matrix_pure,
    bounded_many_vs_all_pure,
    bounded_many_vs_some_pure,
    merge_arrays_pure,
    reshape_arrays_pure,
    summarize_arrays_pure,
) = _build_kernels(lambda f: f)


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


if NUMBA_AVAILABLE:  # pragma: no cover - exercised via compiled-parity CI
    COMPILED_TIER = "numba"
    # nogil: the kernels touch no Python objects, so JIT-compiled calls
    # release the GIL — the property the engine's intra-batch thread
    # splitter relies on (same as ctypes calls on the cc tier).
    (
        _,
        one_vs_all_arrays,
        pairwise_matrix_arrays,
        bounded_many_vs_all_arrays,
        bounded_many_vs_some_arrays,
        merge_arrays,
        reshape_arrays,
        summarize_arrays,
    ) = _build_kernels(njit(cache=True, nogil=True))
    FALLBACK_REASON = None
else:
    _cc, FALLBACK_REASON = _bind_cc()
    if _cc is not None:
        COMPILED_TIER = "cc"
        (
            one_vs_all_arrays,
            pairwise_matrix_arrays,
            bounded_many_vs_all_arrays,
            bounded_many_vs_some_arrays,
            merge_arrays,
            reshape_arrays,
            summarize_arrays,
        ) = _cc
    else:
        COMPILED_TIER = None
        one_vs_all_arrays = one_vs_all_pure
        pairwise_matrix_arrays = pairwise_matrix_pure
        bounded_many_vs_all_arrays = bounded_many_vs_all_pure
        bounded_many_vs_some_arrays = bounded_many_vs_some_pure
        merge_arrays = merge_arrays_pure
        reshape_arrays = reshape_arrays_pure
        summarize_arrays = summarize_arrays_pure

#: True when an accelerated binding (numba or cc) backs the ``compiled``
#: backend; the pure twins alone do not qualify.
COMPILED_AVAILABLE = COMPILED_TIER is not None
