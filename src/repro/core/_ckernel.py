"""System-compiler binding of the stretch kernels (the ``cc`` tier).

The C text below is the one accelerated definition of the scalar Eq. 10
kernels, the merge product and the greedy loop; :mod:`repro.core.kernels`
wraps the shared library this module builds on demand with the system C
compiler and calls through :mod:`ctypes`.  Each entry replicates its
reference body (:mod:`repro.core.pairwise`, ``merge_sample_arrays``,
``reshape_sample_array``, ``StretchEngine._summarize``,
``repro.core.glove._python_greedy_merge``) in operation
order, tie rules and pairwise summation, and is compiled with
``-ffp-contract=off`` so no FMA contraction or reassociation can change
a result bit.

The build is content-addressed: the shared object is cached under the
artifact root (``default_artifact_dir()/ckernel``) keyed by a digest of
the C source and flags, so each source revision compiles exactly once
per machine.  Every failure mode — no compiler, compile error, load
error, ``REPRO_CC_KERNEL=0`` — degrades to ``LIB = None``, records its
reason in ``LOAD_ERROR``, and the callers fall back to the NumPy
reference bodies.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from repro.core.artifacts import default_artifact_dir

C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NCOLS 6
#define XCOL 0
#define DXCOL 1
#define YCOL 2
#define DYCOL 3
#define TCOL 4
#define DTCOL 5

/* ---- the pair memo (DESIGN.md D13, "The pair memo") ---------------
 * One engine's record of the values its bounded sweeps computed: exact
 * efforts keyed by the unordered slot pair (pair_effort is bitwise
 * direction-symmetric, D4) and level-1 bounds keyed by the ordered
 * (probe, target) pair (bucket_bound is not).  Slots are append-only
 * and a slot's row, count and summaries never change once written, so
 * a stored value is the kernel's own bits for as long as the engine
 * lives.  Each kind is an open-addressing table of (key, value) cells
 * (linear probing, at most half full, grown by doubling) of at most
 * per_slot entries per store slot; a full table stops inserting.  The values belong to the
 * stretch configuration in cfg: a sweep run with another one bypasses
 * the memo. */
#define MEMO_EXACT 0
#define MEMO_LB1 1
#define MEMO_EMPTY UINT64_MAX

typedef struct {
    uint64_t key;
    double val;
} memo_cell_t;

typedef struct {
    memo_cell_t *cells;
    int64_t size;
    int64_t used;
} memo_table_t;

typedef struct {
    memo_table_t table[2];
    int64_t per_slot;
    double cfg[4];
} memo_t;

/* The resident arrays of one StretchEngine, validated on the Python
 * side (repro.core.kernels.Resident) and mirrored field for field by
 * ResidentBlock below: the slot store's (cap, m_max, 6) data, lengths,
 * counts and (cap, m_max) mask, the (6, cap) hull, the
 * (cap, n_buckets, 6) bucket hulls, their occupancy, the
 * n_buckets + 1 bucket edges, and the engine's pair memo (NULL for a
 * block over other summaries). */
typedef struct {
    double *data;
    int64_t cap;
    int64_t m_max;
    int64_t *lengths;
    int64_t *counts;
    uint8_t *mask;
    double *hull;
    double *bhull;
    uint8_t *bocc;
    int64_t n_buckets;
    const double *edges;
    memo_t *memo;
} resident_t;

/* NumPy's pairwise summation: sequential below 8 elements, an
 * 8-accumulator unrolled tree up to the 128-element block size,
 * recursive halving above with the split rounded down to a multiple
 * of 8.  Identical operation order => identical bits. */
static double psum(const double *a, int64_t n)
{
    if (n <= 128) {
        if (n < 8) {
            double res = 0.0;
            for (int64_t i = 0; i < n; i++)
                res += a[i];
            return res;
        }
        double r0 = a[0], r1 = a[1], r2 = a[2], r3 = a[3];
        double r4 = a[4], r5 = a[5], r6 = a[6], r7 = a[7];
        int64_t i = 8;
        for (; i + 8 <= n; i += 8) {
            r0 += a[i];
            r1 += a[i + 1];
            r2 += a[i + 2];
            r3 += a[i + 3];
            r4 += a[i + 4];
            r5 += a[i + 5];
            r6 += a[i + 6];
            r7 += a[i + 7];
        }
        double res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return psum(a, n2) + psum(a + n2, n - n2);
}

/* One Eq. 10 effort.  Ternaries mirror NumPy's maximum/minimum tie
 * rule (in1 OP in2 ? in1 : in2) so -0.0 never replaces the
 * reference's +0.0.  The inner loop is branchless struct-of-arrays:
 * every per-cell value is an independent elementwise function and the
 * two reductions are exact minima, so the compiler's SIMD
 * vectorization cannot change a bit (FMA contraction is disabled by
 * the build flags).  sa/sb must hold pad_width zeros on entry and are
 * re-zeroed before returning; tb needs 9*m_max scratch doubles for
 * the hoisted per-target-row precomputes and the per-row effort
 * buffer (the row minimum is reduced in a separate scalar pass —
 * keeping the reduction out of the hot loop is what lets the
 * compiler vectorize it under strict IEEE rules). */
static double pair_effort(
    const double *restrict a, int64_t ma, double n_a,
    const double *restrict b, int64_t mb, double n_b,
    double *restrict sa, double *restrict sb, double *restrict tb,
    int64_t t_stride, int64_t pad_width,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double w_a = n_a / (n_a + n_b);
    double w_b = n_b / (n_a + n_b);
    /* The slices are disjoint (mb <= t_stride), so restrict holds. */
    double *restrict t_bx = tb;
    double *restrict t_bhx = tb + t_stride;
    double *restrict t_by = tb + 2 * t_stride;
    double *restrict t_bhy = tb + 3 * t_stride;
    double *restrict t_bt = tb + 4 * t_stride;
    double *restrict t_bht = tb + 5 * t_stride;
    double *restrict t_wbe = tb + 6 * t_stride;
    double *restrict t_wbt = tb + 7 * t_stride;
    double *restrict dbuf = tb + 8 * t_stride;
    for (int64_t i = 0; i < ma; i++)
        sa[i] = INFINITY;
    for (int64_t j = 0; j < mb; j++) {
        const double *br = b + j * NCOLS;
        sb[j] = INFINITY;
        t_bx[j] = br[XCOL];
        t_bhx[j] = br[XCOL] + br[DXCOL];
        t_by[j] = br[YCOL];
        t_bhy[j] = br[YCOL] + br[DYCOL];
        t_bt[j] = br[TCOL];
        t_bht[j] = br[TCOL] + br[DTCOL];
        t_wbe[j] = w_b * (br[DXCOL] + br[DYCOL]);
        t_wbt[j] = w_b * br[DTCOL];
    }
    for (int64_t i = 0; i < ma; i++) {
        const double *ar = a + i * NCOLS;
        double axi = ar[XCOL], ayi = ar[YCOL], ati = ar[TCOL];
        double ahx = axi + ar[DXCOL];
        double ahy = ayi + ar[DYCOL];
        double aht = ati + ar[DTCOL];
        double wa_ext = w_a * (ar[DXCOL] + ar[DYCOL]);
        double wa_t = w_a * ar[DTCOL];
        for (int64_t j = 0; j < mb; j++) {
            double bxj = t_bx[j], bhx = t_bhx[j];
            double byj = t_by[j], bhy = t_bhy[j];
            double btj = t_bt[j], bht = t_bht[j];
            double ux = (ahx > bhx ? ahx : bhx) - (axi < bxj ? axi : bxj);
            double uy = (ahy > bhy ? ahy : bhy) - (ayi < byj ? ayi : byj);
            double ut = (aht > bht ? aht : bht) - (ati < btj ? ati : btj);
            double raw_s = (ux + uy) - (wa_ext + t_wbe[j]);
            raw_s = raw_s > 0.0 ? raw_s : 0.0;
            double raw_t = ut - (wa_t + t_wbt[j]);
            raw_t = raw_t > 0.0 ? raw_t : 0.0;
            double s_term = raw_s / phi_sigma;
            s_term = s_term < 1.0 ? s_term : 1.0;
            double t_term = raw_t / phi_tau;
            t_term = t_term < 1.0 ? t_term : 1.0;
            double d = w_sigma * s_term + w_tau * t_term;
            dbuf[j] = d;
            sb[j] = d < sb[j] ? d : sb[j];
        }
        double row_min = INFINITY;
        for (int64_t j = 0; j < mb; j++)
            row_min = dbuf[j] < row_min ? dbuf[j] : row_min;
        sa[i] = row_min;
    }
    double mean_a = psum(sa, pad_width) / (double)ma;
    double mean_b = psum(sb, pad_width) / (double)mb;
    for (int64_t i = 0; i < ma; i++)
        sa[i] = 0.0;
    for (int64_t j = 0; j < mb; j++)
        sb[j] = 0.0;
    if (ma > mb)
        return mean_a;
    if (mb > ma)
        return mean_b;
    return (mean_a + mean_b) / 2.0;
}

int glove_one_vs_all(
    const double *a_data, int64_t ma, double n_a,
    const double *data, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    const int64_t *targets, int64_t n_targets,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *out)
{
    int64_t pad_width = ma > m_max ? ma : m_max;
    double *sa = calloc((size_t)pad_width, sizeof(double));
    double *sb = calloc((size_t)pad_width, sizeof(double));
    double *tb = malloc((size_t)(9 * m_max) * sizeof(double));
    if (sa == NULL || sb == NULL || tb == NULL) {
        free(sa);
        free(sb);
        free(tb);
        return -1;
    }
    for (int64_t idx = 0; idx < n_targets; idx++) {
        int64_t t = targets[idx];
        out[idx] = pair_effort(
            a_data, ma, n_a,
            data + t * m_max * NCOLS, lengths[t], (double)counts[t],
            sa, sb, tb, m_max, pad_width,
            w_sigma, w_tau, phi_sigma, phi_tau);
    }
    free(sa);
    free(sb);
    free(tb);
    return 0;
}

/* ---- fused bound-and-prune sweep ----------------------------------
 * The bound-and-prune walk of DESIGN.md D13: the level-0 hull-gap
 * bound and the level-1 per-time-bucket bound (pairwise.hull_lower_bounds
 * and pairwise.bucket_lower_bounds, level 1 folded a bucket at a time
 * across a side's sample columns) are evaluated inside the native
 * sweep, and the exact kernel runs only for candidates whose bound
 * could still beat the probe's running best (or, where the reverse flag
 * allows, the target's cached best).  Every comparison replicates
 * NumPy's maximum/minimum tie rule, every mean runs the same pairwise
 * summation over the same (padded) widths, and the walk order is a
 * stable sort by level-0 bound — so every evaluated value is bitwise
 * StretchEngine.row's, and the running best tightens per candidate. */

static double interval_gap(double a_lo, double a_hi, double b_lo, double b_hi)
{
    double g1 = a_lo - b_hi;
    double g2 = b_lo - a_hi;
    double g = g1 > g2 ? g1 : g2;
    return 0.0 > g ? 0.0 : g;
}

static double hull_bound(
    const double *hull, int64_t hull_cap, int64_t a, int64_t t,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double gx = interval_gap(hull[0 * hull_cap + a], hull[1 * hull_cap + a],
                             hull[0 * hull_cap + t], hull[1 * hull_cap + t]);
    double gy = interval_gap(hull[2 * hull_cap + a], hull[3 * hull_cap + a],
                             hull[2 * hull_cap + t], hull[3 * hull_cap + t]);
    double gt = interval_gap(hull[4 * hull_cap + a], hull[5 * hull_cap + a],
                             hull[4 * hull_cap + t], hull[5 * hull_cap + t]);
    double s_term = (gx + gy) / phi_sigma;
    s_term = s_term < 1.0 ? s_term : 1.0;
    double t_term = gt / phi_tau;
    t_term = t_term < 1.0 ? t_term : 1.0;
    return w_sigma * s_term + w_tau * t_term;
}

/* The struct-of-arrays sample columns of one slot's m rows: x, x+dx,
 * y, y+dy, t, t+dt, each `stride` doubles apart. */
static void sample_columns(const double *d, int64_t m, int64_t stride, double *cols)
{
    for (int64_t i = 0; i < m; i++) {
        const double *s = d + i * NCOLS;
        cols[i] = s[XCOL];
        cols[stride + i] = s[XCOL] + s[DXCOL];
        cols[2 * stride + i] = s[YCOL];
        cols[3 * stride + i] = s[YCOL] + s[DYCOL];
        cols[4 * stride + i] = s[TCOL];
        cols[5 * stride + i] = s[TCOL] + s[DTCOL];
    }
}

/* mins[i] = the minimum over the occupied buckets of the other side's
 * bucket hulls h (n_buckets x 6, occupancy occ) of sample i's
 * hull-gap effort, for the m samples of `cols`.  The bucket loop is
 * outermost, so each sample still folds its buckets in ascending order
 * with the same select as the one-sample-at-a-time fold; an unoccupied
 * bucket's +inf could never win that select, so it is skipped.  The
 * sample loop is elementwise over the columns, so its selects compile
 * to the SIMD min/max of D9, bit for bit the select. */
static void fold_buckets(
    const double *restrict cols, int64_t m, int64_t stride,
    const double *restrict h, const uint8_t *restrict occ, int64_t n_buckets,
    double *restrict mins,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    const double *sx = cols, *shx = cols + stride;
    const double *sy = cols + 2 * stride, *shy = cols + 3 * stride;
    const double *st = cols + 4 * stride, *sht = cols + 5 * stride;
    for (int64_t i = 0; i < m; i++)
        mins[i] = INFINITY;
    for (int64_t b = 0; b < n_buckets; b++) {
        if (!occ[b])
            continue;
        const double *hb = h + b * 6;
        double hx = hb[0], hhx = hb[1], hy = hb[2], hhy = hb[3];
        double ht = hb[4], hht = hb[5];
        for (int64_t i = 0; i < m; i++) {
            double gx = interval_gap(sx[i], shx[i], hx, hhx);
            double gy = interval_gap(sy[i], shy[i], hy, hhy);
            double gt = interval_gap(st[i], sht[i], ht, hht);
            double s_term = (gx + gy) / phi_sigma;
            s_term = s_term < 1.0 ? s_term : 1.0;
            double t_term = gt / phi_tau;
            t_term = t_term < 1.0 ? t_term : 1.0;
            double v = w_sigma * s_term + w_tau * t_term;
            mins[i] = mins[i] < v ? mins[i] : v;
        }
    }
}

/* Level-1 bound of the (a, c) pair following Eq. 10's longer-side
 * rule.  The a-side direction folds a's samples (acols, built once per
 * probe) against c's buckets and means over ma samples; the c-side
 * direction folds c's samples (built into ccols here) against a's
 * buckets and sums a zero-padded width-m_max vector before dividing by
 * mc, replicating the reference's masked mean bit for bit.  ccols needs
 * 6*m_max doubles, lbbuf m_max. */
static double bucket_bound(
    const resident_t *r, int64_t a, int64_t c,
    const double *acols, double *ccols, double *lbbuf,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    int64_t m_max = r->m_max, n_buckets = r->n_buckets;
    int64_t ma = r->lengths[a];
    int64_t mc = r->lengths[c];
    double la = 0.0, lb = 0.0;
    if (ma >= mc) {
        fold_buckets(acols, ma, m_max, r->bhull + c * n_buckets * 6,
                     r->bocc + c * n_buckets, n_buckets, lbbuf,
                     w_sigma, w_tau, phi_sigma, phi_tau);
        la = psum(lbbuf, ma) / (double)ma;
    }
    if (mc >= ma) {
        sample_columns(r->data + c * m_max * NCOLS, mc, m_max, ccols);
        fold_buckets(ccols, mc, m_max, r->bhull + a * n_buckets * 6,
                     r->bocc + a * n_buckets, n_buckets, lbbuf,
                     w_sigma, w_tau, phi_sigma, phi_tau);
        for (int64_t j = mc; j < m_max; j++)
            lbbuf[j] = 0.0;
        lb = psum(lbbuf, m_max) / (double)mc;
    }
    if (ma > mc)
        return la;
    if (mc > ma)
        return lb;
    return (la + lb) / 2.0;
}

/* Bottom-up stable mergesort of indices by key: a stable sort's
 * permutation is unique, so this matches np.argsort(kind="stable"). */
static void stable_argsort(const double *keys, int64_t *idx, int64_t *tmp, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        idx[i] = i;
    for (int64_t width = 1; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi) {
                /* Right run wins only on a strict key win: equal keys
                 * keep their left-first (stable) order. */
                if (keys[idx[j]] < keys[idx[i]])
                    tmp[k++] = idx[j++];
                else
                    tmp[k++] = idx[i++];
            }
            while (i < mid)
                tmp[k++] = idx[i++];
            while (j < hi)
                tmp[k++] = idx[j++];
        }
        for (int64_t i = 0; i < n; i++)
            idx[i] = tmp[i];
    }
}

static uint64_t pair_key(int64_t a, int64_t b)
{
    return ((uint64_t)a << 32) | (uint64_t)b;
}

static int64_t memo_home(uint64_t key, int64_t size)
{
    return (int64_t)((key * 0x9E3779B97F4A7C15ull) >> 32) & (size - 1);
}

/* The cell of t holding key, else the empty cell that would take it;
 * NULL while t has no cells.  One probe sequence serves the lookup and
 * the insert after a miss, and a cell holds key and value on one cache
 * line. */
static memo_cell_t *memo_cell(const memo_table_t *t, uint64_t key)
{
    if (t->size == 0)
        return NULL;
    int64_t i = memo_home(key, t->size);
    while (t->cells[i].key != key && t->cells[i].key != MEMO_EMPTY)
        i = (i + 1) & (t->size - 1);
    return &t->cells[i];
}

/* Double t's cells (64 at first); 0 when the allocation fails. */
static int memo_grow(memo_table_t *t)
{
    memo_table_t g = {NULL, t->size > 0 ? 2 * t->size : 64, t->used};
    g.cells = malloc((size_t)g.size * sizeof(memo_cell_t));
    if (g.cells == NULL)
        return 0;
    for (int64_t i = 0; i < g.size; i++)
        g.cells[i].key = MEMO_EMPTY;
    for (int64_t i = 0; i < t->size; i++)
        if (t->cells[i].key != MEMO_EMPTY)
            *memo_cell(&g, t->cells[i].key) = t->cells[i];
    free(t->cells);
    *t = g;
    return 1;
}

/* Record key's value in `cell`, the empty cell memo_cell found for it,
 * unless t holds limit entries.  A table that would pass half full
 * grows first; a failed growth skips the record, which costs a later
 * recomputation, never a bit. */
static void memo_fill(memo_table_t *t, memo_cell_t *cell, uint64_t key, double val,
                      int64_t limit)
{
    if (t->used >= limit)
        return;
    if (2 * (t->used + 1) > t->size) {
        if (!memo_grow(t))
            return;
        cell = memo_cell(t, key);
    }
    cell->key = key;
    cell->val = val;
    t->used++;
}

memo_t *glove_memo_new(
    int64_t per_slot, double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    memo_t *m = calloc(1, sizeof(memo_t));
    if (m == NULL)
        return NULL;
    m->per_slot = per_slot;
    m->cfg[0] = w_sigma;
    m->cfg[1] = w_tau;
    m->cfg[2] = phi_sigma;
    m->cfg[3] = phi_tau;
    return m;
}

void glove_memo_free(memo_t *m)
{
    free(m->table[MEMO_EXACT].cells);
    free(m->table[MEMO_LB1].cells);
    free(m);
}

int64_t glove_memo_entries(const memo_t *m, int64_t kind)
{
    return m->table[kind].used;
}

/* Scratch of one bounded sweep: the exact kernel's sa/sb/tb, the
 * level-1 per-sample minima, the probe's and a target's sample columns,
 * and the level-0 bounds with their sort permutation for n_max
 * candidates; sweep_alloc returns -1 when an allocation fails.  Also
 * the engine's memo the sweep reads and writes, NULL when the resident
 * carries none or the call runs another configuration; hits counts the
 * exact and the level-1 values the memo served. */
typedef struct {
    double *sa, *sb, *tb, *lbbuf, *acols, *ccols, *lb0;
    int64_t *order, *tmp;
    memo_t *memo;
    int64_t limit;
    int64_t *hits;
} sweep_t;

static void sweep_memo(sweep_t *w, const resident_t *r, int64_t *hits,
                       double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double cfg[4] = {w_sigma, w_tau, phi_sigma, phi_tau};
    memo_t *m = r->memo;
    w->memo = NULL;
    w->hits = hits;
    if (m == NULL || memcmp(m->cfg, cfg, sizeof cfg) != 0)
        return;
    w->memo = m;
    w->limit = m->per_slot * r->cap;
}

/* 1 and the value in *val when the memo holds key.  On a miss *cell is
 * the table's empty cell for key, for sweep_record (NULL without a
 * memo). */
static int sweep_recall(const sweep_t *w, int kind, uint64_t key, double *val,
                        memo_cell_t **cell)
{
    *cell = NULL;
    if (w->memo == NULL)
        return 0;
    memo_cell_t *c = memo_cell(&w->memo->table[kind], key);
    if (c != NULL && c->key == key) {
        *val = c->val;
        w->hits[kind]++;
        return 1;
    }
    *cell = c;
    return 0;
}

static void sweep_record(const sweep_t *w, int kind, memo_cell_t *cell, uint64_t key,
                         double val)
{
    if (w->memo != NULL)
        memo_fill(&w->memo->table[kind], cell, key, val, w->limit);
}

static void sweep_free(sweep_t *w)
{
    free(w->sa); free(w->sb); free(w->tb); free(w->lbbuf);
    free(w->acols); free(w->ccols); free(w->lb0);
    free(w->order); free(w->tmp);
}

static int sweep_alloc(sweep_t *w, int64_t m_max, int64_t n_max)
{
    w->sa = calloc((size_t)m_max, sizeof(double));
    w->sb = calloc((size_t)m_max, sizeof(double));
    w->tb = malloc((size_t)(9 * m_max) * sizeof(double));
    w->lbbuf = malloc((size_t)m_max * sizeof(double));
    w->acols = malloc((size_t)(6 * m_max) * sizeof(double));
    w->ccols = malloc((size_t)(6 * m_max) * sizeof(double));
    w->lb0 = malloc((size_t)n_max * sizeof(double));
    w->order = malloc((size_t)n_max * sizeof(int64_t));
    w->tmp = malloc((size_t)n_max * sizeof(int64_t));
    if (w->sa == NULL || w->sb == NULL || w->tb == NULL || w->lbbuf == NULL ||
        w->acols == NULL || w->ccols == NULL || w->lb0 == NULL ||
        w->order == NULL || w->tmp == NULL) {
        sweep_free(w);
        return -1;
    }
    return 0;
}

/* The level-1 bound of the ordered pair (a, t) and the exact effort of
 * the unordered one, recalled from the memo or computed and recorded. */
static double sweep_level1(
    sweep_t *w, const resident_t *r, int64_t a, int64_t t,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    uint64_t key = pair_key(a, t);
    memo_cell_t *cell;
    double v;
    if (!sweep_recall(w, MEMO_LB1, key, &v, &cell)) {
        v = bucket_bound(r, a, t, w->acols, w->ccols, w->lbbuf,
                         w_sigma, w_tau, phi_sigma, phi_tau);
        sweep_record(w, MEMO_LB1, cell, key, v);
    }
    return v;
}

static double sweep_exact(
    sweep_t *w, const resident_t *r, int64_t a, int64_t t,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    uint64_t key = a < t ? pair_key(a, t) : pair_key(t, a);
    int64_t m_max = r->m_max;
    memo_cell_t *cell;
    double v;
    if (!sweep_recall(w, MEMO_EXACT, key, &v, &cell)) {
        v = pair_effort(
            r->data + a * m_max * NCOLS, r->lengths[a], (double)r->counts[a],
            r->data + t * m_max * NCOLS, r->lengths[t], (double)r->counts[t],
            w->sa, w->sb, w->tb, m_max, m_max,
            w_sigma, w_tau, phi_sigma, phi_tau);
        sweep_record(w, MEMO_EXACT, cell, key, v);
    }
    return v;
}

/* Fused bound-and-prune ragged sweep (CSR layout; probes are slot ids
 * into the store tensors).  Pruned positions get a +inf sentinel
 * (exact efforts never exceed 1.0) and count into pruned[p]; the pairs
 * that reach the level-1 bound count into lb1_evals[p], and the values
 * the pair memo served into hits[0] (exact) and hits[1] (level 1). */
int glove_bounded_many_vs_some(
    const resident_t *r,
    const int64_t *probe_slots, int64_t n_probes,
    const int64_t *flat_targets, const int64_t *offsets,
    const double *thresholds, const uint8_t *reverse, const double *best_vals,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *out, int64_t *pruned, int64_t *lb1_evals, int64_t *hits)
{
    const double *hull = r->hull;
    int64_t m_max = r->m_max, hull_cap = r->cap;
    int64_t n_max = 1;
    for (int64_t p = 0; p < n_probes; p++) {
        int64_t n = offsets[p + 1] - offsets[p];
        if (n > n_max)
            n_max = n;
    }
    sweep_t w;
    if (sweep_alloc(&w, m_max, n_max) != 0)
        return -1;
    sweep_memo(&w, r, hits, w_sigma, w_tau, phi_sigma, phi_tau);
    for (int64_t p = 0; p < n_probes; p++) {
        int64_t a = probe_slots[p];
        int64_t off = offsets[p];
        int64_t n = offsets[p + 1] - off;
        if (n == 0)
            continue;
        sample_columns(r->data + a * m_max * NCOLS, r->lengths[a], m_max, w.acols);
        for (int64_t idx = 0; idx < n; idx++)
            w.lb0[idx] = hull_bound(hull, hull_cap, a, flat_targets[off + idx],
                                    w_sigma, w_tau, phi_sigma, phi_tau);
        stable_argsort(w.lb0, w.order, w.tmp, n);
        double best = thresholds[p];
        int64_t best_idx = -1;
        for (int64_t k = 0; k < n; k++) {
            int64_t j = w.order[k];
            int64_t t = flat_targets[off + j];
            int rev = reverse[off + j] != 0;
            double lb = w.lb0[j];
            if (lb > best && (!rev || lb >= best_vals[t])) {
                out[off + j] = INFINITY;
                pruned[p]++;
                continue;
            }
            lb1_evals[p]++;
            double lb1 = sweep_level1(&w, r, a, t, w_sigma, w_tau, phi_sigma, phi_tau);
            if (lb1 > best && (!rev || lb1 >= best_vals[t])) {
                out[off + j] = INFINITY;
                pruned[p]++;
                continue;
            }
            double v = sweep_exact(&w, r, a, t, w_sigma, w_tau, phi_sigma, phi_tau);
            out[off + j] = v;
            if (v < best || (v == best && t < best_idx)) {
                best = v;
                best_idx = t;
            }
        }
    }
    sweep_free(&w);
    return 0;
}

/* Fused sweep with in-kernel (argmin, min) reduction over one shared
 * target set: no row materialization at all.  A probe meeting itself
 * in the shared set is skipped without counting as pruned; a probe
 * whose threshold no target strictly beats keeps (threshold, -1). */
int glove_bounded_many_vs_all(
    const resident_t *r,
    const int64_t *probe_slots, int64_t n_probes,
    const int64_t *targets, int64_t n_targets,
    const double *thresholds,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *best_out, int64_t *best_idx_out, int64_t *pruned, int64_t *lb1_evals,
    int64_t *hits)
{
    const double *hull = r->hull;
    int64_t m_max = r->m_max, hull_cap = r->cap;
    sweep_t w;
    if (sweep_alloc(&w, m_max, n_targets > 1 ? n_targets : 1) != 0)
        return -1;
    sweep_memo(&w, r, hits, w_sigma, w_tau, phi_sigma, phi_tau);
    for (int64_t p = 0; p < n_probes; p++) {
        int64_t a = probe_slots[p];
        sample_columns(r->data + a * m_max * NCOLS, r->lengths[a], m_max, w.acols);
        for (int64_t idx = 0; idx < n_targets; idx++)
            w.lb0[idx] = hull_bound(hull, hull_cap, a, targets[idx],
                                    w_sigma, w_tau, phi_sigma, phi_tau);
        stable_argsort(w.lb0, w.order, w.tmp, n_targets);
        double best = thresholds[p];
        int64_t best_idx = -1;
        for (int64_t k = 0; k < n_targets; k++) {
            int64_t j = w.order[k];
            int64_t t = targets[j];
            if (t == a)
                continue;
            if (w.lb0[j] > best) {
                pruned[p]++;
                continue;
            }
            lb1_evals[p]++;
            double lb1 = sweep_level1(&w, r, a, t, w_sigma, w_tau, phi_sigma, phi_tau);
            if (lb1 > best) {
                pruned[p]++;
                continue;
            }
            double v = sweep_exact(&w, r, a, t, w_sigma, w_tau, phi_sigma, phi_tau);
            if (v < best || (v == best && t < best_idx)) {
                best = v;
                best_idx = t;
            }
        }
        best_out[p] = best;
        best_idx_out[p] = best_idx;
    }
    sweep_free(&w);
    return 0;
}

/* mat must arrive prefilled with +inf (the diagonal stays that way). */
int glove_pairwise_matrix(
    const double *data, int64_t n, int64_t m_max,
    const int64_t *lengths, const int64_t *counts,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *mat)
{
    double *sa = calloc((size_t)m_max, sizeof(double));
    double *sb = calloc((size_t)m_max, sizeof(double));
    double *tb = malloc((size_t)(9 * m_max) * sizeof(double));
    if (sa == NULL || sb == NULL || tb == NULL) {
        free(sa);
        free(sb);
        free(tb);
        return -1;
    }
    for (int64_t i = 0; i + 1 < n; i++) {
        const double *a = data + i * m_max * NCOLS;
        double n_a = (double)counts[i];
        for (int64_t j = i + 1; j < n; j++) {
            double v = pair_effort(
                a, lengths[i], n_a,
                data + j * m_max * NCOLS, lengths[j], (double)counts[j],
                sa, sb, tb, m_max, m_max,
                w_sigma, w_tau, phi_sigma, phi_tau);
            mat[i * n + j] = v;
            mat[j * n + i] = v;
        }
    }
    free(sa);
    free(sb);
    free(tb);
    return 0;
}

/* ---- the merge product ---------------------------------------------
 * glove_merge, glove_reshape and glove_summarize replicate the NumPy
 * bodies merge_sample_arrays, reshape_sample_array and
 * StretchEngine._summarize.  Min/max folds give a tie to the later
 * operand, as NumPy's reductions do; stretch cells follow
 * stretch_matrix's operation order. */

static double fold_min(double acc, double v) { return acc < v ? acc : v; }
static double fold_max(double acc, double v) { return acc > v ? acc : v; }

/* First argmin over b[0:mb] of one stretch_matrix row (the cell of
 * pair_effort). */
static int64_t nearest_row(
    const double *ar, const double *b, int64_t mb, double w_a, double w_b,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    double axi = ar[XCOL], ayi = ar[YCOL], ati = ar[TCOL];
    double ahx = axi + ar[DXCOL];
    double ahy = ayi + ar[DYCOL];
    double aht = ati + ar[DTCOL];
    double wa_ext = w_a * (ar[DXCOL] + ar[DYCOL]);
    double wa_t = w_a * ar[DTCOL];
    double best = INFINITY;
    int64_t best_j = 0;
    for (int64_t j = 0; j < mb; j++) {
        const double *br = b + j * NCOLS;
        double bxj = br[XCOL], byj = br[YCOL], btj = br[TCOL];
        double bhx = bxj + br[DXCOL];
        double bhy = byj + br[DYCOL];
        double bht = btj + br[DTCOL];
        double ux = (ahx > bhx ? ahx : bhx) - (axi < bxj ? axi : bxj);
        double uy = (ahy > bhy ? ahy : bhy) - (ayi < byj ? ayi : byj);
        double ut = (aht > bht ? aht : bht) - (ati < btj ? ati : btj);
        double raw_s = (ux + uy) - (wa_ext + w_b * (br[DXCOL] + br[DYCOL]));
        raw_s = raw_s > 0.0 ? raw_s : 0.0;
        double raw_t = ut - (wa_t + w_b * br[DTCOL]);
        raw_t = raw_t > 0.0 ? raw_t : 0.0;
        double s_term = raw_s / phi_sigma;
        s_term = s_term < 1.0 ? s_term : 1.0;
        double t_term = raw_t / phi_tau;
        t_term = t_term < 1.0 ? t_term : 1.0;
        double d = w_sigma * s_term + w_tau * t_term;
        if (d < best) {
            best = d;
            best_j = j;
        }
    }
    return best_j;
}

/* Fold one sample row into acc's (lo, hi) pairs of the x, y, t axes
 * (lo at the low column, hi at the extent's). */
static void fold_bounds(double *acc, const double *row, int first)
{
    for (int c = 0; c < NCOLS; c += 2) {
        double lo = row[c];
        double hi = lo + row[c + 1];
        acc[c] = first ? lo : fold_min(acc[c], lo);
        acc[c + 1] = first ? hi : fold_max(acc[c + 1], hi);
    }
}

/* Eq. 12-13: the covering sample (lo, hi - lo) per axis. */
static void emit_bounds(const double *acc, double *out)
{
    for (int c = 0; c < NCOLS; c += 2) {
        out[c] = acc[c];
        out[c + 1] = acc[c + 1] - acc[c];
    }
}

/* rows[0:n] stably sorted on T into out; keys/idx/tmp hold n each. */
static void sorted_on_t(const double *rows, int64_t n, double *out,
                        double *keys, int64_t *idx, int64_t *tmp)
{
    for (int64_t i = 0; i < n; i++)
        keys[i] = rows[i * NCOLS + TCOL];
    stable_argsort(keys, idx, tmp, n);
    for (int64_t i = 0; i < n; i++)
        for (int c = 0; c < NCOLS; c++)
            out[i * NCOLS + c] = rows[idx[i] * NCOLS + c];
}

/* merge_sample_arrays of lng (ml rows) and sht (ms rows, ml >= ms >= 1):
 * writes the merged rows, stably sorted on T, to out (ms rows) and
 * returns their count, or -1 when scratch allocation fails. */
static int64_t glove_merge(
    const double *lng, int64_t ml, const double *sht, int64_t ms,
    double n_long, double n_short,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    double *out)
{
    double *acc = malloc((size_t)(2 * ms * NCOLS + ms) * sizeof(double));
    int64_t *ibuf = malloc((size_t)(3 * ms) * sizeof(int64_t));
    uint8_t *matched = calloc((size_t)ms, 1);
    if (acc == NULL || ibuf == NULL || matched == NULL) {
        free(acc); free(ibuf); free(matched);
        return -1;
    }
    double *rows = acc + ms * NCOLS;
    double *keys = rows + ms * NCOLS;
    int64_t *target = ibuf, *idx = ibuf + ms, *tmp = ibuf + 2 * ms;
    /* Stage 1: every long row joins its first-minimum short row; a
     * group folds its long rows in order and the short row last. */
    double w_a = n_long / (n_long + n_short);
    double w_b = n_short / (n_long + n_short);
    for (int64_t i = 0; i < ml; i++) {
        int64_t j = nearest_row(lng + i * NCOLS, sht, ms, w_a, w_b,
                                w_sigma, w_tau, phi_sigma, phi_tau);
        fold_bounds(acc + j * NCOLS, lng + i * NCOLS, !matched[j]);
        matched[j] = 1;
    }
    int64_t k = 0;
    for (int64_t j = 0; j < ms; j++) {
        if (matched[j]) {
            fold_bounds(acc + j * NCOLS, sht + j * NCOLS, 0);
            emit_bounds(acc + j * NCOLS, rows + k * NCOLS);
            k++;
        }
    }
    /* Stage 2: every unmatched short row picks its target among the
     * stage-1 rows first; the folds then run one by one, re-deriving
     * lo + ext from the stored extent. */
    double n_b = n_long + n_short;
    w_a = n_short / (n_short + n_b);
    w_b = n_b / (n_short + n_b);
    for (int64_t j = 0; j < ms; j++)
        if (!matched[j])
            target[j] = nearest_row(sht + j * NCOLS, rows, k, w_a, w_b,
                                    w_sigma, w_tau, phi_sigma, phi_tau);
    for (int64_t j = 0; j < ms; j++) {
        if (!matched[j]) {
            double *row = rows + target[j] * NCOLS;
            fold_bounds(acc, row, 1);
            fold_bounds(acc, sht + j * NCOLS, 0);
            emit_bounds(acc, row);
        }
    }
    sorted_on_t(rows, k, out, keys, idx, tmp);
    free(acc); free(ibuf); free(matched);
    return k;
}

/* reshape_sample_array's sweep over m rows: every run (in stable T
 * order) that starts before the running end minus atol folds into one
 * sample, and a run of one keeps its row verbatim.  Writes the groups
 * to out (m rows) and returns their count, or -1 when scratch
 * allocation fails. */
static int64_t glove_reshape(const double *data, int64_t m, double atol, double *out)
{
    if (m < 2) {
        for (int64_t i = 0; i < m * NCOLS; i++)
            out[i] = data[i];
        return m;
    }
    double *rows = malloc((size_t)(m * NCOLS + m) * sizeof(double));
    int64_t *ibuf = malloc((size_t)(2 * m) * sizeof(int64_t));
    if (rows == NULL || ibuf == NULL) {
        free(rows); free(ibuf);
        return -1;
    }
    sorted_on_t(data, m, rows, rows + m * NCOLS, ibuf, ibuf + m);
    double acc[NCOLS];
    int64_t n_groups = 0, start = 0;
    double end = rows[TCOL] + rows[DTCOL];
    fold_bounds(acc, rows, 1);
    for (int64_t r = 1; r <= m; r++) {
        const double *row = rows + r * NCOLS;
        if (r < m && row[TCOL] < end - atol) {
            fold_bounds(acc, row, 0);
            double e = row[TCOL] + row[DTCOL];
            if (e > end)
                end = e;
            continue;
        }
        if (r - start == 1) {
            for (int c = 0; c < NCOLS; c++)
                out[n_groups * NCOLS + c] = rows[start * NCOLS + c];
        } else {
            emit_bounds(acc, out + n_groups * NCOLS);
        }
        n_groups++;
        if (r < m) {
            start = r;
            end = row[TCOL] + row[DTCOL];
            fold_bounds(acc, row, 1);
        }
    }
    free(rows); free(ibuf);
    return n_groups;
}

/* StretchEngine._summarize of slot s, in place: the (6, cap) hull
 * column and, per time bucket, the hull of the samples whose closed
 * interval touches it (minima of lo and of -hi, the time range clamped
 * to the bucket) and its occupancy. */
static void summarize_slot(const resident_t *r, int64_t s)
{
    int64_t m = r->lengths[s], cap = r->cap, n_buckets = r->n_buckets;
    const double *d = r->data + s * r->m_max * NCOLS;
    for (int c = 0; c < NCOLS; c += 2) {
        double lo = INFINITY, hi = -INFINITY;
        for (int64_t i = 0; i < m; i++) {
            lo = fold_min(lo, d[i * NCOLS + c]);
            hi = fold_max(hi, d[i * NCOLS + c] + d[i * NCOLS + c + 1]);
        }
        r->hull[c * cap + s] = lo;
        r->hull[(c + 1) * cap + s] = hi;
    }
    for (int64_t b = 0; b < n_buckets; b++) {
        double e_lo = r->edges[b], e_hi = r->edges[b + 1];
        uint8_t occ = 0;
        double x_lo = INFINITY, nx_hi = INFINITY;
        double y_lo = INFINITY, ny_hi = INFINITY;
        double t_lo = INFINITY, nt_hi = INFINITY;
        for (int64_t i = 0; i < m; i++) {
            const double *row = d + i * NCOLS;
            double t = row[TCOL];
            double t_end = t + row[DTCOL];
            if (t <= e_hi && t_end >= e_lo) {
                occ = 1;
                x_lo = fold_min(x_lo, row[XCOL]);
                nx_hi = fold_min(nx_hi, -(row[XCOL] + row[DXCOL]));
                y_lo = fold_min(y_lo, row[YCOL]);
                ny_hi = fold_min(ny_hi, -(row[YCOL] + row[DYCOL]));
                t_lo = fold_min(t_lo, t);
                nt_hi = fold_min(nt_hi, -t_end);
            }
        }
        double *h = r->bhull + (s * n_buckets + b) * 6;
        h[0] = x_lo;
        h[1] = -nx_hi;
        h[2] = y_lo;
        h[3] = -ny_hi;
        h[4] = t_lo > e_lo ? t_lo : e_lo;
        h[5] = -nt_hi < e_hi ? -nt_hi : e_hi;
        r->bocc[s * n_buckets + b] = occ;
    }
}

void glove_summarize(const resident_t *r, const int64_t *slots, int64_t n_slots)
{
    for (int64_t p = 0; p < n_slots; p++)
        summarize_slot(r, slots[p]);
}

/* The Fingerprint constructor's data + 0.0: -0.0 becomes +0.0. */
static void canonicalize(double *rows, int64_t n)
{
    for (int64_t i = 0; i < n * NCOLS; i++)
        rows[i] += 0.0;
}

/* One GLOVE merge, slot a with slot b into the empty slot dst: the
 * two-stage merge (the longer slot leads, a on equal lengths), the
 * constructor's signed-zero canonicalization, the reshape when asked
 * (on T-sorted rows without an overlap it returns them unchanged),
 * the canonicalization again, then the product's row, length, count
 * and mask, and its summaries when asked.  Returns the product's
 * length, or -1 when scratch allocation fails. */
int64_t glove_merge_step(
    const resident_t *r, int64_t a, int64_t b, int64_t dst,
    int reshape, double atol, int summarize,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau)
{
    int64_t row_len = r->m_max * NCOLS;
    int64_t lng = r->lengths[a] >= r->lengths[b] ? a : b;
    int64_t sht = lng == a ? b : a;
    int64_t ms = r->lengths[sht];
    double *merged = malloc((size_t)(ms * NCOLS) * sizeof(double));
    if (merged == NULL)
        return -1;
    double *out = r->data + dst * row_len;
    int64_t n = glove_merge(
        r->data + lng * row_len, r->lengths[lng], r->data + sht * row_len, ms,
        (double)r->counts[lng], (double)r->counts[sht],
        w_sigma, w_tau, phi_sigma, phi_tau, merged);
    if (n >= 0) {
        canonicalize(merged, n);
        if (reshape) {
            n = glove_reshape(merged, n, atol, out);
        } else {
            for (int64_t i = 0; i < n * NCOLS; i++)
                out[i] = merged[i];
        }
    }
    free(merged);
    if (n < 0)
        return -1;
    canonicalize(out, n);
    r->lengths[dst] = n;
    r->counts[dst] = r->counts[a] + r->counts[b];
    for (int64_t i = 0; i < n; i++)
        r->mask[dst * r->m_max + i] = 1;
    if (summarize)
        summarize_slot(r, dst);
    return n;
}

/* ---- the greedy loop (DESIGN.md D9, "The loop") --------------------
 * glove_greedy_merge runs repro.core.glove._python_greedy_merge for one
 * engine: the same bounded sweeps with the same probes, targets,
 * thresholds, reverse flags and cached bests in the same order, so
 * every value, choice and counter is that loop's.  pending, best_val
 * and best_idx (cap entries each) are the loop's state, updated in
 * place; the products fill the slots from `size` on, which the caller
 * made room for.  Each merge appends its (i, j, dst) row to merge_log;
 * counts (zeroed by the caller) receives the (probe, target) pairs
 * searched, the pairs a bound pruned, the pairs reaching the level-1
 * bound, the exact and level-1 memo hits, and the probe rows
 * dispatched.  Returns the number of merges, -1 when a scratch
 * allocation fails, or -2 when a slot's cached neighbour is not a
 * pending slot. */
#define BUILD_BLOCK 8
#define LOOP_PAIRS 0
#define LOOP_PRUNED 1
#define LOOP_LB1 2
#define LOOP_HITS 3
#define LOOP_PROBES 5

/* The ascending ids of the pending slots into out; returns their number. */
static int64_t pending_slots(const uint8_t *pending, int64_t cap, int64_t skip, int64_t *out)
{
    int64_t n = 0;
    for (int64_t s = 0; s < cap; s++)
        if (pending[s] && s != skip)
            out[n++] = s;
    return n;
}

/* Add one sweep's per-probe pruned and level-1 counts to counts. */
static void count_sweep(int64_t *counts, const int64_t *pruned, const int64_t *lb1,
                        int64_t n_probes)
{
    for (int64_t p = 0; p < n_probes; p++) {
        counts[LOOP_PRUNED] += pruned[p];
        counts[LOOP_LB1] += lb1[p];
    }
}

/* The minimum of vals[0:n] and, in *idx, the lowest of the targets
 * holding it (vals.min() and tgts[vals == vmin].min()). */
static double row_min(const double *vals, const int64_t *tgts, int64_t n, int64_t *idx)
{
    double vmin = INFINITY;
    for (int64_t i = 0; i < n; i++)
        vmin = vals[i] < vmin ? vals[i] : vmin;
    *idx = -1;
    for (int64_t i = 0; i < n; i++)
        if (vals[i] == vmin && (*idx < 0 || tgts[i] < *idx))
            *idx = tgts[i];
    return vmin;
}

int64_t glove_greedy_merge(
    const resident_t *r, int64_t size, int64_t k,
    uint8_t *pending, double *best_val, int64_t *best_idx,
    int reshape, double atol, int summarize,
    double w_sigma, double w_tau, double phi_sigma, double phi_tau,
    int64_t *merge_log, int64_t *counts)
{
    int64_t cap = r->cap;
    /* A build block's flat rows hold at most BUILD_BLOCK prefixes. */
    int64_t n_flat = BUILD_BLOCK * cap;
    int64_t *live = malloc((size_t)cap * sizeof(int64_t));
    int64_t *targets = malloc((size_t)n_flat * sizeof(int64_t));
    uint8_t *rev = malloc((size_t)n_flat);
    double *out = malloc((size_t)n_flat * sizeof(double));
    int64_t *inval = malloc((size_t)cap * sizeof(int64_t));
    uint8_t *is_inval = calloc((size_t)cap, 1);
    double *thr = malloc((size_t)cap * sizeof(double));
    double *bval = malloc((size_t)cap * sizeof(double));
    int64_t *bidx = malloc((size_t)cap * sizeof(int64_t));
    int64_t *pruned = malloc((size_t)cap * sizeof(int64_t));
    int64_t *lb1 = malloc((size_t)cap * sizeof(int64_t));
    int64_t n_merges = 0, n_live;
    if (live == NULL || targets == NULL || rev == NULL || out == NULL || inval == NULL ||
        is_inval == NULL || thr == NULL || bval == NULL || bidx == NULL ||
        pruned == NULL || lb1 == NULL)
        goto fail;
    for (int64_t s = 0; s < cap; s++)
        thr[s] = INFINITY;
    n_live = pending_slots(pending, cap, -1, live);

    /* _NearestNeighbours.build: probe q of a block scans the pending
     * slots before it; the block's own results land first, then each
     * target takes its least proposal (ties to the lowest probe) on a
     * strict improvement.  bval/bidx hold the proposals by position. */
    int64_t offsets[BUILD_BLOCK + 1];
    for (int64_t s = 0; s < n_live; s += BUILD_BLOCK) {
        int64_t bs = n_live - s < BUILD_BLOCK ? n_live - s : BUILD_BLOCK;
        const int64_t *block = live + s;
        offsets[0] = 0;
        for (int64_t q = 0; q < bs; q++) {
            memcpy(targets + offsets[q], live, (size_t)(s + q) * sizeof(int64_t));
            offsets[q + 1] = offsets[q] + s + q;
        }
        int64_t total = offsets[bs];
        counts[LOOP_PROBES] += bs;
        if (total == 0)
            continue;
        memset(rev, 1, (size_t)total);
        memset(pruned, 0, (size_t)bs * sizeof(int64_t));
        memset(lb1, 0, (size_t)bs * sizeof(int64_t));
        if (glove_bounded_many_vs_some(
                r, block, bs, targets, offsets, thr, rev, best_val,
                w_sigma, w_tau, phi_sigma, phi_tau, out, pruned, lb1, counts + LOOP_HITS) != 0)
            goto fail;
        counts[LOOP_PAIRS] += total;
        count_sweep(counts, pruned, lb1, bs);
        for (int64_t t = 0; t < s + bs; t++)
            bidx[t] = -1;
        double own_val[BUILD_BLOCK];
        int64_t own_idx[BUILD_BLOCK];
        for (int64_t q = 0; q < bs; q++) {
            const double *vals = out + offsets[q];
            own_val[q] = row_min(vals, live, s + q, &own_idx[q]);
            if (!(own_val[q] < INFINITY)) {
                own_val[q] = INFINITY;
                own_idx[q] = -1;
                continue;
            }
            for (int64_t t = 0; t < s + q; t++) {
                double v = vals[t];
                if (v < INFINITY &&
                    (bidx[t] < 0 || v < bval[t] || (v == bval[t] && block[q] < bidx[t]))) {
                    bval[t] = v;
                    bidx[t] = block[q];
                }
            }
        }
        for (int64_t q = 0; q < bs; q++) {
            best_val[block[q]] = own_val[q];
            best_idx[block[q]] = own_idx[q];
        }
        for (int64_t t = 0; t < s + bs; t++) {
            if (bidx[t] >= 0 && bval[t] < best_val[live[t]]) {
                best_val[live[t]] = bval[t];
                best_idx[live[t]] = bidx[t];
            }
        }
    }

    /* The merge iterations. */
    for (;;) {
        n_live = pending_slots(pending, cap, -1, live);
        if (n_live < 2)
            break;
        int64_t i = live[0];
        for (int64_t p = 1; p < n_live; p++)
            if (best_val[live[p]] < best_val[i])
                i = live[p];
        int64_t j = best_idx[i];
        if (j < 0 || j >= cap || j == i || !pending[j]) {
            n_merges = -2;
            goto done;
        }
        int64_t dst = size + n_merges;
        if (glove_merge_step(r, i, j, dst, reshape, atol, summarize,
                             w_sigma, w_tau, phi_sigma, phi_tau) < 0)
            goto fail;
        merge_log[3 * n_merges] = i;
        merge_log[3 * n_merges + 1] = j;
        merge_log[3 * n_merges + 2] = dst;
        n_merges++;
        pending[i] = pending[j] = 0;
        best_val[i] = best_val[j] = INFINITY;
        best_idx[i] = best_idx[j] = -1;
        /* Slots whose cached neighbour just died need a full re-scan. */
        int64_t n_inval = 0;
        for (int64_t p = 0; p < n_live; p++) {
            int64_t s = live[p];
            if (s != i && s != j && (best_idx[s] == i || best_idx[s] == j)) {
                inval[n_inval++] = s;
                is_inval[s] = 1;
            }
        }
        if (r->counts[dst] < k) {
            /* _NearestNeighbours.insert, without reverse propagation
             * into the slots queued for the re-scan. */
            pending[dst] = 1;
            int64_t nt = pending_slots(pending, cap, dst, targets);
            if (nt == 0) {
                best_val[dst] = INFINITY;
                best_idx[dst] = -1;
            } else {
                for (int64_t t = 0; t < nt; t++)
                    rev[t] = !is_inval[targets[t]];
                int64_t row[2] = {0, nt};
                pruned[0] = lb1[0] = 0;
                counts[LOOP_PROBES] += 1;
                if (glove_bounded_many_vs_some(
                        r, &dst, 1, targets, row, thr, rev, best_val,
                        w_sigma, w_tau, phi_sigma, phi_tau, out, pruned, lb1,
                        counts + LOOP_HITS) != 0)
                    goto fail;
                counts[LOOP_PAIRS] += nt;
                count_sweep(counts, pruned, lb1, 1);
                for (int64_t t = 0; t < nt; t++) {
                    if (rev[t] && out[t] < best_val[targets[t]]) {
                        best_val[targets[t]] = out[t];
                        best_idx[targets[t]] = dst;
                    }
                }
                best_val[dst] = row_min(out, targets, nt, &best_idx[dst]);
            }
        }
        if (n_inval > 0) {
            /* _NearestNeighbours.refresh_many over the pending set. */
            int64_t nt = pending_slots(pending, cap, -1, targets);
            memset(pruned, 0, (size_t)n_inval * sizeof(int64_t));
            memset(lb1, 0, (size_t)n_inval * sizeof(int64_t));
            counts[LOOP_PROBES] += n_inval;
            if (glove_bounded_many_vs_all(
                    r, inval, n_inval, targets, nt, thr,
                    w_sigma, w_tau, phi_sigma, phi_tau, bval, bidx, pruned, lb1,
                    counts + LOOP_HITS) != 0)
                goto fail;
            count_sweep(counts, pruned, lb1, n_inval);
            for (int64_t p = 0; p < n_inval; p++) {
                counts[LOOP_PAIRS] += nt - (pending[inval[p]] ? 1 : 0);
                best_val[inval[p]] = bval[p];
                best_idx[inval[p]] = bidx[p];
                is_inval[inval[p]] = 0;
            }
        }
    }

    goto done;
fail:
    n_merges = -1;
done:
    free(live); free(targets); free(rev); free(out); free(inval); free(is_inval);
    free(thr); free(bval); free(bidx); free(pruned); free(lb1);
    return n_merges;
}
"""

#: ``-ffp-contract=off`` forbids FMA contraction — with it off, SIMD
#: add/sub/mul/div/min/max are bit-identical to their scalar forms, so
#: ``-march=native`` vectorization cannot change results; the explicit
#: IEEE flags guard against distributions that alias ``cc`` to
#: something exotic.  ``-march=native`` is dropped on compilers that
#: reject it (the artifact cache is per-machine, so tuning is safe).
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")
NATIVE_FLAG = "-march=native"


def _cache_path() -> Path:
    digest = hashlib.sha256(
        (C_SOURCE + " ".join(CFLAGS) + NATIVE_FLAG).encode()
    ).hexdigest()[:16]
    return default_artifact_dir() / "ckernel" / f"stretch_{digest}.so"


def _compile(cache: Path) -> Optional[str]:
    """Build the library into ``cache``; returns why it failed, or ``None``."""
    cc = os.environ.get("CC", "cc")
    compiler = shutil.which(cc)
    if compiler is None:
        return f"no C compiler on PATH: {cc}"
    reason = "compile failed"
    try:
        cache.parent.mkdir(parents=True, exist_ok=True)
        # Build in a scratch dir, then rename into place: concurrent
        # processes race benignly (last rename wins, same content).
        with tempfile.TemporaryDirectory(dir=cache.parent) as td:
            src = Path(td) / "stretch.c"
            obj = Path(td) / "stretch.so"
            src.write_text(C_SOURCE)
            for flags in ((*CFLAGS, NATIVE_FLAG), CFLAGS):
                try:
                    subprocess.run(
                        [compiler, *flags, str(src), "-o", str(obj)],
                        check=True,
                        capture_output=True,
                        timeout=120,
                    )
                except subprocess.CalledProcessError as exc:
                    lines = exc.stderr.decode(errors="replace").strip().splitlines()
                    reason = f"compile failed: {lines[-1] if lines else exc}"
                    continue
                except (OSError, subprocess.SubprocessError) as exc:
                    reason = f"compile failed: {exc}"
                    continue
                os.replace(obj, cache)
                return None
    except OSError as exc:
        reason = f"compile failed: {exc}"
    return reason


class ResidentBlock(ctypes.Structure):
    """The C text's ``resident_t``, field for field: the addresses and
    dimensions of one engine's resident arrays, passed by address."""

    _fields_ = [
        ("data", ctypes.c_void_p),
        ("cap", ctypes.c_int64),
        ("m_max", ctypes.c_int64),
        ("lengths", ctypes.c_void_p),
        ("counts", ctypes.c_void_p),
        ("mask", ctypes.c_void_p),
        ("hull", ctypes.c_void_p),
        ("bucket_hull", ctypes.c_void_p),
        ("bucket_occ", ctypes.c_void_p),
        ("n_buckets", ctypes.c_int64),
        ("edges", ctypes.c_void_p),
        ("memo", ctypes.c_void_p),
    ]


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # Every pointer is a raw address: the callers validate shape, dtype
    # and C-contiguity before taking one (DESIGN.md D9), so no call pays
    # numpy.ctypeslib.ndpointer's per-argument conversion.
    ptr = ctypes.c_void_p
    c_i64 = ctypes.c_int64
    c_f64 = ctypes.c_double
    cfg = [c_f64, c_f64, c_f64, c_f64]     # w_sigma, w_tau, phis
    lib.glove_one_vs_all.restype = ctypes.c_int
    lib.glove_one_vs_all.argtypes = [
        ptr, c_i64, c_f64,                 # a_data, ma, n_a
        ptr, c_i64,                        # data, m_max
        ptr, ptr,                          # lengths, counts
        ptr, c_i64,                        # targets, n_targets
        *cfg, ptr,                         # out
    ]
    lib.glove_pairwise_matrix.restype = ctypes.c_int
    lib.glove_pairwise_matrix.argtypes = [
        ptr, c_i64, c_i64,                 # data, n, m_max
        ptr, ptr,                          # lengths, counts
        *cfg, ptr,                         # mat
    ]
    lib.glove_bounded_many_vs_some.restype = ctypes.c_int
    lib.glove_bounded_many_vs_some.argtypes = [
        ptr,                               # resident block
        ptr, c_i64,                        # probe_slots, n_probes
        ptr, ptr,                          # flat_targets, offsets
        ptr, ptr, ptr,                     # thresholds, reverse, best_vals
        *cfg, ptr, ptr, ptr, ptr,          # out, pruned, lb1_evals, memo hits
    ]
    lib.glove_bounded_many_vs_all.restype = ctypes.c_int
    lib.glove_bounded_many_vs_all.argtypes = [
        ptr,                               # resident block
        ptr, c_i64,                        # probe_slots, n_probes
        ptr, c_i64,                        # targets, n_targets
        ptr,                               # thresholds
        *cfg, ptr, ptr, ptr, ptr,          # best, best_idx, pruned, lb1_evals
        ptr,                               # memo hits
    ]
    lib.glove_memo_new.restype = ptr
    lib.glove_memo_new.argtypes = [c_i64, *cfg]  # per_slot
    lib.glove_memo_free.restype = None
    lib.glove_memo_free.argtypes = [ptr]
    lib.glove_memo_entries.restype = c_i64
    lib.glove_memo_entries.argtypes = [ptr, c_i64]  # memo, kind
    lib.glove_summarize.restype = None
    lib.glove_summarize.argtypes = [ptr, ptr, c_i64]  # resident block, slots, n_slots
    lib.glove_merge_step.restype = c_i64
    lib.glove_merge_step.argtypes = [
        ptr, c_i64, c_i64, c_i64,          # resident block, a, b, dst
        ctypes.c_int, c_f64, ctypes.c_int,  # reshape, atol, summarize
        *cfg,
    ]
    lib.glove_greedy_merge.restype = c_i64
    lib.glove_greedy_merge.argtypes = [
        ptr, c_i64, c_i64,                 # resident block, size, k
        ptr, ptr, ptr,                     # pending, best_val, best_idx
        ctypes.c_int, c_f64, ctypes.c_int,  # reshape, atol, summarize
        *cfg, ptr, ptr,                    # merge_log, counts
    ]
    return lib


def load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """Compile (once per source revision) and load the shared library.

    Returns ``(lib, None)``, or ``(None, reason)`` — and the callers
    fall back to the NumPy reference — when the tier is disabled via
    ``REPRO_CC_KERNEL=0`` or any build step fails.
    """
    if os.environ.get("REPRO_CC_KERNEL", "1") == "0":
        return None, "disabled by REPRO_CC_KERNEL=0"
    try:
        cache = _cache_path()
        if not cache.exists():
            reason = _compile(cache)
            if reason is not None:
                return None, reason
        return _bind(ctypes.CDLL(str(cache))), None
    except (OSError, ValueError) as exc:
        return None, f"load failed: {exc}"


#: The bound library, or ``None`` with the reason in ``LOAD_ERROR``.
LIB, LOAD_ERROR = load()
