/* The engine's kernels: stage 1's subject scan, run grouping and trigger
 * walk, stage 2's ungapped X-drop and stage 3's banded affine-gap X-drop DP.
 *
 * repro.blast._native builds this file into one library and loads it at
 * import; repro.blast.lookup, repro.blast.engine, repro.blast.extend and
 * repro.blast.gapped are its Python faces (their docstrings state the
 * rules; tests/oracles pins each kernel to a Python reference).  Residue
 * codes are uint8 everywhere; every other argument is an int64 or the
 * address of an int64 (or int32 matrix, or uint64 bitset) array.
 *
 * The caller owns every buffer.  Nothing here allocates, keeps state
 * between calls or touches the Python runtime, so ctypes runs it with the
 * GIL released.  A kernel returns -1 rather than read outside its inputs:
 * a residue code outside the alphabet or the scoring matrix, or a hit
 * outside its sequences.
 */

#include <stdint.h>
#include <string.h>

/* First index in [lo, hi) of the ascending array a holding a value >= x;
 * hi if there is none. */
static int64_t lower_bound(const int64_t *a, int64_t lo, int64_t hi, int64_t x)
{
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* ---- Stage 1: the subject scan ----------------------------------------- */

/* Every word hit of the subject s (n codes) against a lookup table.  The
 * rolling packed word of each window of ``word`` letters (base
 * ``alphabet``) is tested against the presence-vector bitset pv at bit
 * (word & pv_mask), then joined exactly against the ascending array words;
 * a match emits the query positions positions[offsets[k] ..
 * offsets[k + 1]] of its word k.  Hits come out by subject position, then
 * in posting order: hit t's query position goes to out[t] and its subject
 * position to out[cap + t], while t < cap.  A protein window (alphabet 20)
 * holding a code >= 20 cannot be looked up; a nucleotide code >= 4 is
 * refused.  Returns the number of hits (more than cap: call again with a
 * larger buffer), or -1. */
int64_t scan(const uint8_t *s, int64_t n, int64_t word, int64_t alphabet,
             const uint64_t *pv, int64_t pv_mask, const int64_t *words,
             int64_t n_words, const int64_t *offsets, const int64_t *positions,
             int64_t cap, int64_t *out)
{
    const uint64_t base = (uint64_t)alphabet;
    uint64_t w = 0, span = 1;
    int64_t i, k, p, valid_from = 0, total = 0;

    for (k = 0; k < word; k++)
        span *= base;
    for (i = 0; i < n; i++) {
        const int64_t j = i - word + 1; /* start of the window ending at i */
        uint64_t c = s[i];
        if (c >= base) {
            if (base == 4)
                return -1;
            valid_from = i + 1;
            c = 0;
        }
        w = base == 4 ? ((w << 2) | c) & (span - 1) : (w * base + c) % span;
        if (j < valid_from || !(pv[(w & (uint64_t)pv_mask) >> 6] >> (w & 63) & 1))
            continue;
        k = lower_bound(words, 0, n_words, (int64_t)w);
        if (k == n_words || words[k] != (int64_t)w)
            continue; /* a presence-vector collision */
        for (p = offsets[k]; p < offsets[k + 1]; p++, total++)
            if (total < cap) {
                out[total] = positions[p];
                out[cap + total] = j;
            }
    }
    return total;
}

/* ---- Stage 1: word hits into runs, runs to their triggers -------------- */

/* Stable LSD radix sort of the pairs (key[i], idx[i]) by key, 11 bits a
 * pass over the bits below top; key2 and idx2 are n-long scratch.  Returns
 * the array the sorted idx ended up in. */
static int64_t *radix_sort(int64_t n, uint64_t *key, int64_t *idx, uint64_t *key2,
                           int64_t *idx2, uint64_t top)
{
    int64_t count[2048], i;
    int shift;

    for (shift = 0; shift < 64 && top >> shift; shift += 11) {
        uint64_t *kt = key;
        int64_t *it = idx, sum = 0;
        memset(count, 0, sizeof count);
        for (i = 0; i < n; i++)
            count[key[i] >> shift & 2047]++;
        for (i = 0; i < 2048; i++) {
            const int64_t c = count[i];
            count[i] = sum;
            sum += c;
        }
        for (i = 0; i < n; i++) {
            const int64_t d = count[key[i] >> shift & 2047]++;
            key2[d] = key[i];
            idx2[d] = idx[i];
        }
        key = key2;
        key2 = kt;
        idx = idx2;
        idx2 = it;
    }
    return idx;
}

/* The admission state of k runs is a (4, stride) array: per run its
 * pending trigger row, one past its last row, the subject end of the last
 * extension on its diagonal (its coverage) and the two-hit anchor (the end
 * of the last word hit it remembers, -1 for none).  next_triggers moves
 * every run from row + step on to its next trigger: under the one-hit rule
 * (window < 0) the first hit at or past the coverage; under NCBI's two-hit
 * rule a hit inside the coverage or overlapping the anchor is skipped, one
 * more than window past the anchor becomes the anchor, and one within it
 * triggers (and is the new anchor).  s_r holds the subject position of
 * every row, ascending within a run.  The runs that reach a trigger are
 * kept, in order, at the front; returns how many. */
int64_t next_triggers(int64_t k, const int64_t *s_r, int64_t *state, int64_t stride,
                      int64_t step, int64_t word, int64_t window)
{
    int64_t *row = state, *end = state + stride, *cov = state + 2 * stride;
    int64_t *anchor = state + 3 * stride, j, kept = 0;

    for (j = 0; j < k; j++) {
        const int64_t b = end[j], covered = cov[j];
        int64_t i = row[j] + step, last = anchor[j];
        while (i < b) {
            const int64_t s_pos = s_r[i];
            if (s_pos < covered || (window >= 0 && last >= 0 && s_pos < last)) {
                /* one jump over the covered or overlapping stretch */
                i = lower_bound(s_r, i, b, covered > last ? covered : last);
            } else if (window >= 0 && (last < 0 || s_pos - last > window)) {
                last = s_pos + word;
                i++;
            } else {
                if (window >= 0)
                    last = s_pos + word;
                break;
            }
        }
        if (i < b) {
            row[kept] = i;
            end[kept] = b;
            cov[kept] = covered;
            anchor[kept] = last;
            kept++;
        }
    }
    return kept;
}

/* Groups n word hits of one subject (s_len codes), given by block query
 * position q and subject position s in scan order (subject position
 * ascending), into per-(context, diagonal) runs and moves every run to
 * its first trigger.  Context c is the span [spans[c], spans[n_ctx + c])
 * of the block, spans ascending.  Writes the hits in run order (context,
 * diagonal, subject position) to runs, a (3, n) array of context, query
 * position and subject position, and the runs' admission state to state,
 * a (4, n) array (see next_triggers).  Under the two-hit rule a run can
 * trigger only if two adjacent hits of it lie within window + word on the
 * subject, and the others are dropped here.  work holds 4n.  Returns the
 * number of runs with a trigger, or -1 for a hit outside the contexts or
 * the subject. */
int64_t group_runs(int64_t n, const int64_t *q, const int64_t *s, const int64_t *spans,
                   int64_t n_ctx, int64_t s_len, int64_t word, int64_t window,
                   int64_t *work, int64_t *runs, int64_t *state)
{
    const int64_t *lo = spans, *hi = spans + n_ctx;
    int64_t *q_r = runs + n, *s_r = runs + 2 * n, *order, i, c, q_max = 0, n_runs = 0;
    uint64_t width;

    for (c = 0; c < n_ctx; c++)
        if (hi[c] - lo[c] > q_max)
            q_max = hi[c] - lo[c];
    width = (uint64_t)(q_max + s_len);
    for (i = 0; i < n; i++) {
        c = lower_bound(lo, 0, n_ctx, q[i] + 1) - 1;
        if (c < 0 || q[i] >= hi[c] || s[i] < 0 || s[i] >= s_len)
            return -1;
        /* the diagonal s - (q - lo), shifted into [0, width) */
        work[i] = (int64_t)((uint64_t)c * width + (uint64_t)(s[i] - q[i] + lo[c] + q_max));
        work[2 * n + i] = i;
    }
    order = radix_sort(n, (uint64_t *)work, work + 2 * n, (uint64_t *)work + n,
                       work + 3 * n, (uint64_t)n_ctx * width);
    for (i = 0; i < n; i++) {
        q_r[i] = q[order[i]];
        s_r[i] = s[order[i]];
        runs[i] = lower_bound(lo, 0, n_ctx, q_r[i] + 1) - 1;
    }
    for (i = 0; i < n;) {
        const int64_t a = i;
        int live = window < 0;
        for (i++; i < n && runs[i] == runs[a] && s_r[i] - q_r[i] == s_r[a] - q_r[a]; i++)
            if (s_r[i] - s_r[i - 1] <= window + word)
                live = 1;
        if (live) {
            state[n_runs] = a;
            state[n + n_runs] = i;
            state[2 * n + n_runs] = 0;
            state[3 * n + n_runs] = -1;
            n_runs++;
        }
    }
    return next_triggers(n_runs, s_r, state, n, 0, word, window);
}

/* ---- Stage 2: ungapped X-drop ------------------------------------------ */

/* One direction of an ungapped extension: step t = 0 .. avail - 1 scores
 * the pair q[q0 + dir * t], s[s0 + dir * t].  The walk stops at the first
 * step whose running sum falls more than xfloor below the running maximum
 * (floored at 0); the extent is the first longest prefix with the best
 * sum, if that sum is positive.  Writes its sum and length to out[0] and
 * out[1]; returns -1 for a code outside the matrix. */
static int xdrop(const uint8_t *q, int64_t q0, const uint8_t *s, int64_t s0, int64_t dir,
                 int64_t avail, const int32_t *matrix, int64_t n_codes, int64_t xfloor,
                 int64_t *out)
{
    int64_t t, sum = 0, top = 0;

    out[0] = 0;
    out[1] = 0;
    for (t = 0; t < avail; t++) {
        const int64_t a = q[q0 + dir * t], b = s[s0 + dir * t];
        if (a >= n_codes || b >= n_codes)
            return -1;
        sum += matrix[a * n_codes + b];
        if (sum > top)
            top = sum;
        if (top - sum > xfloor)
            break;
        if (sum > out[0]) {
            out[0] = sum;
            out[1] = t + 1;
        }
    }
    return 0;
}

/* Ungapped X-drop extension of word hits of one subject s (s_len codes)
 * against a query block q (q_len codes).  hits is a (3, n) array of
 * context, query position and subject position; a hit extends from its
 * word rightward and leftward inside its context's span (see group_runs)
 * and the subject.  The k hits extended are rows[0 .. k - 1], or the
 * first k when rows is NULL; extension t writes its score, query start
 * and end, and subject start and end (half-open, in the hits'
 * coordinates) to out[t], out[k + t], ... out[4k + t].  Returns 0, or -1
 * for a hit outside its sequences or a code outside the matrix. */
int64_t ungapped(int64_t k, const int64_t *rows, const int64_t *hits, int64_t n,
                 const int64_t *spans, int64_t n_ctx, const uint8_t *q, int64_t q_len,
                 const uint8_t *s, int64_t s_len, int64_t word, const int32_t *matrix,
                 int64_t n_codes, int64_t xfloor, int64_t *out)
{
    int64_t t, j;

    for (t = 0; t < k; t++) {
        const int64_t r = rows ? rows[t] : t;
        int64_t c, qp, sp, lo, hi, score = 0, right[2], left[2];
        if (r < 0 || r >= n || hits[r] < 0 || hits[r] >= n_ctx)
            return -1;
        c = hits[r];
        qp = hits[n + r];
        sp = hits[2 * n + r];
        lo = spans[c];
        hi = spans[n_ctx + c];
        if (lo < 0 || hi > q_len || qp < lo || qp + word > hi || sp < 0 || sp + word > s_len)
            return -1;
        for (j = 0; j < word; j++) {
            if (q[qp + j] >= n_codes || s[sp + j] >= n_codes)
                return -1;
            score += matrix[q[qp + j] * n_codes + s[sp + j]];
        }
        if (xdrop(q, qp + word, s, sp + word, 1,
                  hi - qp < s_len - sp ? hi - qp - word : s_len - sp - word,
                  matrix, n_codes, xfloor, right)
            || xdrop(q, qp - 1, s, sp - 1, -1, qp - lo < sp ? qp - lo : sp,
                     matrix, n_codes, xfloor, left))
            return -1;
        out[t] = score + right[0] + left[0];
        out[k + t] = qp - left[1];
        out[2 * k + t] = qp + word + right[1];
        out[3 * k + t] = sp - left[1];
        out[4 * k + t] = sp + word + right[1];
    }
    return 0;
}

/* ---- Stage 3: the banded affine-gap X-drop DP -------------------------- */

/* integer -inf: no real path score comes near it, and a few gap costs
 * below it still fit an int32 */
#define NEG (-(1 << 30))

struct params {
    const int32_t *matrix; /* n_codes x n_codes, row-major */
    int64_t n_codes;
    int32_t open;          /* gap_open + gap_extend: the first gap column */
    int32_t ext;           /* gap_extend */
    int64_t xfloor;        /* floor(xdrop) */
    int64_t band;
};

static inline int32_t max2(int32_t a, int32_t b) { return a > b ? a : b; }

/* One byte a cell, from the stored (X-drop masked) scores: bit 0 M >= Ix,
 * bit 1 M >= Iy, bit 2 Ix >= Iy (the state a walk arriving here is in);
 * bit 3 Ix continues the gap of the row above (Ix[i, c] == Ix[i-1, c+1] -
 * ext), bit 4 Iy continues the gap from the left (Iy[i, c] == Iy[i, c-1] -
 * ext). */
static inline uint8_t directions(int32_t m, int32_t x, int32_t y,
                                 int32_t x_up, int32_t y_left, int32_t ext)
{
    return (uint8_t)((m >= x) | (m >= y) << 1 | (x >= y) << 2
                     | (x == x_up - ext) << 3 | (y == y_left - ext) << 4);
}

/* One half: query residue of row i is q[q0 + step * (i - 1)], subject
 * residue of column j is s[s0 + step * (j - 1)]; n rows below row 0, m
 * subject columns.
 * ``work`` holds four rows of width ints; ``grid`` (n + 1) rows of width
 * bytes.  Writes best score, its row and column j, and the rows computed
 * below row 0 to out[0..3]; adds the cells computed to *cells.  Returns -1
 * if a residue code is outside the matrix. */
static int half(const uint8_t *q, int64_t q0, const uint8_t *s, int64_t s0,
                int64_t step, int64_t n, int64_t m, const struct params *p,
                int32_t *work, uint8_t *grid, int64_t *out, int64_t *cells)
{
    const int64_t band = p->band, width = 2 * band + 1;
    const int32_t open = p->open, ext = p->ext;
    int32_t best = 0;
    int64_t best_i = 0, best_c = band, i;

    out[0] = 0;
    out[1] = 0;
    out[2] = 0;
    out[3] = 0;
    if (n == 0 || m == 0)
        return 0;
    for (i = 0; i < n; i++)
        if (q[q0 + step * i] >= p->n_codes)
            return -1;
    for (i = 0; i < m; i++)
        if (s[s0 + step * i] >= p->n_codes)
            return -1;

    /* Best and Ix of the row above (up_*) and of this row (row_*); only
     * columns [wa, wb) of the row above, its live cells, are read. */
    int32_t *up_b = work, *up_x = work + width;
    int32_t *row_b = work + 2 * width, *row_x = work + 3 * width;

    /* DP row 0: M = 0 at the seed cell, Iy a leading gap; no X-drop. */
    int64_t c, wa = band, wb = band + 1 + (m < band ? m : band);
    memset(grid, 0, (size_t)width);
    up_b[band] = 0;
    up_x[band] = NEG;
    grid[band] = directions(0, NEG, NEG, NEG, NEG, ext);
    for (c = band + 1; c < wb; c++) {
        int32_t y = -open - ext * (int32_t)(c - band - 1);
        up_b[c] = y;
        up_x[c] = NEG;
        grid[c] = directions(NEG, NEG, y, NEG, c > band + 1 ? y + ext : NEG, ext);
    }

    for (i = 1; i <= n; i++) {
        /* X-drop against the best of the previous rows. */
        const int64_t thr = (int64_t)best - p->xfloor;
        const int32_t *pair = p->matrix + q[q0 + step * (i - 1)] * p->n_codes;
        const int64_t lo = wa > 0 ? wa - 1 : 0;
        uint8_t *g = grid + i * width;
        /* unmasked max(M, Ix) and Iy of column c - 1, what Iy[c] reads;
         * the stored Iy of c - 1, what its traceback bit reads */
        int32_t base_left = NEG, y_run = NEG, y_left = NEG, top = NEG;
        int64_t top_c = 0, live_a = -1, live_b = -1;

        memset(g, 0, (size_t)width);
        for (c = lo; c < width; c++) {
            const int64_t j = c + i - band; /* subject column */
            int32_t mm = NEG, xx = NEG, y, b;
            if (j > m)
                break; /* past the subject end */
            /* M from (i-1, j-1), the same column; Ix from (i-1, j), c+1. */
            if (c >= wa && c < wb && up_b[c] != NEG && j >= 1)
                mm = up_b[c] + pair[s[s0 + step * (j - 1)]];
            if (c + 1 >= wa && c + 1 < wb && up_b[c + 1] != NEG)
                xx = max2(up_x[c + 1] - ext, up_b[c + 1] - open);
            /* Iy by the running scan over this row, M and Ix unmasked. */
            y = max2(base_left - open, y_run - ext);
            if (y < NEG)
                y = NEG;
            base_left = max2(mm, xx);
            y_run = y;
            b = max2(base_left, y);
            ++*cells;
            if (b > top) {
                top = b;
                top_c = c;
            }
            if (b == NEG || b < thr) {
                /* dropped: every state is the sentinel */
                row_b[c] = NEG;
                row_x[c] = NEG;
                g[c] = 7; /* M = Ix = Iy */
                y_left = NEG;
                if (c + 1 >= wb)
                    break; /* right of here only a falling Iy run */
                continue;
            }
            row_b[c] = b;
            row_x[c] = xx;
            g[c] = directions(mm, xx, y,
                              c + 1 >= wa && c + 1 < wb ? up_x[c + 1] : NEG,
                              y_left, ext);
            y_left = y;
            if (live_a < 0)
                live_a = c;
            live_b = c + 1;
        }
        out[3] = i;
        /* The best cell: the first row whose maximum beats every earlier
         * row's, and the first column in it holding that maximum. */
        if (top > best) {
            best = top;
            best_i = i;
            best_c = top_c;
        }
        if (live_a < 0)
            break; /* every cell X-dropped */
        wa = live_a;
        wb = live_b;
        int32_t *t = up_b;
        up_b = row_b;
        row_b = t;
        t = up_x;
        up_x = row_x;
        row_x = t;
    }
    out[0] = best;
    out[1] = best_i;
    out[2] = best_c + best_i - band;
    return 0;
}

/* Both halves of every seed of a chunk.  ``seeds`` holds six int64 a
 * seed: query address, subject address (uint8 codes), query length,
 * subject length, query and subject seed position.  Half 2t is seed t's
 * leftward extension over the reversed prefixes, half 2t+1 its rightward
 * one.  Half h writes its grid at grid + grid_at[h] and best score, row,
 * column j and rows computed to out[4h .. 4h+3]; *cells accumulates the
 * band cells computed.  Returns 0, or -1 if a residue code is outside the
 * matrix. */
int64_t gapped_dp(int64_t n_seeds, const int64_t *seeds, const int32_t *matrix,
                  int64_t n_codes, int64_t gap_open, int64_t gap_extend,
                  int64_t xfloor, int64_t band, int32_t *work, uint8_t *grid,
                  const int64_t *grid_at, int64_t *out, int64_t *cells)
{
    const struct params p = {matrix, n_codes, (int32_t)(gap_open + gap_extend),
                             (int32_t)gap_extend, xfloor, band};
    int64_t t;

    for (t = 0; t < n_seeds; t++) {
        const int64_t *g = seeds + 6 * t;
        const uint8_t *q = (const uint8_t *)(intptr_t)g[0];
        const uint8_t *s = (const uint8_t *)(intptr_t)g[1];
        const int64_t q_len = g[2], s_len = g[3], q_seed = g[4], s_seed = g[5];
        /* The path drifts at most band off the diagonal. */
        const int64_t left_m = s_seed < q_seed + band ? s_seed : q_seed + band;
        const int64_t right_n = q_len - q_seed;
        const int64_t right_m = s_len - s_seed < right_n + band ? s_len - s_seed
                                                                : right_n + band;
        if (half(q, q_seed - 1, s, s_seed - 1, -1, q_seed, left_m, &p, work,
                 grid + grid_at[2 * t], out + 8 * t, cells)
            || half(q, q_seed, s, s_seed, 1, right_n, right_m, &p, work,
                    grid + grid_at[2 * t + 1], out + 8 * t + 4, cells))
            return -1;
    }
    return 0;
}
