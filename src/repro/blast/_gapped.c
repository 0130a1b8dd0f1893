/* Stage 3 of BLAST: the banded affine-gap X-drop DP, one half at a time.
 *
 * The compiled kernel behind repro.blast.gapped (its module docstring
 * states the rules; tests/oracles/dense_gapped.py pins them).  Cell (i, j)
 * of a half lives at column c = j - i + band of row i; a half runs from DP
 * row 0 to its query depth or the first row with no live cell, keeping two
 * rows of scores and writing one traceback byte per cell of every row.
 *
 * The caller owns every buffer.  Nothing here allocates, keeps state
 * between calls or touches the Python runtime, so ctypes runs it with the
 * GIL released.
 */

#include <stdint.h>
#include <string.h>

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
static int half(const intptr_t *q, int64_t q0, const intptr_t *s, int64_t s0,
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
        if (q[q0 + step * i] < 0 || q[q0 + step * i] >= p->n_codes)
            return -1;
    for (i = 0; i < m; i++)
        if (s[s0 + step * i] < 0 || s[s0 + step * i] >= p->n_codes)
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
 * seed: query address, subject address (intptr_t codes), query length,
 * subject length, query and subject seed position.  Half 2t is seed t's
 * leftward extension over the reversed prefixes, half 2t+1 its rightward
 * one.  Half h writes its grid at grid + grid_at[h] and best score, row,
 * column j and rows computed to out[4h .. 4h+3]; *cells accumulates the
 * band cells computed.  Returns 0, or -1 if a residue code is outside the
 * matrix. */
int gapped_dp(int64_t n_seeds, const int64_t *seeds, const int32_t *matrix,
              int64_t n_codes, int64_t gap_open, int64_t gap_extend,
              int64_t xfloor, int64_t band, int32_t *work, uint8_t *grid,
              const int64_t *grid_at, int64_t *out, int64_t *cells)
{
    const struct params p = {matrix, n_codes, (int32_t)(gap_open + gap_extend),
                             (int32_t)gap_extend, xfloor, band};
    int64_t t;

    for (t = 0; t < n_seeds; t++) {
        const int64_t *g = seeds + 6 * t;
        const intptr_t *q = (const intptr_t *)(intptr_t)g[0];
        const intptr_t *s = (const intptr_t *)(intptr_t)g[1];
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
