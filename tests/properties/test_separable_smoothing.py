"""The separable smoother against the dense kernel it replaced, and the
Gram-matrix PCA init against the SVD it replaced.

``smooth_classes`` contracts one grid axis at a time; the reference is the
(K, K) matrix ``gaussian_kernel(grid.grid_sq_distances(), σ)``, which flushes
every 2-D weight below the smallest normal double to 0.  The denormal rule
(``repro/som/batch.py``) says where the two may differ: only in what a weight
below that double contributes, which is less than that double per unit of
class sum, possibly nothing.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.som import SOMGrid, gaussian_kernel, init_codebook
from repro.som.batch import smooth_classes

TINY = np.finfo(np.float64).tiny


@st.composite
def grids(draw):
    """Grids with 1 × N and N × 1 included, up to 12 a side, and often 8 or
    more, so that σ < 0.6 puts pairs of units out of double reach of each
    other."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["any", "line", "column", "big"]))
    rows, cols = {"any": (rows, cols), "line": (1, cols), "column": (rows, 1),
                  "big": (8 + rows % 5, 8 + cols % 5)}[shape]
    return SOMGrid(rows, cols)


@st.composite
def class_sums(draw, grid, dim):
    """Sparse S (K, dim) and n (K,): integer counts, positive sums (no
    cancellation, so a relative tolerance means something), empty classes."""
    k = grid.n_units
    seed = draw(st.integers(0, 2**32 - 1))
    fill = draw(st.sampled_from([0.0, 0.0, 0.02, 0.2, 1.0]))
    rng = np.random.default_rng(seed)
    counts = np.where(rng.random(k) < fill, rng.integers(1, 6, size=k), 0).astype(float)
    if draw(st.booleans()):
        counts[rng.integers(k)] = 1.0  # a lone class far from most units
    sums = counts[:, None] * (0.125 + 8.0 * rng.random((k, dim)))
    return sums, counts


@given(data=st.data(), grid=grids(), dim=st.integers(1, 3),
       sigma_frac=st.floats(0.0, 1.0), small=st.booleans())
@settings(max_examples=200, deadline=None)
def test_smooth_classes_equals_the_dense_kernel(data, grid, dim, sigma_frac, small):
    # σ from 0.3 to the grid diagonal; half the draws below 0.6, where a
    # 12 × 12 grid has pairs of units out of double reach of each other
    sigma = 0.3 + sigma_frac * (0.3 if small else max(grid.diagonal - 0.3, 0.0))
    sums, counts = data.draw(class_sums(grid, dim))
    num, denom = smooth_classes(grid, sigma, sums, counts)

    dense = gaussian_kernel(grid.grid_sq_distances(), sigma)
    occupied = counts > 0
    want_num, want_den = dense.T @ sums, dense.T @ counts
    in_reach = dense[occupied] > 0  # (classes, units): the weight is a normal double
    assert ((dense == 0) | (dense >= TINY)).all()

    # every non-empty class in reach: the two factorisations agree to rounding
    whole = in_reach.all(axis=0)
    np.testing.assert_allclose(num[whole], want_num[whole], rtol=1e-12, atol=0)
    np.testing.assert_allclose(denom[whole], want_den[whole], rtol=1e-12, atol=0)
    # no class in reach: exactly 0, so batch_update keeps the old weight
    out = ~in_reach.any(axis=0)
    assert (denom[out] == 0).all() and (num[out] == 0).all()
    # some in reach: each class out of reach adds less than TINY per unit of sum
    slack_den = TINY * ((~in_reach) * counts[occupied, None]).sum(axis=0)
    slack_num = TINY * np.einsum("cu,cd->ud", ~in_reach, sums[occupied])
    assert (denom >= want_den * (1 - 1e-12)).all()
    assert (denom <= want_den * (1 + 1e-12) + slack_den).all()
    assert (num >= want_num * (1 - 1e-12)).all()
    assert (num <= want_num * (1 + 1e-12) + slack_num).all()
    if occupied.any():
        assert (denom[in_reach.any(axis=0)] >= TINY).all()


def test_two_normal_factors_whose_product_is_not():
    """12 × 12, σ = 0.3, one class at unit 0: the unit 7 rows down and 4
    across has exp(−49/σ²)·exp(−16/σ²) = e^−722, a denormal product of two
    normal factors.  It and everything farther keep their old weights."""
    grid, sigma = SOMGrid(12, 12), 0.3
    sums, counts = np.zeros((144, 2)), np.zeros(144)
    sums[0], counts[0] = [3.0, 5.0], 2.0
    gy, gx = (gaussian_kernel(t, sigma) for t in grid.axis_sq_distances())
    assert 0 < gy[0, 7] * gx[0, 4] < TINY <= min(gy[0, 7], gx[0, 4])
    num, denom = smooth_classes(grid, sigma, sums, counts)
    dense = gaussian_kernel(grid.grid_sq_distances(), sigma)[0]
    assert dense[7 * 12 + 4] == 0 and dense[6 * 12 + 5] > 0
    np.testing.assert_array_equal(denom == 0, dense == 0)
    np.testing.assert_array_equal(num[dense == 0], 0.0)
    np.testing.assert_allclose(denom, 2.0 * dense, rtol=1e-12, atol=0)


@given(grid=grids(), sigma=st.floats(0.3, 20.0))
@settings(max_examples=60, deadline=None)
def test_no_factor_array_holds_a_denormal(grid, sigma):
    for table in grid.axis_sq_distances():
        factor = gaussian_kernel(table, sigma)
        assert ((factor == 0) | (factor >= TINY)).all()


@given(data=st.data(), grid=grids(), sigma=st.floats(0.3, 6.0),
       cut=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=60, deadline=None)
def test_a_strip_of_units_is_a_slice_of_the_whole(data, grid, sigma, cut):
    sums, counts = data.draw(class_sums(grid, 2))
    lo, hi = sorted(int(round(c * grid.n_units)) for c in cut)
    num, denom = smooth_classes(grid, sigma, sums, counts)
    part_num, part_den = smooth_classes(grid, sigma, sums, counts, lo, hi)
    # not bit for bit: BLAS rounds a product differently for a different row count
    np.testing.assert_allclose(part_num, num[lo:hi], rtol=1e-13, atol=0)
    np.testing.assert_allclose(part_den, denom[lo:hi], rtol=1e-13, atol=0)


# ------------------------------------------------------------ init_codebook


def svd_linear_init(grid, data):
    """The construction ``init_codebook("linear")`` used before the Gram
    matrix: principal directions from a thin SVD of the centred sample."""
    mean = data.mean(axis=0)
    _u, s, vt = np.linalg.svd(data - mean, full_matrices=False)
    for row in vt:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1
    scale = s[:2] / np.sqrt(max(len(data) - 1, 1))
    pos = grid.positions()
    extent = pos.max(axis=0) - pos.min(axis=0)
    extent[extent == 0] = 1.0
    uv = 2.0 * (pos - pos.min(axis=0)) / extent - 1.0
    return mean + np.outer(uv[:, 0] * scale[0], vt[0]) + np.outer(uv[:, 1] * scale[1], vt[1])


def spectrum_data(seed, n, dim):
    """Random data with well-separated principal variances (×0.6 a step),
    turned by a random rotation: the two leading directions are determined."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return 3.0 + (rng.standard_normal((n, dim)) * 0.6 ** np.arange(dim)) @ rotation


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
       rows=st.integers(1, 6), cols=st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_linear_init_is_the_svd_plane_and_ignores_row_order(seed, dim, rows, cols):
    data = spectrum_data(seed, 40 * dim, dim)
    grid = SOMGrid(rows, cols)
    vals = np.linalg.eigvalsh(np.cov(data.T))[::-1]
    assume(vals[0] > 1.2 * vals[1] and vals[1] > 1.2 * (vals[2] if dim > 2 else 0.0))
    _u, _s, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    top = np.sort(np.abs(vt[:2]), axis=1)
    assume((top[:, -1] - top[:, -2] > 1e-6).all())  # the sign pivots are not ties

    codebook = init_codebook(grid, data, method="linear")
    np.testing.assert_allclose(codebook, svd_linear_init(grid, data), rtol=0, atol=1e-10)
    shuffled = np.random.default_rng(seed + 1).permutation(data)
    np.testing.assert_allclose(init_codebook(grid, shuffled, method="linear"), codebook,
                               rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), n=st.integers(1, 30),
       constant=st.booleans())
@settings(max_examples=60, deadline=None)
def test_rank_one_and_constant_data_take_the_jitter_fallback(seed, dim, n, constant):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    offsets = np.zeros(n) if constant else rng.standard_normal(n)
    data = 2.0 + offsets[:, None] * direction
    grid = SOMGrid(3, 4)
    codebook = init_codebook(grid, data, method="linear")
    assert np.isfinite(codebook).all()
    # units evenly spaced along one line through the mean, all distinct
    steps = np.diff(codebook, axis=0)
    np.testing.assert_allclose(steps, np.broadcast_to(steps[0], steps.shape), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(steps[0]), 1 / 11, rtol=1e-12)
    np.testing.assert_allclose(codebook.mean(axis=0), data.mean(axis=0), atol=1e-12)
