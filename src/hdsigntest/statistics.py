"""The five location-test statistics with algebraically reduced fast paths.

All five statistics are U-statistics: averages of a kernel over ordered
tuples of distinct observation indices.  Each function here evaluates the
closed-form reduction of that sum; the matching naive index-loop versions
live in ``_naive`` and are compared against these in the test suite and in
the ``selftest`` CLI command.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    TooFewObservationsError,
    ZeroVectorError,
)

ONE_SAMPLE_STATS = ("cq1", "s", "sr")
TWO_SAMPLE_STATS = ("cq2", "wmw")


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Validate and convert input to an n-by-d float matrix.

    Accepts anything array-like with two dimensions.  Every entry must be
    finite; rows are observations, columns are coordinates.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_rows(arr: np.ndarray, k: int, name: str) -> None:
    if arr.shape[0] < k:
        raise TooFewObservationsError(
            f"{name} has {arr.shape[0]} observations, needs at least {k}"
        )


def _require_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatchError(
            f"samples have different dimensions: {x.shape[1]} vs {y.shape[1]}"
        )


def spatial_sign(x) -> np.ndarray:
    """Return x / ||x||, the unit vector in the direction of x."""
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size < 1:
        raise ValueError("spatial sign needs at least one coordinate")
    if not np.isfinite(arr).all():
        raise ValueError("spatial sign input contains non-finite entries")
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ZeroVectorError("cannot take the spatial sign of a zero vector")
    return arr / norm


def _row_signs(x: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        idx = int(np.flatnonzero(norms == 0.0)[0])
        raise ZeroVectorError(f"{what} {idx} is the zero vector")
    return x / norms[:, None]


def t_cq1(x) -> float:
    """One-sample mean-based statistic: the average of X_i1'X_i2 over
    ordered pairs of distinct indices.  Unbiased for ||E(X)||^2.

    Reduction: sum_{i1 != i2} X_i1'X_i2 = ||sum_i X_i||^2 - sum_i ||X_i||^2.

    Not location-invariant: an offset mu adds ||mu||^2 + 2 mu'Xbar to it.
    The reduction subtracts sums of size about n^2 ||mu||^2, so its
    rounding error is about eps ||mu||^2: relative to the value it stays at
    machine precision under any offset (2e-16 at an offset of 1e6 on
    8 x 30 data), while the part of the value that is not the offset's
    loses digits as ||mu||^2 grows.
    """
    x = as_matrix(x)
    _require_rows(x, 2, "x")
    n = x.shape[0]
    total = x.sum(axis=0)
    value = (total @ total - np.einsum("ij,ij->", x, x)) / (n * (n - 1))
    return float(value)


def t_cq2(x, y) -> float:
    """Two-sample mean-based statistic of Chen & Qin (2010, Ann. Statist.),
    unbiased for ||E(X - Y)||^2.

    The quadruple sum over distinct index pairs expands into the two
    within-sample pair sums plus a full cross term:

        T = sum_{i1!=i2} X_i1'X_i2 / (m)_2
          + sum_{j1!=j2} Y_j1'Y_j2 / (n)_2
          - 2 sum_{i,j} X_i'Y_j / (mn)

    Write X_i = Xbar + Xc_i and Y_j = Ybar + Yc_j, with centred rows that
    sum to zero, and delta = Ybar - Xbar.  Then
    sum_{i1!=i2} X_i1'X_i2 = ||sum_i X_i||^2 - sum_i ||X_i||^2
    = (m)_2 ||Xbar||^2 - tr G_xx, with G the Gram matrix of the centred
    rows, and the cross sum is mn Xbar'Ybar, so

        T = ||delta||^2 - tr G_xx / (m)_2 - tr G_yy / (n)_2.

    T is invariant to a common shift of both samples, and so is every term
    here: the centring cancels the shift before any product is formed.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    _require_same_dim(x, y)
    return _TwoSampleGram(x, y).cq2()


def t_s(x) -> float:
    """One-sample spatial-sign statistic: average of S(X_i1)'S(X_i2) over
    ordered distinct pairs.  Unbiased for ||E S(X)||^2; always in [-1, 1].

    Not location-invariant: under an offset mu every sign tends to
    mu / ||mu|| and T_S to 1.  Its absolute error stays about eps under
    any offset (at most 2.2e-16 at offsets up to 1e6 on 8 x 30 data), so
    1 - T_S, which carries the spread of the data, keeps a relative
    accuracy of only about eps / (1 - T_S).
    """
    x = as_matrix(x)
    _require_rows(x, 2, "x")
    n = x.shape[0]
    signs = _row_signs(x, "observation")
    total = signs.sum(axis=0)
    value = (total @ total - n) / (n * (n - 1))
    return float(np.clip(value, -1.0, 1.0))


def t_sr(x) -> float:
    """One-sample spatial signed-rank statistic: the average of
    S(X_i1 + X_i2)'S(X_i3 + X_i4) over ordered quadruples of distinct
    indices.  Unbiased for ||E S(X_1 + X_2)||^2.

    Evaluated as the all-plus pattern of ``t_sr_flips``: every term is a
    function of the Gram matrix X X', so d enters once, through it.  A
    pair whose ||X_a + X_b||^2 from the Gram matrix is below 1% of
    ||X_a||^2 + ||X_b||^2 gets its sign S(X_a + X_b) from the rows
    instead, where the Gram form would have lost digits to cancellation.

    Not location-invariant: under an offset the value tends to 1, as T_S
    does, with an absolute error of about eps (at most 2.2e-16 at offsets
    up to 1e6 on 8 x 30 data, also for mixed flip patterns, whose nearly
    cancelling pair differences are the near pairs taken from the rows).
    1 - T_SR keeps a relative accuracy of about eps / (1 - T_SR).  The
    raw Gram matrix costs at most about two digits under an offset:
    outside the near pairs, every squared norm read from it is at least
    1% of the squared norms of its summands.
    """
    x = as_matrix(x)
    return float(t_sr_flips(x, np.ones((1, x.shape[0])))[0])


# A pair sum or difference whose squared norm, taken from a Gram matrix,
# is at most this fraction of the squared norms of its summands has lost
# digits to cancellation; its unit vector is computed from the rows instead.
_NEAR_PAIR = 1e-2
# Flip patterns per batch: at most about this many coefficients at a time.
_FLIP_BATCH = 1 << 20


def t_sr_flips(x, flips) -> np.ndarray:
    """T_SR of the sample with row i multiplied by flips[r, i] = +-1, for
    every row r of ``flips``.

    Reduction: with W_ab = S(X_a + X_b) (symmetric, diagonal unused),
    A = sum_{a != b} W_ab and B_a = sum_{b != a} W_ab, the quadruple sum
    equals ||A||^2 - 4 sum_a ||B_a||^2 + 2n(n-1): the terms that share an
    index are the four ways to share one, less the two ways to share both.

    Flipping by e gives W_ab = w_ab (e_a X_a + e_b X_b) with
    w_ab = 1 / ||X_a + e_a e_b X_b||, picked per pair from two n x n
    matrices.  So B_a = sum_j beta_aj X_j with beta_aa = e_a rho_a,
    rho_a = sum_b w_ab, and beta_ab = w_ab e_b; A is the sum of the B_a.
    ||A||^2 and sum_a ||B_a||^2 are then quadratic forms in G = X X',
    one batched product beta G per batch of patterns, and d enters only
    through G.

    Near-coincident pairs: where ||X_a +- X_b||^2 from G is below
    ``_NEAR_PAIR`` (G_aa + G_bb), the unit vector of X_a +- X_b is
    computed from the rows and joins G as an extra row and column, with
    coefficient e_a in B_a and B_b.  An exactly zero pair sum raises
    ZeroVectorError for the patterns that use it.
    """
    x = as_matrix(x)
    _require_rows(x, 4, "x")
    n = x.shape[0]
    flips = np.asarray(flips, dtype=float)
    gram = x @ x.T
    diag = np.diagonal(gram)
    scale = diag[:, None] + diag[None, :]
    # Squared norms of X_a + X_b (kind 0) and X_a - X_b (kind 1).
    sq = np.stack([scale + 2.0 * gram, scale - 2.0 * gram])
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    near = (sq <= _NEAR_PAIR * scale) & upper
    kind, ia, ib = np.nonzero(near)
    sums = x[ia] + (1.0 - 2.0 * kind)[:, None] * x[ib]
    norms = np.linalg.norm(sums, axis=1)
    zero = norms == 0.0
    units = sums / np.where(zero, 1.0, norms)[:, None]
    extra = units @ x.T
    gram = np.block([[gram, extra.T], [extra, units @ units.T]])
    use = (upper | upper.T) & ~(near | near.transpose(0, 2, 1))
    inv = np.zeros_like(sq)
    inv[use] = 1.0 / np.sqrt(sq[use])

    k = kind.size
    idx = np.arange(n)
    col = n + np.arange(k)
    out = np.empty(flips.shape[0])
    step = max(1, _FLIP_BATCH // (n * (n + k)))
    for start in range(0, flips.shape[0], step):
        eps = flips[start : start + step]
        same = eps[:, :, None] == eps[:, None, :]
        w = np.where(same, inv[0], inv[1])
        beta = np.zeros((eps.shape[0], n, n + k))
        beta[:, :, :n] = w * eps[:, None, :]
        beta[:, idx, idx] = eps * w.sum(axis=2)
        used = same[:, ia, ib] == (kind == 0)
        if (used & zero).any():
            p = int(np.argwhere(used & zero)[0, 1])
            a, b = int(ia[p]), int(ib[p])
            if kind[p] == 0:
                raise ZeroVectorError(
                    f"pairwise sum of observations {a} and {b} is the zero vector"
                )
            raise ZeroVectorError(
                f"a sign flip turns observations {a} and {b} into a zero pairwise sum"
            )
        coef = used * eps[:, ia]
        beta[:, ia, col] = coef
        beta[:, ib, col] = coef
        bg = beta @ gram
        norm_a = np.einsum("rj,rj->r", bg.sum(axis=1), beta.sum(axis=1))
        norm_b = np.einsum("raj,raj->r", bg, beta)
        out[start : start + step] = norm_a - 4.0 * norm_b
    value = (out + 2.0 * n * (n - 1)) / (n * (n - 1) * (n - 2) * (n - 3))
    return np.clip(value, -1.0, 1.0)


def _centred(x: np.ndarray):
    """(rows, mean, rest): x less its column means in two passes.  The
    first subtracts the rounded mean, which under a large offset is exact
    (the rows and their mean agree to within a factor of 2); the second
    subtracts the mean ``rest`` of what is left, so the rows sum to zero
    to rounding.  The sample's mean is mean + rest."""
    mean = x.mean(axis=0)
    rows = x - mean
    rest = rows.mean(axis=0)
    rows -= rest
    return rows, mean, rest


class _TwoSampleGram:
    """Every inner product that the two-sample statistics and nuisance
    estimators read, from one GEMM over d.

    Each sample is centred on its own mean (``_centred``), and the centred
    rows are stacked x first, then y, then delta = Ybar - Xbar as row N
    (N = m + n): ``rows`` is (N + 1) x d and ``gram = rows rows'``.  Its
    blocks G_xx, G_xy and G_yy are the Gram matrices of the centred
    samples, its last row and column hold a = rows delta, and its corner
    ||delta||^2.

    delta is (mean_y - mean_x) + (rest_y - rest_x), from the two passes
    of ``_centred``: under a common offset the first difference is exact,
    and delta + Yc_j - Xc_i equals Y_j - X_i up to rounding at the size
    of the data, under common and separate offsets alike.  Each sample is
    centred on its own mean straight from its rows, not after a pooled
    centring, which would round both samples at the size of the gap
    between their offsets; so the blocks, and every trace estimator that
    reads them, are unchanged by separate shifts too.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        _require_rows(x, 2, "x")
        _require_rows(y, 2, "y")
        self.x, self.y = x, y
        self.m, self.n = x.shape[0], y.shape[0]
        self.d = x.shape[1]
        xc, x_mean, x_rest = _centred(x)
        yc, y_mean, y_rest = _centred(y)
        delta = (y_mean - x_mean) + (y_rest - x_rest)
        self.rows = np.vstack([xc, yc, delta])
        self.gram = self.rows @ self.rows.T

    def cq2(self) -> float:
        """T_CQ2; see ``t_cq2``."""
        m, n = self.m, self.n
        diag = np.diagonal(self.gram)
        return float(
            diag[-1] - diag[:m].sum() / (m * (m - 1)) - diag[m:-1].sum() / (n * (n - 1))
        )

    def wmw(self) -> float:
        """T_WMW; see ``t_wmw``."""
        m, n = self.m, self.n
        big = m + n
        g = self.gram
        diag = np.diagonal(g)
        scale = diag[:m, None] + diag[None, m:big] + diag[big]
        sq = scale - 2.0 * g[:m, m:big] + 2.0 * (g[big, m:big] - g[:m, big, None])
        near = sq <= _NEAR_PAIR * scale
        ia, ib = np.nonzero(near)
        diffs = self.y[ib] - self.x[ia]
        norms = np.linalg.norm(diffs, axis=1)
        if (norms == 0.0).any():
            p = int(np.flatnonzero(norms == 0.0)[0])
            raise ZeroVectorError(
                f"difference of y observation {int(ib[p])} and "
                f"x observation {int(ia[p])} is zero"
            )
        w = np.zeros((m, n))
        w[~near] = 1.0 / np.sqrt(sq[~near])
        if ia.size:
            # The unit vectors of near pairs join the basis (Xc, Yc, delta).
            units = diffs / norms[:, None]
            extra = units @ self.rows.T
            g = np.block([[g, extra.T], [extra, units @ units.T]])

        # Coefficients of R_i (rows :m) and C_j (rows m:) on the basis.
        r_sum = w.sum(axis=1)
        c_sum = w.sum(axis=0)
        beta = np.zeros((big, g.shape[0]))
        beta[:m, m:big] = w
        beta[m:, :m] = -w.T
        np.fill_diagonal(beta, np.concatenate([-r_sum, c_sum]))
        beta[:, big] = np.concatenate([r_sum, c_sum])
        col = big + 1 + np.arange(ia.size)
        beta[ia, col] = 1.0
        beta[m + ib, col] = 1.0
        bg = beta @ g
        t_norm = bg[:m].sum(axis=0) @ beta[:m].sum(axis=0)
        quad = t_norm - np.einsum("ij,ij->", bg, beta) + m * n
        value = quad / (m * (m - 1) * n * (n - 1))
        return float(np.clip(value, -1.0, 1.0))


def t_wmw(x, y) -> float:
    """Two-sample spatial-rank statistic: the average of U_i1j1'U_i2j2 with
    U_ij = S(Y_j - X_i) over distinct i-pairs and j-pairs.  Unbiased for
    ||E S(X - Y)||^2.

    Inclusion-exclusion over the coincidences i1=i2 and j1=j2: with
    T = sum_ij U_ij, R_i = sum_j U_ij and C_j = sum_i U_ij, the quadruple
    sum equals ||T||^2 - sum_i ||R_i||^2 - sum_j ||C_j||^2 + mn.

    Every term is a quadratic form in one Gram matrix, so d enters once,
    through ``_TwoSampleGram``.  With centred rows Xc_i, Yc_j and
    delta = Ybar - Xbar, Y_j - X_i = delta + Yc_j - Xc_i, so

        ||Y_j - X_i||^2 = G_ii + G_jj - 2 G_ij + 2 (a_j - a_i) + ||delta||^2

    with G the Gram matrix of the centred rows, a_i = Xc_i'delta and
    a_j = Yc_j'delta.  With w_ij = 1 / ||Y_j - X_i||, r_i = sum_j w_ij and
    c_j = sum_i w_ij,

        R_i = r_i delta - r_i Xc_i + sum_j w_ij Yc_j,
        C_j = c_j delta + c_j Yc_j - sum_i w_ij Xc_i,
        T   = sum_i R_i,

    each a coefficient vector on the basis (Xc, Yc, delta), whose Gram
    matrix [[G, a], [a', ||delta||^2]] is ``_TwoSampleGram.gram``.  So the
    N squared norms of the R_i and C_j are the row sums of
    (beta gram) * beta for one N x (N + 1) coefficient matrix beta,
    ||T||^2 reuses the same product, and the work after the Gram matrix
    is O(N^3), with no (m, n, d) array.
    T_WMW is location-invariant, and the centring keeps it so in floating
    point.

    Near-coincident pairs: where ||Y_j - X_i||^2 from the Gram matrix is
    at most ``_NEAR_PAIR`` (G_ii + G_jj + ||delta||^2), the squared norms
    of its summands, the unit vector of Y_j - X_i is computed from the
    rows and joins the basis as an extra row and column, with coefficient
    1 in R_i and C_j.  An exactly zero difference raises ZeroVectorError.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    _require_same_dim(x, y)
    return _TwoSampleGram(x, y).wmw()
