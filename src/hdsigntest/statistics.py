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


def _pair_sum_signs(x: np.ndarray) -> np.ndarray:
    """W_ab = S(X_a + X_b) for a != b, with a zero diagonal."""
    sums = x[:, None, :] + x[None, :, :]
    norms = np.linalg.norm(sums, axis=2)
    np.fill_diagonal(norms, 1.0)
    if np.any(norms == 0.0):
        a, b = np.argwhere(norms == 0.0)[0]
        raise ZeroVectorError(
            f"pairwise sum of observations {int(a)} and {int(b)} is the zero vector"
        )
    w = sums / norms[:, :, None]
    idx = np.arange(x.shape[0])
    w[idx, idx, :] = 0.0
    return w


def t_cq1(x) -> float:
    """One-sample mean-based statistic: the average of X_i1'X_i2 over
    ordered pairs of distinct indices.  Unbiased for ||E(X)||^2.

    Reduction: sum_{i1 != i2} X_i1'X_i2 = ||sum_i X_i||^2 - sum_i ||X_i||^2.
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

    T is invariant to a common shift of both samples.  Both are centred on
    the pooled mean first so that this also holds in floating point: with
    raw rows, a large common offset cancels catastrophically.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    _require_rows(x, 2, "x")
    _require_rows(y, 2, "y")
    _require_same_dim(x, y)
    m, n = x.shape[0], y.shape[0]
    centre = np.vstack([x, y]).mean(axis=0)
    x = x - centre
    y = y - centre
    sx = x.sum(axis=0)
    sy = y.sum(axis=0)
    xx = (sx @ sx - np.einsum("ij,ij->", x, x)) / (m * (m - 1))
    yy = (sy @ sy - np.einsum("ij,ij->", y, y)) / (n * (n - 1))
    cross = (sx @ sy) / (m * n)
    return float(xx + yy - 2.0 * cross)


def t_s(x) -> float:
    """One-sample spatial-sign statistic: average of S(X_i1)'S(X_i2) over
    ordered distinct pairs.  Unbiased for ||E S(X)||^2; always in [-1, 1].
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

    Reduction: with W_ab = S(X_a + X_b) (symmetric, diagonal unused),
    A = sum_{a != b} W_ab and B_a = sum_{b != a} W_ab, the quadruple sum
    equals ||A||^2 - 4 sum_a ||B_a||^2 + 2n(n-1).  This identity is
    conjectured algebra and is gated by oracle-equivalence tests.
    """
    x = as_matrix(x)
    _require_rows(x, 4, "x")
    n = x.shape[0]
    w = _pair_sum_signs(x)
    a_vec = w.sum(axis=(0, 1))
    b_rows = w.sum(axis=1)
    quad = a_vec @ a_vec - 4.0 * np.einsum("ij,ij->", b_rows, b_rows) + 2.0 * n * (n - 1)
    value = quad / (n * (n - 1) * (n - 2) * (n - 3))
    return float(np.clip(value, -1.0, 1.0))


def t_wmw(x, y) -> float:
    """Two-sample spatial-rank statistic: the average of U_i1j1'U_i2j2 with
    U_ij = S(Y_j - X_i) over distinct i-pairs and j-pairs.  Unbiased for
    ||E S(X - Y)||^2.

    Inclusion-exclusion over the coincidences i1=i2 and j1=j2: with
    T = sum_ij U_ij, R_i = sum_j U_ij and C_j = sum_i U_ij, the quadruple
    sum equals ||T||^2 - sum_i ||R_i||^2 - sum_j ||C_j||^2 + mn.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    _require_rows(x, 2, "x")
    _require_rows(y, 2, "y")
    _require_same_dim(x, y)
    m, n = x.shape[0], y.shape[0]
    diffs = y[None, :, :] - x[:, None, :]
    norms = np.linalg.norm(diffs, axis=2)
    if np.any(norms == 0.0):
        i, j = np.argwhere(norms == 0.0)[0]
        raise ZeroVectorError(
            f"difference of y observation {int(j)} and x observation {int(i)} is zero"
        )
    u = diffs / norms[:, :, None]
    t_vec = u.sum(axis=(0, 1))
    r_rows = u.sum(axis=1)
    c_cols = u.sum(axis=0)
    quad = (
        t_vec @ t_vec
        - np.einsum("ij,ij->", r_rows, r_rows)
        - np.einsum("ij,ij->", c_cols, c_cols)
        + m * n
    )
    value = quad / (m * (m - 1) * n * (n - 1))
    return float(np.clip(value, -1.0, 1.0))

