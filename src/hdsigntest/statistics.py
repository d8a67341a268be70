"""The five location-test statistics with algebraically reduced fast paths.

All five statistics are U-statistics: averages of a kernel over ordered
tuples of distinct observation indices.  Each function here evaluates the
closed-form reduction of that sum on one Gram matrix per dataset
(``_OneSampleGram``, ``_TwoSampleGram``), which also draws the dataset's
resamples and evaluates each statistic on a batch of them; the matching
naive index-loop versions live in ``_naive`` and are compared against
these in the test suite and in the ``selftest`` CLI command.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidInputError,
    TooFewObservationsError,
    ZeroVectorError,
)

ONE_SAMPLE_STATS = ("cq1", "s", "sr")
TWO_SAMPLE_STATS = ("cq2", "wmw")


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Validate and convert input to an n-by-d float matrix.

    Accepts anything array-like with two dimensions.  Every entry must be
    finite; rows are observations, columns are coordinates.  The result is
    C-ordered (a copy only if the input is not), so a Fortran-ordered input
    gives the same bits as the same values in C order.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidInputError(f"{name} must have at least one row and one column")
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise InvalidInputError(
            f"{name} has a non-finite entry {arr[row, col]} at row {row}, column {col}"
        )
    return np.ascontiguousarray(arr)


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
        raise InvalidInputError("spatial sign needs at least one coordinate")
    if not np.isfinite(arr).all():
        raise InvalidInputError("spatial sign input contains non-finite entries")
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ZeroVectorError("cannot take the spatial sign of a zero vector")
    return arr / norm


def t_cq1(x) -> float:
    """One-sample mean-based statistic: the average of X_i1'X_i2 over
    ordered pairs of distinct indices.  Unbiased for ||E(X)||^2.
    The all-plus row of ``_OneSampleGram.cq1``.

    Not location-invariant: an offset mu adds ||mu||^2 + 2 mu'Xbar to it.
    Each entry of the raw Gram matrix it sums carries a rounding error of
    about eps ||mu||^2, so relative to the value the error stays at
    machine precision under any offset (at most 4.4e-16 at offsets up to
    1e6 on 8 x 30 data), while the part of the value that is not the
    offset's loses digits as ||mu||^2 grows.
    """
    return _observed(_OneSampleGram(x), "cq1")


def t_s(x) -> float:
    """One-sample spatial-sign statistic: average of S(X_i1)'S(X_i2) over
    ordered distinct pairs.  Unbiased for ||E S(X)||^2; always in [-1, 1].
    The all-plus row of ``_OneSampleGram.s``.

    Not location-invariant: under an offset mu every sign tends to
    mu / ||mu|| and T_S to 1.  Its absolute error stays about eps under
    any offset (at most 3.5e-16 at offsets up to 1e6 on 8 x 30 data, also
    with rows of norm 1e-3 among them), so 1 - T_S, which carries the
    spread of the data, keeps a relative accuracy of only about
    eps / (1 - T_S).
    """
    return _observed(_OneSampleGram(x), "s")


def t_sr(x) -> float:
    """One-sample spatial signed-rank statistic: the average of
    S(X_i1 + X_i2)'S(X_i3 + X_i4) over ordered quadruples of distinct
    indices.  Unbiased for ||E S(X_1 + X_2)||^2.
    The all-plus row of ``_OneSampleGram.sr``.

    Not location-invariant: under an offset the value tends to 1, as T_S
    does, with an absolute error of about eps (at most 7.5e-16 at offsets
    up to 1e6 on 8 x 30 data, and 2.7e-16 for mixed flip patterns).
    1 - T_SR keeps a relative accuracy of about eps / (1 - T_SR).
    """
    return _observed(_OneSampleGram(x), "sr")


# A row, pair sum or pair difference whose squared norm, taken from a Gram
# matrix, is at most this fraction of the squared norms of its summands has
# lost digits to cancellation; it is computed from the rows (``_near_pairs``).
_NEAR_PAIR = 1e-2
# Flip patterns per batch: at most about this many coefficients at a time.
_FLIP_BATCH = 1 << 20
# Relabelings per block of ``_TwoSampleGram.draws``, so memory does not
# grow with the number of resamples.
_PERM_BATCH = 1024
# Pair coefficients per column block of the pooled pairwise differences in
# ``_TwoSampleGram.wmw``, so memory does not grow as N^2 d.
_SIGN_BLOCK = 1 << 19


def _observed(gram, stat: str) -> float:
    """``stat`` on the data of ``gram``: the ``gram.identity`` row of its
    batch kernel, or for wmw the closed form ``gram.wmw_closed()``."""
    if stat == "wmw":
        return gram.wmw_closed()
    return float(getattr(gram, stat)(gram.identity)[0])


def _spans(total: int, cap: int) -> list:
    """(start, stop) of consecutive blocks of ``cap`` rows covering
    range(total), with a last block of a single row joined to the one
    before it.

    NumPy hands a one-row product to gemv, which rounds differently from
    gemm, and a relabeling must get the same value in every row of every
    block.  Equal block sizes also let freed work arrays be reused.
    """
    stops = list(range(cap, total, cap))
    if stops and total - stops[-1] == 1:
        stops.pop()
    return list(zip([0] + stops, stops + [total]))


def _centred(x: np.ndarray, out: np.ndarray):
    """(mean, rest), with x less its column means written into ``out`` in
    two passes.  The first subtracts the rounded mean, which under a large
    offset is exact (the rows and their mean agree to within a factor of
    2); the second subtracts the mean ``rest`` of what is left, so the rows
    sum to zero to rounding.  The sample's mean is mean + rest."""
    mean = x.mean(axis=0)
    np.subtract(x, mean, out=out)
    rest = out.mean(axis=0)
    out -= rest
    return mean, rest


def _near_pairs(sq, scale, vectors, gram, rows):
    """The near-pair rule: where the squared norm ``sq`` of a pair vector,
    read from ``gram`` (inf where an entry is no pair), is at most
    ``_NEAR_PAIR`` of the squared norms ``scale`` of its summands, the
    vector is formed from the rows, as ``vectors(*np.nonzero(near))``.

    Returns the near mask, the norms of the near vectors, which of them
    are exactly zero, and ``gram`` with their unit vectors (0 if zero) as
    extra rows and columns, on the basis ``rows()`` behind ``gram``."""
    near = sq <= _NEAR_PAIR * scale
    vecs = vectors(*np.nonzero(near))
    norms = np.linalg.norm(vecs, axis=1)
    zero = norms == 0.0
    if norms.size:
        units = vecs / np.where(zero, 1.0, norms)[:, None]
        extra = units @ rows().T
        gram = np.block([[gram, extra.T], [extra, units @ units.T]])
    return near, norms, zero, gram


class _OneSampleGram:
    """Every inner product that the one-sample statistics, their sign-flip
    kernels and the nuisance estimator read, from one GEMM over d, and the
    flip patterns of a sign-flip test (``draws``).

    The centred rows Xc (``_centred``) are stacked with mu = mean + rest
    as row n, and ``gram = rows rows'``.  Its block ``gc`` = Xc Xc' is
    location-free and is all that the nuisance estimator reads.

    Each kernel evaluates its statistic on the sample with row i
    multiplied by flips[r, i] = +-1, for every row r of ``flips``;
    ``identity`` is the all-plus pattern.
    """

    def __init__(self, x):
        self.x = x = as_matrix(x)
        self.n, self.d = x.shape
        self.identity = np.ones((1, self.n))
        rows = self._rows()
        self.gram = rows @ rows.T
        self.gc = self.gram[:-1, :-1]

    def _rows(self) -> np.ndarray:
        rows = np.empty((self.n + 1, self.d))
        mean, rest = _centred(self.x, rows[:-1])
        rows[-1] = mean + rest
        return rows

    def draws(self, n_resamples: int, rng):
        """The flip patterns of a sign-flip test, as one block: the
        all-plus ``identity``, then ``n_resamples`` patterns of fair +-1
        from one ``rng.integers`` call."""
        flips = rng.integers(0, 2, size=(n_resamples, self.n)) * 2.0 - 1.0
        yield np.vstack([self.identity, flips])

    @cached_property
    def raw(self) -> np.ndarray:
        """X X' = Gc + a 1' + 1 a' + ||mu||^2 with a = Xc mu, except for a
        row whose squared norm there is at most ``_NEAR_PAIR`` of those of
        its summands Xc_a and mu: its inner products come from the rows."""
        a, mu_sq = self.gram[:-1, -1], self.gram[-1, -1]
        raw = self.gc + (a[:, None] + a) + mu_sq
        short = np.diagonal(raw) <= _NEAR_PAIR * (np.diagonal(self.gc) + mu_sq)
        prods = self.x[short] @ self.x.T
        raw[short] = prods
        raw[:, short] = prods.T
        return raw

    def cq1(self, flips: np.ndarray) -> np.ndarray:
        """T_CQ1: flipping by e makes the pair sum e'(R - diag R)e."""
        return self._pair_forms(self.raw, flips)

    def s(self, flips: np.ndarray) -> np.ndarray:
        """T_S: the form of ``cq1`` on S(X_a)'S(X_b) = R_ab / (||X_a|| ||X_b||),
        with the row norms taken from the rows."""
        norms = np.linalg.norm(self.x, axis=1)
        if (norms == 0.0).any():
            idx = int(np.flatnonzero(norms == 0.0)[0])
            raise ZeroVectorError(f"observation {idx} is the zero vector")
        cosines = self.raw / (norms[:, None] * norms)
        return np.clip(self._pair_forms(cosines, flips), -1.0, 1.0)

    def _pair_forms(self, k: np.ndarray, flips: np.ndarray) -> np.ndarray:
        _require_rows(self.x, 2, "x")
        n = self.n
        off = k - np.diag(np.diagonal(k))
        return np.einsum("ri,ri->r", flips @ off, flips) / (n * (n - 1))

    def sr(self, flips: np.ndarray) -> np.ndarray:
        """T_SR.

        Reduction: with W_ab = S(X_a + X_b) (symmetric, diagonal unused),
        A = sum_{a != b} W_ab and B_a = sum_{b != a} W_ab, the quadruple
        sum equals ||A||^2 - 4 sum_a ||B_a||^2 + 2n(n-1): the terms that
        share an index are the four ways to share one, less the two ways
        to share both.

        Flipping by e gives W_ab = w_ab (e_a X_a + e_b X_b) with
        w_ab = 1 / ||X_a + e_a e_b X_b||, picked per pair from two n x n
        matrices.  So B_a = sum_j beta_aj X_j with beta_aa = e_a rho_a,
        rho_a = sum_b w_ab, and beta_ab = w_ab e_b; A is the sum of the
        B_a.  On the basis (Xc, mu), X_j = Xc_j + mu, so B_a has the
        coefficients beta_aj on Xc_j and sum_b (e_a + e_b) w_ab on mu,
        which reads only the pair sums' 1 / ||X_a + X_b||: a pair
        difference has no mu part, exactly.  ||A||^2 and
        sum_a ||B_a||^2 are then quadratic forms in ``gram``, one batched
        product beta gram per batch of about ``_FLIP_BATCH`` coefficients.
        The per-pair weights are freed before that product is formed, and
        beta and the product before the next batch, so at most two
        batch-sized arrays are alive at a time.

        Near pairs: ||X_a + X_b||^2 is read from R and ||X_a - X_b||^2 from
        Gc, under the near-pair rule of ``_near_pairs`` with the squared
        norms of the summands on the basis (Xc_a, Xc_b and 2 mu, or Xc_a
        and Xc_b).  The unit vector of a near X_a +- X_b joins the basis as
        an extra row and column, with coefficient e_a in B_a and B_b.  A
        zero pair sum, checked on the rows, raises ZeroVectorError for the
        patterns that use it.
        """
        x = self.x
        _require_rows(x, 4, "x")
        n = self.n
        g, gc, raw = self.gram, self.gc, self.raw
        dc, dr = np.diagonal(gc), np.diagonal(raw)
        # Squared norms of X_a + X_b (kind 0) and X_a - X_b (kind 1), and
        # of their summands; the pairs are a < b.
        sq = np.stack([dr[:, None] + dr + 2.0 * raw, dc[:, None] + dc - 2.0 * gc])
        scale = dc[:, None] + dc
        scale = np.stack([scale + 4.0 * g[n, n], scale])
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        near, _, zero, g = _near_pairs(
            np.where(upper, sq, np.inf), scale,
            lambda kind, ia, ib: x[ia] + (1.0 - 2.0 * kind)[:, None] * x[ib], g, self._rows,
        )
        kind, ia, ib = np.nonzero(near)
        use = (upper | upper.T) & ~(near | near.transpose(0, 2, 1))
        inv = np.zeros_like(sq)
        inv[use] = 1.0 / np.sqrt(sq[use])

        k = kind.size
        idx = np.arange(n)
        col = n + 1 + np.arange(k)
        out = np.empty(flips.shape[0])
        step = max(1, _FLIP_BATCH // (n * (n + 1 + k)))
        for start in range(0, flips.shape[0], step):
            eps = flips[start : start + step]
            same = eps[:, :, None] == eps[:, None, :]
            w = np.where(same, inv[0], inv[1])
            beta = np.zeros((eps.shape[0], n, n + 1 + k))
            np.multiply(w, eps[:, None, :], out=beta[:, :, :n])
            beta[:, idx, idx] = eps * w.sum(axis=2)
            del w
            # Only pair sums have a mu part: sum_b (e_a + e_b) w_ab, from one
            # product per pattern, so a pattern's value does not depend on
            # the size of its batch.
            beta[:, :, n] = (inv[0] @ eps[:, :, None])[..., 0]
            beta[:, :, n] += eps * inv[0].sum(axis=1)
            used = same[:, ia, ib] == (kind == 0)
            if (used & zero).any():
                p = int(np.argwhere(used & zero)[0, 1])
                raise ZeroVectorError(
                    f"the {('sum', 'difference')[kind[p]]} of observations "
                    f"{ia[p]} and {ib[p]} is the zero vector"
                )
            coef = used * eps[:, ia]
            beta[:, ia, col] = coef
            beta[:, ib, col] = coef
            del same
            bg = beta @ g
            norm_a = np.einsum("rj,rj->r", bg.sum(axis=1), beta.sum(axis=1))
            norm_b = np.einsum("raj,raj->r", bg, beta)
            out[start : start + step] = norm_a - 4.0 * norm_b
            del beta, bg
        value = (out + 2.0 * n * (n - 1)) / (n * (n - 1) * (n - 2) * (n - 3))
        return np.clip(value, -1.0, 1.0)


class _TwoSampleGram:
    """Every inner product that the two-sample statistics, the permutation
    kernels and the nuisance estimators read, from one GEMM over d; the
    relabelings of a permutation test (``draws``), and the kernels ``cq2``
    and ``wmw`` that evaluate them.  ``wmw`` reads its pair norms from
    ``gram``, and the pooled rows one column block at a time.

    Each sample is centred on its own mean (``_centred``), and the centred
    rows are stacked x first, then y, then delta = Ybar - Xbar as row N
    (N = m + n): ``_rows()`` is (N + 1) x d and ``gram = rows rows'``,
    formed in the constructor.  Its blocks ``gxx``, ``gyy`` and ``gxy`` are
    the Gram matrices of the centred samples and their cross products, its
    last row and column hold a = rows delta, and its corner ||delta||^2.
    The rows are dropped once ``gram`` is formed: the rare near pair that
    needs them forms them anew.  ``identity`` is the mask of the samples'
    own labels.

    delta is (mean_y - mean_x) + (rest_y - rest_x), from the two passes
    of ``_centred``: under a common offset the first difference is exact,
    and delta + Yc_j - Xc_i equals Y_j - X_i up to rounding at the size
    of the data, under common and separate offsets alike.  Each sample is
    centred on its own mean straight from its rows, not after a pooled
    centring, which would round both samples at the size of the gap
    between their offsets; so the blocks, and every trace estimator that
    reads them, are unchanged by separate shifts too.
    """

    def __init__(self, x, y):
        x, y = as_matrix(x, "x"), as_matrix(y, "y")
        _require_same_dim(x, y)
        _require_rows(x, 2, "x")
        _require_rows(y, 2, "y")
        self.x, self.y = x, y
        self.m, self.n = x.shape[0], y.shape[0]
        self.d = x.shape[1]
        m, big = self.m, self.m + self.n
        self.identity = np.arange(big)[None, :] < m
        rows = self._rows()
        self.gram = g = rows @ rows.T
        self.gxx, self.gyy, self.gxy = g[:m, :m], g[m:big, m:big], g[:m, m:big]

    def _rows(self) -> np.ndarray:
        m, big = self.m, self.m + self.n
        rows = np.empty((big + 1, self.d))
        x_mean, x_rest = _centred(self.x, rows[:m])
        y_mean, y_rest = _centred(self.y, rows[m:big])
        rows[big] = (y_mean - x_mean) + (y_rest - x_rest)
        return rows

    def cq2(self, masks: np.ndarray) -> np.ndarray:
        """T_CQ2 for each relabeling in ``masks`` ((R, N) boolean, True =
        first group): sum_{i1!=i2} X_i1'X_i2 / (m)_2 plus the same over y
        less 2 sum_{i,j} X_i'Y_j / (mn).

        The rows centred on the pooled mean are P_i = Xc_i + c_i delta,
        with c_i = -n/N on x rows and m/N on y rows, so every inner product
        of them is read from ``gram``.  They sum to zero, so the second
        group's row sum is minus the first's, S = sum_i u_i P_i with u the
        first-group indicator, and S has the coefficients v = (u, u'c) on
        the basis (Xc, Yc, delta).  With D = sum_i u_i ||P_i||^2,

            T = kappa ||S||^2 - D / (m)_2 - (sum_i ||P_i||^2 - D) / (n)_2,
            kappa = 1/(m)_2 + 1/(n)_2 + 2/(mn),

        and as u_i = u_i^2 this is v'Kv - sum_i ||P_i||^2 / (n)_2 for the
        ``gram`` scaled by kappa, less 1/(m)_2 - 1/(n)_2 times ||P_i||^2 on
        its first N diagonal entries: one product v K per batch.
        """
        m, n = self.m, self.n
        big = m + n
        g = self.gram
        c = np.where(np.arange(big) < m, -n / big, m / big)
        norms = np.diagonal(g)[:big] + c * (2.0 * g[:big, big] + g[big, big] * c)
        mm, nn = m * (m - 1), n * (n - 1)
        k = (1.0 / mm + 1.0 / nn + 2.0 / (m * n)) * g
        idx = np.arange(big)
        k[idx, idx] -= (1.0 / mm - 1.0 / nn) * norms
        v = np.empty((masks.shape[0], big + 1))
        v[:, :big] = masks
        v[:, big] = v[:, :big] @ c
        return ((v @ k) * v).sum(axis=1) - norms.sum() / nn

    def draws(self, n_resamples: int, rng):
        """Boolean relabeling masks of the N pooled rows (True = first
        group), in blocks of ``_PERM_BATCH`` rows as ``_spans`` cuts them:
        the identity, then ``n_resamples`` draws.

        The draws consume ``rng`` exactly as ``n_resamples`` calls of
        ``rng.permutation(N)[:m]`` would, and give the same masks.  With
        m = n each mask is oriented to hold pooled row 0.
        """
        m, big = self.m, self.m + self.n
        for start, stop in _spans(n_resamples + 1, _PERM_BATCH):
            lead = int(start == 0)
            masks = np.zeros((stop - start, big), dtype=bool)
            masks[:lead] = self.identity
            picks = rng.permuted(np.tile(np.arange(big), (stop - start - lead, 1)), axis=1)
            np.put_along_axis(masks[lead:], picks[:, :m], True, axis=1)
            # Hold no work array while the caller's kernels run on the block.
            del picks
            if m == self.n:
                masks ^= ~masks[:, :1]
            yield masks

    @cached_property
    def pair_norms(self):
        """(norms, dup): ||Z_a - Z_b|| for every pair of pooled rows Z (x
        rows, then y rows), 1 on the diagonal and for identical pairs, and
        the mask of identical pairs.  Z_a - Z_b = P_a - P_b (``cq2``), and
        c_a - c_b is s_ab = e_a - e_b for the y indicator e, so under
        ``_near_pairs`` the squared norm is read from ``gram`` as
        G_aa + G_bb - 2 G_ab + s_ab (2 (a_a - a_b) + s_ab ||delta||^2)."""
        m, big = self.m, self.m + self.n
        g = self.gram
        diag, a, dd = np.diagonal(g)[:big], g[:big, big], g[big, big]
        e = (np.arange(big) >= m).astype(float)
        s = e[:, None] - e
        sq = diag[:, None] + diag - 2.0 * g[:big, :big] + s * (2.0 * (a[:, None] - a) + s * dd)
        upper = np.triu(np.ones((big, big), dtype=bool), 1)

        def pooled(i):
            return np.where((i < m)[:, None], self.x[np.minimum(i, m - 1)],
                            self.y[np.maximum(i - m, 0)])

        # The kernel reads the rows, so it has no use for the extended Gram.
        near, near_norms, zero, _ = _near_pairs(
            np.where(upper, sq, np.inf), diag[:, None] + diag + s * s * dd,
            lambda i, j: pooled(i) - pooled(j), g, self._rows,
        )
        norms = np.sqrt(np.where(upper & ~near, sq, 1.0))
        norms[near] = np.where(zero, 1.0, near_norms)
        dup = np.zeros_like(near)
        dup[near] = zero
        return np.where(upper, norms, norms.T), dup | dup.T

    def _pair_differences(self):
        """Z_a - Z_b for every pair of pooled rows, one (N, N, cols) block
        of consecutive columns at a time, with about ``_SIGN_BLOCK``
        coefficients per block; each block's columns are taken from x and
        y.

        Every block is written into one buffer allocated once, so each block
        overwrites the one before it: a caller must be done with a block,
        and may modify it in place, before it asks for the next.  Each block,
        the short last one too, is a contiguous view of that buffer.
        """
        big, d = self.m + self.n, self.d
        cols = min(d, max(1, _SIGN_BLOCK // (big * big)))
        buffer = np.empty(big * big * cols)
        for lo in range(0, d, cols):
            block = np.vstack([self.x[:, lo : lo + cols], self.y[:, lo : lo + cols]])
            view = buffer[: big * big * block.shape[1]].reshape(big, big, -1)
            np.subtract(block[:, None, :], block[None, :, :], out=view)
            del block  # so the caller's work on the view holds the buffer alone
            yield view

    def wmw(self, masks: np.ndarray) -> np.ndarray:
        """T_WMW for each relabeling in ``masks`` ((R, N) boolean, True =
        first group).

        U_ab is the unit vector of Z_a - Z_b, with its norm from ``gram``
        under the near-pair rule (``pair_norms``).
        For a relabeling with first-group indicator u and v = 1 - u, the
        sums of U_ab over a in the second group (``a_cols``) and over b in
        the first (``b_rows``) are the R_i and C_j of ``t_wmw``, and T is
        their total.  ||T||^2, sum ||R_i||^2 and sum ||C_j||^2 are sums
        over coordinates, accumulated over the column blocks of
        ``_pair_differences``, each made unit vectors in place.  Both sums
        are GEMMs over the block's first axis, so neither copies it: since
        U_ba = -U_ab, the second gives -b_rows, and only ||b_rows||^2 is
        used.  The rest are two-operand reductions: the squared row norms
        of ``a_cols`` and ``b_rows``, weighted by u and v, and T as one
        stacked matmul.  The masks are reduced in chunks of 64 rows, and
        each chunk holds one (64, N, cols) product at a time: ``a_cols`` is
        reduced to ``t_norm`` and ``r_term`` and freed before ``b_rows`` is
        formed, and ``b_rows`` is freed before the next chunk.

        A relabeling that splits a pair of identical pooled rows has no
        sign for it and raises ZeroVectorError naming the first such pair.
        """
        m, n = self.m, self.n
        norms, dup = self.pair_norms
        first, second = np.nonzero(np.triu(dup))
        split = (masks[:, first] != masks[:, second]).any(axis=0)
        if split.any():
            a, b = (f"x row {i}" if i < m else f"y row {i - m}"
                    for i in (first[split][0], second[split][0]))
            raise ZeroVectorError(
                f"a relabeling pairs two identical pooled observations, {a} and {b}"
            )
        count = masks.shape[0]
        u_all = masks.astype(float)
        v_all = 1.0 - u_all
        t_norm, r_term, c_term = np.zeros((3, count))
        spans = _spans(count, 64)
        for signs in self._pair_differences():
            signs /= norms[:, :, None]
            for start, stop in spans:
                u, v = u_all[start:stop], v_all[start:stop]
                # a runs over pooled rows on the second-group side, b on the first.
                a_cols = np.einsum("ra,abd->rbd", v, signs, optimize=True)
                t_vec = np.matmul(u[:, None, :], a_cols)[:, 0]
                part = slice(start, stop)
                t_norm[part] += np.einsum("rd,rd->r", t_vec, t_vec)
                r_term[part] += np.einsum("rb,rb->r", np.einsum("rbd,rbd->rb", a_cols, a_cols), u)
                del a_cols, t_vec
                b_rows = np.einsum("rb,bad->rad", u, signs, optimize=True)
                c_term[part] += np.einsum("ra,ra->r", np.einsum("rad,rad->ra", b_rows, b_rows), v)
                del b_rows
        out = (t_norm - r_term - c_term + m * n) / (m * (m - 1) * n * (n - 1))
        return np.clip(out, -1.0, 1.0)

    def wmw_closed(self) -> float:
        """T_WMW of the samples' own labels in closed form; see ``t_wmw``."""
        m, n = self.m, self.n
        big = m + n
        g = self.gram
        diag = np.diagonal(g)
        scale = diag[:m, None] + diag[None, m:big] + diag[big]
        sq = scale - 2.0 * self.gxy + 2.0 * (g[big, m:big] - g[:m, big, None])
        # The unit vectors of near pairs join the basis (Xc, Yc, delta).
        near, _, zero, g = _near_pairs(
            sq, scale, lambda i, j: self.y[j] - self.x[i], g, self._rows
        )
        ia, ib = np.nonzero(near)
        if zero.any():
            p = int(np.flatnonzero(zero)[0])
            raise ZeroVectorError(
                f"difference of y observation {int(ib[p])} and "
                f"x observation {int(ia[p])} is zero"
            )
        w = np.zeros((m, n))
        w[~near] = 1.0 / np.sqrt(sq[~near])

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


def t_cq2(x, y) -> float:
    """Two-sample mean-based statistic of Chen & Qin (2010, Ann. Statist.),
    unbiased for ||E(X - Y)||^2: the identity row of
    ``_TwoSampleGram.cq2``.

    T is invariant to a common shift of both samples, and so is every term
    of that kernel: it reads the rows centred on the pooled mean, so the
    centring cancels the shift before any product is formed.
    """
    return _observed(_TwoSampleGram(x, y), "cq2")


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

    Near-coincident pairs (``_near_pairs``, with the summands' squared
    norms G_ii + G_jj + ||delta||^2) take the unit vector of Y_j - X_i from
    the rows; it joins the basis as an extra row and column, with
    coefficient 1 in R_i and C_j.  A zero difference raises ZeroVectorError.
    """
    return _TwoSampleGram(x, y).wmw_closed()
