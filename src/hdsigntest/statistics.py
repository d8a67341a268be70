"""The five location-test statistics with algebraically reduced fast paths.

All five statistics are U-statistics: averages of a kernel over ordered
tuples of distinct observation indices.  Each function here evaluates the
closed-form reduction of that sum on one Gram matrix per dataset, for a
block of datasets of one shape (``_OneSampleGram``, ``_TwoSampleGram``,
each centring the whole block's rows at once), which also draws each
dataset's resamples, in blocks (``_draw_blocks``), and evaluates each
statistic on a batch of them.  The matching naive
index-loop versions live in ``_naive`` and are compared against these in
the test suite and in the ``selftest`` CLI command.
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

    Accepts anything array-like with two dimensions of booleans, integers
    or real floats (not complex numbers, strings or objects).  Every entry
    must be finite; rows are observations, columns are coordinates.  The
    result is C-ordered (a copy only if the input is not), so a
    Fortran-ordered input gives the same bits as the same values in C order.
    """
    try:
        arr = np.asarray(x).astype(float, copy=False, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must hold real numbers: {exc}") from exc
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
    return float(_observed(_OneSampleGram([x]), "cq1")[0])


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
    return float(_observed(_OneSampleGram([x]), "s")[0])


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
    return float(_observed(_OneSampleGram([x]), "sr")[0])


# A row, pair sum or pair difference whose squared norm, taken from a Gram
# matrix, is at most this fraction of the squared norms of its summands has
# lost digits to cancellation; it is computed from the rows (``_near_pairs``).
_NEAR_PAIR = 1e-2
# Flip patterns per batch: at most about this many coefficients at a time.
_FLIP_BATCH = 1 << 20
# Resamples per block of ``_draw_blocks``, so memory does not grow with the
# number of resamples.
_PERM_BATCH = 1024
# Pair coefficients per column block of the pooled pairwise differences in
# ``_TwoSampleGram.wmw``, so memory does not grow as N^2 d.
_SIGN_BLOCK = 1 << 19


def _observed(gram, stat: str) -> np.ndarray:
    """``stat`` on each dataset of ``gram``: the ``gram.identity`` row of
    its batch kernel, or for wmw the closed form ``gram.wmw_closed()``."""
    if stat == "wmw":
        return gram.wmw_closed()
    return getattr(gram, stat)(gram.identity)[:, 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the last axes of ``a`` and ``b`` as a batched
    matmul, which runs for each the BLAS ddot of ``a @ b`` on 1-d
    operands."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


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


def _draw_blocks(gram, n_resamples: int, rngs):
    """The resamples of a randomization test on the datasets of ``gram``:
    ``gram.identity``, then ``n_resamples`` of ``gram.draws(rngs, count)``,
    in (B, count, .) blocks of ``_PERM_BATCH`` as ``_spans`` cuts them."""
    for start, stop in _spans(n_resamples + 1, _PERM_BATCH):
        block = gram.draws(rngs, stop - max(start, 1))
        yield block if start else np.concatenate(
            [np.broadcast_to(gram.identity, block[:, :1].shape), block], axis=1)


def _centred(samples, out: np.ndarray):
    """(mean, rest), each (B, d), with the samples (of one shape, or
    ``np.stack`` refuses them) less their column means written into ``out``
    in two passes.  The first subtracts the rounded mean, which under a
    large offset is exact (the rows and their mean agree to within a factor
    of 2); the second subtracts the mean ``rest`` of what is left, so the
    rows sum to zero to rounding.  A sample's mean is mean + rest."""
    np.stack(samples, out=out)
    mean = out.mean(axis=1)
    out -= mean[:, None]
    rest = out.mean(axis=1)
    out -= rest[:, None]
    return mean, rest


def _near_pairs(sq, scale, vectors):
    """The near-pair rule: where the squared norm ``sq`` of a pair vector,
    read from a Gram matrix (inf where an entry is no pair), is at most
    ``_NEAR_PAIR`` of the squared norms ``scale`` of its summands, the
    vector is formed from the rows, as ``vectors(*np.nonzero(near))``.

    Returns the near mask, the norms of the near vectors, which of them
    are exactly zero, and their unit vectors (0 if zero)."""
    near = sq <= _NEAR_PAIR * scale
    vecs = vectors(*np.nonzero(near))
    norms = np.linalg.norm(vecs, axis=1)
    zero = norms == 0.0
    return near, norms, zero, vecs / np.where(zero, 1.0, norms)[:, None]


def _with_units(gram, units, rows):
    """``gram`` with the unit vectors ``units``, if any, as extra rows and
    columns, on the basis ``rows()`` behind ``gram``."""
    if len(units):
        extra = units @ rows().T
        gram = np.block([[gram, extra.T], [extra, units @ units.T]])
    return gram


class _OneSampleGram:
    """Every inner product that the one-sample statistics, their sign-flip
    kernels and the nuisance estimator read, for a block of B samples ``xs``
    of one shape, from one batched GEMM over d, and the flip patterns of a
    sign-flip test (``draws``).  The block has the shape of
    ``_TwoSampleGram``'s: each kernel evaluates its statistic on sample b
    with row i multiplied by flips[b, r, i] = +-1, for every r, and
    ``identity`` is the all-plus pattern.  ``raw``'s short rows and ``sr``
    run per sample, by its index.

    ``_rows`` centres the whole block in one pass (``_centred``), with each
    sample's rows Xc and mu = mean + rest as row n, and ``gram = rows
    rows'``.  Its block ``gc`` = Xc Xc' is location-free and is all that
    the nuisance estimator reads.
    """

    def __init__(self, xs):
        self.xs = [as_matrix(x) for x in xs]
        self.n, self.d = self.xs[0].shape
        self.identity = np.ones((1, self.n))
        rows = self._rows(self.xs)
        self.gram = rows @ rows.transpose(0, 2, 1)
        self.gc = self.gram[:, :-1, :-1]

    def _rows(self, xs) -> np.ndarray:
        """The (B, n + 1, d) rows Xc and mu of the samples ``xs``."""
        rows = np.empty((len(xs), self.n + 1, self.d))
        mean, rest = _centred(xs, rows[:, :-1])
        rows[:, -1] = mean + rest
        return rows

    def draws(self, rngs, count: int) -> np.ndarray:
        """(B, count, n) flip patterns of fair +-1, each sample's from one
        ``rng.integers`` call of its own generator in ``rngs``."""
        return np.stack([rng.integers(0, 2, size=(count, self.n)) * 2.0 - 1.0 for rng in rngs])

    @cached_property
    def raw(self) -> np.ndarray:
        """X X' = Gc + a 1' + 1 a' + ||mu||^2 with a = Xc mu, except for a
        row whose squared norm there is at most ``_NEAR_PAIR`` of those of
        its summands Xc_a and mu: its inner products come from the rows."""
        a, mu_sq = self.gram[:, :-1, -1], self.gram[:, -1, -1, None]
        raw = self.gc + (a[:, :, None] + a[:, None]) + mu_sq[:, None]
        short = np.diagonal(raw, 0, 1, 2) <= _NEAR_PAIR * (np.diagonal(self.gc, 0, 1, 2) + mu_sq)
        for r, x, is_short in zip(raw, self.xs, short):
            prods = x[is_short] @ x.T
            r[is_short] = prods
            r[:, is_short] = prods.T
        return raw

    def cq1(self, flips: np.ndarray) -> np.ndarray:
        """T_CQ1: flipping by e makes the pair sum e'(R - diag R)e."""
        return self._pair_forms(self.raw, flips)

    def s(self, flips: np.ndarray) -> np.ndarray:
        """T_S: the form of ``cq1`` on S(X_a)'S(X_b) = R_ab / (||X_a|| ||X_b||),
        with the row norms taken from the rows."""
        norms = np.stack([np.linalg.norm(x, axis=1) for x in self.xs])
        if (norms == 0.0).any():
            raise ZeroVectorError(
                f"observation {np.argwhere(norms == 0.0)[0, 1]} is the zero vector")
        cosines = self.raw / (norms[:, :, None] * norms[:, None])
        return np.clip(self._pair_forms(cosines, flips), -1.0, 1.0)

    def _pair_forms(self, k: np.ndarray, flips: np.ndarray) -> np.ndarray:
        _require_rows(self.xs[0], 2, "x")
        n = self.n
        off = np.where(np.eye(n, dtype=bool), 0.0, k)
        return np.einsum("...ri,...ri->...r", flips @ off, flips) / (n * (n - 1))

    def sr(self, flips: np.ndarray) -> np.ndarray:
        """T_SR, one sample at a time.

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
        flips = np.broadcast_to(flips, (len(self.xs),) + flips.shape[-2:])
        return np.stack([self._sr(b, part) for b, part in enumerate(flips)])

    def _sr(self, b: int, flips: np.ndarray) -> np.ndarray:
        """``sr`` of sample ``b`` on its (R, n) flips."""
        x = self.xs[b]
        _require_rows(x, 4, "x")
        n = self.n
        g, gc, raw = self.gram[b], self.gc[b], self.raw[b]
        dc, dr = np.diagonal(gc), np.diagonal(raw)
        # Squared norms of X_a + X_b (kind 0) and X_a - X_b (kind 1), and
        # of their summands; the pairs are a < b.
        sq = np.stack([dr[:, None] + dr + 2.0 * raw, dc[:, None] + dc - 2.0 * gc])
        scale = dc[:, None] + dc
        scale = np.stack([scale + 4.0 * g[n, n], scale])
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        near, _, zero, units = _near_pairs(
            np.where(upper, sq, np.inf), scale,
            lambda kind, ia, ib: x[ia] + (1.0 - 2.0 * kind)[:, None] * x[ib])
        g = _with_units(g, units, lambda: self._rows([x])[0])
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
    kernels and the nuisance estimators read, for a block of B datasets of
    one shape, from one batched GEMM over d; the relabelings of a
    permutation test (``draws``), and the kernels ``cq2`` and ``wmw`` that
    evaluate them.  Every array of the block has a leading axis of B, and
    every kernel takes (B, R, N) masks, or masks that broadcast to them, and
    gives (B, R) values; one dataset is the block of one.  A dataset's bits
    do not depend on its block: a batched matmul runs, for each dataset, the
    BLAS call that the same product of one dataset runs, and the sums and
    contractions run over the same axes in the same order.

    ``_rows`` centres every sample of the block on its own mean at once
    (``_centred``), stacking x rows, y rows and delta = Ybar - Xbar as row
    N (N = m + n), (N + 1, d) per dataset; ``gram = rows rows'``.  Its
    blocks ``gxx``, ``gyy`` and ``gxy`` are the Gram matrices of the
    centred samples and their cross products, its last row and column hold
    a = rows delta, and its corner ||delta||^2.  The rows are dropped once
    ``gram`` is formed: the rare near pair that needs them forms its
    dataset's anew.  ``identity`` is the mask of
    the samples' own labels.  ``pair_norms`` and the permutation ``wmw``
    kernel run per dataset, by its index; so does ``wmw_closed`` on a block
    with a near pair, through each dataset's block of one.

    delta is (mean_y - mean_x) + (rest_y - rest_x), from the two passes
    of ``_centred``: under a common offset the first difference is exact,
    and delta + Yc_j - Xc_i equals Y_j - X_i up to rounding at the size
    of the data, under common and separate offsets alike.  Each sample is
    centred on its own mean straight from its rows, not after a pooled
    centring, which would round both samples at the size of the gap
    between their offsets; so the blocks, and every trace estimator that
    reads them, are unchanged by separate shifts too.
    """

    def __init__(self, xs, ys):
        """``xs`` and ``ys``: the B first and second samples of the block,
        each dataset with the shapes of the first."""
        self.xs = [as_matrix(x, "x") for x in xs]
        self.ys = [as_matrix(y, "y") for y in ys]
        for x, y in zip(self.xs, self.ys, strict=True):
            _require_same_dim(x, y)
            _require_rows(x, 2, "x")
            _require_rows(y, 2, "y")
        (self.m, self.d), self.n = self.xs[0].shape, self.ys[0].shape[0]
        m, big = self.m, self.m + self.n
        self.identity = np.arange(big)[None, :] < m
        rows = self._rows(self.xs, self.ys)
        self.gram = g = rows @ rows.transpose(0, 2, 1)
        self.gxx, self.gyy, self.gxy = g[:, :m, :m], g[:, m:big, m:big], g[:, :m, m:big]

    def _rows(self, xs, ys) -> np.ndarray:
        """The (B, N + 1, d) rows Xc, Yc and delta of the datasets (xs, ys)."""
        m, big = self.m, self.m + self.n
        rows = np.empty((len(xs), big + 1, self.d))
        x_mean, x_rest = _centred(xs, rows[:, :m])
        y_mean, y_rest = _centred(ys, rows[:, m:big])
        rows[:, big] = (y_mean - x_mean) + (y_rest - x_rest)
        return rows

    def cq2(self, masks: np.ndarray) -> np.ndarray:
        """T_CQ2 for each relabeling in ``masks`` (True = first group):
        sum_{i1!=i2} X_i1'X_i2 / (m)_2 plus the same over y less
        2 sum_{i,j} X_i'Y_j / (mn).

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
        its first N diagonal entries: one product v K per dataset.
        """
        m, n = self.m, self.n
        big = m + n
        g = self.gram
        c = np.where(np.arange(big) < m, -n / big, m / big)
        norms = np.diagonal(g, axis1=1, axis2=2)[:, :big] + c * (
            2.0 * g[:, :big, big] + g[:, big, big, None] * c)
        mm, nn = m * (m - 1), n * (n - 1)
        k = (1.0 / mm + 1.0 / nn + 2.0 / (m * n)) * g
        idx = np.arange(big)
        k[:, idx, idx] -= (1.0 / mm - 1.0 / nn) * norms
        v = np.empty((g.shape[0], masks.shape[-2], big + 1))
        v[..., :big] = masks
        v[..., big] = v[..., :big] @ c
        vk = v @ k
        vk *= v
        return vk.sum(axis=2) - norms.sum(axis=1)[:, None] / nn

    def draws(self, rngs, count: int) -> np.ndarray:
        """(B, count, N) boolean relabeling masks of the N pooled rows
        (True = first group), each dataset's from its own generator in
        ``rngs``, which they consume exactly as ``count`` calls of
        ``rng.permutation(N)[:m]`` would, with the same masks.  With m = n
        each mask is oriented to hold pooled row 0."""
        m, big = self.m, self.m + self.n
        labels = np.tile(np.arange(big), (count, 1))
        picks = np.empty((len(rngs),) + labels.shape, dtype=labels.dtype)
        for b, rng in enumerate(rngs):
            rng.permuted(labels, axis=1, out=picks[b])
        masks = np.zeros(picks.shape, dtype=bool)
        np.put_along_axis(masks, picks[..., :m], True, axis=-1)
        if m == self.n:
            masks ^= ~masks[..., :1]
        return masks

    @cached_property
    def pair_norms(self) -> list:
        """One (norms, dup) per dataset: ||Z_a - Z_b|| for every pair of
        pooled rows Z (x rows, then y rows), 1 on the diagonal and for
        identical pairs, and the mask of identical pairs.
        Z_a - Z_b = P_a - P_b (``cq2``), and c_a - c_b is s_ab = e_a - e_b
        for the y indicator e, so under ``_near_pairs`` the squared norm is
        read from ``gram`` as
        G_aa + G_bb - 2 G_ab + s_ab (2 (a_a - a_b) + s_ab ||delta||^2)."""
        m, big = self.m, self.m + self.n
        e = (np.arange(big) >= m).astype(float)
        s = e[:, None] - e
        upper = np.triu(np.ones((big, big), dtype=bool), 1)
        out = []
        for x, y, g in zip(self.xs, self.ys, self.gram):
            diag, a, dd = np.diagonal(g)[:big], g[:big, big], g[big, big]
            sq = diag[:, None] + diag - 2.0 * g[:big, :big] + s * (2.0 * (a[:, None] - a) + s * dd)

            def pooled(i):
                return np.where((i < m)[:, None], x[np.minimum(i, m - 1)], y[np.maximum(i - m, 0)])

            near, near_norms, zero, _ = _near_pairs(
                np.where(upper, sq, np.inf), diag[:, None] + diag + s * s * dd,
                lambda i, j: pooled(i) - pooled(j))
            norms = np.sqrt(np.where(upper & ~near, sq, 1.0))
            norms[near] = np.where(zero, 1.0, near_norms)
            dup = np.zeros_like(near)
            dup[near] = zero
            out.append((np.where(upper, norms, norms.T), dup | dup.T))
        return out

    def wmw(self, masks: np.ndarray) -> np.ndarray:
        """T_WMW for each relabeling in ``masks`` (True = first group),
        one dataset at a time.

        U_ab is the unit vector of Z_a - Z_b, with its norm from ``gram``
        under the near-pair rule (``pair_norms``).
        For a relabeling with first-group indicator u and v = 1 - u, the
        sums of U_ab over a in the second group (``a_cols``) and over b in
        the first (``b_rows``) are the R_i and C_j of ``t_wmw``, and T is
        their total.  ||T||^2, sum ||R_i||^2 and sum ||C_j||^2 are sums over
        coordinates, accumulated over blocks of consecutive columns: each
        block's Z_a - Z_b, about ``_SIGN_BLOCK`` coefficients from x and y,
        overwrites one buffer and is made unit vectors in place.  Both sums
        are GEMMs over the block's first axis, so neither copies it: since
        U_ba = -U_ab, the second gives -b_rows, and only ||b_rows||^2 is
        used.  The rest are two-operand reductions: the squared row norms of
        ``a_cols`` and ``b_rows``, weighted by u and v, and T as one stacked
        matmul.  The masks are reduced in chunks of 64 rows, and each chunk
        holds one (64, N, cols) product at a time: ``a_cols`` is reduced to
        ``t_norm`` and ``r_term`` and freed before ``b_rows`` is formed, and
        ``b_rows`` is freed before the next chunk.

        A relabeling that splits a pair of identical pooled rows has no
        sign for it and raises ZeroVectorError naming the first such pair.
        """
        masks = np.broadcast_to(masks, (len(self.xs),) + masks.shape[-2:])
        return np.stack([self._wmw(b, part) for b, part in enumerate(masks)])

    def _wmw(self, b: int, masks: np.ndarray) -> np.ndarray:
        """``wmw`` of dataset ``b`` on its (R, N) masks."""
        m, n, d = self.m, self.n, self.d
        big = m + n
        x, y = self.xs[b], self.ys[b]
        norms, dup = self.pair_norms[b]
        first, second = np.nonzero(np.triu(dup))
        split = (masks[:, first] != masks[:, second]).any(axis=0)
        if split.any():
            one, other = (f"x row {i}" if i < m else f"y row {i - m}"
                          for i in (first[split][0], second[split][0]))
            raise ZeroVectorError(
                f"a relabeling pairs two identical pooled observations, {one} and {other}"
            )
        count = masks.shape[0]
        u_all = masks.astype(float)
        v_all = 1.0 - u_all
        t_norm, r_term, c_term = np.zeros((3, count))
        spans = _spans(count, 64)
        cols = min(d, max(1, _SIGN_BLOCK // (big * big)))
        buffer = np.empty(big * big * cols)
        for lo in range(0, d, cols):
            block = np.vstack([x[:, lo : lo + cols], y[:, lo : lo + cols]])
            signs = buffer[: big * big * block.shape[1]].reshape(big, big, -1)
            np.subtract(block[:, None, :], block[None, :, :], out=signs)
            del block  # so the chunks below hold the buffer alone
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

    def wmw_closed(self) -> np.ndarray:
        """T_WMW of the samples' own labels in closed form, one per dataset;
        see ``t_wmw``.  A block with a near pair is evaluated one dataset
        at a time, as each dataset's basis grows by its own near pairs."""
        m, n = self.m, self.n
        big = m + n
        g = self.gram
        diag = np.diagonal(g, axis1=1, axis2=2)
        scale = diag[:, :m, None] + diag[:, None, m:big] + diag[:, big, None, None]
        sq = scale - 2.0 * self.gxy + 2.0 * (g[:, big, None, m:big] - g[:, :m, big, None])
        ia = ib = np.zeros(0, dtype=int)
        if not (sq <= _NEAR_PAIR * scale).any():  # the rule of ``_near_pairs``
            w = 1.0 / np.sqrt(sq)
        elif len(self.xs) > 1:
            return np.concatenate([_TwoSampleGram([x], [y]).wmw_closed()
                                   for x, y in zip(self.xs, self.ys)])
        else:
            # The unit vectors of near pairs join the basis (Xc, Yc, delta).
            (x,), (y,) = self.xs, self.ys
            near, _, zero, units = _near_pairs(sq[0], scale[0], lambda i, j: y[j] - x[i])
            g = _with_units(g[0], units, lambda: self._rows([x], [y])[0])[None]
            ia, ib = np.nonzero(near)
            if zero.any():
                p = int(np.flatnonzero(zero)[0])
                raise ZeroVectorError(
                    f"difference of y observation {int(ib[p])} and "
                    f"x observation {int(ia[p])} is zero"
                )
            w = np.zeros(sq.shape)
            w[0, ~near] = 1.0 / np.sqrt(sq[0, ~near])

        # Coefficients of R_i (rows :m) and C_j (rows m:) on the basis.
        r_sum = w.sum(axis=2)
        c_sum = w.sum(axis=1)
        beta = np.zeros((g.shape[0], big, g.shape[-1]))
        beta[:, :m, m:big] = w
        beta[:, m:, :m] = -w.transpose(0, 2, 1)
        idx = np.arange(big)
        beta[:, idx, idx] = np.concatenate([-r_sum, c_sum], axis=1)
        beta[:, :, big] = np.concatenate([r_sum, c_sum], axis=1)
        col = big + 1 + np.arange(ia.size)
        beta[:, ia, col] = 1.0
        beta[:, m + ib, col] = 1.0
        bg = beta @ g
        t_norm = _dot(bg[:, :m].sum(axis=1), beta[:, :m].sum(axis=1))
        quad = t_norm - np.einsum("bij,bij->b", bg, beta) + m * n
        value = quad / (m * (m - 1) * n * (n - 1))
        return np.clip(value, -1.0, 1.0)


def t_cq2(x, y) -> float:
    """Two-sample mean-based statistic of Chen & Qin (2010, Ann. Statist.),
    unbiased for ||E(X - Y)||^2: the identity row of
    ``_TwoSampleGram.cq2``.

    T is invariant to a common shift of both samples, and so is every term
    of that kernel: it reads the rows centred on the pooled mean, so the
    centring cancels the shift before any product is formed.
    """
    return float(_observed(_TwoSampleGram([x], [y]), "cq2")[0])


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
    return float(_TwoSampleGram([x], [y]).wmw_closed()[0])
