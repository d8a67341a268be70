"""Property tests for the Gram kernels against the naive oracles, and the
invariances they claim: ``t_wmw``, ``t_cq2`` and ``gamma1_hat`` on the
two-sample side; ``t_cq1``, ``t_s``, ``t_sr``, the sign-flip kernel
``_OneSampleGram.sr`` and ``gamma2_hat`` on the one-sample side, which are
not location-invariant and are checked under row order, rotation and
scale instead; scale invariance (``t_cq1`` and ``t_cq2`` scale by c^2)
for all five statistics; the resampling kernels (permutation ``cq2`` and
``wmw``, sign-flip ``cq1``, ``s`` and ``sr``) on relabeled or flipped,
shifted data; and the pooled pair norms that the permutation ``wmw``
kernel divides by.

Entries lie on a grid of eighths, so samples often share rows or nearly
coincide, and shifted samples are exactly representable: a shift then
changes the data by nothing but the shift, and any change in a value is
the kernel's own rounding.  Tolerances scale with the squared row norms
(``t_cq2``) or their squares (the trace estimators); ``t_wmw`` lies in
[-1, 1], and its near-coincident pairs are taken from the rows, so its
tolerance is absolute.
"""

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from hdsigntest import (
    ZeroVectorError,
    gamma1_hat,
    gamma2_hat,
    t_cq1,
    t_cq2,
    t_s,
    t_sr,
    t_wmw,
)
from hdsigntest.errors import HDTestError
from hdsigntest.statistics import _OneSampleGram, _TwoSampleGram
from hdsigntest._naive import (
    naive_t_cq1,
    naive_t_cq2,
    naive_t_s,
    naive_t_sr,
    naive_t_wmw,
    naive_tr_sigma_cross,
    naive_tr_sigma_sq,
)

WMW_TOL = 1e-10
REL_TOL = 1e-11


@st.composite
def two_samples(draw, min_rows=2, max_rows=6):
    m = draw(st.integers(min_rows, max_rows))
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, 5))
    cells = st.integers(-64, 64)
    x = draw(hnp.arrays(np.int64, (m, d), elements=cells)) / 8.0
    y = draw(hnp.arrays(np.int64, (n, d), elements=cells)) / 8.0
    return x, y


def shifts(d):
    return hnp.arrays(np.int64, d, elements=st.integers(-(2**20), 2**20)).map(
        lambda v: v.astype(float)
    )


def _size(x, y):
    """Largest squared norm of a row centred on its sample mean, plus one."""
    rows = np.vstack([x - x.mean(axis=0), y - y.mean(axis=0)])
    return 1.0 + float(np.max(np.einsum("ij,ij->i", rows, rows)))


def _outcome(func, *args):
    """func(*args), or the type of the package error it raised."""
    try:
        return func(*args)
    except HDTestError as exc:
        return type(exc)


def _snapshot(x, y):
    snap = _outcome(gamma1_hat, x, y)
    return snap if isinstance(snap, type) else snap.to_dict()


def _agree(got, want, tol):
    if isinstance(want, type) or isinstance(got, type) or want is None:
        return got == want
    if isinstance(want, dict):
        return all(_agree(got[key], want[key], tol[key]) for key in want)
    if isinstance(want, tuple):
        return len(got) == len(want) and all(
            abs(g - w) <= tol for g, w in zip(got, want)
        )
    return abs(got - want) <= tol


def _tolerances(x, y):
    size = _size(x, y)
    traces = REL_TOL * size * size
    return {
        "wmw": WMW_TOL,
        "cq2": REL_TOL * size,
        "gamma": {"tr1": traces, "tr2": traces, "tr12": traces, "gamma": traces,
                  "sigma1_sq": REL_TOL * size, "sigma2_sq": REL_TOL * size},
    }


def _evaluate(x, y):
    return {
        "wmw": _outcome(t_wmw, x, y),
        "cq2": t_cq2(x, y),
        "gamma": _snapshot(x, y) if min(len(x), len(y)) >= 4 else None,
    }


def _assert_same(got, want, tol):
    for key, value in want.items():
        if value is not None:
            assert _agree(got[key], value, tol[key]), (key, got[key], value)


@given(two_samples())
def test_wmw_matches_naive(sample):
    x, y = sample
    try:
        want = naive_t_wmw(x, y)
    except ZeroVectorError:
        want = ZeroVectorError
    assert _agree(_outcome(t_wmw, x, y), want, WMW_TOL)


@given(two_samples())
def test_cq2_matches_naive(sample):
    x, y = sample
    assert abs(t_cq2(x, y) - naive_t_cq2(x, y)) <= REL_TOL * _size(x, y)


@given(two_samples(min_rows=4, max_rows=5))
def test_gamma1_matches_naive(sample):
    x, y = sample
    m, n = len(x), len(y)
    tr1, tr2 = naive_tr_sigma_sq(x), naive_tr_sigma_sq(y)
    tr12 = naive_tr_sigma_cross(x, y)
    want = {
        "tr1": tr1,
        "tr2": tr2,
        "tr12": tr12,
        "gamma": 2.0 * tr1 / (m * (m - 1)) + 2.0 * tr2 / (n * (n - 1)) + 4.0 * tr12 / (m * n),
        "sigma1_sq": float(np.var(x, axis=0, ddof=1).mean()),
        "sigma2_sq": float(np.var(y, axis=0, ddof=1).mean()),
    }
    got = _snapshot(x, y)
    if isinstance(got, type):
        # Only data whose variance functional vanishes may be refused.
        assert want["gamma"] <= REL_TOL * _size(x, y) ** 2, got
    else:
        assert _agree(got, want, _tolerances(x, y)["gamma"])


@given(two_samples(), st.randoms(use_true_random=False))
def test_row_order_invariance(sample, rand):
    x, y = sample
    xp = x[rand.sample(range(len(x)), len(x))]
    yp = y[rand.sample(range(len(y)), len(y))]
    _assert_same(_evaluate(xp, yp), _evaluate(x, y), _tolerances(x, y))


@given(two_samples(), st.integers(0, 2**32 - 1))
def test_rotation_invariance(sample, seed):
    x, y = sample
    d = x.shape[1]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    _assert_same(_evaluate(x @ q, y @ q), _evaluate(x, y), _tolerances(x, y))


@given(two_samples(), st.data())
def test_common_shift_invariance(sample, data):
    x, y = sample
    shift = data.draw(shifts(x.shape[1]))
    _assert_same(_evaluate(x + shift, y + shift), _evaluate(x, y), _tolerances(x, y))


@given(two_samples(min_rows=4), st.data())
def test_nuisance_separate_shift_invariance(sample, data):
    x, y = sample
    a = data.draw(shifts(x.shape[1]))
    b = data.draw(shifts(x.shape[1]))
    want = _snapshot(x, y)
    assert _agree(_snapshot(x + a, y + b), want, _tolerances(x, y)["gamma"])


# ---------------------------------------------------------------------------
# One-sample side.
# ---------------------------------------------------------------------------


@st.composite
def one_sample(draw, min_rows=4, max_rows=6):
    """A grid sample with one to three +-1 flip patterns of its rows."""
    n = draw(st.integers(min_rows, max_rows))
    d = draw(st.integers(1, 5))
    x = draw(hnp.arrays(np.int64, (n, d), elements=st.integers(-64, 64))) / 8.0
    k = draw(st.integers(1, 3))
    flips = draw(hnp.arrays(np.int64, (k, n), elements=st.sampled_from([-1, 1])))
    return x, flips.astype(float)


def _raw_size(x):
    """Largest squared row norm plus one: the scale of the statistics that
    are not location-invariant."""
    return 1.0 + float(np.max(np.einsum("ij,ij->i", x, x)))


def _one_sample_snapshot(x):
    snap = _outcome(gamma2_hat, x)
    return snap if isinstance(snap, type) else snap.to_dict()


def _flip_values(x, flips):
    """``_OneSampleGram(x).sr(flips)`` as a tuple, or the type of the
    package error it raised."""
    values = _outcome(lambda: _OneSampleGram(x).sr(flips))
    return values if isinstance(values, type) else tuple(values)


def _evaluate_one(x, flips):
    return {
        "cq1": t_cq1(x),
        "s": _outcome(t_s, x),
        "sr": _outcome(t_sr, x),
        "sr_flips": _flip_values(x, flips),
        "gamma": _one_sample_snapshot(x),
    }


def _tolerances_one(x):
    raw = _raw_size(x)
    size = _size(x, x)
    traces = REL_TOL * size * size
    return {
        "cq1": REL_TOL * raw,
        "s": WMW_TOL,
        "sr": WMW_TOL,
        "sr_flips": WMW_TOL,
        "gamma": {"tr1": traces, "tr2": 0.0, "tr12": 0.0, "gamma": traces,
                  "sigma1_sq": REL_TOL * size, "sigma2_sq": 0.0},
    }


@given(one_sample())
def test_one_sample_statistics_match_naive(sample):
    x, flips = sample
    tol = _tolerances_one(x)
    assert abs(t_cq1(x) - naive_t_cq1(x)) <= tol["cq1"]
    assert _agree(_outcome(t_s, x), _outcome(naive_t_s, x), WMW_TOL)
    assert _agree(_outcome(t_sr, x), _outcome(naive_t_sr, x), WMW_TOL)
    want = [_outcome(naive_t_sr, x * eps[:, None]) for eps in flips]
    got = _flip_values(x, flips)
    if ZeroVectorError in want:
        # A batch that uses a zero pair sum anywhere is refused as a whole.
        assert got == ZeroVectorError
    else:
        assert _agree(got, tuple(want), WMW_TOL), (got, want)


@given(one_sample())
def test_gamma2_matches_naive(sample):
    x, _ = sample
    n = len(x)
    tr1 = naive_tr_sigma_sq(x)
    want = {
        "tr1": tr1,
        "tr2": None,
        "tr12": None,
        "gamma": 2.0 * tr1 / (n * (n - 1)),
        "sigma1_sq": float(np.var(x, axis=0, ddof=1).mean()),
        "sigma2_sq": None,
    }
    got = _one_sample_snapshot(x)
    if isinstance(got, type):
        # Only data whose variance functional vanishes may be refused.
        assert want["gamma"] <= REL_TOL * _size(x, x) ** 2, got
    else:
        assert _agree(got, want, _tolerances_one(x)["gamma"])


@given(one_sample(), st.randoms(use_true_random=False))
def test_one_sample_row_order_invariance(sample, rand):
    x, flips = sample
    order = rand.sample(range(len(x)), len(x))
    _assert_same(
        _evaluate_one(x[order], flips[:, order]), _evaluate_one(x, flips),
        _tolerances_one(x),
    )


@given(one_sample(), st.integers(0, 2**32 - 1))
def test_one_sample_rotation_invariance(sample, seed):
    x, flips = sample
    d = x.shape[1]
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    _assert_same(
        _evaluate_one(x @ q, flips), _evaluate_one(x, flips), _tolerances_one(x)
    )


@given(one_sample(), two_samples(min_rows=2, max_rows=5), st.integers(-8, 8))
def test_scale_invariance(one, two, power):
    # c = 2^power scales every entry exactly: t_cq1 and t_cq2 must scale
    # by c^2 and the sign and rank statistics must not move.
    c = 2.0**power
    x1, _ = one
    x, y = two
    assert abs(t_cq1(c * x1) - c * c * t_cq1(x1)) <= c * c * REL_TOL * _raw_size(x1)
    assert abs(t_cq2(c * x, c * y) - c * c * t_cq2(x, y)) <= c * c * REL_TOL * _size(x, y)
    for func, args in ((t_s, (x1,)), (t_sr, (x1,)), (t_wmw, (x, y))):
        want = _outcome(func, *args)
        got = _outcome(func, *(c * a for a in args))
        assert _agree(got, want, WMW_TOL), (func.__name__, got, want)


# ---------------------------------------------------------------------------
# Resampling kernels.
# ---------------------------------------------------------------------------


@given(two_samples(), st.data())
def test_permutation_kernels_match_naive(sample, data):
    # Relabelings of a commonly shifted pool against the naive statistics
    # of the unshifted split: both kernels are location-invariant.
    x, y = sample
    m, n = len(x), len(y)
    pool = np.vstack([x, y])
    masks = np.zeros((3, m + n), dtype=bool)
    for mask in masks:
        mask[data.draw(st.permutations(range(m + n)))[:m]] = True
    shift = data.draw(shifts(x.shape[1]))
    gram = _TwoSampleGram([x + shift], [y + shift])
    cq2 = gram.cq2(masks)[0]
    dup = gram.pair_norms[0][1]
    for mask, cq2_value in zip(masks, cq2):
        a, b = pool[mask], pool[~mask]
        assert abs(cq2_value - naive_t_cq2(a, b)) <= REL_TOL * _size(a, b)
        want = _outcome(naive_t_wmw, a, b)
        # The kernel refuses a relabeling that splits a coincident pair.
        assert (want == ZeroVectorError) == bool(dup[np.ix_(mask, ~mask)].any())
        got = _outcome(lambda: gram.wmw(mask[None])[0, 0])
        assert _agree(got, want, WMW_TOL), (got, want)
    if not any(dup[np.ix_(mask, ~mask)].any() for mask in masks):
        # One batch of all three gives the same values.
        for mask, value in zip(masks, gram.wmw(masks)[0]):
            assert abs(value - naive_t_wmw(pool[mask], pool[~mask])) <= WMW_TOL


@given(two_samples(), st.sampled_from([0.0, 1e-10, 1e-7, 1e-3, 0.2]), st.data())
def test_pooled_pair_norms(sample, dist, data):
    # Pooled row b is moved to a relative distance ``dist`` from row a (0
    # makes it a duplicate; 0.2 is about where the near-pair rule stops
    # taking the norm from the rows), then both samples are shifted by a
    # common offset and y by a separate one, each up to 2^20 per
    # coordinate.  The pair norms of ``_TwoSampleGram`` must match the
    # norms of the stored row differences, and the coincident pairs must
    # be exactly the identical rows.
    x, y = sample
    m, d = len(x), x.shape[1]
    pool = np.vstack([x, y])
    a, b = data.draw(st.permutations(range(len(pool))))[:2]
    u = np.arange(1.0, d + 1.0)
    pool[b] = pool[a] + dist * np.linalg.norm(pool[a]) * u / np.linalg.norm(u)
    common = data.draw(shifts(d))
    x, y = pool[:m] + common, pool[m:] + common + data.draw(shifts(d))
    norms, dup = _TwoSampleGram([x], [y]).pair_norms[0]
    rows = np.vstack([x, y])
    want = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
    off = ~np.eye(len(rows), dtype=bool)
    assert np.array_equal(dup[off], want[off] == 0.0)
    keep = off & ~dup
    assert np.all(np.abs(norms[keep] - want[keep]) <= 1e-12 * want[keep]), (
        np.max(np.abs(norms[keep] - want[keep]) / want[keep]))


@given(one_sample(min_rows=2), st.booleans(), st.data())
def test_signflip_kernels_match_naive(sample, shifted, data):
    # Flip patterns of the sample, shifted or not, against the naive
    # statistics of the flipped rows.
    x, flips = sample
    if shifted:
        x = x + data.draw(shifts(x.shape[1]))
    gram = _OneSampleGram(x)
    flipped = [x * eps[:, None] for eps in flips]
    for value, rows in zip(gram.cq1(flips), flipped):
        assert abs(value - naive_t_cq1(rows)) <= REL_TOL * _raw_size(x)
    kernels = [(gram.s, naive_t_s)] + [(gram.sr, naive_t_sr)] * (len(x) >= 4)
    for kernel, oracle in kernels:
        want = [_outcome(oracle, rows) for rows in flipped]
        got = _outcome(lambda: tuple(kernel(flips)))
        if ZeroVectorError in want:
            # A batch that uses a zero sign anywhere is refused as a whole.
            assert got == ZeroVectorError
        else:
            assert _agree(got, tuple(want), WMW_TOL), (oracle.__name__, got, want)
