"""Property tests for the two-sample Gram kernels: ``t_wmw``, ``t_cq2`` and
``gamma1_hat`` against the naive oracles, and the invariances they claim.

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

from hdsigntest import ZeroVectorError, gamma1_hat, t_cq2, t_wmw
from hdsigntest.errors import HDTestError
from hdsigntest._naive import (
    naive_t_cq2,
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
    if isinstance(want, type) or isinstance(got, type):
        return got == want
    if isinstance(want, dict):
        return all(abs(got[key] - want[key]) <= tol[key] for key in want)
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
