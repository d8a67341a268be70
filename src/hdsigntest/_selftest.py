"""Self-validation: fast paths against naive loop oracles, and the
latent-scale oracle against the plain formulas it must collapse to.
"""

from __future__ import annotations

import numpy as np

from . import _naive as naive
from .generators import RsrmAuxiliary
from .errors import InvalidInputError, require_counts, require_seed
from .inference import one_sample_oracle_terms, two_sample_oracle_terms
from .nuisance import tr_sigma_cross_hat, tr_sigma_sq_hat, gamma1_hat
from .statistics import _SIGN_BLOCK, _OneSampleGram, _TwoSampleGram
from .statistics import t_cq1, t_cq2, t_s, t_sr, t_wmw

TOLERANCE = 1e-9
# Floor of |reference| for the statistics that lie in [-1, 1] (T_S, T_SR,
# T_WMW): they vanish exactly on some d = 1 instances, where their error
# is up to about 15 eps, so their bound is relative down to 1e-5 and
# absolute below.
BOUNDED_FLOOR = 1e-5


def _rel(value: float, reference: float, floor: float) -> float:
    return abs(value - reference) / max(abs(reference), floor)


def run_selftest(trials: int = 100, seed: int = 0) -> dict:
    """Compare every reduced statistic and estimator with its naive oracle
    on random small instances, plus the unit-scale collapse checks.

    Returns {check name: max deviation relative to max(|reference|, floor)}.
    """
    require_counts(InvalidInputError, trials=trials)
    require_seed(InvalidInputError, "seed", seed)
    rng = np.random.default_rng(seed)
    # Flip patterns and relabelings come from their own streams, so the
    # instances above do not depend on them.
    flip_rng = np.random.default_rng([seed, 1])
    relabel_rng = np.random.default_rng([seed, 2])
    signflip_rng = np.random.default_rng([seed, 4])
    worst: dict[str, float] = {}

    def record(name, value, reference, floor=1e-12):
        worst[name] = max(worst.get(name, 0.0), _rel(value, reference, floor))

    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 11))
        x = rng.standard_normal((m, d))
        y = rng.standard_normal((n, d))

        record("t_cq1", t_cq1(x), naive.naive_t_cq1(x))
        record("t_cq2", t_cq2(x, y), naive.naive_t_cq2(x, y))
        record("t_s", t_s(x), naive.naive_t_s(x), BOUNDED_FLOOR)
        record("t_wmw", t_wmw(x, y), naive.naive_t_wmw(x, y), BOUNDED_FLOOR)
        flips = signflip_rng.integers(0, 2, size=(2, m)) * 2.0 - 1.0
        flips[:, :2] = (1.0, -1.0)
        one = _OneSampleGram(x)
        for kernel, oracle, floor in (
            (one.cq1, naive.naive_t_cq1, 1e-12),
            (one.s, naive.naive_t_s, BOUNDED_FLOOR),
        ):
            for value, eps in zip(kernel(flips), flips):
                record("signflip_kernels", value, oracle(x * eps[:, None]), floor)
        # Two mixed relabelings: pooled row 0 leaves the first group and
        # rows 1 and m are in it, so neither is the identity nor its swap.
        pool = np.vstack([x, y])
        others = np.delete(np.arange(2, m + n), m - 2)
        masks = np.zeros((2, m + n), dtype=bool)
        for mask in masks:
            mask[[1, m]] = True
            mask[relabel_rng.permutation(others)[: m - 2]] = True
        two = _TwoSampleGram([x], [y])
        for values, oracle in ((two.cq2(masks)[0], naive.naive_t_cq2),
                               (two.wmw(masks)[0], naive.naive_t_wmw)):
            for value, mask in zip(values, masks):
                record("permutation_kernels", value, oracle(pool[mask], pool[~mask]))
        record(
            "tr_sigma_cross",
            tr_sigma_cross_hat(x, y),
            naive.naive_tr_sigma_cross(x, y),
        )

        # Quadruple-index quantities need at least 4 rows.
        mb = int(rng.integers(4, 9))
        nb = int(rng.integers(4, 9))
        xb = rng.standard_normal((mb, d))
        yb = rng.standard_normal((nb, d))
        record("t_sr", t_sr(xb), naive.naive_t_sr(xb), BOUNDED_FLOOR)
        # Two mixed flip patterns: a constant one only reproduces t_sr.
        flips = flip_rng.integers(0, 2, size=(2, mb)) * 2.0 - 1.0
        flips[:, :2] = (1.0, -1.0)
        for value, eps in zip(_OneSampleGram(xb).sr(flips), flips):
            record("t_sr_flips", value, naive.naive_t_sr(xb * eps[:, None]),
                   BOUNDED_FLOOR)
        record("tr_sigma_sq", tr_sigma_sq_hat(xb), naive.naive_tr_sigma_sq(xb))
        naive_gamma = (
            2.0 * naive.naive_tr_sigma_sq(xb) / (mb * (mb - 1))
            + 2.0 * naive.naive_tr_sigma_sq(yb) / (nb * (nb - 1))
            + 4.0 * naive.naive_tr_sigma_cross(xb, yb) / (mb * nb)
        )
        record("gamma1", gamma1_hat(xb, yb).gamma, naive_gamma)

    # One instance wide enough for the permutation wmw kernel to read its
    # pair differences in two column blocks, a full one and one of three
    # columns, on its own stream.
    wide_rng = np.random.default_rng([seed, 3])
    m = n = 4
    pool = wide_rng.standard_normal((m + n, _SIGN_BLOCK // (m + n) ** 2 + 3))
    masks = np.zeros((3, m + n), dtype=bool)
    masks[0, :m] = True
    for mask in masks[1:]:
        mask[wide_rng.permutation(m + n)[:m]] = True
    values = _TwoSampleGram([pool[:m]], [pool[m:]]).wmw(masks)[0]
    for value, mask in zip(values, masks):
        record("permutation_kernels", value, naive.naive_t_wmw(pool[mask], pool[~mask]))

    # Unit latent scales must collapse the oracle variances to the plain
    # mixing-model formulas.
    m, n, d = 6, 7, 11
    trv, trw, trvw = 13.0, 17.0, 11.0
    aux2 = RsrmAuxiliary(
        p_scales=np.ones(m),
        q_scales=np.ones(n),
        sigma_v_sq=1.0,
        sigma_w_sq=1.0,
        tr_sigma_v_sq=trv,
        tr_sigma_w_sq=trw,
        tr_sigma_vw=trvw,
    )
    terms2 = two_sample_oracle_terms(aux2, m, n)
    gamma1 = (
        2.0 * trv / (m * (m - 1)) + 2.0 * trw / (n * (n - 1)) + 4.0 * trvw / (m * n)
    )
    record("rsrm_two_sample_collapse", terms2.s3, gamma1)
    record("rsrm_two_sample_collapse", terms2.s2, gamma1 / 4.0)
    record("rsrm_two_sample_collapse", terms2.s1, 0.5)

    aux1 = RsrmAuxiliary(p_scales=np.ones(n), sigma_v_sq=1.0, tr_sigma_v_sq=trv)
    terms1 = one_sample_oracle_terms(aux1, n)
    gamma2 = 2.0 * trv / (n * (n - 1))
    record("rsrm_one_sample_collapse", terms1.gamma3, gamma2)
    record("rsrm_one_sample_collapse", terms1.z3, gamma2)
    record("rsrm_one_sample_collapse", terms1.z4, gamma2)
    record("rsrm_one_sample_collapse", terms1.z1, 1.0)
    return worst


def selftest_passed(results: dict) -> bool:
    return all(dev <= TOLERANCE for dev in results.values())
