"""Self-validation: fast paths against naive loop oracles, and the
latent-scale oracle against the plain formulas it must collapse to.
"""

from __future__ import annotations

import numpy as np

from . import _naive as naive
from .generators import RsrmAuxiliary
from .inference import one_sample_oracle_terms, two_sample_oracle_terms
from .nuisance import tr_sigma_cross_hat, tr_sigma_sq_hat, gamma1_hat
from .statistics import t_cq1, t_cq2, t_s, t_sr, t_wmw

TOLERANCE = 1e-9


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


def run_selftest(trials: int = 100, seed: int = 0) -> dict:
    """Compare every reduced statistic and estimator with its naive oracle
    on random small instances, plus the unit-scale collapse checks.

    Returns {check name: max relative deviation}.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    worst: dict[str, float] = {}

    def record(name, value, reference):
        worst[name] = max(worst.get(name, 0.0), _rel(value, reference))

    for _ in range(trials):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 11))
        x = rng.standard_normal((m, d))
        y = rng.standard_normal((n, d))

        record("t_cq1", t_cq1(x), naive.naive_t_cq1(x))
        record("t_cq2", t_cq2(x, y), naive.naive_t_cq2(x, y))
        record("t_s", t_s(x), naive.naive_t_s(x))
        record("t_wmw", t_wmw(x, y), naive.naive_t_wmw(x, y))
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
        record("t_sr", t_sr(xb), naive.naive_t_sr(xb))
        record("tr_sigma_sq", tr_sigma_sq_hat(xb), naive.naive_tr_sigma_sq(xb))
        naive_gamma = (
            2.0 * naive.naive_tr_sigma_sq(xb) / (mb * (mb - 1))
            + 2.0 * naive.naive_tr_sigma_sq(yb) / (nb * (nb - 1))
            + 4.0 * naive.naive_tr_sigma_cross(xb, yb) / (mb * nb)
        )
        record("gamma1", gamma1_hat(xb, yb).gamma, naive_gamma)

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
