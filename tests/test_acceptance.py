"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria use pinned seeds and the stated tolerances.  Run
with ``pytest tests/test_acceptance.py -v -s``; the whole suite needs a
few minutes, dominated by the permutation studies.
"""

import io
import json
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from hdsigntest import (
    ExperimentPlan,
    RsrmAuxiliary,
    run_power_study,
    run_subsample_protocol,
    subsample_table_csv,
    tr_sigma_sq_hat,
    two_sample_oracle_terms,
    write_matrix_csv,
)
from hdsigntest._selftest import run_selftest
from hdsigntest.cli import main
from hdsigntest.inference import evaluate_one_sample, evaluate_two_sample

# Three worst-case binomial standard errors of one rejection rate at 1000
# replicates, 3*sqrt(0.25/1000); criteria 4 and 6 keep this bar.
GAP_BAR = 0.047

# (d, c) points of the spherical-t(5) study behind criteria 4 and 5.  The
# shifts are chosen where the model-implied wmw-over-cq2 power gap clears
# GAP_BAR by three binomial standard errors of the gap; at (d=100, c=1.0)
# the model gap is only about 0.024, so no replication count or seed could
# reach the bar there.  test_spherical_grid_model_gap checks both facts.
SPHERICAL_GRID = ((100, 2.0), (200, 2.5))


def report(number, passed, detail):
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def rates_by_key(points):
    return {(p.d, p.stat, p.method): p.rejection_rate for p in points}


def model_powers(d, c, draws=1000, seed=4):
    """Model-implied power of the one-sided wmw and cq2 tests at level 0.05
    with m = n = 20 under the spherical-t(5) model, shift c on the second
    sample.

    Conditionally on the latent scales, d * t_wmw is Gaussian with mean
    c^2 S1 and variance S2, and t_cq2 with mean c^2 and variance S3.  The
    conditional rejection probabilities Phi(-z_a + c^2 S1/sqrt(S2)) and
    Phi(-z_a + c^2/sqrt(S3)) are averaged over seeded scale draws
    sqrt(chi2_5 / 5), the scale law of the generator.
    """
    m = n = 20
    df = 5.0
    phi = NormalDist()
    z_a = phi.inv_cdf(0.95)
    rng = np.random.default_rng(seed)
    p_wmw = p_cq2 = 0.0
    for _ in range(draws):
        aux = RsrmAuxiliary(
            p_scales=np.sqrt(rng.chisquare(df, size=m) / df),
            q_scales=np.sqrt(rng.chisquare(df, size=n) / df),
            sigma_v_sq=1.0,
            sigma_w_sq=1.0,
            tr_sigma_v_sq=float(d),
            tr_sigma_w_sq=float(d),
            tr_sigma_vw=float(d),
        )
        terms = two_sample_oracle_terms(aux, m, n)
        p_wmw += phi.cdf(-z_a + c * c * terms.s1 / math.sqrt(terms.s2))
        p_cq2 += phi.cdf(-z_a + c * c / math.sqrt(terms.s3))
    return p_wmw / draws, p_cq2 / draws


def test_spherical_grid_model_gap():
    p_wmw, p_cq2 = model_powers(100, 1.0)
    below_bar = p_wmw - p_cq2 < GAP_BAR
    details = [f"(d=100, c=1.0): gap {p_wmw - p_cq2:.3f} < bar {GAP_BAR}"]
    clears = []
    for d, c in SPHERICAL_GRID:
        p_wmw, p_cq2 = model_powers(d, c)
        need = GAP_BAR + 3.0 * math.sqrt(
            (p_wmw * (1.0 - p_wmw) + p_cq2 * (1.0 - p_cq2)) / 1000
        )
        clears.append(p_wmw - p_cq2 >= need)
        details.append(f"(d={d}, c={c}): gap {p_wmw - p_cq2:.3f} >= {need:.3f}")
    print("model gaps " + ", ".join(details))
    assert below_bar and all(clears)


def test_criterion_1_oracle_equivalence():
    start = time.time()
    results = run_selftest(trials=100, seed=1)
    elapsed = time.time() - start
    worst = max(results.values())
    ok = worst <= 1e-9 and elapsed < 10.0
    assert report(
        1, ok, f"max relative deviation {worst:.2e} over 100 instances in {elapsed:.1f}s"
    )


def test_criterion_2_null_size_mixing_model():
    plan = ExperimentPlan(
        model="ar1-gauss",
        grid=((100, 0.0),),
        m=20,
        n=20,
        tests=(("wmw", "asymptotic"), ("cq2", "asymptotic")),
        replications=1000,
        base_seed=11,
    )
    rates = rates_by_key(run_power_study(plan))
    size_wmw = rates[(100, "wmw", "asymptotic")]
    size_cq2 = rates[(100, "cq2", "asymptotic")]
    ok = 0.032 <= size_wmw <= 0.068 and 0.032 <= size_cq2 <= 0.068
    assert report(2, ok, f"sizes wmw={size_wmw:.3f} cq2={size_cq2:.3f}, band [0.032, 0.068]")


def test_criterion_3_power_equality_mixing_model():
    plan = ExperimentPlan(
        model="ar1-gauss",
        grid=((100, 1.5), (200, 3.0)),
        m=20,
        n=20,
        tests=(("wmw", "asymptotic"), ("cq2", "asymptotic")),
        replications=1000,
        base_seed=12,
    )
    rates = rates_by_key(run_power_study(plan))
    diffs = {
        d: abs(rates[(d, "wmw", "asymptotic")] - rates[(d, "cq2", "asymptotic")])
        for d in (100, 200)
    }
    ok = all(diff <= 0.06 for diff in diffs.values())
    assert report(
        3, ok, "power differences " + ", ".join(f"d={d}: {v:.3f}" for d, v in diffs.items())
    )


@pytest.fixture(scope="module")
def spherical_study():
    plan = ExperimentPlan(
        model="spherical-t5",
        grid=SPHERICAL_GRID,
        m=20,
        n=20,
        tests=(
            ("wmw", "permutation"),
            ("cq2", "permutation"),
            ("wmw", "rsrm-oracle"),
        ),
        replications=1000,
        n_resamples=500,
        base_seed=2024,
    )
    return rates_by_key(run_power_study(plan))


@pytest.mark.slow
def test_criterion_4_rsrm_superiority(spherical_study):
    gaps = {
        (d, c): spherical_study[(d, "wmw", "permutation")]
        - spherical_study[(d, "cq2", "permutation")]
        for d, c in SPHERICAL_GRID
    }
    detail = ", ".join(f"(d={d}, c={c}): gap {g:.3f}" for (d, c), g in gaps.items())
    ok = all(g >= GAP_BAR for g in gaps.values())
    assert report(4, ok, detail + f", bar {GAP_BAR}")


@pytest.mark.slow
def test_criterion_5_permutation_matches_oracle(spherical_study):
    diffs = {
        d: abs(
            spherical_study[(d, "wmw", "permutation")]
            - spherical_study[(d, "wmw", "rsrm-oracle")]
        )
        for d, _ in SPHERICAL_GRID
    }
    ok = all(v <= 0.06 for v in diffs.values())
    assert report(
        5, ok, "wmw |perm - oracle| " + ", ".join(f"d={d}: {v:.3f}" for d, v in diffs.items())
    )


@pytest.mark.slow
def test_criterion_6_equicorrelated_advantage():
    plan = ExperimentPlan(
        model="equicorr-gauss",
        grid=((100, 2.5),),
        m=20,
        n=20,
        tests=(("wmw", "permutation"), ("cq2", "permutation")),
        replications=1000,
        n_resamples=500,
        base_seed=500,
        beta=0.7,
    )
    rates = rates_by_key(run_power_study(plan))
    gap = rates[(100, "wmw", "permutation")] - rates[(100, "cq2", "permutation")]
    assert report(6, gap >= GAP_BAR, f"power gap {gap:.3f}, bar {GAP_BAR}")


def test_criterion_7_trace_estimator_unbiased():
    rng = np.random.default_rng(700)
    sd = np.sqrt([1.0, 2.0, 3.0, 4.0])
    reps = 20000
    values = np.empty(reps)
    for r in range(reps):
        values[r] = tr_sigma_sq_hat(rng.standard_normal((20, 4)) * sd)
    se = values.std(ddof=1) / math.sqrt(reps)
    err = abs(values.mean() - 30.0)
    assert report(
        7, err < 3.0 * se, f"mean {values.mean():.3f} vs 30 analytic, |err| {err:.3f} < 3 SE {3*se:.3f}"
    )


def test_criterion_8_randomization_validity():
    reps = 1000
    hits_perm = 0
    hits_flip = 0
    for r in range(reps):
        rng = np.random.default_rng((800, r))
        x = rng.standard_normal((15, 30))
        y = rng.standard_normal((15, 30))
        res = evaluate_two_sample(
            x, y, [("wmw", "permutation")], n_resamples=200, rng=np.random.default_rng((801, r))
        )
        hits_perm += res["wmw", "permutation"].p_value <= 0.05
        z = rng.standard_normal((20, 50))
        res = evaluate_one_sample(
            z, [("s", "signflip")], n_resamples=200, rng=np.random.default_rng((802, r))
        )
        hits_flip += res["s", "signflip"].p_value <= 0.05
    rate_perm = hits_perm / reps
    rate_flip = hits_flip / reps
    ok = rate_perm <= 0.07 and rate_flip <= 0.07
    assert report(
        8, ok, f"P(p<=0.05): permutation {rate_perm:.3f}, sign-flip {rate_flip:.3f}, bound 0.07"
    )


def test_criterion_9_subsample_protocol_table():
    rng = np.random.default_rng(900)
    class_a = rng.standard_normal((69, 96))
    class_b = rng.standard_normal((31, 96))
    reps = 300
    rows = run_subsample_protocol(
        class_a,
        class_b,
        fraction=0.2,
        repetitions=reps,
        tests=(("cq2", "asymptotic"), ("wmw", "asymptotic")),
        seed=901,
    )
    table = subsample_table_csv(rows)
    header_ok = table.splitlines()[0] == "stat,method,size,power"
    keys = [(r.stat, r.method) for r in rows]
    schema_ok = header_ok and keys == [("cq2", "asymptotic"), ("wmw", "asymptotic")]
    band = 3.0 * math.sqrt(0.05 * 0.95 / reps)
    power_ok = all(abs(r.power - 0.05) <= band for r in rows)
    detail = (
        f"layout ok={schema_ok}; same-class powers "
        + ", ".join(f"{r.stat}={r.power:.3f}" for r in rows)
        + f" within {band:.3f} of 0.05"
    )
    assert report(9, schema_ok and power_ok, detail)


def test_criterion_10_cli_determinism(tmp_path):
    rng = np.random.default_rng(1000)
    xp = tmp_path / "x.csv"
    yp = tmp_path / "y.csv"
    write_matrix_csv(rng.standard_normal((10, 12)), xp)
    write_matrix_csv(rng.standard_normal((11, 12)) + 0.2, yp)

    def run(argv):
        out = io.StringIO()
        err = io.StringIO()
        code = main(argv, out=out, err=err)
        assert code == 0, err.getvalue()
        return out.getvalue()

    two_args = ["two-sample", "--x", str(xp), "--y", str(yp), "--stat", "wmw",
                "--method", "permutation", "--perms", "300", "--seed", "42"]
    pair_ok = run(two_args) == run(two_args)

    sim_args = ["simulate", "--model", "spherical-t5", "--m", "8", "--n", "8",
                "--grid", "30:1,60:1.5", "--tests", "wmw:perm,cq2:asym,wmw:oracle",
                "--reps", "10", "--perms", "50", "--seed", "6"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(sim_args + ["--out", str(out_a)])
    run(sim_args + ["--out", str(out_b)])
    csv_ok = out_a.read_bytes() == out_b.read_bytes()
    man_a = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    man_b = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    for manifest, name in ((man_a, "a.csv"), (man_b, "b.csv")):
        manifest.pop("timestamp")
        manifest["command"] = [f for f in manifest["command"] if not f.startswith("--out")]
    manifest_ok = man_a == man_b

    selftest_ok = run(["selftest", "--trials", "10", "--seed", "2"]) == run(
        ["selftest", "--trials", "10", "--seed", "2"]
    )
    ok = pair_ok and csv_ok and manifest_ok and selftest_ok
    assert report(
        10,
        ok,
        f"report bytes {pair_ok}, plot CSV bytes {csv_ok}, "
        f"manifest (timestamp excluded) {manifest_ok}, selftest bytes {selftest_ok}",
    )
