"""One benchmark workload in one fresh process.

Started by run.py, once per set-up measurement and once per run:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR [--setup-only] [--spans PATH]

It builds the workload's inputs from the seed, runs one warm-up round,
then runs whole rounds of the same operations until ``--seconds`` have
passed, and finally checks every output against the references in
checks.py.  The last line of its standard output is one JSON object for
run.py.  Only ``--trace 1`` imports the tracer.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALPHA = 0.05
CALL_TIMEOUT_S = 150.0


def _round_seed(seed, index):
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _stat_checks(hd, label, x, y, nuisance=False):
    """The package's statistics against the brute-force references."""
    out = []
    for stat in ("wmw", "cq2"):
        want, scale = getattr(checks, f"t_{stat}")(x, y)
        got = getattr(hd, f"t_{stat}")(x, y)
        out.append((f"t_{stat} {label}", checks.close(got, want, scale), f"{got!r} vs {want!r}"))
    if nuisance:
        snap = hd.gamma1_hat(x, y)
        ref = checks.nuisance_two_sample(x, y)
        got = snap.to_dict()
        for key, want in ref.items():
            out.append((f"gamma1_hat.{key} {label}", checks.close(got[key], want),
                        f"{got[key]!r} vs {want!r}"))
    return out


def _asymptotic_report_checks(hd, label, x, y):
    out = []
    for stat in ("wmw", "cq2"):
        rep = hd.asymptotic_two_sample(x, y, stat, ALPHA)
        tail = checks.gaussian_tail(rep.z)
        out.append((f"asymptotic {stat} p = tail(z) {label}",
                    checks.close(rep.p_value, tail, rtol=1e-12), f"{rep.p_value!r} vs {tail!r}"))
    return out


def _exact_permutation_checks(hd, seed, stats):
    """All C(8, 4) = 70 relabelings at m = n = 4, on a null and a shifted
    pair, against the package's add-one estimate at 20000 resamples."""
    rng = np.random.default_rng([seed, 70])
    resamples = 20000
    out = []
    for shift in (0.0, 0.4):
        x = rng.standard_normal((4, 50))
        y = rng.standard_normal((4, 50)) + shift
        for stat in stats:
            band = checks.exact_permutation_band(x, y, stat)
            rep = hd.randomization_two_sample(x, y, stat, ALPHA, resamples, seed)
            out.append((f"exact permutation null {stat} shift {shift}",
                        checks.randomization_matches_exact(rep.p_value, resamples, band)
                        and checks.on_lattice(rep.p_value, resamples),
                        f"p {rep.p_value!r}, exact in [{band[0]!r}, {band[1]!r}]"))
    return out


def _exact_signflip_checks(hd, seed):
    """All 2^8 sign patterns at n = 8 for the sr sign-flip backend."""
    rng = np.random.default_rng([seed, 256])
    resamples = 20000
    out = []
    for shift in (0.0, 0.3):
        x = rng.standard_normal((8, 50)) + shift
        band = checks.exact_signflip_band(x)
        rep = hd.randomization_one_sample(x, "sr", ALPHA, resamples, seed)
        out.append((f"exact sign-flip null sr shift {shift}",
                    checks.randomization_matches_exact(rep.p_value, resamples, band)
                    and checks.on_lattice(rep.p_value, resamples),
                    f"p {rep.p_value!r}, exact in [{band[0]!r}, {band[1]!r}]"))
    return out


class PowerStudy:
    """``run_power_study`` at m = n = 20; one round is one study with
    ``reps`` replicates per grid point, seeded from (seed, round)."""

    def __init__(self, hd, seed, model, grid, tests, reps, n_resamples=500):
        self.hd, self.seed = hd, seed
        self.model, self.grid, self.tests = model, grid, tests
        self.reps, self.n_resamples = reps, n_resamples
        self.datasets_per_round = self.ops_per_round = reps * len(grid)
        # One {(d, c, stat, method): hits} per timed round; rounds are
        # independent, and within a round every test sees the same datasets.
        self.round_hits = []
        self.off_grid = []

    def _study(self, index):
        plan = self.hd.ExperimentPlan(
            model=self.model, grid=self.grid, m=20, n=20, tests=self.tests,
            replications=self.reps, alpha=ALPHA, n_resamples=self.n_resamples,
            base_seed=_round_seed(self.seed, index),
        )
        return self.hd.run_power_study(plan)

    def round(self, index):
        hits = {}
        for p in self._study(index):
            if not checks.rate_on_grid(p.rejection_rate, p.replications):
                self.off_grid.append(f"{p.stat}:{p.method} at d={p.d}: {p.rejection_rate!r}")
            hits[(p.d, p.c, p.stat, p.method)] = round(p.rejection_rate * p.replications)
        self.round_hits.append(hits)

    def warm_up(self):
        self._study(0)

    def replicates(self):
        return self.reps * len(self.round_hits)

    def hits(self, key):
        return sum(h[key] for h in self.round_hits)

    def paired_check(self, points, test_a, test_b):
        """Rates of two tests over the grid points ``points`` agree, paired
        over rounds."""
        a = [sum(h[(d, c, *test_a)] for d, c in points) for h in self.round_hits]
        b = [sum(h[(d, c, *test_b)] for d, c in points) for h in self.round_hits]
        ok, detail = checks.paired_rates_agree(a, b, self.reps * len(points))
        where = ", ".join(f"d={d}" for d, _ in points)
        return (f"{test_a[0]}:{test_a[1]} and {test_b[0]}:{test_b[1]} rates agree at {where}",
                ok, detail)


class SphericalPerm(PowerStudy):
    GRID = ((100, 2.0), (200, 2.5))

    def __init__(self, hd, seed):
        super().__init__(hd, seed, "spherical-t5", self.GRID,
                         (("wmw", "permutation"), ("cq2", "permutation"),
                          ("wmw", "rsrm-oracle")), reps=1)

    def checks(self):
        rng = np.random.default_rng([self.seed, 1])
        out = [_grid_check(self.off_grid)]
        for d, c in self.GRID:
            x = rng.standard_normal((20, d)) / np.sqrt(rng.chisquare(5, (20, 1)) / 5)
            y = rng.standard_normal((20, d)) / np.sqrt(rng.chisquare(5, (20, 1)) / 5)
            y[:, 0] += c
            out += _stat_checks(self.hd, f"d={d}", x, y)
            for stat in ("wmw", "cq2"):
                want, scale = getattr(checks, f"t_{stat}")(x, y)
                rep = self.hd.randomization_two_sample(x, y, stat, ALPHA, 1, self.seed)
                out.append((f"permutation observed {stat} d={d}",
                            checks.close(rep.statistic, want, scale),
                            f"{rep.statistic!r} vs {want!r}"))
        out += _exact_permutation_checks(self.hd, self.seed, ("wmw", "cq2"))
        # Both points in one check: about 70 replicates per run, against 35
        # per point.
        out.append(self.paired_check(self.GRID, ("wmw", "permutation"), ("wmw", "rsrm-oracle")))
        return out


def _grid_check(off_grid):
    return ("every rate is a multiple of 1/replicates", not off_grid, "; ".join(off_grid[:3]))


def _ar1_rows(rng, n, d, rho=0.7):
    x = np.empty((n, d))
    x[:, 0] = rng.standard_normal(n) / np.sqrt(1.0 - rho * rho)
    eps = rng.standard_normal((n, d))
    for k in range(1, d):
        x[:, k] = rho * x[:, k - 1] + eps[:, k]
    return x


class Ar1Asym(PowerStudy):
    # Shifts give power near 0.55 at both dimensions.
    GRID = ((100, 0.0), (100, 3.0), (1000, 0.0), (1000, 5.3))

    def __init__(self, hd, seed):
        super().__init__(hd, seed, "ar1-gauss", self.GRID,
                         (("wmw", "asymptotic"), ("cq2", "asymptotic")), reps=5)

    def checks(self):
        rng = np.random.default_rng([self.seed, 1])
        out = [_grid_check(self.off_grid)]
        for d in (100, 1000):
            x = _ar1_rows(rng, 20, d)
            y = _ar1_rows(rng, 20, d)
            y[:, 0] += 3.0
            out += _stat_checks(self.hd, f"d={d}", x, y, nuisance=True)
            out += _asymptotic_report_checks(self.hd, f"d={d}", x, y)
        reps = self.replicates()
        for d, c in self.GRID:
            if c == 0.0:
                for stat in ("wmw", "cq2"):
                    hits = self.hits((d, c, stat, "asymptotic"))
                    out.append((f"{stat} asymptotic size at d={d}",
                                *checks.size_ok(hits, reps, ALPHA, checks.ASYMPTOTIC_SIZE_SLACK)))
            else:
                out.append(self.paired_check([(d, c)], ("wmw", "asymptotic"),
                                             ("cq2", "asymptotic")))
        return out


class SubsampleReal:
    """``run_subsample_protocol`` on two fixed classes of 69 and 31 rows.

    The classes stand in for a real two-class dataset: independent
    coordinates with log-normal scales, and a mean difference on 5% of the
    coordinates between the classes."""

    TESTS = (("cq2", "asymptotic"), ("wmw", "asymptotic"), ("cq2", "permutation"))
    D = 2000

    def __init__(self, hd, seed):
        self.hd, self.seed = hd, seed
        rng = np.random.default_rng([seed, 0])
        scale = np.exp(0.5 * rng.standard_normal(self.D))
        shift = np.zeros(self.D)
        shift[:100] = 0.6 * scale[:100]
        self.class_a = rng.standard_normal((69, self.D)) * scale
        self.class_b = rng.standard_normal((31, self.D)) * scale + shift
        self.reps = 4
        self.datasets_per_round = self.ops_per_round = 3 * self.reps
        self.size_hits = {t: 0 for t in self.TESTS}
        self.size_reps = 0
        self.off_grid = []

    def round(self, index):
        rows = self.hd.run_subsample_protocol(
            self.class_a, self.class_b, 0.2, self.reps, self.TESTS, ALPHA, 500,
            _round_seed(self.seed, index),
        )
        for row in rows:
            if not (checks.rate_on_grid(row.size, 2 * row.repetitions)
                    and checks.rate_on_grid(row.power, row.repetitions)):
                self.off_grid.append(f"{row.stat}:{row.method}: {row.size!r}, {row.power!r}")
            self.size_hits[(row.stat, row.method)] += round(row.size * 2 * row.repetitions)
        self.size_reps += 2 * self.reps

    def warm_up(self):
        self.round(0)

    def checks(self):
        rng = np.random.default_rng([self.seed, 1])
        out = [_grid_check(self.off_grid)]
        a, b = self.class_a, self.class_b
        k_a, k_b = int(0.2 * len(a)), int(0.2 * len(b))
        # The protocol's three shapes: disjoint halves of one class, and one
        # subsample of each class.
        for label, x, y in (
            ("size a", *np.split(a[rng.permutation(len(a))[: 2 * k_a]], 2)),
            ("size b", *np.split(b[rng.permutation(len(b))[: 2 * k_b]], 2)),
            ("power", a[rng.permutation(len(a))[:k_a]], b[rng.permutation(len(b))[:k_b]]),
        ):
            out += _stat_checks(self.hd, f"{label} {len(x)}x{len(y)}", x, y, nuisance=True)
        out += _exact_permutation_checks(self.hd, self.seed, ("cq2",))
        for (stat, method), hits in self.size_hits.items():
            slack = (checks.ASYMPTOTIC_SIZE_SLACK if method == "asymptotic"
                     else checks.RANDOMIZATION_SIZE_SLACK)
            out.append((f"{stat}:{method} size",
                        *checks.size_ok(hits, self.size_reps, ALPHA, slack)))
        return out


def _write_csv(path, matrix):
    """One row per line, cells in repr format, as dataio documents."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(",".join(map(repr, row)) + "\n" for row in matrix.tolist()))


def _read_csv(path):
    with open(path, encoding="utf-8") as handle:
        return np.array([[float(c) for c in line.split(",")] for line in handle if line.strip()])


def _report_problems(name, rep, wmw, sr, nuis):
    """What is wrong with one CLI JSON report, given the brute-force
    (value, scale) of t_wmw and t_sr and the nuisance fields."""
    problems = []
    want, scale = sr if name == "one_sample_flip" else wmw
    if not checks.close(rep["statistic"], want, scale):
        problems.append(f"statistic {rep['statistic']!r} vs {want!r}")
    if name == "two_sample_asym":
        if not checks.close(rep["p_value"], checks.gaussian_tail(rep["z"]), rtol=1e-12):
            problems.append(f"p {rep['p_value']!r} is not the tail of z {rep['z']!r}")
        for key, value in nuis.items():
            if not checks.close(rep["nuisance"][key], value):
                problems.append(f"{key} {rep['nuisance'][key]!r} vs {value!r}")
    elif not checks.on_lattice(rep["p_value"], rep["n_resamples"]):
        problems.append(f"p {rep['p_value']!r} is off the k/(R+1) lattice")
    return problems


class CliCsv:
    """A closed loop of ``hdsigntest`` processes on one seeded CSV pair of
    40 + 40 rows x 5000 columns; one round is the calls in ROUND, one at a
    time.  In the traced run the calls go through ``cli.main`` in-process.

    The round is weighted towards what only this workload measures:
    interpreter start-up, CSV parsing and report writing carry about half
    of it, so that a regression there can cross the rate's bound.  The
    resampling calls use 10 resamples; they still build the N^2 d
    pair-sign tensors that set the peak RSS, and the resampling kernels
    are measured at full size by the study workloads."""

    CALLS = {
        "two_sample_asym": ["two-sample", "--stat", "wmw", "--method", "asymptotic"],
        "two_sample_perm": ["two-sample", "--stat", "wmw", "--method", "permutation",
                            "--perms", "10"],
        "one_sample_flip": ["one-sample", "--stat", "sr", "--method", "signflip",
                            "--perms", "10"],
    }
    ROUND = ("two_sample_asym",) * 4 + ("two_sample_perm", "one_sample_flip")
    datasets_per_round = 1
    ops_per_round = len(ROUND)

    def __init__(self, hd, seed, work, traced=False):
        self.hd, self.seed, self.traced = hd, seed, traced
        rng = np.random.default_rng([seed, 0])
        self.x_path = os.path.join(work, "x.csv")
        self.y_path = os.path.join(work, "y.csv")
        _write_csv(self.x_path, rng.standard_normal((40, 5000)))
        _write_csv(self.y_path, rng.standard_normal((40, 5000)) + 0.03)
        self.times = {name: [] for name in self.CALLS}
        self.peak_rss_mb = {name: 0.0 for name in self.CALLS}
        self.reports = []  # (call name, exit code, stdout text)

    def _argv(self, name):
        argv = list(self.CALLS[name])
        argv[1:1] = ["--x", self.x_path] + ([] if argv[0] == "one-sample" else ["--y", self.y_path])
        return argv

    def _call(self, name):
        argv = self._argv(name)
        start = time.perf_counter()
        if self.traced:
            out = io.StringIO()
            code = self.hd.cli.main(argv, out=out, err=io.StringIO())
            text, rss = out.getvalue(), 0.0
        else:
            proc = subprocess.Popen([sys.executable, "-m", "hdsigntest.cli"] + argv,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL)
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                text = proc.stdout.read().decode()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                proc.stdout.close()
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss / 1024.0
        return time.perf_counter() - start, code, text, rss

    def warm_up(self):
        """One asymptotic call: it imports the package and reads both files
        once."""
        self._call("two_sample_asym")

    def round(self, index):
        for name in self.ROUND:
            seconds, code, text, rss = self._call(name)
            self.times[name].append(seconds)
            self.peak_rss_mb[name] = max(self.peak_rss_mb[name], rss)
            self.reports.append((name, code, text))

    def call_checks(self):
        """Per-call checks; returns (checks, number of failed calls)."""
        x, y = _read_csv(self.x_path), _read_csv(self.y_path)
        wmw, sr = checks.t_wmw(x, y), checks.t_sr(x)
        nuis = checks.nuisance_two_sample(x, y)
        failed, notes = 0, []
        for name, code, text in self.reports:
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                try:
                    problems = _report_problems(name, json.loads(text), wmw, sr, nuis)
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable report: {exc!r}"]
            if problems:
                failed += 1
                notes.append(f"{name}: " + "; ".join(problems))
        return [("every CLI call exits 0 and passes its checks", not notes, "; ".join(notes[:3]))], failed

    def checks(self):
        return (_exact_permutation_checks(self.hd, self.seed, ("wmw",))
                + _exact_signflip_checks(self.hd, self.seed))


WORKLOADS = {
    "spherical-perm": SphericalPerm,
    "ar1-asym": Ar1Asym,
    "subsample-real": SubsampleReal,
    "cli-csv": CliCsv,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    import hdsigntest as hd
    import hdsigntest.cli  # noqa: F401

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(hd.__file__).startswith(src + os.sep):
        sys.exit(f"hdsigntest was imported from {hd.__file__}, not from {src}")

    cls = WORKLOADS[args.workload]
    if cls is CliCsv:
        workload = cls(hd, args.seed, args.work, traced=bool(args.trace))
    else:
        workload = cls(hd, args.seed)
    workload.warm_up()
    ready = time.monotonic()
    if tracer is not None:
        tracer.spans, tracer.counts = [], {}  # the warm-up round is not measured
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return

    round_seconds, attempted, failed, errors = [], 0, 0, []
    start = time.perf_counter()
    index = 1
    while True:
        t0 = time.perf_counter()
        try:
            workload.round(index)
        except Exception as exc:  # a failing round is counted, not fatal
            failed += workload.ops_per_round
            errors.append(f"round {index}: {type(exc).__name__}: {exc}")
        round_seconds.append(time.perf_counter() - t0)
        attempted += workload.ops_per_round
        index += 1
        timed_s = time.perf_counter() - start
        if timed_s >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        # Stop collecting before the reference checks call into the package.
        layers, counts, absent, spans = tracer.layer_totals(), tracer.counts, tracer.absent, tracer.spans
        tracer.spans, tracer.counts = [], {}
    results = []
    if isinstance(workload, CliCsv):
        call_results, failed_calls = workload.call_checks()
        results += call_results
        failed += failed_calls
        peak_rss_mb = max(workload.peak_rss_mb.values())
        result["call_seconds"] = workload.times
        result["call_peak_rss_mb"] = workload.peak_rss_mb
    results += workload.checks()
    if errors:
        results.append(("no round raised", False, "; ".join(errors[:3])))

    result.update({
        "attempted": attempted,
        "failed": failed,
        "datasets_per_round": workload.datasets_per_round,
        "timed_s": timed_s,
        "round_seconds": round_seconds,
        "peak_rss_mb": peak_rss_mb,
        "checks": results,
        "tracer_imported": "tracer" in sys.modules,
    })
    if tracer is not None:
        result["layers"] = layers
        result["counts"] = counts
        result["absent"] = absent
        result["spans"] = len(spans)
        result["wrapper_cost_s"] = tracer_module.wrapper_cost()
        result["traced_layers"] = [f"{mod}.{fn}" for mod, fn, _ in tracer_module.LAYERS]
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, handle)
        if isinstance(workload, CliCsv):
            result["startup_s"] = _startup_seconds()
    print(json.dumps(result, default=bool))


def _startup_seconds(repeats=3):
    """Median wall time of a fresh interpreter importing hdsigntest.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hdsigntest.cli"], check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    main()
