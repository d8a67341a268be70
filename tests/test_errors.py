"""Typed input errors: every invalid argument raises InvalidInputError, an
HDTestError that is also a ValueError, and no module of the package
raises a bare ValueError or TypeError.  Also the package namespace: a star
import binds no submodule."""

import ast
import pathlib
import statistics
import types

import numpy as np
import pytest

import hdsigntest
from hdsigntest import (
    HDTestError,
    InvalidInputError,
    RsrmAuxiliary,
    asymptotic_two_sample,
    one_sample_z,
    randomization_one_sample,
    randomization_two_sample,
    spatial_sign,
    t_cq2,
    t_s,
    t_wmw,
    two_sample_z,
)
from hdsigntest._selftest import run_selftest
from hdsigntest.inference import evaluate_one_sample, evaluate_two_sample
from hdsigntest.statistics import as_matrix


def test_no_untyped_raise_in_package():
    # A bare ValueError or TypeError carries no package type; raise a
    # subclass of HDTestError instead (InvalidInputError for bad values).
    found = []
    for path in sorted(pathlib.Path(hdsigntest.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.append(f"{path.name}:{node.lineno} raises {exc.id}")
    assert not found, found


def test_star_import_binds_no_module():
    assert not [name for name in hdsigntest.__all__
                if isinstance(getattr(hdsigntest, name), types.ModuleType)]
    namespace = {}
    exec("import statistics\nfrom hdsigntest import *", namespace)
    assert namespace["statistics"] is statistics
    assert namespace["t_wmw"] is hdsigntest.t_wmw


def test_invalid_input_error_is_a_value_error():
    assert issubclass(InvalidInputError, HDTestError)
    assert issubclass(InvalidInputError, ValueError)


class TestAsMatrix:
    def test_names_first_nonfinite_entry(self):
        arr = np.zeros((4, 3))
        arr[2, 1] = np.inf
        arr[3, 0] = np.nan
        want = r"^y has a non-finite entry inf at row 2, column 1$"
        with pytest.raises(InvalidInputError, match=want):
            as_matrix(arr, "y")

    def test_public_statistic_names_the_sample(self):
        x = np.ones((3, 4))
        y = np.ones((3, 4))
        y[1, 3] = np.nan
        want = "y has a non-finite entry nan at row 1, column 3"
        with pytest.raises(InvalidInputError, match=want):
            t_wmw(x, y)

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((0, 2)), np.zeros((2, 0))])
    def test_shape(self, bad):
        with pytest.raises(InvalidInputError, match="^x must"):
            t_s(bad)


@pytest.mark.parametrize("call", [
    lambda: spatial_sign([]),
    lambda: spatial_sign([1.0, np.inf]),
    # Every statistic, estimator and evaluator enters through as_matrix.
    lambda: t_wmw(np.eye(4) * (1 + 1j), np.eye(4) + 1.0),
    lambda: t_cq2([["1", "x"], ["2", "3"]], np.eye(2)),
    lambda: asymptotic_two_sample(np.eye(4), np.eye(4), "wmw", alpha=1.5),
    lambda: asymptotic_two_sample(np.eye(4), np.eye(4), "wmw", alpha="0.05"),
    lambda: evaluate_one_sample(np.eye(4), [("s", "asymptotic")], alpha=None),
    lambda: one_sample_z("wmw", 1.0, 3, 1.0, 1.0),
    lambda: two_sample_z("sr", 1.0, 3, 1.0, 1.0, 1.0),
    lambda: evaluate_two_sample(np.eye(4), np.eye(4), [("cq1", "asymptotic")]),
    lambda: evaluate_one_sample(np.eye(4), [("s", "permutation")]),
    lambda: run_selftest(0),
    lambda: run_selftest(1.5),
    lambda: run_selftest(1, seed=-1),
    lambda: randomization_two_sample(np.eye(4), np.eye(4), "wmw", n_resamples=2.5),
    lambda: randomization_two_sample(np.eye(4), np.eye(4), "wmw", seed=-1),
    lambda: randomization_one_sample(np.eye(4), "sr", n_resamples=2.5),
    lambda: randomization_one_sample(np.eye(4), "sr", seed=-1),
    lambda: randomization_two_sample(np.eye(4), np.eye(4), "wmw", seed=3.0),
    lambda: randomization_one_sample(np.eye(4), "sr", seed="7"),
    lambda: evaluate_two_sample(np.eye(4), np.eye(4) + 1.0, [("cq2", "permutation")],
                                rng=[1, -2]),
    lambda: evaluate_two_sample(np.eye(4), np.eye(4), [("wmw", "asymptotic")], n_resamples=0),
    lambda: evaluate_one_sample(np.eye(4), [("s", "asymptotic")], rng=-1),
    lambda: evaluate_one_sample(np.eye(4), [("cq1", "rsrm-oracle")], n_resamples=2.5,
                                aux=RsrmAuxiliary(np.ones(4), 1.0, 4.0)),
], ids=["sign-empty", "sign-nonfinite", "complex-data", "string-data",
        "alpha", "alpha-string", "alpha-none",
        "one-sample-z", "two-sample-z", "statistic", "method", "trials",
        "trials-fraction", "selftest-seed",
        "perm-count-fraction", "perm-seed", "flip-count-fraction", "flip-seed",
        "perm-seed-float", "flip-seed-string", "perm-seed-sequence",
        "asym-count", "asym-seed", "oracle-count-fraction"])
def test_invalid_values(call):
    with pytest.raises(InvalidInputError):
        call()


def test_resample_count_checked_once_for_both_cores():
    # Both evaluators check the count for every test list, before any
    # statistic is computed.
    x = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(InvalidInputError, match="n_resamples must be at least 1, got 0"):
        evaluate_two_sample(x, x + 1.0, [("wmw", "permutation")], n_resamples=0)
    with pytest.raises(InvalidInputError, match="n_resamples must be at least 1, got -2"):
        evaluate_one_sample(x, [("sr", "signflip")], n_resamples=-2)
    with pytest.raises(InvalidInputError, match="n_resamples must be at least 1, got 0"):
        evaluate_two_sample(x, x[:1], [("cq2", "asymptotic")], n_resamples=0)
