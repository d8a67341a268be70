"""Seeded synthetic-data generators for the simulation models.

Every generator is a pure function of (spec, n, seed): the mean shift is
added after all random draws, so the noise stream is identical for any
shift, and per-replicate reproducibility only needs a derived seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidSpecError, NonpositiveScaleError
from .errors import require_counts, require_integers, require_reals, require_seed

AR1_GAUSS = "ar1-gauss"
AR1_T5 = "ar1-t5"
SPHERICAL_T5 = "spherical-t5"
EQUICORR_GAUSS = "equicorr-gauss"
MODEL_NAMES = (AR1_GAUSS, AR1_T5, SPHERICAL_T5, EQUICORR_GAUSS)

SHIFT_FIRST = "first-coordinate"
SHIFT_SPREAD = "spread-equally"


@dataclass(frozen=True)
class RsrmAuxiliary:
    """Latent scale variables and population traces of a randomly scaled
    sample, known only in simulation.

    ``p_scales`` holds the per-observation scale of the first (or only)
    sample; ``q_scales`` of the second.  The trace fields are population
    values of the latent unscaled components.
    """

    p_scales: np.ndarray
    sigma_v_sq: float
    tr_sigma_v_sq: float
    q_scales: np.ndarray | None = None
    sigma_w_sq: float | None = None
    tr_sigma_w_sq: float | None = None
    tr_sigma_vw: float | None = None


@dataclass(frozen=True)
class MeanShift:
    """Mean vector of a generated sample.

    first-coordinate puts the whole magnitude c on coordinate 1;
    spread-equally uses c/sqrt(d) on every coordinate so that the norm of
    the mean is c in both styles and power points stay comparable.  Either
    style at magnitude 0, as in the default, is no shift.
    """

    style: str = SHIFT_FIRST
    magnitude: float = 0.0

    def __post_init__(self):
        if self.style not in (SHIFT_FIRST, SHIFT_SPREAD):
            raise InvalidSpecError(f"unknown shift style {self.style!r}")
        require_reals(InvalidSpecError, magnitude=self.magnitude)
        if not 0.0 <= self.magnitude < math.inf:
            raise InvalidSpecError(f"shift must be finite and nonnegative, got {self.magnitude}")

    def mean_vector(self, d: int) -> np.ndarray:
        mu = np.zeros(d)
        if self.style == SHIFT_FIRST:
            mu[0] = self.magnitude
        else:
            mu[:] = self.magnitude / math.sqrt(d)
        return mu


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one synthetic data model plus shift."""

    model: str
    d: int
    rho: float = 0.7
    beta: float = 0.7
    df: float = 5.0
    shift: MeanShift = field(default_factory=MeanShift)
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise InvalidSpecError(f"unknown model {self.model!r}")
        require_integers(InvalidSpecError, d=self.d)
        require_seed(InvalidSpecError, "seed", self.seed)
        require_reals(InvalidSpecError, rho=self.rho, beta=self.beta, df=self.df)
        if self.d < 1:
            raise InvalidSpecError("dimension must be at least 1")
        if not -1.0 < self.rho < 1.0:
            raise InvalidSpecError("AR coefficient must satisfy |rho| < 1")
        if not 0.0 < self.beta < 1.0:
            raise InvalidSpecError("equicorrelation must be in (0, 1)")
        if not self.df > 0.0:
            raise InvalidSpecError("degrees of freedom must be positive")
        if self.model == AR1_T5 and not self.df > 2.0:
            raise InvalidSpecError(
                "t innovations need df > 2 to be standardized to unit variance"
            )

    def with_shift(self, style: str, magnitude: float) -> "GeneratorSpec":
        return replace(self, shift=MeanShift(style, magnitude))


def _rng_for(spec: GeneratorSpec, rng) -> np.random.Generator:
    return np.random.default_rng(spec.seed) if rng is None else rng


def gen_ar1(spec: GeneratorSpec, n: int, rng=None) -> np.ndarray:
    """Each row is an AR(1) path over its d coordinates with unit-variance
    innovations (Gaussian, or t(df) rescaled to variance one).

    The Gaussian chain starts from its stationary marginal
    N(0, 1/(1 - rho^2)); the t chain has no closed-form stationary start
    and instead discards a burn-in of 10 * ceil(1/(1 - |rho|)) coordinates.

    Both chains run one recursion over the coordinates, in place on a
    (burn + d, n) array of innovations whose row 0 holds the start, so each
    step reads and writes contiguous rows.  The result is C-ordered.
    """
    if spec.model not in (AR1_GAUSS, AR1_T5):
        raise InvalidSpecError(f"gen_ar1 cannot generate model {spec.model!r}")
    require_counts(InvalidSpecError, n=n)
    rng = _rng_for(spec, rng)
    d, rho = spec.d, spec.rho
    if spec.model == AR1_GAUSS:
        burn = 0
        start = rng.standard_normal(n) / math.sqrt(1.0 - rho * rho)
        eps = rng.standard_normal((n, d))
        eps[:, 0] = start
    else:
        burn = 10 * math.ceil(1.0 / (1.0 - abs(rho)))
        scale = math.sqrt((spec.df - 2.0) / spec.df)
        eps = rng.standard_t(spec.df, size=(n, burn + d)) * scale
    path = np.ascontiguousarray(eps.T)
    tmp = np.empty(n)
    # x_k = rho * x_{k-1} + eps_k, rounded as the product, then the sum.
    for prev, row in zip(path, path[1:]):
        np.multiply(prev, rho, out=tmp)
        np.add(tmp, row, out=row)
    return np.add(path[burn:].T, spec.shift.mean_vector(d), out=np.empty((n, d)))


def gen_spherical_t(spec: GeneratorSpec, n: int, rng=None):
    """Spherical t(df) rows: standard Gaussian vectors divided by
    independent per-row scales sqrt(chi2_df / df), drawn by
    ``gen_rsrm_custom``.

    Returns the sample and the auxiliary holding the realized scales with
    the population values of the latent Gaussian component (variance 1,
    tr(Sigma^2) = d).  df = inf degenerates to the spherical Gaussian.
    """
    if spec.model != SPHERICAL_T5:
        raise InvalidSpecError(f"gen_spherical_t cannot generate model {spec.model!r}")
    df = spec.df

    def scale_law(rng, n):
        return np.ones(n) if math.isinf(df) else np.sqrt(rng.chisquare(df, size=n) / df)

    return gen_rsrm_custom(
        spec, n, lambda rng, n, d: rng.standard_normal((n, d)), scale_law, rng=rng
    )


def gen_equicorr_gauss(spec: GeneratorSpec, n: int, rng=None) -> np.ndarray:
    """Gaussian rows with covariance (1 - beta) I + beta 11', generated by
    the exact factorization sqrt(1-beta) Z + sqrt(beta) z0 1.
    """
    if spec.model != EQUICORR_GAUSS:
        raise InvalidSpecError(
            f"gen_equicorr_gauss cannot generate model {spec.model!r}"
        )
    require_counts(InvalidSpecError, n=n)
    rng = _rng_for(spec, rng)
    z = rng.standard_normal((n, spec.d))
    z0 = rng.standard_normal(n)
    x = math.sqrt(1.0 - spec.beta) * z + math.sqrt(spec.beta) * z0[:, None]
    return x + spec.shift.mean_vector(spec.d)


def gen_rsrm_custom(
    spec: GeneratorSpec,
    n: int,
    base,
    scale_law,
    sigma_v_sq: float = 1.0,
    tr_sigma_v_sq: float | None = None,
    rng=None,
):
    """Randomly scaled rows V_i / P_i + mu from a user-supplied base
    generator of zero-mean rows and a positive scale sampler.

    ``base(rng, n, d)`` must return an (n, d) array; ``scale_law(rng, n)``
    a length-n array of strictly positive scales.  The base rows are drawn
    before the scales, so a constant scale law of one reproduces the base
    output exactly.  Population traces are caller-supplied (they cannot be
    estimated from data); by default the base is assumed isotropic with
    unit variance, giving tr(Sigma_V^2) = d.
    """
    require_counts(InvalidSpecError, n=n)
    rng = _rng_for(spec, rng)
    rows = np.asarray(base(rng, n, spec.d), dtype=float)
    if rows.shape != (n, spec.d):
        raise InvalidSpecError(
            f"base generator returned shape {rows.shape}, expected {(n, spec.d)}"
        )
    scales = np.asarray(scale_law(rng, n), dtype=float).ravel()
    if scales.size != n:
        raise InvalidSpecError(f"scale law returned {scales.size} values for n={n}")
    if not np.isfinite(scales).all() or (scales <= 0.0).any():
        raise NonpositiveScaleError("scale law produced a nonpositive value")
    x = rows / scales[:, None] + spec.shift.mean_vector(spec.d)
    aux = RsrmAuxiliary(
        p_scales=scales,
        sigma_v_sq=sigma_v_sq,
        tr_sigma_v_sq=float(spec.d) if tr_sigma_v_sq is None else tr_sigma_v_sq,
    )
    return x, aux


def generate(spec: GeneratorSpec, n: int, rng=None):
    """Generate a sample from any named model.

    Returns (matrix, auxiliary); the auxiliary is None for models without
    latent scales.
    """
    if spec.model in (AR1_GAUSS, AR1_T5):
        return gen_ar1(spec, n, rng), None
    if spec.model == SPHERICAL_T5:
        return gen_spherical_t(spec, n, rng)
    # ``GeneratorSpec`` refuses any other model.
    return gen_equicorr_gauss(spec, n, rng), None
