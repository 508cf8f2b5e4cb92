"""Exact transforms between equivalent underreported-process parameterizations.

An underreported geometric-lag process is not identifiable: a whole family of
(latent parameters, reporting probability) pairs produces the same observed
law. The functions here move within one such family in closed form, pick its
unique first-order representative, and expand lag weights for display. All
operations are pure arithmetic, exact to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import AdmissibleRangeError, DegenerateClassError, ParameterError
from .specs import GeomInarSpec, Inar1Spec

# Rounding guard: a target this far below the admissible interval still maps to its lower end.
_BOUNDARY_EPS = 1e-12

# Most rows expand_lags or equivalence_curve produces; a request for more is rejected.
_MAX_ROWS = 10**6


@dataclass(frozen=True)
class UnderreportedModel:
    """A latent geometric-lag process observed through thinning with probability q."""

    latent: GeomInarSpec
    q: float

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ParameterError(f"reporting probability must lie in (0, 1], got {self.q}")

    @classmethod
    def from_inar1(cls, spec: Inar1Spec, q: float) -> "UnderreportedModel":
        """Embed a first-order latent process (beta = alpha, gamma = 0)."""
        return cls(latent=GeomInarSpec(spec.lambda_, spec.alpha, 0.0), q=q)

    @property
    def observed_mean(self) -> float:
        return self.q * self.latent.stationary_mean


@dataclass(frozen=True)
class CanonicalForm:
    """The unique first-order representative of an equivalence class.

    A latent process with rate lambda_star and survival alpha_star, observed
    through thinning with probability q_star; its latent decay factor is 0 by
    construction. Two models are equivalent exactly when their canonical
    forms agree componentwise.
    """

    lambda_star: float
    alpha_star: float
    q_star: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_star) and self.lambda_star > 0):
            raise ParameterError(f"rate must be positive and finite, got {self.lambda_star}")
        if not 0.0 <= self.alpha_star < 1.0:
            raise ParameterError(
                f"survival probability must lie in [0, 1), got {self.alpha_star}"
            )
        if not 0.0 < self.q_star <= 1.0:
            raise ParameterError(
                f"reporting probability must lie in (0, 1], got {self.q_star}"
            )


def absorb_reporting(inar1: Inar1Spec, q: float) -> GeomInarSpec:
    """Fold thinning with probability q into the lag structure.

    The thinned first-order process q ∘ X is distributed exactly like a fully
    observed geometric-lag process: :func:`shift_reporting` to q = 1 gives

        lambda' = lambda * q / (1 - alpha * (1 - q))
        beta'   = alpha * q
        gamma'  = alpha * (1 - q)

    so underreporting and geometric lag decay are two descriptions of one law.
    """
    return shift_reporting(UnderreportedModel.from_inar1(inar1, q), 1.0).latent


def _q_star(model: UnderreportedModel) -> float:
    """q * beta / (beta + gamma): the class's lowest reporting probability."""
    beta, gamma = model.latent.beta, model.latent.gamma
    q_star = model.q if gamma == 0.0 else model.q * (beta / (beta + gamma))
    if q_star == 0.0 < beta:  # an underflow, not the i.i.d. class
        raise ParameterError(f"q * beta / (beta + gamma) underflows to 0 for beta = {beta}")
    return q_star


def admissible_reporting_interval(model: UnderreportedModel) -> tuple[float, float]:
    """Closed interval of reporting probabilities reachable by :func:`shift_reporting`."""
    if model.latent.beta == 0.0:
        return (0.0, 1.0)  # i.i.d. class: any positive q works
    return (_q_star(model), 1.0)


def shift_reporting(model: UnderreportedModel, q_target: float) -> UnderreportedModel:
    """Re-express a model at a different reporting probability, same observed law.

    For any q_target in the admissible interval there is exactly one latent
    process whose thinning by q_target reproduces the observed distribution:
    with r = q / q_target,

        lambda' = lambda * (1 - gamma) * r / (1 - gamma - (1 - r) * beta)
        beta'   = beta * r
        gamma'  = gamma + (1 - r) * beta

    A target at or just below the interval's lower end q_star returns the
    canonical first-order member, :func:`canonicalize`'s form with gamma' = 0
    exactly; q_target = 1 gives the fully observed representation. A
    non-finite q_target is a ParameterError, not a point outside the interval.
    """
    if not math.isfinite(q_target):
        raise ParameterError(f"target reporting probability must be finite, got {q_target}")
    lower, upper = admissible_reporting_interval(model)
    if not lower - _BOUNDARY_EPS <= q_target <= upper or q_target <= 0.0:
        raise AdmissibleRangeError(q_target, lower, upper)
    if q_target <= lower:
        c = canonicalize(model)
        return UnderreportedModel(GeomInarSpec(c.lambda_star, c.alpha_star, 0.0), c.q_star)
    lam, beta, gamma = model.latent.lambda_, model.latent.beta, model.latent.gamma
    r = model.q / q_target
    new_beta = beta * r
    new_gamma = max(0.0, gamma + (1.0 - r) * beta)
    new_lam = lam * (1.0 - gamma) * r / (1.0 - gamma - (1.0 - r) * beta)
    return UnderreportedModel(
        latent=GeomInarSpec(new_lam, new_beta, new_gamma), q=float(q_target)
    )


def canonicalize(model: UnderreportedModel) -> CanonicalForm:
    """Map a model to its class representative: the thinned first-order member.

    alpha_star = beta + gamma, q_star = q * beta / (beta + gamma) and
    lambda_star = lambda * (beta + gamma) * (1 - gamma) / beta; a first-order
    model (gamma = 0) is its own representative. With beta = 0 the stationary
    mean is lambda whatever gamma, so the class is i.i.d. Poisson and its
    representative the fully observed Poisson with the observed mean. Models
    are equivalent exactly when their canonical forms agree.
    """
    lam, beta, gamma = model.latent.lambda_, model.latent.beta, model.latent.gamma
    if beta == 0.0:
        return CanonicalForm(model.q * lam, 0.0, 1.0)
    lam_star = lam if gamma == 0.0 else lam * (beta + gamma) * (1.0 - gamma) / beta
    return CanonicalForm(lam_star, beta + gamma, _q_star(model))


def expand_lags(spec: GeomInarSpec, cutoff: float) -> list[tuple[int, float]]:
    """List lag weights beta * gamma**(i-1) while they stay at or above ``cutoff``.

    Weights equal to zero are never emitted. A cutoff of 0 with gamma > 0 is
    rejected, as the expansion would not terminate, and so is one that keeps
    more than ``_MAX_ROWS`` weights: floor(ln(cutoff / beta) / ln gamma) + 1
    of them, counted before any is listed.
    """
    if not cutoff >= 0:  # also rejects NaN
        raise ParameterError(f"cutoff must be nonnegative, got {cutoff}")
    if cutoff == 0 and spec.gamma > 0:
        raise ParameterError(
            "cutoff 0 with a positive decay factor requests a non-terminating expansion"
        )
    if spec.gamma > 0 and spec.beta >= cutoff:
        count = math.floor((math.log(cutoff) - math.log(spec.beta)) / math.log(spec.gamma)) + 1
        if count > _MAX_ROWS:
            raise ParameterError(
                f"cutoff {cutoff} keeps about {count} lag weights, more than "
                f"{_MAX_ROWS}; raise the cutoff"
            )
    terms: list[tuple[int, float]] = []
    # A subnormal weight that the product no longer shrinks ends the list too.
    weight, previous = spec.beta, math.inf
    while cutoff <= weight < previous and weight > 0.0:
        terms.append((len(terms) + 1, weight))
        weight, previous = weight * spec.gamma, weight
    return terms


class CurvePoint(NamedTuple):
    q_y: float
    lambda_y: float
    beta_y: float
    gamma_y: float


def equivalence_curve(model: UnderreportedModel, grid_size: int) -> list[CurvePoint]:
    """Trace the equivalence class over an even grid of reporting probabilities.

    Evaluates :func:`shift_reporting` on ``grid_size`` points (2 to
    ``_MAX_ROWS``) spanning the admissible interval inclusively; the first row
    is :func:`canonicalize`'s form exactly and the last the fully observed
    representation. The i.i.d. class (beta = 0) has no lower endpoint and
    raises DegenerateClassError.
    """
    if not 2 <= grid_size <= _MAX_ROWS:
        raise ParameterError(f"grid size must lie in [2, {_MAX_ROWS}], got {grid_size}")
    lower, upper = admissible_reporting_interval(model)
    if lower == 0.0:
        raise DegenerateClassError(
            "the i.i.d. class has no admissible-interval lower endpoint"
        )
    # np.linspace's arithmetic, bit for bit: start plus i steps, the last the end.
    step = (upper - lower) / (grid_size - 1)
    points = []
    for q_y in [lower + i * step for i in range(grid_size - 1)] + [upper]:
        shifted = shift_reporting(model, q_y)
        points.append(
            CurvePoint(
                q_y=shifted.q,
                lambda_y=shifted.latent.lambda_,
                beta_y=shifted.latent.beta,
                gamma_y=shifted.latent.gamma,
            )
        )
    return points


def write_curve_csv(points: list[CurvePoint], path) -> None:
    """Write ``points`` to ``path`` as CSV: the header ``q_Y,lambda_Y,beta_Y,gamma_Y``,
    then one row per point, every field in ``.6g``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("q_Y,lambda_Y,beta_Y,gamma_Y\n")
        fh.writelines(
            f"{p.q_y:.6g},{p.lambda_y:.6g},{p.beta_y:.6g},{p.gamma_y:.6g}\n" for p in points
        )
