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

# Rounding guard for boundary arithmetic: values this close to 0 are clamped.
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
    observed geometric-lag process with

        lambda' = lambda * q / (1 - alpha * (1 - q))
        beta'   = alpha * q
        gamma'  = alpha * (1 - q)

    so underreporting and geometric lag decay are two descriptions of one law.
    """
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"reporting probability must lie in (0, 1], got {q}")
    lam = inar1.lambda_ * q / (1.0 - inar1.alpha * (1.0 - q))
    return GeomInarSpec(lambda_=lam, beta=inar1.alpha * q, gamma=inar1.alpha * (1.0 - q))


def split_reporting(spec: GeomInarSpec) -> CanonicalForm:
    """Rewrite a fully observed geometric-lag process as a thinned first-order one.

    Inverse of :func:`absorb_reporting`:

        lambda_star = lambda * (beta + gamma) * (1 - gamma) / beta
        alpha_star  = beta + gamma
        q_star      = beta / (beta + gamma)

    A spec with gamma = 0 is already first order and maps to itself with
    q_star = 1. With beta = 0 but gamma > 0 no first-order representative
    exists and a DegenerateClassError is raised.
    """
    if spec.gamma == 0.0:
        return CanonicalForm(spec.lambda_, spec.beta, 1.0)
    if spec.beta == 0.0:
        raise DegenerateClassError(
            "no first-order representative: all lag weights vanish (beta = 0) "
            "while the decay factor is positive"
        )
    alpha = spec.beta + spec.gamma
    lam = spec.lambda_ * alpha * (1.0 - spec.gamma) / spec.beta
    return CanonicalForm(lam, alpha, spec.beta / alpha)


def admissible_reporting_interval(model: UnderreportedModel) -> tuple[float, float]:
    """Closed interval of reporting probabilities reachable by :func:`shift_reporting`."""
    beta, gamma = model.latent.beta, model.latent.gamma
    if beta + gamma == 0.0:
        return (0.0, 1.0)  # i.i.d. class: any positive q works
    return (model.q * beta / (beta + gamma), 1.0)


def _clamp_boundary(value: float) -> float:
    return 0.0 if -_BOUNDARY_EPS < value < 0.0 else value


def shift_reporting(model: UnderreportedModel, q_target: float) -> UnderreportedModel:
    """Re-express a model at a different reporting probability, same observed law.

    For any q_target in the admissible interval there is exactly one latent
    process whose thinning by q_target reproduces the observed distribution:
    with r = q / q_target,

        lambda' = lambda * (1 - gamma) * r / (1 - gamma - (1 - r) * beta)
        beta'   = beta * r
        gamma'  = gamma + (1 - r) * beta

    The interval's lower endpoint lands on the canonical first-order member
    (gamma' = 0); q_target = 1 gives the fully observed representation. A
    non-finite q_target is a ParameterError, not a point outside the interval.
    """
    if not math.isfinite(q_target):
        raise ParameterError(f"target reporting probability must be finite, got {q_target}")
    lower, upper = admissible_reporting_interval(model)
    if not lower - _BOUNDARY_EPS <= q_target <= upper or q_target <= 0.0:
        raise AdmissibleRangeError(q_target, lower, upper)
    lam, beta, gamma = model.latent.lambda_, model.latent.beta, model.latent.gamma
    r = model.q / q_target
    new_beta = beta * r
    new_gamma = _clamp_boundary(gamma + (1.0 - r) * beta)
    new_lam = lam * (1.0 - gamma) * r / (1.0 - gamma - (1.0 - r) * beta)
    return UnderreportedModel(
        latent=GeomInarSpec(new_lam, new_beta, new_gamma), q=float(q_target)
    )


def canonicalize(model: UnderreportedModel) -> CanonicalForm:
    """Map a model to its class representative: the thinned first-order member.

    Composition of :func:`split_reporting` with the observed thinning:
    alpha_star = beta + gamma, q_star = q * beta / (beta + gamma),
    lambda_star = lambda * (beta + gamma) * (1 - gamma) / beta. Models are
    equivalent exactly when their canonical forms agree.
    """
    beta, gamma = model.latent.beta, model.latent.gamma
    if beta == 0.0 and gamma == 0.0:
        # i.i.d. Poisson class; its unique member with first-order structure
        # is the fully observed Poisson with the observed mean.
        return CanonicalForm(model.q * model.latent.lambda_, 0.0, 1.0)
    inner = split_reporting(model.latent)
    return CanonicalForm(inner.lambda_star, inner.alpha_star, model.q * inner.q_star)


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
    reproduces the canonical lower endpoint and the last the fully observed
    representation.
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
