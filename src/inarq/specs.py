"""Parameter specs of the latent processes and of the reporting mechanism.

Plain validated records, free of numpy, so the closed-form transforms can
use them without loading the simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


# Largest rate numpy's Poisson sampler accepts (its POISSON_LAM_MAX), from the
# int64 maximum; the same double as numpy's iinfo-based figure.
_POISSON_LAM_MAX = float((2**63 - 1) - 10 * math.sqrt(2**63 - 1))


def _require_rate(lam: float) -> None:
    if not (math.isfinite(lam) and 0 < lam <= _POISSON_LAM_MAX):
        raise ParameterError(
            f"immigration rate must be positive, finite and at most {_POISSON_LAM_MAX:.6g} "
            f"(the largest Poisson rate that can be sampled), got {lam}"
        )


@dataclass(frozen=True)
class Inar1Spec:
    """First-order process: X_t = alpha ∘ X_{t-1} + Poisson(lambda) immigration."""

    lambda_: float
    alpha: float

    def __post_init__(self):
        _require_rate(self.lambda_)
        if not 0.0 <= self.alpha < 1.0:
            raise ParameterError(f"survival probability must lie in [0, 1), got {self.alpha}")

    @property
    def stationary_mean(self) -> float:
        return self.lambda_ / (1.0 - self.alpha)


@dataclass(frozen=True)
class InarPSpec:
    """Order-p process with one thinning weight per lag; weights must sum below 1."""

    lambda_: float
    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        _require_rate(self.lambda_)
        if not all(a >= 0 and math.isfinite(a) for a in self.alphas):
            raise ParameterError("lag weights must be finite and nonnegative")
        if math.fsum(self.alphas) >= 1.0:
            raise ParameterError(
                f"lag weights must sum below 1, got {math.fsum(self.alphas)}"
            )

    @property
    def total_weight(self) -> float:
        return math.fsum(self.alphas)

    @property
    def stationary_mean(self) -> float:
        return self.lambda_ / (1.0 - self.total_weight)


@dataclass(frozen=True)
class GeomInarSpec:
    """Infinite-order process with geometrically decaying lag weights.

    Lag i carries weight beta * gamma**(i-1). Requires 0 <= beta < 1 - gamma
    and gamma >= 0; beta = 0 or gamma = 0 are admitted boundary cases (i.i.d.
    Poisson and first-order degenerations).
    """

    lambda_: float
    beta: float
    gamma: float

    def __post_init__(self):
        _require_rate(self.lambda_)
        if self.gamma < 0:
            raise ParameterError(f"decay factor must be nonnegative, got {self.gamma}")
        if not 0.0 <= self.beta < 1.0 - self.gamma:
            raise ParameterError(
                f"lag-1 weight must satisfy 0 <= beta < 1 - gamma, got "
                f"beta={self.beta}, gamma={self.gamma}"
            )

    @property
    def total_weight(self) -> float:
        """Sum of all lag weights, beta / (1 - gamma) in closed form."""
        return self.beta / (1.0 - self.gamma)

    @property
    def stationary_mean(self) -> float:
        return self.lambda_ * (1.0 - self.gamma) / (1.0 - self.beta - self.gamma)


@dataclass(frozen=True)
class ReportingSpec:
    """Observation mechanism: with probability omega the count is thinned by q,
    otherwise it is reported completely."""

    q: float
    omega: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ParameterError(f"reporting probability must lie in (0, 1], got {self.q}")
        if not 0.0 <= self.omega <= 1.0:
            raise ParameterError(
                f"underreported-state probability must lie in [0, 1], got {self.omega}"
            )
