"""The comment's identity on sample paths: two exact likelihoods of one series.

An INAR(1) process thinned by q (a hidden Markov model with the latent count
as its state) and the fully observed geometric-lag process that
``absorb_reporting`` maps it to (a hidden Markov model with the pool of
individuals pending a reappearance as its state) must give every observed
series the same likelihood. The two forward filters below share no code
with ``canonicalize`` or ``absorb_reporting``, so the comparison checks the
closed form with no Monte Carlo tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

from inarq import Inar1Spec, ReportingSpec, RngStream, absorb_reporting, apply_reporting, simulate_inar1
from inarq.diagnostics import _poisson_pmf
from inarq.processes import _binomial_table

# Agreement required of the two log-likelihoods, relative to their size: about
# 1e-9 in absolute terms for these series, whose log-likelihoods are in the
# thousands. They agree to within 1e-15 relative.
LOGLIK_RTOL = 1e-12


def truncation(mean: float, top: int) -> int:
    """A state count far past the Poisson(mean) bulk and the largest observed count."""
    return max(int(mean + 12.0 * math.sqrt(mean)) + 40, top + 40)


def hidden_inar1_loglik(y: np.ndarray, lam: float, alpha: float, q: float) -> float:
    """Log-likelihood of ``y`` as X thinned by q, X_t = alpha ∘ X_{t-1} + Poisson(lam),
    started from its stationary Poisson(lam / (1 - alpha)) law, by a forward
    filter over the latent count."""
    mu = lam / (1.0 - alpha)
    n = truncation(mu, int(y.max()))
    xs = np.arange(n + 1)
    pi = _poisson_pmf(mu, n)
    arrivals = np.triu(_poisson_pmf(lam, n)[np.abs(xs[None, :] - xs[:, None])])
    transition = _binomial_table(alpha, n) @ arrivals
    observe = _binomial_table(q, n)  # observe[x, y] = Bin(y; x, q)
    f, loglik = pi, 0.0
    for t, v in enumerate(y):
        if t:
            f = f @ transition
        f = f * observe[:, v]
        total = f.sum()
        loglik += math.log(total)
        f = f / total
    return loglik


def geometric_lag_loglik(x: np.ndarray, lam: float, beta: float, gamma: float) -> float:
    """Log-likelihood of ``x`` as the fully observed process with lag weights
    beta * gamma**(i-1), in terms of the pool W of individuals pending a
    reappearance: per step R = Binom(W, 1 - gamma) reappear, X = R +
    Poisson(lam), and W <- W - R + Binom(X, rho) with rho = beta / (1 - gamma).
    W starts from its stationary law, Poisson(lam * rho / ((1 - gamma) * (1 - rho)))."""
    rho = beta / (1.0 - gamma)
    mean_w = lam * rho / ((1.0 - gamma) * (1.0 - rho))
    top = int(x.max())
    n = truncation(mean_w, top)
    stay = _binomial_table(gamma, n)  # stay[w, s]: s of w pending stay pending
    immigrants = _poisson_pmf(lam, top)
    successors = _binomial_table(rho, top)  # successors[v, k] = Bin(k; v, rho)
    ws = np.arange(n + 1)
    reappear = ws[:, None] - ws[None, :]  # R = w - s
    f, loglik = _poisson_pmf(mean_w, n), 0.0
    for v in x:
        fresh = v - reappear  # immigrants needed for X = v
        ok = (fresh >= 0) & (fresh <= v)
        step = np.where(ok, stay * immigrants[np.clip(fresh, 0, top)], 0.0)
        kept = f @ step  # P(s stay pending, X = v | past)
        total = kept.sum()
        loglik += math.log(total)
        f = np.convolve(kept / total, successors[v, : v + 1])[: n + 1]
        f = f / f.sum()
    return loglik


def observed_series(lam, alpha, q, t_len, seed):
    stream = RngStream(seed)
    latent = simulate_inar1(Inar1Spec(lam, alpha), t_len, stream.substream(0))
    return apply_reporting(latent, ReportingSpec(q=q), stream.substream(1)).values


def image_loglik(y, image):
    return geometric_lag_loglik(y, image.lambda_, image.beta, image.gamma)


GRID = [(lam, alpha, q) for lam in (0.5, 1.62, 4.0) for alpha in (0.2, 0.52, 0.8)
        for q in (0.1, 0.33, 0.7, 1.0)]


@pytest.mark.parametrize("lam, alpha, q", GRID)
def test_image_has_the_hidden_process_likelihood(lam, alpha, q):
    y = observed_series(lam, alpha, q, 400, seed=int(lam * 100 + alpha * 10 + q * 1000))
    hidden = hidden_inar1_loglik(y, lam, alpha, q)
    image = image_loglik(y, absorb_reporting(Inar1Spec(lam, alpha), q))
    assert abs(hidden - image) <= LOGLIK_RTOL * abs(hidden), (hidden, image)


def test_long_series_and_a_foreign_series():
    # The identity holds for any series, not only those the model makes.
    lam, alpha, q = 1.62, 0.52, 0.33
    image = absorb_reporting(Inar1Spec(lam, alpha), q)
    for y in (observed_series(lam, alpha, q, 2_000, seed=7),
              observed_series(4.0, 0.8, 0.7, 2_000, seed=8)):
        hidden = hidden_inar1_loglik(y, lam, alpha, q)
        assert abs(hidden - image_loglik(y, image)) <= LOGLIK_RTOL * abs(hidden)


@pytest.mark.parametrize("field", ["lambda_", "beta", "gamma"])
def test_perturbed_image_is_told_apart(field):
    # A relative change of 1e-6 in any one output of absorb_reporting moves the
    # log-likelihood by more than 100 times the tolerance (at least 1.3e-9
    # relative here).
    lam, alpha, q = 1.62, 0.52, 0.33
    y = observed_series(lam, alpha, q, 2_000, seed=9)
    hidden = hidden_inar1_loglik(y, lam, alpha, q)
    image = absorb_reporting(Inar1Spec(lam, alpha), q)
    perturbed = dataclasses.replace(image, **{field: getattr(image, field) * (1.0 + 1e-6)})
    assert abs(hidden - image_loglik(y, perturbed)) > 100 * LOGLIK_RTOL * abs(hidden)
