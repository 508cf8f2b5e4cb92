"""Count-process simulators.

Covers the latent integer-valued autoregressions (first order, finite order
p, and the geometric-lag infinite-order process), the thinning-based
reporting mechanisms that turn a latent series into an observed one, and an
individual-level birth/survival/observation simulator whose aggregates
reproduce the same laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ParameterError, UnsupportedMechanismError
from .sampling import RngStream, geometric_draws
# Unused here, but perfbench/tracer.py wraps these scalar draws by name in this module.
from .sampling import binomial_thin, multinomial_allocate, poisson_draw  # noqa: F401


# Largest rate numpy's Poisson sampler accepts (its POISSON_LAM_MAX).
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max))


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


@dataclass(frozen=True)
class CountSeries:
    """Immutable simulated (or observed) count series with its provenance."""

    values: np.ndarray
    seed: tuple[int, int]
    burn_in: int
    model_tag: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int64)
        if v.ndim != 1 or v.size == 0:
            raise ParameterError("a count series must be a nonempty 1-d array")
        if (v < 0).any():
            raise ParameterError("counts must be nonnegative")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)

    def to_csv(self) -> str:
        lines = ["t,count"]
        lines.extend(f"{t},{c}" for t, c in enumerate(self.values.tolist()))
        return "\n".join(lines) + "\n"


# Rows formatted per write in write_series_csv; bounds the string built at once.
_CSV_CHUNK_ROWS = 1 << 16


def write_series_csv(series: CountSeries, path) -> None:
    """Write ``series.to_csv()`` to ``path``, formatting a chunk of rows at a time."""
    values = series.values.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,count\n")
        for start in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = values[start : start + _CSV_CHUNK_ROWS]
            fh.write("".join(f"{t},{c}\n" for t, c in enumerate(chunk, start)))


# Expected appearances per block of steps: bounds the kernel's working arrays.
_BLOCK_APPEARANCES = 1 << 15
_NO_CHAINS = np.zeros(0, dtype=np.int64)  # no chains under way at step 0


def _unit_gaps(k: int) -> np.ndarray:
    return np.ones(k, dtype=np.int64)


def _lag_draw(weights, rng: RngStream):
    """Draws on {1, ..., len(weights)} with probabilities proportional to ``weights``."""
    w = np.asarray(weights, dtype=np.float64)
    probs = w / w.sum() if w.sum() > 0 else None
    return lambda k: rng.generator.choice(w.size, k, p=probs) + 1


def _chain_blocks(lam: float, rho: float, gap_draw, steps: int, rng: RngStream,
                  under_way=_NO_CHAINS):
    """Lay out immigrant chains over ``steps`` steps, one block at a time.

    Each step Poisson(lam) immigrants arrive, and the chains under way at
    step 0 arrive in the first block, at the steps ``under_way``. Each makes
    Geom(1 - rho) appearances: the first at its arrival step, the next ones
    after gaps drawn by ``gap_draw(k)`` (k gaps, each >= 1). Immigrants are
    drawn in blocks of about ``_BLOCK_APPEARANCES`` expected appearances, each
    block's chains laid out whole, so appearance times may run past the block
    and past the horizon. Yields, per block, its first step, the chains'
    arrival steps and lengths, and every appearance time, all in chain order.
    """
    block = int(min(steps, max(1.0, _BLOCK_APPEARANCES * (1.0 - rho) / lam)))
    for t0 in range(0, steps, block):
        width = min(block, steps - t0)
        starts = rng.generator.poisson(lam, width)
        arrivals = times = np.repeat(np.arange(t0, t0 + width), starts)
        if t0 == 0:
            arrivals = times = np.concatenate((under_way, arrivals))
        n = arrivals.size
        lengths = geometric_draws(1.0 - rho, n, rng)
        total = int(lengths.sum())
        if total > n:
            # Segmented cumsum: each chain's first slot holds a zero gap, so
            # the running sum less its value there is the chain's elapsed time.
            firsts = np.cumsum(lengths) - lengths
            later = np.ones(total, dtype=bool)
            later[firsts] = False
            elapsed = np.zeros(total, dtype=np.int64)
            elapsed[later] = gap_draw(total - n)
            np.cumsum(elapsed, out=elapsed)
            times = np.repeat(arrivals - elapsed[firsts], lengths) + elapsed
        yield t0, arrivals, lengths, times


def _run_chains(
    lam: float, rho: float, gap_draw, steps: int, rng: RngStream, under_way=_NO_CHAINS
) -> tuple[np.ndarray, dict[str, int]]:
    """Counts of an immigrant-chain process over ``steps`` steps.

    The count at a step is the number of appearances there of the chains laid
    out by :func:`_chain_blocks`; appearances past the horizon are dropped.
    Returns the counts and the numbers of chains, appearances drawn and
    appearances dropped.
    """
    out = np.zeros(steps, dtype=np.int64)
    chains = appearances = 0
    for t0, arrivals, _, times in _chain_blocks(lam, rho, gap_draw, steps, rng, under_way):
        chains += arrivals.size
        appearances += times.size
        counts = np.bincount(times[times < steps] - t0)
        out[t0 : t0 + counts.size] += counts
    beyond = appearances - int(out.sum())
    return out, {"chains": chains, "appearances": appearances, "beyond": beyond}


def _chain_series(lam, rho, reach, gap_draw, residual_draw, t_len, burn_in, rng, model_tag):
    """Run the chain kernel from its stationary state; keep the last ``t_len`` steps.

    The chains under way at step 0 are a Poisson colouring of past immigrants:
    Poisson(lam * reach / (1 - rho)) of them, ``reach`` = rho * E[G] for a gap
    G. Each next appears at step R - 1, P(R = r) = P(G >= r) / E[G], drawn by
    ``residual_draw(k)``, and then makes Geom(1 - rho) appearances.
    """
    if t_len < 1:
        raise ParameterError(f"series length must be at least 1, got {t_len}")
    if burn_in < 0:
        raise ParameterError(f"burn-in must be nonnegative, got {burn_in}")
    under_way = residual_draw(rng.generator.poisson(lam / (1.0 - rho) * reach)) - 1
    out, _ = _run_chains(lam, rho, gap_draw, burn_in + t_len, rng, under_way)
    return CountSeries(out[burn_in:], rng.identity, burn_in, model_tag)


def simulate_inar1(
    spec: Inar1Spec, t_len: int, rng: RngStream, burn_in: int = 0
) -> CountSeries:
    """Simulate the first-order process as immigrant chains.

    Poisson(lambda) immigrants per step, each present for Geom(1 - alpha)
    consecutive steps (every gap is 1). It starts exactly stationary, with
    Poisson(lambda * alpha / (1 - alpha)) chains under way at step 0, and
    ``burn_in`` extra steps are discarded. Returns the last ``t_len`` steps.
    """
    return _chain_series(
        spec.lambda_, spec.alpha, spec.alpha, _unit_gaps, _unit_gaps, t_len, burn_in,
        rng, f"inar1(lambda={spec.lambda_},alpha={spec.alpha})",
    )


def simulate_inar_p(
    spec: InarPSpec, t_len: int, rng: RngStream, burn_in: int = 0
) -> CountSeries:
    """Simulate the order-p process as immigrant chains.

    Poisson(lambda) immigrants per step, each appearing Geom(1 - sum of
    weights) times, with gaps drawn from lags 1..p in proportion to the
    weights. An appearance at t thus has a successor at t + i with
    probability alpha_i, so the lag-i contribution is marginally
    Binomial(X_t, alpha_i) and the contributions never exceed X_t in total.
    It starts exactly stationary: a chain under way at step 0 next appears at
    step r - 1 with weight alpha_r + ... + alpha_p. ``burn_in`` steps are discarded.
    """
    tail = np.cumsum(spec.alphas[::-1])[::-1]
    return _chain_series(
        spec.lambda_, spec.total_weight, float(tail.sum()), _lag_draw(spec.alphas, rng),
        _lag_draw(tail, rng), t_len, burn_in, rng,
        f"inar_p(lambda={spec.lambda_},alphas={list(spec.alphas)})",
    )


def simulate_inar_inf(
    spec: GeomInarSpec, t_len: int, rng: RngStream, burn_in: int = 0
) -> CountSeries:
    """Simulate the geometric-lag infinite-order process as immigrant chains.

    Poisson(lambda) immigrants per step, each appearing
    Geom(1 - beta/(1-gamma)) times, with Geom(1 - gamma) gaps on {1, 2, ...}.
    An appearance at t thus has a successor at t + i with probability
    beta * gamma**(i-1), the lag-i weight. Gaps are never truncated. It starts
    exactly stationary: gaps are memoryless, so a chain under way at step 0
    next appears at step Geom(1 - gamma) - 1. ``burn_in`` steps are discarded.
    """
    gaps = partial(geometric_draws, 1.0 - spec.gamma, rng=rng)
    return _chain_series(
        spec.lambda_, spec.total_weight, spec.total_weight / (1.0 - spec.gamma), gaps, gaps,
        t_len, burn_in, rng,
        f"geom_inf(lambda={spec.lambda_},beta={spec.beta},gamma={spec.gamma})",
    )


def apply_reporting(
    series: CountSeries, rep: ReportingSpec, rng: RngStream
) -> CountSeries:
    """Thin a series through the reporting mechanism.

    Independently at each step, with probability ``omega`` the reported count
    is a Binomial(X_t, q) thinning of the true one, otherwise the true count
    is reported. ``omega = 1`` is always-thinned reporting; ``omega = 0`` or
    ``q = 1`` reproduce the input values.
    """
    values = series.values
    g = rng.generator
    if rep.omega == 0.0:
        reported = values.copy()
    elif rep.omega == 1.0:
        reported = g.binomial(values, rep.q)
    else:
        underreported = g.random(values.size) < rep.omega
        thinned = g.binomial(values, rep.q)
        reported = np.where(underreported, thinned, values)
    return CountSeries(
        values=reported.astype(np.int64),
        seed=rng.identity,
        burn_in=series.burn_in,
        model_tag=f"{series.model_tag}|reported(q={rep.q},omega={rep.omega})",
    )


@dataclass(frozen=True)
class PopulationTrace:
    """Aggregated individual-level history of births, survival and observation.

    Per-step arrays (all of equal length):
      x        alive individuals,
      x_tilde  observed individuals,
      u_total  observed for the first time,
      v_total  observed before and observed again now,
      b_tilde  observed now and observed again at some later step.

    Decomposition tables, as int64 arrays:
      u_counts rows (t, i, count): ``count`` individuals first observed at t
               and born at t-i;
      v_counts rows (t, i, count): ``count`` observations at t whose previous
               observation was at t-i;
      gaps     ``gaps[i]`` re-observations after a gap of i steps (size 0
               when nothing was observed twice).
    The rows of u_counts and v_counts are sorted by (t, i), with positive counts.

    Individuals, as columns:
      births, deaths  one entry per individual; the individual is alive at
                      the steps [birth, death), and a death past ``len(trace)``
                      means it is still alive at the end;
      obs_times, obs_owner  one entry per observation, grouped by individual,
                      giving its step and its individual's index.
    Every observation time lies in [birth, death) of its individual. The
    ``individuals`` property gives the same individuals as tuples.
    """

    x: np.ndarray
    x_tilde: np.ndarray
    u_total: np.ndarray
    v_total: np.ndarray
    b_tilde: np.ndarray
    u_counts: np.ndarray = field(repr=False)
    v_counts: np.ndarray = field(repr=False)
    gaps: np.ndarray = field(repr=False)
    births: np.ndarray = field(repr=False)
    deaths: np.ndarray = field(repr=False)
    obs_times: np.ndarray = field(repr=False)
    obs_owner: np.ndarray = field(repr=False)
    params: tuple[float, float, float]  # (lambda, alpha, q) that generated it
    seed: tuple[int, int]

    def __post_init__(self):
        for name in ("x", "x_tilde", "u_total", "v_total", "b_tilde", "u_counts", "v_counts",
                     "gaps", "births", "deaths", "obs_times", "obs_owner"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.x_tilde == self.u_total + self.v_total).all():
            raise ParameterError(
                "observed counts must split exactly into first and repeat observations"
            )
        owner, times = self.obs_owner, self.obs_times
        grouped = owner.size == 0 or (
            owner[0] >= 0 and owner[-1] < self.births.size and (np.diff(owner) >= 0).all()
        )
        if self.births.shape != self.deaths.shape or owner.shape != times.shape or not grouped:
            raise ParameterError(
                "observations must be grouped by individual, each owned by one of them"
            )
        if not ((self.births[owner] <= times) & (times < self.deaths[owner])).all():
            raise ParameterError("observation times must lie within the individual's lifetime")

    def __len__(self) -> int:
        return int(self.x.size)

    @cached_property
    def individuals(self) -> tuple:
        """One (birth, death, observation times) tuple per individual.

        Death is None for an individual still alive at the end. Built from the
        columns on first access; the program itself never reads it.
        """
        horizon = len(self)
        obs = self.obs_times.tolist()
        ends = np.cumsum(np.bincount(self.obs_owner, minlength=self.births.size)).tolist()
        return tuple(
            (b, d if d <= horizon else None, tuple(obs[s:e]))
            for b, d, s, e in zip(self.births.tolist(), self.deaths.tolist(), [0, *ends], ends)
        )

    def to_csv(self) -> str:
        rows = zip(*(c.tolist() for c in (self.x, self.x_tilde, self.u_total, self.v_total)))
        lines = ["t,x,x_tilde,u_total,v_total"]
        lines.extend(f"{t},{x},{xt},{u},{v}" for t, (x, xt, u, v) in enumerate(rows))
        return "\n".join(lines) + "\n"

    def to_long_csv(self) -> str:
        rows = np.concatenate((self.u_counts, self.v_counts))
        kind = np.repeat([0, 1], [len(self.u_counts), len(self.v_counts)])
        order = np.lexsort((kind, rows[:, 1], rows[:, 0]))
        lines = ["t,i,kind,count"]
        lines.extend(
            f"{t},{i},{'uv'[k]},{c}"
            for (t, i, c), k in zip(rows[order].tolist(), kind[order].tolist())
        )
        return "\n".join(lines) + "\n"


def write_trace_csv(trace: PopulationTrace, path, long_path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace.to_csv())
    with open(long_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace.to_long_csv())


def _tally_pairs(t: np.ndarray, i: np.ndarray, t_len: int) -> np.ndarray:
    """Rows (t, i, count) of the distinct pairs (t[k], i[k]), each i below ``t_len``,
    sorted by (t, i)."""
    keys, counts = np.unique(t * t_len + i, return_counts=True)
    return np.column_stack((*np.divmod(keys, t_len), counts))


def simulate_individual_level(
    spec: Inar1Spec, rep: ReportingSpec, t_len: int, rng: RngStream
) -> PopulationTrace:
    """Simulate the population individual by individual and aggregate it.

    Each individual is a chain of the first-order process: Poisson(lambda)
    are born each step, starting from an empty population, and each stays
    alive for Geom(1 - alpha) consecutive steps. At every step it is alive an
    individual is observed with probability q, independently, so the gaps
    between its observations are Geom(1 - alpha * (1 - q)), the geometric lag
    of the fully observed image. The alive count follows the first-order
    autoregression and the observed count its thinned version, which is what
    makes the aggregated trace a useful cross-check for the process-level
    simulators.

    The individuals come straight from the chain kernel as the trace's
    columns: births and unclipped deaths in chain order, and the
    observations grouped by individual and in time order. Nothing is built
    per individual; memory still grows with lambda * t_len.

    Only time-homogeneous reporting is supported (``omega`` must be 1).
    """
    if rep.omega != 1.0:
        raise UnsupportedMechanismError(
            "individual-level simulation requires always-thinned reporting (omega = 1)"
        )
    if t_len < 1:
        raise ParameterError(f"series length must be at least 1, got {t_len}")
    blocks = [b[1:] for b in _chain_blocks(spec.lambda_, spec.alpha, _unit_gaps, t_len, rng)]
    births, lengths, times = map(np.concatenate, zip(*blocks))
    owner = np.repeat(np.arange(births.size), lengths)
    inside = times < t_len
    times, owner = times[inside], owner[inside]
    seen = rng.generator.random(times.size) < rep.q
    obs_t, obs_owner = times[seen], owner[seen]
    # Observations are grouped by individual and in time order: each one is
    # either its individual's first or a re-observation of the one before it.
    first = np.ones(obs_t.size, dtype=bool)
    first[1:] = obs_owner[1:] != obs_owner[:-1]
    again = np.nonzero(~first)[0]
    prev_t = obs_t[again - 1]
    gaps = obs_t[again] - prev_t

    def per_step(t):
        return np.bincount(t, minlength=t_len)

    return PopulationTrace(
        x=per_step(times),
        x_tilde=per_step(obs_t),
        u_total=per_step(obs_t[first]),
        v_total=per_step(obs_t[again]),
        b_tilde=per_step(prev_t),  # each predecessor has a later observation
        u_counts=_tally_pairs(obs_t[first], obs_t[first] - births[obs_owner[first]], t_len),
        v_counts=_tally_pairs(obs_t[again], gaps, t_len),
        gaps=np.bincount(gaps),
        births=births,
        deaths=births + lengths,
        obs_times=obs_t,
        obs_owner=obs_owner,
        params=(spec.lambda_, spec.alpha, rep.q),
        seed=rng.identity,
    )
