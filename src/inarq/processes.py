"""Count-process simulators.

Covers the latent integer-valued autoregressions (first order, finite order
p, and the geometric-lag infinite-order process), the thinning-based
reporting mechanisms that turn a latent series into an observed one, and an
individual-level birth/survival/observation simulator whose aggregates
reproduce the same laws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .equivalence import UnderreportedModel, canonicalize, shift_reporting
from .errors import ParameterError, UnsupportedMechanismError
from .sampling import RngStream, geometric_draws
# Unused here, but perfbench/tracer.py wraps these scalar draws by name in this module.
from .sampling import binomial_thin, multinomial_allocate, poisson_draw  # noqa: F401
from .specs import GeomInarSpec, Inar1Spec, InarPSpec, ReportingSpec


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


def _acf(values: np.ndarray, max_lag: int) -> tuple[float, ...]:
    # einsum, not `@`: BLAS runs a long dot product on worker threads, whose
    # wake-up time is erratic on a small host. einsum sums the products in
    # one pass on this thread, with no temporary array.
    centered = values - values.mean()
    denom = float(np.einsum("i,i->", centered, centered))
    return tuple(
        float(np.einsum("i,i->", centered[:-k], centered[k:])) / denom
        for k in range(1, max_lag + 1)
    )


# Rows rendered at once by _csv_rows; bounds its working arrays, which set
# simulate's peak RSS. 2**15 rows halve the writer's traced peak against
# 2**16 (1.45 against 2.9 MB on 1.3e5 rows) at no cost in write time (a
# median 3.5 against 3.9 ms for 5e4 rows); BENCH_29.json has the end-to-end
# figures.
_CSV_CHUNK_ROWS = 1 << 15


def _step_digits(line: np.ndarray, k: int, start: int) -> None:
    """Fill ``line`` with decimal digit k (k = 0 the units) of the steps
    ``start``, ``start + 1``, ..., as ASCII codes, and NUL where it is a
    leading zero.

    Digit k runs through 0..9 in runs of 10**k steps, so it repeats with
    period 10**(k + 1): the first period (or the whole line, if shorter) is
    filled run by run, at most 12 runs, and then copied onto the rest in
    doubling slices.
    """
    run = 10**k
    filled = min(line.size, 10 * run)
    i, t = 0, start
    while i < filled:
        j = min(filled, i + run - t % run)
        line[i:j] = ord("0") + t // run % 10
        t += j - i
        i = j
    while filled < line.size:
        more = min(filled, line.size - filled)
        line[filled : filled + more] = line[:more]
        filled += more
    if k and start < run:
        line[: run - start] = 0


def _csv_rows(header: bytes, columns, steps: bool = False):
    """Yield ``header``, then the CSV rows of equal-length columns in chunks:
    fields joined by commas and every row ended by a newline. With
    ``steps``, every row starts with its row number.

    An int64 column (nonnegative) is printed in decimal; a uint8 column holds
    ASCII codes, printed as they are. Each chunk of ``_CSV_CHUNK_ROWS`` rows is
    laid out as one uint8 block with a line per character position: every
    int64 column takes as many lines as the chunk's largest value has digits,
    filled by repeated divmod by 10 (the row numbers by
    :func:`_step_digits`), and every column is followed by a separator
    line. A leading zero is written as NUL, except a lone 0, so one ``!= 0``
    mask over the block's contiguous transpose compacts the chunk into its
    rows, and the working memory stays O(chunk) whatever the number of rows.
    """
    yield header
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        parts = [c[start : start + _CSV_CHUNK_ROWS] for c in columns]
        n = parts[0].size
        widths = [1 if c.dtype == np.uint8 else len(str(c.max())) for c in parts]
        end = len(str(start + n - 1)) + 1 if steps else 0  # the row numbers and a comma
        block = np.empty((end + sum(widths) + len(parts), n), dtype=np.uint8)
        for k in range(end - 1):
            _step_digits(block[end - 2 - k], k, start)
        if steps:
            block[end - 1] = ord(",")
        for part, width in zip(parts, widths):
            if part.dtype == np.uint8:
                block[end] = part
            else:
                if width < 10:  # below 2**32: uint32 division is faster
                    part = part.astype(np.uint32)
                last = end + width - 1
                for j in range(last, end - 1, -1):
                    lead = part == 0 if j < last else None  # nothing left of the value
                    part, block[j] = np.divmod(part, 10)
                    block[j] += ord("0")
                    if lead is not None:
                        block[j][lead] = 0
            end += width + 1
            block[end - 1] = ord(",")
        block[-1] = ord("\n")
        chars = block.T.ravel()
        del block  # each buffer is dropped once read, for a peak of three, not four
        chars = chars[chars != 0]
        yield chars


def write_series_csv(series: CountSeries, path) -> None:
    """Write ``series`` to ``path`` as CSV: the header ``t,count``, then one
    row per step, as the chunks :func:`_csv_rows` renders."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_rows(b"t,count\n", (series.values,), steps=True))


# Expected entries per block of steps: appearances, or on the unit-gap path
# chains and per-step class counts; bounds the kernel's working arrays.
_BLOCK_APPEARANCES = 1 << 15
# Most entries one block may expect, as _layout counts them, or appearances
# the whole individual-level trace may lay out: about 0.7 GB of arrays.
_MAX_BLOCK_APPEARANCES = 1 << 24
# Largest stationary mean of a series drawn on the unit-gap path, whose
# per-step class counts are summed by a float-weighted bincount: 2**53.
_MAX_EXACT_MEAN = 1 << 53
# Fewest chains per step a length class must expect for the unit-gap path to
# draw it as per-step counts instead of as chains.
_DENSE_CLASS_CHAINS = 3.0
# Fewest chains a length class must expect to get its own Poisson count:
# below a mean of 10 numpy's Poisson sampler multiplies about mean + 1
# uniforms, no fewer than the chains' own geometric draws would take.
_CLASS_CHAINS = 10.0
# Most steps a simulation may run, burn-in included, or equivalence_mc_test
# may draw over all its replicates: 33 times a 2e6-step series, and a count
# array of 0.5 GB.
_MAX_STEPS = 1 << 26


def _unit_gaps(k: int) -> np.ndarray:
    """The first-order gap law; :func:`_count_chains` counts such chains as intervals."""
    return np.ones(k, dtype=np.int64)


def _lag_draw(weights, rng: RngStream):
    """Draws on {1, ..., len(weights)} with probabilities proportional to ``weights``."""
    w = np.asarray(weights, dtype=np.float64)
    probs = w / w.sum() if w.sum() > 0 else None
    return lambda k: rng.generator.choice(w.size, k, p=probs) + 1


def _classes(mean: float, rho: float, least: float) -> int:
    """How many length classes, from the first, expect at least ``least`` of
    Poisson(``mean``) chains with Geom(1 - rho) lengths; class k expects
    mean * (1 - rho) * rho**(k - 1)."""
    top = mean * (1.0 - rho)
    if top < least:
        return 0
    return 1 if rho == 0.0 else int(math.log(top / least) / -math.log(rho)) + 1


def _dense_classes(lam: float, rho: float) -> int:
    """How many classes the unit-gap path draws as per-step counts."""
    return _classes(lam, rho, _DENSE_CLASS_CHAINS)


def _class_counts(mean: float, rho: float, skip: int, top: int,
                  rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Poisson(``mean``) chains with Geom(1 - rho) lengths, less those of the
    first ``skip`` classes: the counts of classes skip + 1 .. top and the
    lengths of the chains past them.

    The chains of length k, class k, are Poisson(mean * (1 - rho) *
    rho**(k - 1)) and independent of the other classes. ``top`` is raised to
    the last class that expects at least ``_CLASS_CHAINS`` chains, so past
    the ``top`` asked for there are at most a tenth as many counted classes
    as expected chains, whatever rho; one Poisson call draws every count.
    The chains past ``top`` are Poisson(mean * rho**top), of lengths top +
    Geom(1 - rho), one geometric draw each.
    """
    g = rng.generator
    top = max(top, _classes(mean, rho, _CLASS_CHAINS))
    k = np.arange(skip + 1, top + 1)
    counts = g.poisson(mean * (1.0 - rho) * rho ** (k - 1.0)) if k.size else k
    return counts, geometric_draws(1.0 - rho, g.poisson(mean * rho**top), rng) + top


def _class_lengths(mean: float, rho: float, skip: int, rng: RngStream) -> np.ndarray:
    """The lengths of the chains :func:`_class_counts` draws past ``skip``, by class."""
    counts, tail = _class_counts(mean, rho, skip, skip, rng)
    return np.concatenate((np.repeat(np.arange(skip + 1, skip + 1 + counts.size), counts), tail))


def _layout(lam: float, rho: float, reach: float, dense: bool) -> tuple[int, int, float, float]:
    """What :func:`_chain_blocks` lays out, read by it and by
    :func:`_require_block_size`: ``(skip, top, per_step, start)``, the dense
    classes, the start's counted classes (as :func:`_class_counts` raises
    them) and the entries a one-step block and the start block expect.

    With ``dense`` an entry is a class count or a chain past the counted
    classes: a step has ``skip`` counts and Poisson(lam * rho**skip) chains,
    the start ``top`` counts and Poisson(m * rho**top) chains, m = lam /
    (1 - rho) * reach chains under way. Otherwise it is an appearance.
    """
    under_way = lam / (1.0 - rho) * reach
    skip = _dense_classes(lam, rho) if dense else 0
    top = max(skip, _classes(under_way, rho, _CLASS_CHAINS))
    if dense:
        return skip, top, skip + lam * rho**skip, top + under_way * rho**top
    return skip, top, lam / (1.0 - rho), under_way / (1.0 - rho)


def _chain_blocks(lam: float, rho: float, steps: int, rng: RngStream, reach: float = 0.0,
                  residual_draw=_unit_gaps, dense: bool = False):
    """Draw immigrant chains over ``steps`` steps, one block at a time.

    Each step Poisson(lam) immigrants arrive, each starting a chain of
    Geom(1 - rho) appearances, the first at its arrival step. Chains of one
    length are a Poisson process on the steps, independent across lengths,
    so a block of ``width`` steps draws Poisson(lam * width) chains by
    length class (:func:`_class_lengths`) and puts each on a uniform step of
    the block: the per-step counts are iid Poisson(lam).

    With ``dense`` (for the unit-gap path of :func:`_count_chains`), every class k
    that expects at least ``_DENSE_CLASS_CHAINS`` chains per step is drawn
    instead as per-step counts, ``hist[k - 1, s]`` ~ Poisson(lam * (1 - rho)
    * rho**(k - 1)) chains of length k arriving at step t0 + s, drawn by
    :func:`_poisson_counts`; they never exist as arrays. Blocks are sized
    to about ``_BLOCK_APPEARANCES`` entries laid out, as :func:`_layout` counts them.

    With ``reach`` > 0 the chains under way at step 0, a Poisson colouring of
    past immigrants, are a block of their own at step 0: Poisson(lam * reach
    / (1 - rho)), ``reach`` = rho * E[G] for a gap G, drawn by
    :func:`_class_counts`, each next appearing at step R - 1, P(R = r) = P(G
    >= r) / E[G], drawn by ``residual_draw(k)``. With ``dense`` its counted
    classes are its one-column ``hist``; only the chains past them are laid out.

    Yields, per block, its first step, the sparse chains' arrival steps and
    lengths (in class order, not step order) and ``hist`` (no rows without
    ``dense``); a chain's later appearances may run past the block and past
    the horizon.
    """
    g = rng.generator
    skip, top, per_step, _ = _layout(lam, rho, reach, dense)
    if reach:
        counts, lengths = _class_counts(lam / (1.0 - rho) * reach, rho, 0, top, rng)
        if not dense:  # every chain is laid out
            lengths = np.concatenate((np.repeat(np.arange(1, top + 1), counts), lengths))
            counts = counts[:0]
        yield 0, residual_draw(lengths.size) - 1, lengths, counts[:, None]
    block = int(min(steps, max(1.0, _BLOCK_APPEARANCES / per_step)))
    rates = lam * (1.0 - rho) * rho ** np.arange(skip, dtype=np.float64)
    for t0 in range(0, steps, block):
        width = min(block, steps - t0)
        lengths = _class_lengths(lam * width, rho, skip, rng)
        arrivals = g.integers(t0, t0 + width, lengths.size)
        yield t0, arrivals, lengths, _poisson_counts(rates, width, g)


def _later_appearances(arrivals: np.ndarray, lengths: np.ndarray, gap_draw) -> np.ndarray:
    """Times of every appearance but each chain's first, grouped by chain.

    A chain of length n makes n - 1 later appearances, after gaps drawn by
    ``gap_draw(k)`` (k gaps, each >= 1) in chain order. Its j-th later
    appearance is its arrival plus the running sum of all gaps drawn so far
    less the sum of the gaps of the chains before it.
    """
    later = lengths - 1
    elapsed = np.zeros(int(later.sum()) + 1, dtype=np.int64)
    if elapsed.size > 1:
        np.cumsum(gap_draw(elapsed.size - 1), out=elapsed[1:])
    prior = elapsed[np.cumsum(later) - later]
    return np.repeat(arrivals - prior, later) + elapsed[1:]


def _tally(out: np.ndarray, t0: int, times: np.ndarray, op=np.add, weights=None) -> None:
    """Add to ``out`` (or, with ``op=np.subtract``, take from it) the number of
    ``times`` at each step, or the sum of their ``weights``; every time is at
    or after ``t0``."""
    counts = np.bincount(times - t0, weights)
    window = out[t0 : t0 + counts.size]
    op(window, counts.astype(np.int64, copy=False), out=window)


def _require_layout(expected: float, what: str) -> None:
    if expected > _MAX_BLOCK_APPEARANCES:
        raise ParameterError(
            f"the simulation would lay out about {expected:.3g} {what} at once, "
            f"more than the bound {_MAX_BLOCK_APPEARANCES}; lower the immigration rate, "
            f"the persistence or the length"
        )


def _require_steps(steps: int, what: str) -> None:
    if steps > _MAX_STEPS:
        raise ParameterError(
            f"{what} is {steps} steps, more than the bound {_MAX_STEPS}"
        )


def _require_block_size(lam: float, rho: float, reach: float, as_intervals: bool) -> None:
    """Reject a spec one of whose blocks in :func:`_chain_blocks` expects more
    than ``_MAX_BLOCK_APPEARANCES`` entries, as :func:`_layout` counts them:
    the start block, or a later one, which holds about ``_BLOCK_APPEARANCES``
    entries or one step. ``as_intervals``, the unit-gap path of
    :func:`_count_chains`, sums per-step counts as doubles, exact below
    2**53, so it also rejects a stationary mean lam / (1 - rho) past that.
    """
    mean = lam / (1.0 - rho)
    if as_intervals and mean > _MAX_EXACT_MEAN:
        raise ParameterError(
            f"the simulated series would have a stationary mean of about {mean:.3g}, more "
            f"than the bound {_MAX_EXACT_MEAN} below which its counts are summed exactly; "
            f"lower the immigration rate or the persistence"
        )
    _, _, per_step, start = _layout(lam, rho, reach, as_intervals)
    _require_layout(max(per_step, start),
                    "chains and class counts" if as_intervals else "chain appearances")


def _count_chains(blocks, gap_draw, steps: int) -> tuple[np.ndarray, dict[str, int]]:
    """Counts over ``steps`` steps of the chains in ``blocks``, as
    :func:`_chain_blocks` yields them; appearances past the horizon are dropped.

    With ``gap_draw`` the sentinel :func:`_unit_gaps`, every chain is present
    at the steps [arrival, arrival + length), so its count is one up at its
    arrival and one down at its end, summed by one cumsum; a block's per-step
    class counts ``hist`` go in the same way, +h at step s and -h at s + k,
    so the work is O(chains + counts). Otherwise each chain's first
    appearance is counted at its arrival and only its later appearances are
    laid out; the blocks must then hold no per-step counts. Both paths give
    the same counts on the same chains. Returns the counts and the numbers of
    chains, appearances drawn and appearances dropped.
    """
    unit = gap_draw is _unit_gaps
    # Counts per step, or on the unit-gap path their differences; one slot
    # past the horizon takes every appearance (or chain end) there or later.
    out = np.zeros(steps + 1, dtype=np.int64)
    chains = appearances = 0
    for t0, arrivals, lengths, hist in blocks:
        chains += arrivals.size
        appearances += int(lengths.sum())
        _tally(out, t0, np.minimum(arrivals, steps))
        if not unit:
            _tally(out, t0, np.minimum(_later_appearances(arrivals, lengths, gap_draw), steps))
            continue
        _tally(out, t0, np.minimum(arrivals + lengths, steps), np.subtract)
        if hist.size:
            k = np.arange(1, len(hist) + 1)
            starts = np.arange(t0, t0 + hist.shape[1])
            out[t0 : t0 + starts.size] += hist.sum(axis=0)
            ends = np.minimum(starts + k[:, None], steps)
            _tally(out, t0, ends.ravel(), np.subtract, hist.ravel())
            per_class = hist.sum(axis=1)
            chains += int(per_class.sum())
            appearances += int(per_class @ k)
    if unit:
        np.cumsum(out, out=out)
    out = out[:steps]
    beyond = appearances - int(out.sum())
    return out, {"chains": chains, "appearances": appearances, "beyond": beyond}


def _chain_series(lam, rho, reach, gap_draw, residual_draw, t_len, burn_in, rng, model_tag):
    """Run the chain kernel from the stationary start :func:`_chain_blocks`
    draws for ``reach``; keep the last ``t_len`` steps."""
    if t_len < 1:
        raise ParameterError(f"series length must be at least 1, got {t_len}")
    if burn_in < 0:
        raise ParameterError(f"burn-in must be nonnegative, got {burn_in}")
    _require_steps(t_len + burn_in, "series length plus burn-in")
    unit = gap_draw is _unit_gaps
    _require_block_size(lam, rho, reach, unit)
    steps = burn_in + t_len
    blocks = _chain_blocks(lam, rho, steps, rng, reach, residual_draw, unit)
    out, _ = _count_chains(blocks, gap_draw, steps)
    return CountSeries(out[burn_in:], rng.identity, burn_in, model_tag)


def simulate_inar1(
    spec: Inar1Spec, t_len: int, rng: RngStream, burn_in: int = 0
) -> CountSeries:
    """Simulate the first-order process as immigrant chains.

    Poisson(lambda) immigrants per step, each present for Geom(1 - alpha)
    consecutive steps (every gap is 1), so each chain is counted as an
    interval, +1 at its arrival and -1 at its end, and no appearance is laid
    out. Chains of length k arrive as a Poisson(lambda * (1 - alpha) *
    alpha**(k - 1)) process per step; every class expecting several per
    step is drawn as one count per step, so a high rate costs O(log lambda)
    draws per step, not O(lambda). It starts exactly stationary, with
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


def _geom_chain_law(spec: GeomInarSpec) -> tuple[float, float]:
    """A geometric-lag chain's persistence rho and its reach, rho times the mean gap."""
    return spec.total_weight, spec.total_weight / (1.0 - spec.gamma)


def _require_geom_block_size(spec: GeomInarSpec) -> None:
    """The block bound :func:`simulate_inar_inf` applies to ``spec``."""
    _require_block_size(spec.lambda_, *_geom_chain_law(spec), spec.gamma == 0.0)


# Largest stationary mean of a class's fully observed image, its expected
# appearances per step, that simulation_route lays out by gaps: gap layout
# pays a draw per appearance, while the canonical form's interval counting
# and one thinning cost about the same per step whatever the mean. Measured
# on a grid of (beta, gamma, lambda) in BENCH_12.json; re-timed in BENCH_15.json
# (route_grid), the chosen end takes 1.23 times the faster end's time in geometric
# mean and 4.16 times at worst (rho 0.95, gamma 0.1, mean 8). ROADMAP direction 8.
LAYOUT_MAX_MEAN = 8.0


def _drawable(spec: GeomInarSpec) -> bool:
    """Whether the chain kernel admits ``spec``: each of its blocks is within the bound."""
    try:
        _require_geom_block_size(spec)
    except ParameterError:
        return False
    return True


def simulation_route(model: UnderreportedModel) -> tuple[Inar1Spec | GeomInarSpec, float]:
    """The member of ``model``'s class to simulate, and the thinning it needs.

    Returns ``(spec, q)``: a series of ``spec`` thinned by ``q`` has the
    observed law of ``model``. The two ends of the class are candidates:

    - the fully observed image, :func:`shift_reporting` to q = 1, a
      ``GeomInarSpec`` with gamma > 0 drawn by gap layout, with q = 1;
    - the canonical form, an ``Inar1Spec`` drawn by interval counting, with
      q = q_star: thinning twice is thinning once by the product.

    The image is laid out while its stationary mean is at most
    ``LAYOUT_MAX_MEAN`` and the canonical form is drawn above it, unless the
    chosen end exceeds the chain kernel's block bound (or the
    canonical rate overflows) and the other end does not. An image with
    gamma = 0 is first order already and one with beta = 0 is i.i.d.
    Poisson; both are returned as an ``Inar1Spec`` with q = 1.
    """
    # A fully observed model is its own image; shifting it would round lambda.
    lat = model.latent if model.q == 1.0 else shift_reporting(model, 1.0).latent
    if lat.beta == 0.0 or lat.gamma == 0.0:
        return Inar1Spec(lat.lambda_, lat.beta), 1.0
    try:
        canon = canonicalize(model)
        first = GeomInarSpec(canon.lambda_star, canon.alpha_star, 0.0)
    except ParameterError:
        return lat, 1.0
    if (lat.stationary_mean <= LAYOUT_MAX_MEAN and _drawable(lat)) or not _drawable(first):
        return lat, 1.0
    return Inar1Spec(first.lambda_, first.beta), canon.q_star


def simulate_inar_inf(
    spec: GeomInarSpec, t_len: int, rng: RngStream, burn_in: int = 0
) -> CountSeries:
    """Simulate the geometric-lag infinite-order process as immigrant chains.

    Poisson(lambda) immigrants per step, each appearing
    Geom(1 - beta/(1-gamma)) times, with Geom(1 - gamma) gaps on {1, 2, ...}.
    An appearance at t thus has a successor at t + i with probability
    beta * gamma**(i-1), the lag-i weight. Gaps are never truncated; with
    gamma = 0 every gap is 1, and the process is the first-order one, counted
    as :func:`simulate_inar1` counts it. It starts exactly stationary: gaps
    are memoryless, so a chain under way at step 0 next appears at step
    Geom(1 - gamma) - 1. ``burn_in`` steps are discarded.
    """
    gaps = _unit_gaps if spec.gamma == 0.0 else partial(geometric_draws, 1.0 - spec.gamma, rng=rng)
    return _chain_series(
        spec.lambda_, *_geom_chain_law(spec), gaps, gaps, t_len, burn_in, rng,
        f"geom_inf(lambda={spec.lambda_},beta={spec.beta},gamma={spec.gamma})",
    )


# Largest count of a series that _thin draws from the inversion table. Row n
# leaves at most n of its 256 cells open, so at most 1/8 of the entries at
# the top draw a double, and the 33 x 256 byte table builds in under 0.5 ms.
# Thinning the worked latent series (1e4 counts, largest 13) at q = 0.33 took
# 0.10 ms against the sorted binomial draw's 0.46 ms (BENCH_14.json).
_TABLE_TOP = 32
# Table entry of a cell that a CDF step lies strictly inside: no draw is fixed.
_STRADDLE = 255
# Poisson mass a row of the class-count table may drop past its last draw.
_POISSON_TAIL = 2.0**-53
# Highest class rate _poisson_counts draws from the byte table: its cost per
# draw grows with the widest row, numpy's Poisson sampler's does not. Per 1e5
# draws of one rate the table took 4.2 / 5.4 / 6.2 ms at 16 / 24 / 32 against
# numpy's 6.8 / 6.5 / 7.1 ms (2-vCPU host).
_POISSON_TABLE_RATE = 16.0


def _binomial_table(p: float, n: int) -> np.ndarray:
    """table[x, k] = Bin(k; x, p) for x, k = 0..n, by Pascal's recurrence."""
    table = np.zeros((n + 1, n + 1))
    table[0, 0] = 1.0
    for x in range(1, n + 1):
        table[x] = table[x - 1] * (1.0 - p)
        table[x, 1:] += table[x - 1, :-1] * p
    return table


def _byte_table(pmf: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte-indexed inversion table of the laws in the rows of ``pmf``, read-only.

    Row r puts its mass on 0..``last[r]`` (at most ``_STRADDLE - 1``).
    ``cdf[r, k]`` is 256 times the running sum of its pmf, exactly 256 from
    k = ``last[r]`` on. ``table[r * 256 + b]`` is the draw for every uniform
    in [b, b + 1) / 256, or ``_STRADDLE`` where a step of row r lies
    strictly inside that cell.
    """
    cdf = np.cumsum(pmf, axis=1)
    cdf[np.arange(cdf.shape[1]) >= last[:, None]] = 1.0
    cdf = np.minimum(cdf, 1.0) * 256.0  # a sum rounded above 1 would leave the last cell
    # table[r, b] counts the steps cdf[r, k] <= b, those whose ceiling is at
    # most b: a running sum over b of the ceilings' counts, all rows in one bincount.
    ceilings = np.ceil(cdf).astype(np.int64) + 257 * np.arange(len(cdf))[:, None]
    counts = np.bincount(ceilings.ravel(), minlength=257 * len(cdf)).reshape(-1, 257)
    table = np.cumsum(counts[:, :256], axis=1).astype(np.uint8)
    rows, steps = np.nonzero(cdf != np.floor(cdf))
    table[rows, cdf[rows, steps].astype(np.int64)] = _STRADDLE
    table.flags.writeable = cdf.flags.writeable = False
    return table.ravel(), cdf


def _invert_bytes(table: np.ndarray, cdf: np.ndarray, rows: np.ndarray,
                  g: np.random.Generator) -> np.ndarray:
    """A draw from row ``rows[i]`` of a :func:`_byte_table` for every entry i.

    Each entry inverts its row's CDF at a uniform U = (b + u) / 256 from one
    random byte b: the table gives the draw unless a CDF step lies inside
    b's cell, and only then is the double u drawn and compared with the
    row's steps in the cell's own scale, 256 F - b, which loses no precision.
    """
    cell = g.integers(0, 256, rows.size, dtype=np.uint8)
    draws = table[(rows << 8) | cell].astype(np.int64)
    straddling = np.flatnonzero(draws == _STRADDLE)
    u = g.random(straddling.size)
    steps_below = cdf[rows[straddling]] - cell[straddling, None] <= u[:, None]
    draws[straddling] = steps_below.sum(axis=1)
    return draws


@lru_cache(maxsize=4)
def _inversion_table(q: float) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_byte_table` of Binomial(n, q) for n = 0..``_TABLE_TOP``.

    Its CDF is the running sum of :func:`_binomial_table`'s row n, with ``+``
    and ``*`` only, so it is the same on every platform.
    """
    return _byte_table(_binomial_table(q, _TABLE_TOP), np.arange(_TABLE_TOP + 1))


@lru_cache(maxsize=4)
def _poisson_table(rates: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`_byte_table` of the Poisson laws of the ``rates`` up to
    ``_POISSON_TABLE_RATE``, in order, and the read-only mask of those rates.

    Row r is the Poisson pmf on 0..c, c the least count with P(X > c) below
    ``_POISSON_TAIL``: 60 cells at ``_POISSON_TABLE_RATE``. The pmf is
    exp(-rate) times a running product of rate / k, so past one ``math.exp``
    per rate it takes ``*`` and ``/`` only, like the binomial table's ``+``
    and ``*``; the oracle's log-factorial pmf (``diagnostics._poisson_pmf``)
    serves rates whose exp(-rate) underflows, which no row here has. Each
    tail is summed from the top of 128 cells, where the mass left at the top
    rate is below 1e-60, so no cut moves.
    """
    fits = np.array(rates, dtype=np.float64) <= _POISSON_TABLE_RATE
    admitted = np.compress(fits, rates)
    ratios = np.ones((admitted.size, 128))
    ratios[:, 1:] = admitted[:, None] / np.arange(1, 128)
    pmf = np.array(list(map(math.exp, -admitted)))[:, None] * np.cumprod(ratios, axis=1)
    beyond = np.cumsum(pmf[:, :0:-1], axis=1)[:, ::-1]  # P(c < X < 128) for c = 0, 1, ...
    last = np.argmax(beyond < _POISSON_TAIL, axis=1)
    table, cdf = _byte_table(pmf[:, : last.max(initial=0) + 1], last)
    fits.flags.writeable = False
    return table, cdf, fits


def _poisson_counts(rates: np.ndarray, width: int, g: np.random.Generator) -> np.ndarray:
    """counts[k, s] ~ Poisson(``rates[k]``), independent, for s below ``width``.

    A rate up to ``_POISSON_TABLE_RATE`` is drawn from one random byte per
    count (:func:`_invert_bytes`) on the cached :func:`_poisson_table`; a
    higher one by numpy's Poisson sampler. The dropped tail of a row, below
    2**-53 per draw, is below what a double uniform resolves.
    """
    table, cdf, fits = _poisson_table(tuple(rates.tolist()))
    counts = np.empty((rates.size, width), dtype=np.int64)
    if not fits.all():
        counts[~fits] = g.poisson(rates[~fits, None], (rates.size - fits.sum(), width))
    if fits.any():
        rows = np.repeat(np.arange(len(cdf)), width)
        counts[fits] = _invert_bytes(table, cdf, rows, g).reshape(-1, width)
    return counts


def _thin(counts: np.ndarray, q: float, g: np.random.Generator) -> np.ndarray:
    """An independent Binomial(n, q) draw for every entry n of ``counts``.

    While no count exceeds ``_TABLE_TOP``, each entry is drawn from one random
    byte by :func:`_invert_bytes` on the cached :func:`_inversion_table`.

    Larger counts are drawn in order of their counts and scattered back, so
    numpy's binomial sampler keeps its set-up while n repeats instead of
    rebuilding it for almost every entry. Counts below 2**16 are ordered as
    uint16, which numpy's stable argsort sorts by radix.
    """
    top = counts.max(initial=0)
    if top <= _TABLE_TOP:
        return _invert_bytes(*_inversion_table(q), counts, g)
    key = counts.astype(np.uint16) if top < 1 << 16 else counts
    order = np.argsort(key, kind="stable")
    thinned = np.empty_like(counts)
    thinned[order] = g.binomial(counts[order], q)
    return thinned


def apply_reporting(
    series: CountSeries, rep: ReportingSpec, rng: RngStream
) -> CountSeries:
    """Thin a series through the reporting mechanism.

    Independently at each step, with probability ``omega`` the reported count
    is a Binomial(X_t, q) thinning of the true one, otherwise the true count
    is reported. ``omega = 1`` is always-thinned reporting; ``omega = 0`` or
    ``q = 1`` reproduce the input values without a draw.
    """
    values = series.values
    g = rng.generator
    if rep.omega == 0.0 or rep.q == 1.0:
        reported = values  # CountSeries keeps its own copy
    elif rep.omega == 1.0:
        reported = _thin(values, rep.q, g)
    else:
        reported = values.copy()
        underreported = np.flatnonzero(g.random(values.size) < rep.omega)
        reported[underreported] = _thin(values[underreported], rep.q, g)
    return CountSeries(
        values=reported,
        seed=rng.identity,
        burn_in=series.burn_in,
        model_tag=f"{series.model_tag}|reported(q={rep.q},omega={rep.omega})",
    )


@dataclass(frozen=True)
class PopulationTrace:
    """Individual-level history of births, survival and observation, and its aggregates.

    Constructor columns, as int64 arrays:
      births, deaths  one entry per individual, alive at the steps [birth,
                      death): each birth in [0, ``length``), and a death past
                      ``length`` means still alive at the end;
      obs_times, obs_owner  one entry per observation, grouped by individual
                      and in time order: its step, below ``length`` and in
                      its individual's lifetime, and its individual's index.
    ``params`` is the (lambda, alpha, q) that generated the trace.

    Derived from the columns, read-only: per-step arrays of ``length`` entries,
      x        alive individuals,
      x_tilde  observed individuals,
      u_total  observed for the first time,
      v_total  observed before and observed again now,
      b_tilde  observed now and observed again at some later step;
    and decomposition tables, rows sorted by (t, i) with positive counts:
      u_counts rows (t, i, count): ``count`` individuals first observed at t
               and born at t-i;
      v_counts rows (t, i, count): ``count`` observations at t whose previous
               observation was at t-i;
      gaps     ``gaps[i]`` re-observations after a gap of i steps (size 0
               when nothing was observed twice).
    The ``individuals`` property gives the individuals as tuples.
    """

    births: np.ndarray = field(repr=False)
    deaths: np.ndarray = field(repr=False)
    obs_times: np.ndarray = field(repr=False)
    obs_owner: np.ndarray = field(repr=False)
    length: int
    params: tuple[float, float, float]
    seed: tuple[int, int]
    x: np.ndarray = field(init=False)
    x_tilde: np.ndarray = field(init=False)
    u_total: np.ndarray = field(init=False)
    v_total: np.ndarray = field(init=False)
    b_tilde: np.ndarray = field(init=False)
    u_counts: np.ndarray = field(init=False, repr=False)
    v_counts: np.ndarray = field(init=False, repr=False)
    gaps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        def freeze(name, value):
            arr = np.asarray(value, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

        try:
            object.__setattr__(self, "length", operator.index(self.length))
        except TypeError as exc:
            raise ParameterError(f"length must be an integer, got {self.length!r}") from exc
        # Copies, so the caller's columns stay writeable.
        for name in ("births", "deaths", "obs_times", "obs_owner"):
            freeze(name, np.array(getattr(self, name), dtype=np.int64))
        births, deaths, t_len = self.births, self.deaths, self.length
        owner, times = self.obs_owner, self.obs_times
        grouped = owner.size == 0 or (
            owner[0] >= 0 and owner[-1] < births.size and (np.diff(owner) >= 0).all()
        )
        if births.shape != deaths.shape or owner.shape != times.shape or not grouped:
            raise ParameterError(
                "observations must be grouped by individual, each owned by one of them"
            )
        if t_len < 1 or not ((births >= 0) & (births < t_len)).all():
            raise ParameterError(f"every birth must lie in [0, {t_len}), of at least one step")
        if not (deaths > births).all():
            raise ParameterError("every death must come after its birth")
        if not (times < t_len).all():
            raise ParameterError(f"every observation time must lie before {t_len}")
        # Each observation is either its individual's first or a
        # re-observation of the one before it.
        first = np.ones(times.size, dtype=bool)
        first[1:] = owner[1:] != owner[:-1]
        again = np.flatnonzero(~first)
        prev_t = times[again - 1]
        gaps = times[again] - prev_t
        if not ((births[owner] <= times) & (times < deaths[owner])).all() or (gaps <= 0).any():
            raise ParameterError(
                "observation times must lie within the individual's lifetime, in time order"
            )
        per_step = partial(np.bincount, minlength=t_len)
        # Alive at [birth, min(death, length)): +1 at the birth, -1 at the clipped death.
        alive = np.bincount(births, minlength=t_len + 1)
        alive -= np.bincount(np.minimum(deaths, t_len), minlength=t_len + 1)
        freeze("x", np.cumsum(alive[:t_len]))
        freeze("x_tilde", per_step(times))
        freeze("u_total", per_step(times[first]))
        freeze("v_total", per_step(times[again]))
        freeze("b_tilde", per_step(prev_t))  # each predecessor has a later observation
        freeze("u_counts", _tally_pairs(times[first], times[first] - births[owner[first]], t_len))
        freeze("v_counts", _tally_pairs(times[again], gaps, t_len))
        freeze("gaps", np.bincount(gaps))

    def __len__(self) -> int:
        return self.length

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


def write_trace_csv(trace: PopulationTrace, path, long_path) -> None:
    """Write ``trace`` as two CSV files.

    ``path`` gets the header ``t,x,x_tilde,u_total,v_total`` and one row per
    step. ``long_path`` gets the header ``t,i,kind,count`` and the rows of both
    decomposition tables, ordered by (t, i, kind): ``kind`` is ``u`` for a row
    of ``u_counts`` (first observations at t of individuals born at t-i) and
    ``v`` for a row of ``v_counts`` (observations at t whose previous one was
    at t-i).
    """
    columns = (trace.x, trace.x_tilde, trace.u_total, trace.v_total)
    with open(path, "wb") as fh:
        fh.writelines(_csv_rows(b"t,x,x_tilde,u_total,v_total\n", columns, steps=True))
    rows = np.concatenate((trace.u_counts, trace.v_counts))
    kind = np.repeat(np.array([ord("u"), ord("v")], dtype=np.uint8),
                     [len(trace.u_counts), len(trace.v_counts)])
    # Each table comes sorted by (t, i), so a stable sort of the stacked
    # pairs merges them and keeps a u row before a v row of the same pair.
    # Every t and i is below the trace's length, so one int64 key,
    # t * len + i, orders the pairs.
    order = np.argsort(rows[:, 0] * len(trace) + rows[:, 1], kind="stable")
    rows, kind = rows[order], kind[order]
    del order  # freed before the write, whose chunk buffers set the peak RSS
    with open(long_path, "wb") as fh:
        fh.writelines(_csv_rows(b"t,i,kind,count\n", (rows[:, 0], rows[:, 1], kind, rows[:, 2])))


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

    The individuals come straight from the chain kernel's draws as the
    trace's columns: births and unclipped deaths in draw order (not step
    order), and the observations grouped by individual and in time order;
    the trace derives every per-step series and table from them. Each step
    an individual is alive before the horizon takes one uniform; int64
    arrays are built only per individual and per observation, which is
    mapped to its individual and step by a search over the cumulative
    alive steps. Memory still grows with lambda * t_len, so a trace
    expecting more than ``_MAX_BLOCK_APPEARANCES`` appearances,
    lambda * t_len / (1 - alpha), is rejected before any draw.

    Only time-homogeneous reporting is supported (``omega`` must be 1).
    """
    if rep.omega != 1.0:
        raise UnsupportedMechanismError(
            "individual-level simulation requires always-thinned reporting (omega = 1)"
        )
    if t_len < 1:
        raise ParameterError(f"series length must be at least 1, got {t_len}")
    # Every in-horizon appearance draws its uniform at once.
    _require_layout(spec.lambda_ * t_len / (1.0 - spec.alpha), "chain appearances")
    _require_steps(t_len, "trace length")
    blocks = [b[1:3] for b in _chain_blocks(spec.lambda_, spec.alpha, t_len, rng)]
    births, lengths = map(np.concatenate, zip(*blocks))
    # Each individual is alive at the consecutive steps [birth, birth + length);
    # only those before the horizon are drawn.
    alive = np.minimum(lengths, t_len - births)
    # Appearance k belongs to the individual whose run of alive steps,
    # [ends - alive, ends), holds k, at its birth plus its offset in that run.
    ends = np.cumsum(alive)
    seen = np.flatnonzero(rng.generator.random(ends[-1] if ends.size else 0) < rep.q)
    obs_owner = np.searchsorted(ends, seen, side="right")
    obs_times = (births - ends + alive)[obs_owner] + seen
    del seen  # freed before the trace derives its aggregates
    return PopulationTrace(births, births + lengths, obs_times, obs_owner, t_len,
                           (spec.lambda_, spec.alpha, rep.q), rng.identity)
