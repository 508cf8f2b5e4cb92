import collections
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps
from scipy.optimize import brentq

from inarq import (
    CountSeries,
    GeomInarSpec,
    Inar1Spec,
    InarPSpec,
    ParameterError,
    PopulationTrace,
    ReportingSpec,
    RngStream,
    UnsupportedMechanismError,
    apply_reporting,
    individual_level_checks,
    simulate_inar1,
    simulate_inar_inf,
    simulate_inar_p,
    simulate_individual_level,
)
from inarq import processes, specs
from inarq.processes import (
    _BLOCK_APPEARANCES,
    _CSV_CHUNK_ROWS,
    _chain_blocks,
    _chain_series,
    _class_lengths,
    _count_chains,
    _dense_classes,
    _inversion_table,
    _layout,
    _MAX_BLOCK_APPEARANCES,
    _MAX_EXACT_MEAN,
    _MAX_STEPS,
    _POISSON_TABLE_RATE,
    _POISSON_TAIL,
    _poisson_counts,
    _poisson_table,
    _require_block_size,
    _require_geom_block_size,
    _STRADDLE,
    _TABLE_TOP,
    _thin,
    _unit_gaps,
    write_series_csv,
    write_trace_csv,
)
from inarq.sampling import geometric_draws

# Worked example used throughout: a weekly case-count model with immigration
# rate 1.62, survival 0.52 and reporting probability 0.33.
LAM, ALPHA, Q = 1.62, 0.52, 0.33
STATIONARY_MEAN = LAM / (1 - ALPHA)  # 3.375
OBSERVED_MEAN = Q * STATIONARY_MEAN  # 1.11375
IMAGE = GeomInarSpec(LAM * Q / (1 - ALPHA * (1 - Q)), ALPHA * Q, ALPHA * (1 - Q))


def batch_se(values, n_batches=50):
    usable = len(values) - len(values) % n_batches
    means = np.asarray(values[:usable], dtype=float).reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


def acf(values, k=1):
    centered = np.asarray(values, dtype=float) - np.mean(values)
    return float(centered[:-k] @ centered[k:] / (centered @ centered))


def batch_acf_se(values, k=1, n_batches=50):
    usable = len(values) - len(values) % n_batches
    batches = np.asarray(values[:usable], dtype=float).reshape(n_batches, -1)
    per_batch = [acf(b, k) for b in batches]
    return np.std(per_batch, ddof=1) / math.sqrt(n_batches)


def oracle_inar1(lam, alpha, t_len, seed):
    # Independent reference simulation of the same recursion, written against
    # numpy directly rather than the library's sampling layer.
    g = np.random.default_rng(seed)
    x = g.poisson(lam / (1 - alpha))
    out = np.empty(t_len, dtype=np.int64)
    for t in range(t_len):
        x = g.binomial(x, alpha) + g.poisson(lam)
        out[t] = x
    return out


def renewal_acf(weights, max_lag):
    # Every latent process here is Poisson immigrants whose chains renew at
    # lag i with probability weights[i-1], so the lag-k autocorrelation is the
    # renewal sequence u_k = sum_i weights[i-1] * u_{k-i}, u_0 = 1.
    u = [1.0]
    for k in range(1, max_lag + 1):
        u.append(sum(w * u[k - i] for i, w in enumerate(weights[:k], start=1)))
    return u[1:]


def empirical_pmf(values):
    counts = np.bincount(values)
    return {k: c / len(values) for k, c in enumerate(counts) if c > 0}


def tv(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


class TestCountSeries:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            CountSeries(np.array([], dtype=int), (0, 0), 0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            CountSeries(np.array([1, -1]), (0, 0), 0, "x")

    def test_values_are_immutable(self):
        s = CountSeries(np.array([1, 2]), (0, 0), 0, "x")
        with pytest.raises(ValueError):
            s.values[0] = 5

    def test_csv_format(self, tmp_path):
        s = CountSeries(np.array([3, 0, 1]), (0, 0), 0, "x")
        assert series_csv(s, tmp_path) == b"t,count\n0,3\n1,0\n2,1\n"

    def test_chunked_writer_matches_small_chunks(self, tmp_path, monkeypatch):
        values = np.random.default_rng(3).poisson(7.0, _CSV_CHUNK_ROWS + 17)
        s = CountSeries(values, (0, 0), 0, "x")
        default = series_csv(s, tmp_path)
        monkeypatch.setattr(processes, "_CSV_CHUNK_ROWS", 1000)
        assert series_csv(s, tmp_path) == default

    def test_writer_memory_is_one_chunk(self, tmp_path):
        # The writer's traced peak beyond its input is the same on 4 and 16
        # chunks, whose rows all have 6-digit step numbers: it holds one
        # chunk's buffers at a time, however long the series.
        short, long = writer_peak(4, tmp_path), writer_peak(16, tmp_path)
        assert abs(long / short - 1) <= 0.1, (short, long)

    def test_writer_drops_each_buffer_once_read(self, tmp_path):
        # A chunk of rows "t,count" is a digit block of 10 lines (six step
        # digits, a comma, two count digits, a newline) by 2**15 rows. The
        # block is dropped once transposed and the transpose once compacted,
        # so the writer never holds the block, its transpose, the mask and
        # the compacted bytes at once: a traced peak of about 3.4 blocks
        # (1.12 MB), against 4.4 blocks (1.45 MB) with all four held.
        block = 10 * _CSV_CHUNK_ROWS
        assert writer_peak(4, tmp_path) < 3.75 * block, writer_peak(4, tmp_path) / block


def writer_peak(chunks, tmp_path):
    """The traced peak of :func:`write_series_csv` on ``chunks`` chunks of Poisson(7) counts."""
    s = CountSeries(np.random.default_rng(3).poisson(7.0, chunks * _CSV_CHUNK_ROWS), (0, 0), 0, "x")
    tracemalloc.start()
    try:
        write_series_csv(s, tmp_path / "s.csv")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


INT64_MAX = int(np.iinfo(np.int64).max)
# Both sides of every decimal-width boundary, then the largest int64.
DIGIT_BOUNDARIES = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)] + [INT64_MAX]


def series_csv(series, tmp_path):
    """The bytes :func:`write_series_csv` writes for ``series``."""
    path = tmp_path / "series.csv"
    write_series_csv(series, path)
    return path.read_bytes()


def trace_csvs(trace, tmp_path):
    """The bytes :func:`write_trace_csv` writes for ``trace``: the wide file, the long one."""
    paths = tmp_path / "trace.csv", tmp_path / "trace_long.csv"
    write_trace_csv(trace, *paths)
    return tuple(path.read_bytes() for path in paths)


def reference_csv(header, rows):
    """The CSV text of ``rows`` by one f-string per row: the reference for the renderer."""
    return "".join([f"{header}\n", *(",".join(f"{v}" for v in row) + "\n" for row in rows)])


def reference_series_csv(values):
    return reference_csv("t,count", enumerate(values.tolist()))


def reference_trace_csvs(trace):
    columns = [trace.x, trace.x_tilde, trace.u_total, trace.v_total]
    wide = reference_csv("t,x,x_tilde,u_total,v_total",
                         ((t, *row) for t, row in enumerate(zip(*(c.tolist() for c in columns)))))
    rows = sorted([(t, i, "u", c) for t, i, c in trace.u_counts.tolist()]
                  + [(t, i, "v", c) for t, i, c in trace.v_counts.tolist()])
    return wide, reference_csv("t,i,kind,count", rows)


def assert_same_csv(actual, expected):
    """Equal CSV text, or a failure naming the first differing line (pytest's own
    diff of texts this long takes minutes)."""
    if isinstance(actual, bytes):
        actual = actual.decode("ascii", errors="replace")
    if actual != expected:
        got, want = actual.split("\n"), expected.split("\n")
        k = next((k for k, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                 min(len(got), len(want)))
        pytest.fail(f"line {k}: {got[k : k + 1]} != {want[k : k + 1]} "
                    f"({len(got)} vs {len(want)} lines)")


def test_rate_bound_is_numpys():
    # specs computes numpy's POISSON_LAM_MAX without numpy; it must be the same double.
    assert specs._POISSON_LAM_MAX == float(INT64_MAX - 10 * math.sqrt(INT64_MAX))
    assert specs._POISSON_LAM_MAX == float(
        np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max))
    np.random.default_rng(1).poisson(specs._POISSON_LAM_MAX)
    with pytest.raises(ValueError):
        np.random.default_rng(1).poisson(np.nextafter(specs._POISSON_LAM_MAX, np.inf))


class TestBlockBound:
    def test_first_order_chains_are_bounded_as_chains(self):
        # lambda = 2e5, alpha = 0.9: 1.8e6 chains in the start block, 1.8e7 appearances.
        _require_block_size(2e5, 0.9, 0.9, True)
        with pytest.raises(ParameterError, match="chain appearances"):
            _require_block_size(2e5, 0.9, 0.9, False)
        # simulate_inar_inf counts gamma = 0 as intervals and lays out gamma > 0.
        _require_geom_block_size(GeomInarSpec(2e5, 0.9, 0.0))
        with pytest.raises(ParameterError, match="chain appearances"):
            _require_geom_block_size(GeomInarSpec(4e5, 0.5, 0.4))

    @pytest.mark.parametrize("as_intervals", [True, False])
    def test_bound_on_either_side(self, as_intervals):
        # No length class is dense at rates this low, so a step lays out its
        # few chains or appearances and the start block meets the bound: with
        # rho as the reach, m = lam * rho / (1 - rho) chains are under way.
        # The gap path lays out their m / (1 - rho) appearances; the unit-gap
        # path one count per class expecting at least 10 chains, class k
        # expecting m * (1 - rho) * rho**(k - 1), and one entry per chain past them.
        rho = 1.0 - 1e-6

        def start_entries(lam):
            m = lam * rho / (1.0 - rho)
            if not as_intervals:
                return m / (1.0 - rho)
            top = max(0, math.floor(math.log(m * (1.0 - rho) / 10.0) / -math.log(rho)) + 1)
            return top + m * rho**top

        at_bound = brentq(lambda lam: start_entries(lam) - _MAX_BLOCK_APPEARANCES, 1e-9, 1e5)
        assert _dense_classes(at_bound, rho) == 0
        _require_block_size(at_bound * 0.999, rho, rho, as_intervals)
        with pytest.raises(ParameterError, match=str(_MAX_BLOCK_APPEARANCES)):
            _require_block_size(at_bound * 1.001, rho, rho, as_intervals)

    @pytest.mark.parametrize("as_intervals, rho, at_bound", [
        (True, 1.0 - 1e-8, _MAX_BLOCK_APPEARANCES),  # lam chains a step; no class is dense
        (False, 0.5, _MAX_BLOCK_APPEARANCES / 2.0),  # lam / (1 - rho) appearances a step
    ], ids=["unit_gap", "gap"])
    def test_a_one_step_block_meets_the_bound(self, as_intervals, rho, at_bound):
        # With no reach there is no start block, and a step's entries are what the bound reads.
        _require_block_size(at_bound * 0.999, rho, 0.0, as_intervals)
        with pytest.raises(ParameterError, match=str(_MAX_BLOCK_APPEARANCES)):
            _require_block_size(at_bound * 1.001, rho, 0.0, as_intervals)

    def test_unit_gap_path_counts_only_the_chains_it_lays_out(self):
        # lambda = 1e7, rho = 0.40996: 1.69e7 chains under way at step 0 and
        # arriving at it, but the first 17 length classes are per-step counts,
        # which leaves about 4 chains.
        lam, rho = 1e7, 0.40996
        assert lam * rho / (1.0 - rho) + lam > _MAX_BLOCK_APPEARANCES
        assert _dense_classes(lam, rho) == 17
        _require_block_size(lam, rho, rho, True)

    def test_unit_gap_mean_is_bounded_for_exact_sums(self):
        rho = 0.5
        at_bound = _MAX_EXACT_MEAN * (1.0 - rho)
        _require_block_size(at_bound * 0.999, rho, rho, True)
        with pytest.raises(ParameterError, match=f"the bound {_MAX_EXACT_MEAN} "):
            _require_block_size(at_bound * 1.001, rho, rho, True)
        assert _MAX_EXACT_MEAN == 2**53

    def test_short_series_near_the_bound_stays_small(self):
        # lambda = 1e6, alpha = 0.9995: about 2e9 chains under way at step 0.
        # The start draws them as one count per class up to class 23025 and
        # lays out only the ~2e4 chains past it, so a 20-step series peaks far
        # below the bound's 0.7 GB. A child started by this (large) process
        # inherits its peak RSS at exec, so the child forks a fresh process to
        # run the series and reads that one's peak; ru_maxrss is in bytes on
        # macOS and KiB elsewhere.
        _require_block_size(1e6, 0.9995, 0.9995, True)
        code = (
            "import os, sys\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    from inarq import Inar1Spec, RngStream, simulate_inar1\n"
            "    simulate_inar1(Inar1Spec(1e6, 0.9995), 20, RngStream(1))\n"
            "    os._exit(0)\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "assert status == 0, status\n"
            "print(usage.ru_maxrss if sys.platform == 'darwin' else usage.ru_maxrss * 1024)\n"
        )
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr[-500:]
        assert int(res.stdout) < 100 * 2**20, int(res.stdout) / 2**20

    @pytest.mark.parametrize("simulate, t_len, burn_in", [
        (lambda t, b: simulate_inar1(Inar1Spec(LAM, ALPHA), t, RngStream(1), burn_in=b), 10**11, 0),
        (lambda t, b: simulate_inar_inf(IMAGE, t, RngStream(1), burn_in=b), 10, 10**11),
        (lambda t, b: simulate_inar_p(InarPSpec(LAM, (0.3, 0.2)), t, RngStream(1), burn_in=b),
         _MAX_STEPS, 1),
        # A sparse trace passes the appearance bound, but not the step bound.
        (lambda t, b: simulate_individual_level(Inar1Spec(1e-9, ALPHA), ReportingSpec(q=Q), t,
                                                RngStream(1)), 10**11, 0),
    ], ids=["inar1_t", "inar_inf_burn_in", "inar_p_one_past", "individual_level_t"])
    def test_step_count_is_bounded_before_any_draw(self, monkeypatch, simulate, t_len, burn_in):
        def no_simulation(*args):
            raise AssertionError("simulated before bounding the steps")

        monkeypatch.setattr(processes, "_chain_blocks", no_simulation)
        monkeypatch.setattr(processes, "_class_lengths", no_simulation)
        monkeypatch.setattr(processes, "_class_counts", no_simulation)
        with pytest.raises(ParameterError, match=f"more than the bound {_MAX_STEPS}"):
            simulate(t_len, burn_in)

    @pytest.mark.parametrize("simulate", [
        # 2e7 chains under way with too few per class to count any; 2 a step.
        lambda: simulate_inar1(Inar1Spec(2.0, 1.0 - 1e-7), 10, RngStream(1)),
        # 2e7 appearances of the chains under way; 1e3 a step.
        lambda: simulate_inar_inf(GeomInarSpec(0.1, 0.49995, 0.5), 10, RngStream(1)),
    ], ids=["unit_gap", "gap"])
    def test_start_block_is_bounded_before_any_draw(self, monkeypatch, simulate):
        def no_simulation(*args):
            raise AssertionError("simulated before bounding the start block")

        monkeypatch.setattr(processes, "_chain_blocks", no_simulation)
        monkeypatch.setattr(processes, "_class_lengths", no_simulation)
        monkeypatch.setattr(processes, "_class_counts", no_simulation)
        with pytest.raises(ParameterError, match=f"about 2e\\+07 .* {_MAX_BLOCK_APPEARANCES}"):
            simulate()

    def test_individual_level_keeps_the_appearance_bound(self, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated before bounding the block")

        monkeypatch.setattr(processes, "_chain_blocks", no_simulation)
        # It starts empty: 2e6 chains in the first block and 2e7 appearances.
        with pytest.raises(ParameterError, match="chain appearances"):
            simulate_individual_level(Inar1Spec(2e6, 0.9), ReportingSpec(q=0.5), 10, RngStream(1))


    def test_individual_level_bounds_the_whole_trace(self, monkeypatch):
        # Every in-horizon appearance is laid out, about lambda * t / (1 - alpha):
        # a long trace is rejected before any draw, even when its first block
        # (lambda / (1 - alpha) appearances here) is small.
        def no_simulation(*args):
            raise AssertionError("simulated before bounding the trace")

        monkeypatch.setattr(processes, "_chain_blocks", no_simulation)
        spec, rep = Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q)
        at_bound = _MAX_BLOCK_APPEARANCES * (1 - ALPHA) / LAM
        with pytest.raises(AssertionError, match="before bounding"):
            simulate_individual_level(spec, rep, int(at_bound * 0.999), RngStream(1))
        with pytest.raises(ParameterError, match=str(_MAX_BLOCK_APPEARANCES)):
            simulate_individual_level(spec, rep, int(at_bound * 1.001), RngStream(1))


class TestCsvAgainstReference:
    """Every CSV writer against a per-row f-string formatter, byte for byte."""

    @pytest.mark.parametrize("values", [
        [0] * 5,
        [0],
        [7],
        DIGIT_BOUNDARIES,
        DIGIT_BOUNDARIES[::-1],
        # the t column widens from 1 to 5 digits inside the first chunk, then a second chunk
        np.random.default_rng(3).poisson(7.0, _CSV_CHUNK_ROWS + 17),
    ], ids=["all_zero", "one_zero_row", "one_row", "digit_boundaries", "boundaries_reversed",
            "two_chunks"])
    def test_series(self, tmp_path, values):
        s = CountSeries(np.asarray(values, dtype=np.int64), (0, 0), 0, "x")
        assert_same_csv(series_csv(s, tmp_path), reference_series_csv(s.values))

    class BoundaryTrace:
        """What :func:`write_trace_csv` reads of a trace, with every wide column
        and both tables' counts running through DIGIT_BOUNDARIES. No valid
        trace holds counts near INT64_MAX; t and i stay below the length."""

        def __init__(self):
            v = np.array(DIGIT_BOUNDARIES, dtype=np.int64)
            self.x = self.x_tilde = v
            self.u_total, self.v_total = v // 2, v - v // 2
            steps = np.arange(v.size)
            self.u_counts = np.column_stack((steps, steps[::-1], v))
            self.v_counts = self.u_counts[::3]

        def __len__(self):
            return self.x.size

    def test_chunks_starting_inside_decades(self, tmp_path, monkeypatch):
        # 7-row chunks of 1234 rows: chunks start at every residue mod 10 and
        # cross t = 10, 100 and 1000 inside a chunk.
        monkeypatch.setattr(processes, "_CSV_CHUNK_ROWS", 7)
        s = CountSeries(np.random.default_rng(5).poisson(30.0, 1234), (0, 0), 0, "x")
        assert_same_csv(series_csv(s, tmp_path), reference_series_csv(s.values))
        trace = simulate_individual_level(Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 1234,
                                          RngStream(9))
        wide, long = reference_trace_csvs(trace)
        written = trace_csvs(trace, tmp_path)
        assert_same_csv(written[0], wide)
        assert_same_csv(written[1], long)
        assert long.count("\n") > 1000  # the long CSV's t crosses 1000 inside its chunks too

    @pytest.mark.parametrize("make, kinds", [
        (lambda: simulate_individual_level(Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 5_000,
                                           RngStream(8)), {"u", "v"}),
        # no survival, so no re-observations: the long CSV has only u rows
        (lambda: simulate_individual_level(Inar1Spec(LAM, 0.0), ReportingSpec(q=Q), 5_000,
                                           RngStream(8)), {"u"}),
        (lambda: TestCsvAgainstReference.BoundaryTrace(), {"u", "v"}),
    ], ids=["worked_example", "no_reobservations", "digit_boundaries"])
    def test_trace(self, tmp_path, make, kinds):
        trace = make()
        wide, long = reference_trace_csvs(trace)
        written = trace_csvs(trace, tmp_path)
        assert_same_csv(written[0], wide)
        assert_same_csv(written[1], long)
        assert {row.split(",")[2] for row in long.splitlines()[1:]} == kinds


class TestInar1:
    def test_rejects_zero_length(self):
        with pytest.raises(ParameterError):
            simulate_inar1(Inar1Spec(LAM, ALPHA), 0, RngStream(1))

    def test_spec_invariants(self):
        with pytest.raises(ParameterError):
            Inar1Spec(0.0, 0.5)
        with pytest.raises(ParameterError):
            Inar1Spec(1.0, 1.0)
        for lam in (math.inf, math.nan, 1e300):
            with pytest.raises(ParameterError, match="immigration rate"):
                Inar1Spec(lam, 0.5)

    def test_no_autoregression_gives_iid_poisson(self, reseed_once):
        def check(seed):
            s = simulate_inar1(Inar1Spec(LAM, 0.0), 50_000, RngStream(seed))
            se = math.sqrt(LAM / len(s))
            assert abs(s.values.mean() - LAM) <= 3 * se
            assert abs(acf(s.values)) <= 3 / math.sqrt(len(s))

        reseed_once(check, 11, 12)

    @pytest.mark.parametrize("lam, t_len, seeds, as_counts", [
        (20.0, 50_000, (13, 14), True),
        (5e4, 1_000, (15, 16), True),
        (20.0, 50_000, (17, 18), False),  # about 30 blocks of 1638 steps
        (5e4, 1_000, (19, 20), False),  # one step per block
    ], ids=["many_steps_per_block", "one_step_per_block",
            "many_steps_per_block_as_chains", "one_step_per_block_as_chains"])
    def test_block_arrival_draw_is_iid_poisson(self, reseed_once, lam, t_len, seeds, as_counts):
        # A block's Poisson(lam * width) immigrants land on uniform steps of it,
        # which must leave the per-step counts iid Poisson(lam) across blocks.
        # simulate_inar1 draws this dense class as per-step counts; the
        # gap-layout path draws the same class as chains.
        bins = 10
        edges = sps.poisson.ppf(np.arange(1, bins) / bins, lam)
        probs = np.diff(np.concatenate(([0.0], sps.poisson.cdf(edges, lam), [1.0])))

        def check(seed):
            if as_counts:
                s = simulate_inar1(Inar1Spec(lam, 0.0), t_len, RngStream(seed)).values
            else:
                s, _ = _count_chains(_chain_blocks(lam, 0.0, t_len, RngStream(seed)),
                                     unit_gaps_by_draw, t_len)
            observed = np.bincount(np.searchsorted(edges, s), minlength=bins)
            stat = float(((observed - t_len * probs) ** 2 / (t_len * probs)).sum())
            assert sps.chi2.sf(stat, bins - 1) >= 0.0027, stat
            assert abs(acf(s)) <= 3 / math.sqrt(t_len)

        reseed_once(check, *seeds)

    def test_stationary_mean_and_acf(self, reseed_once):
        def check(seed):
            s = simulate_inar1(Inar1Spec(LAM, ALPHA), 200_000, RngStream(seed))
            assert abs(s.values.mean() - STATIONARY_MEAN) <= 3 * batch_se(s.values)
            assert abs(acf(s.values) - ALPHA) <= 3 * batch_acf_se(s.values)
            # the independent reference recursion agrees with the same targets
            ref = oracle_inar1(LAM, ALPHA, 200_000, seed)
            assert abs(ref.mean() - STATIONARY_MEAN) <= 3 * batch_se(ref)
            assert abs(acf(ref) - ALPHA) <= 3 * batch_acf_se(ref)

        reseed_once(check, 21, 22)

    def test_deterministic_given_seed(self, tmp_path):
        a = simulate_inar1(Inar1Spec(LAM, ALPHA), 2_000, RngStream(5, 7))
        b = simulate_inar1(Inar1Spec(LAM, ALPHA), 2_000, RngStream(5, 7))
        assert np.array_equal(a.values, b.values)
        assert series_csv(a, tmp_path) == series_csv(b, tmp_path)


class TestInarP:
    def test_spec_invariants(self):
        with pytest.raises(ParameterError):
            InarPSpec(1.0, (0.6, 0.5))
        with pytest.raises(ParameterError):
            InarPSpec(1.0, (-0.1,))
        with pytest.raises(ParameterError, match="finite"):
            InarPSpec(1.0, (math.nan,))

    def test_no_lags_gives_iid_poisson(self, reseed_once):
        def check(seed):
            s = simulate_inar_p(InarPSpec(LAM, ()), 50_000, RngStream(seed))
            se = math.sqrt(LAM / len(s))
            assert abs(s.values.mean() - LAM) <= 3 * se

        reseed_once(check, 31, 32)

    def test_order_one_matches_first_order_simulator(self, reseed_once):
        def check(seed):
            p1 = simulate_inar_p(InarPSpec(LAM, (ALPHA,)), 100_000, RngStream(seed))
            i1 = simulate_inar1(Inar1Spec(LAM, ALPHA), 100_000, RngStream(seed + 1))
            se = math.hypot(batch_se(p1.values), batch_se(i1.values))
            assert abs(p1.values.mean() - i1.values.mean()) <= 3 * se
            se_acf = math.hypot(batch_acf_se(p1.values), batch_acf_se(i1.values))
            assert abs(acf(p1.values) - acf(i1.values)) <= 3 * se_acf

        reseed_once(check, 41, 42)

    def test_stationary_mean_two_lags(self, reseed_once):
        # mean is lambda / (1 - sum of weights) = 1 / 0.5 = 2
        def check(seed):
            s = simulate_inar_p(InarPSpec(1.0, (0.3, 0.2)), 200_000, RngStream(seed))
            assert abs(s.values.mean() - 2.0) <= 3 * batch_se(s.values)

        reseed_once(check, 51, 52)


class TestInarInf:
    def test_spec_invariants(self):
        with pytest.raises(ParameterError):
            GeomInarSpec(1.0, 0.6, 0.4)  # beta must stay below 1 - gamma
        with pytest.raises(ParameterError):
            GeomInarSpec(1.0, 0.1, -0.1)
        for args in ((math.inf, 0.1, 0.1), (1.0, math.nan, 0.1), (1.0, 0.1, math.inf)):
            with pytest.raises(ParameterError):
                GeomInarSpec(*args)
        # boundary degenerations are admitted
        GeomInarSpec(1.0, 0.0, 0.0)
        GeomInarSpec(1.0, 0.5, 0.0)

    def test_no_renewals_gives_iid_poisson(self, reseed_once):
        def check(seed):
            s = simulate_inar_inf(GeomInarSpec(LAM, 0.0, 0.0), 50_000, RngStream(seed))
            se = math.sqrt(LAM / len(s))
            assert abs(s.values.mean() - LAM) <= 3 * se

        reseed_once(check, 61, 62)

    def test_stationary_mean(self, reseed_once):
        def check(seed):
            s = simulate_inar_inf(IMAGE, 200_000, RngStream(seed))
            assert abs(s.values.mean() - OBSERVED_MEAN) <= 3 * batch_se(s.values)

        reseed_once(check, 71, 72)

    def test_marginal_is_thinned_poisson(self, reseed_once):
        from scipy import stats as sps

        def check(seed):
            s = simulate_inar_inf(IMAGE, 200_000, RngStream(seed))
            support = np.arange(int(s.values.max()) + 1)
            target = {int(k): float(sps.poisson.pmf(k, OBSERVED_MEAN)) for k in support}
            assert tv(empirical_pmf(s.values), target) <= 0.01

        reseed_once(check, 81, 82)

    def test_deterministic_given_seed(self):
        a = simulate_inar_inf(IMAGE, 2_000, RngStream(5, 7))
        b = simulate_inar_inf(IMAGE, 2_000, RngStream(5, 7))
        assert np.array_equal(a.values, b.values)


def unit_gaps_by_draw(k):
    """Every gap 1, but not the sentinel: takes the kernel's general path."""
    return np.ones(k, dtype=np.int64)


def as_chains(blocks):
    """``blocks`` with their per-step class counts laid out as chains."""
    for t0, arrivals, lengths, hist in blocks:
        k, s = np.indices(hist.shape)
        n = hist.ravel()
        yield (t0, np.concatenate((arrivals, np.repeat(t0 + s.ravel(), n))),
               np.concatenate((lengths, np.repeat(k.ravel() + 1, n))), hist[:0])


class TestChainKernel:
    @pytest.mark.parametrize("lam, rho, steps", [
        (LAM, ALPHA, 1),
        (20.0, 0.5, 50_000),  # many blocks
        (LAM, 0.95, 400),  # chains of 20 steps on average, many past the horizon
        (2e3, 0.9, 300),  # 40 classes drawn as per-step counts
        (1e3, 0.99, 300),  # a start counted up to class 458, past the 120 dense classes
    ], ids=["one_step", "many_blocks", "past_horizon", "dense_classes", "start_past_skip"])
    def test_unit_gap_counting_matches_layout(self, lam, rho, steps):
        # Chains under way at step 0, as the stationary start puts them: its
        # counted classes as counts at step 0, the others as chains, and one
        # chain certain to run past the horizon.
        blocks = list(_chain_blocks(lam, rho, steps, RngStream(3), rho, dense=True))
        blocks.append((0, np.zeros(1, np.int64), np.array([steps + 1]), np.zeros((0, 1), np.int64)))
        # The same chains for both counters: the unit-gap path's per-step class
        # counts, laid out as chains for the other.
        runs = [_count_chains(blocks, _unit_gaps, steps),
                _count_chains(as_chains(blocks), unit_gaps_by_draw, steps)]
        (counted, counted_stats), (laid_out, laid_out_stats) = runs
        assert counted.tobytes() == laid_out.tobytes()
        assert counted_stats == laid_out_stats
        # A chain is present at steps [arrival, arrival + length); count the
        # steps of each at or past the horizon.
        beyond = sum(int(np.maximum(0, arrivals + lengths - np.maximum(arrivals, steps)).sum())
                     for _, arrivals, lengths, _ in as_chains(blocks))
        assert counted_stats["beyond"] == beyond > 0

    @pytest.mark.parametrize("lam, steps, dense", [
        (20.0, 50_000, False), (5e4, 5, False), (20.0, 50_000, True), (5e4, 5, True),
    ], ids=["many_steps_per_block", "one_step_per_block",
            "many_steps_per_block_class_counts", "one_step_per_block_class_counts"])
    def test_each_block_draws_its_arrivals_inside_it(self, lam, steps, dense):
        # The chains under way at step 0 come first, as a block of their own
        # at step 0; they next appear at steps 0..8.
        under_way = []

        def residual_draw(k):
            under_way.append(np.arange(k, dtype=np.int64) % 9)
            return under_way[-1] + 1

        blocks = list(_chain_blocks(lam, 0.5, steps, RngStream(9), 0.5, residual_draw, dense))
        [start] = under_way
        t0, arrivals, lengths, counts = blocks.pop(0)
        assert t0 == 0 and start.size > 0 and np.array_equal(arrivals, start)
        assert lengths.shape == start.shape and (lengths >= 1).all()
        if dense:
            # the start's counted classes, the dense ones at least, are one
            # column of counts; only the chains past them are laid out
            assert counts.shape[1] == 1 and len(counts) >= _dense_classes(lam, 0.5) > 0
            assert (counts >= 0).all() and (lengths > len(counts)).all()
        else:
            assert counts.shape == (0, 1)
        starts = [t0 for t0, _, _, _ in blocks]
        width = starts[1] if len(starts) > 1 else steps  # a dense spec's blocks are wide
        assert starts == list(range(0, steps, width)) and starts[-1] < steps
        for (t0, arrivals, lengths, hist), end in zip(blocks, starts[1:] + [steps]):
            assert (t0 <= arrivals).all() and (arrivals < end).all()
            assert arrivals.shape == lengths.shape and (lengths >= 1).all()
            # per-step counts of the dense classes, one column per step of the block
            assert hist.shape == (_dense_classes(lam, 0.5) if dense else 0, end - t0)
            assert (hist >= 0).all()

    @pytest.mark.parametrize("lam, rho, reach, dense, steps", [
        (2e3, 0.9, 0.9, True, 1_500),  # 40 dense classes, a start counted to class 50
        (100.0, 1.0 - 1e-5, 1.0 - 1e-5, True, 1_000),  # 2.3e5 counted start classes, 1e6 chains
        (200.0, 0.75, 1.875, False, 100),  # GeomInarSpec(200, 0.3, 0.6)'s gap layout
    ], ids=["dense_unit_gap", "sparse_unit_gap", "gap"])
    def test_blocks_lay_out_what_the_layout_expects(self, lam, rho, reach, dense, steps):
        # Entries are class counts and chains on the unit-gap path, where the
        # chains are the random part, Poisson; appearances on the gap path,
        # a compound Poisson sum of Geom(1 - rho) lengths, whose variance is
        # its mean times (1 + rho) / (1 - rho).
        def entries(block):
            _, arrivals, lengths, hist = block
            return hist.size + arrivals.size if dense else int(lengths.sum())

        def assert_near(got, want, counts):
            var = want - counts if dense else want * (1.0 + rho) / (1.0 - rho)
            assert abs(got - want) <= 5.0 * math.sqrt(var), (got, want)

        skip, top, per_step, start = _layout(lam, rho, reach, dense)
        blocks = _chain_blocks(lam, rho, steps, RngStream(17), reach, dense=dense)
        first = next(blocks)
        assert first[0] == 0 and len(first[3]) == (top if dense else 0)
        assert_near(entries(first), start, top)
        regular, width = next(blocks), next(blocks)[0]
        assert regular[0] == 0 and 1 <= width < steps
        assert_near(entries(regular), width * per_step, width * skip)

    def test_no_reach_draws_no_start(self):
        # The individual-level simulator starts empty: without a reach the
        # stream's first draws are the first block's chains.
        t0, arrivals, lengths, _ = next(_chain_blocks(LAM, ALPHA, 100, RngStream(8)))
        rng = RngStream(8)
        assert t0 == 0 and np.array_equal(lengths, _class_lengths(LAM * 100, ALPHA, 0, rng))
        assert np.array_equal(arrivals, rng.generator.integers(0, 100, lengths.size))

    @pytest.mark.parametrize("t_len, burn_in", [(1, 0), (1, 9), (3_000, 500)])
    def test_first_order_series_count_chains_as_intervals(self, monkeypatch, t_len, burn_in):
        laid_out = _chain_series(LAM, ALPHA, ALPHA, unit_gaps_by_draw, unit_gaps_by_draw,
                                 t_len, burn_in, RngStream(5), "ones")

        def no_layout(*args):
            raise AssertionError("a first-order series laid out its appearances")

        monkeypatch.setattr(processes, "_later_appearances", no_layout)
        first = simulate_inar1(Inar1Spec(LAM, ALPHA), t_len, RngStream(5), burn_in)
        geom = simulate_inar_inf(GeomInarSpec(LAM, ALPHA, 0.0), t_len, RngStream(5), burn_in)
        assert first.values.tobytes() == geom.values.tobytes() == laid_out.values.tobytes()
        assert len(first) == t_len

    def test_conserves_appearances(self):
        # Slow decay, so many chains cross block boundaries and the horizon.
        spec = GeomInarSpec(5.0, 0.3, 0.6)
        rng = RngStream(91)

        drawn = []

        def gaps(k):
            drawn.append(geometric_draws(1.0 - spec.gamma, k, rng))
            return drawn[-1]

        blocks = list(_chain_blocks(spec.lambda_, spec.total_weight, 20_000, rng))
        _, stats = _count_chains(blocks, gaps, 20_000)
        # Rebuild each chain's times from the gaps it was given, in chain
        # order within a block, and count those at or past the horizon.
        drawn_gaps = iter(np.concatenate(drawn).tolist())
        beyond = 0
        for _, arrivals, lengths, _ in blocks:
            for arrival, later in zip(arrivals.tolist(), (lengths - 1).tolist()):
                times = itertools.accumulate(itertools.islice(drawn_gaps, later), initial=arrival)
                beyond += sum(t >= 20_000 for t in times)
        assert next(drawn_gaps, None) is None
        assert stats["beyond"] == beyond > 0
        assert stats["appearances"] > stats["chains"] > 0

    @pytest.mark.parametrize(
        "name, simulate, weights, mean, seeds",
        [
            ("inar1", lambda s: simulate_inar1(Inar1Spec(20.0, 0.5), 50_000, RngStream(s)),
             [0.5], 40.0, (131, 132)),
            ("inar_p",
             lambda s: simulate_inar_p(InarPSpec(20.0, (0.3, 0.15, 0.07)), 50_000, RngStream(s)),
             [0.3, 0.15, 0.07], 20.0 / 0.48, (141, 142)),
            ("geom_inf",
             lambda s: simulate_inar_inf(GeomInarSpec(20.0, 0.3, 0.4), 50_000, RngStream(s)),
             [0.3 * 0.4 ** (i - 1) for i in range(1, 6)], 20.0 * 0.6 / 0.3, (151, 152)),
        ],
        ids=["inar1", "inar_p", "geom_inf"],
    )
    def test_dense_moments_over_many_blocks(self, reseed_once, name, simulate, weights, mean,
                                            seeds):
        assert 50_000 * mean > 10 * _BLOCK_APPEARANCES  # the run spans many blocks

        def check(seed):
            s = simulate(seed).values
            assert abs(s.mean() - mean) <= 3 * batch_se(s), name
            for k, target in enumerate(renewal_acf(weights, 5), start=1):
                assert abs(acf(s, k) - target) <= 3 * batch_acf_se(s, k), (name, k)

        reseed_once(check, *seeds)

    def test_geometric_lag_without_decay_matches_first_order(self, reseed_once):
        def check(seed):
            g = simulate_inar_inf(GeomInarSpec(LAM, ALPHA, 0.0), 100_000, RngStream(seed))
            i1 = simulate_inar1(Inar1Spec(LAM, ALPHA), 100_000, RngStream(seed + 1))
            se = math.hypot(batch_se(g.values), batch_se(i1.values))
            assert abs(g.values.mean() - i1.values.mean()) <= 3 * se
            for k in range(1, 6):
                se_acf = math.hypot(batch_acf_se(g.values, k), batch_acf_se(i1.values, k))
                assert abs(acf(g.values, k) - acf(i1.values, k)) <= 3 * se_acf

        reseed_once(check, 161, 162)


class CountingGenerator:
    """A numpy Generator that counts the calls of each method and the values they return."""

    def __init__(self, generator):
        self._generator = generator
        self.calls, self.values = collections.Counter(), collections.Counter()

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls[name] += 1
            self.values[name] += np.size(out)
            return out

        return counted


def counting_stream(seed):
    rng = RngStream(seed)
    rng.generator = CountingGenerator(rng.generator)
    return rng


class TestClassDraw:
    """Chains drawn by length class: the length law, the draws they cost and
    the moments of high-rate series."""

    @pytest.mark.parametrize("rho, seeds", [
        (0.0, (301, 302)),
        (0.5, (303, 304)),
        (0.9, (305, 306)),
        (0.999, (307, 308)),
    ])
    @pytest.mark.parametrize("dense", [False, True], ids=["chains", "class_counts"])
    def test_lengths_are_geometric(self, reseed_once, rho, seeds, dense):
        # Every chain's length, whether drawn as an explicit class, in the tail
        # past the last one or as a per-step class count, against the exact
        # Geom(1 - rho) pmf: a chi-square test at the 0.1% level, over the
        # lengths expecting at least 5 chains and one bin for the rest. Given
        # their total, the class counts are multinomial, so the test
        # conditions on it. With dense = True, lambda = 50 puts the first
        # classes into per-step counts (rho <= 0.9) and fills blocks with
        # 32768 chains, so rho = 0.999 draws about 1200 explicit classes.
        lam, steps = 50.0, 2_000

        def check(seed):
            observed = np.zeros(1, dtype=np.int64)
            for _, _, lengths, hist in _chain_blocks(lam, rho, steps, RngStream(seed),
                                                       dense=dense):
                per_class = np.concatenate(([0], hist.sum(axis=1)))
                counts = np.bincount(lengths, minlength=per_class.size)
                counts[: per_class.size] += per_class
                observed = np.pad(observed, (0, max(0, counts.size - observed.size)))
                observed[: counts.size] += counts
            n = int(observed.sum())
            assert abs(n - lam * steps) <= 4 * math.sqrt(lam * steps)
            if rho == 0.0:  # Geom(1) is one point
                assert observed[1] == n
                return
            pmf = sps.geom.pmf(np.arange(1, observed.size), 1 - rho)
            bins = int(np.argmax(n * pmf < 5)) if (n * pmf < 5).any() else pmf.size
            expected = np.append(n * pmf[:bins], n * sps.geom.sf(bins, 1 - rho))
            got = np.append(observed[1 : bins + 1], observed[bins + 1 :].sum())
            stat = float(((got - expected) ** 2 / expected).sum())
            assert sps.chi2.sf(stat, bins) >= 0.001, (stat, bins)

        reseed_once(check, *seeds)

    def test_high_rate_draws_grow_with_log_rate(self):
        # lambda = 2e5 immigrants per step for 100 steps, plus 2e5 under way:
        # 2e7 chains, but each class expecting several chains per step is one
        # count per step, so the values drawn are O(T * log(lambda)).
        rng = counting_stream(11)
        series = simulate_inar1(Inar1Spec(2e5, 0.5), 100, rng)
        drawn = sum(rng.generator.values.values())
        assert drawn <= 2 * 100 * math.log2(2e5), rng.generator.values
        assert abs(series.values.mean() - 4e5) <= 4 * math.sqrt(4e5 / 100 * 3)

    @pytest.mark.parametrize("gaps", [_unit_gaps, unit_gaps_by_draw],
                             ids=["intervals", "layout"])
    def test_slow_decay_draws_at_most_one_length_value_per_chain(self, gaps):
        # rho = 0.999: blocks expect few chains per class, so explicit classes
        # stay few; every length value beyond the block's Poisson count is a
        # chain's (its tail length), never a class expecting under one chain.
        rng = counting_stream(12)
        _, stats = _count_chains(
            _chain_blocks(1.62, 0.999, 5_000, rng, dense=gaps is _unit_gaps), gaps, 5_000)
        values, calls = rng.generator.values, rng.generator.calls
        blocks = calls["integers"]  # one arrival draw per block
        assert values["poisson"] + values["random"] <= stats["chains"] + blocks, (values, stats)

    @pytest.mark.parametrize("lam, t_len, seeds", [
        (2e3, 20_000, (311, 312)),
        (2e5, 10_000, (313, 314)),
    ])
    def test_high_rate_moments(self, reseed_once, lam, t_len, seeds):
        # Mean lambda / (1 - alpha), a Poisson marginal (variance = mean) and
        # lag-1 autocorrelation alpha, each within 3 batch-means standard
        # errors (50 batches).
        alpha = 0.5
        mean = lam / (1 - alpha)

        def check(seed):
            s = simulate_inar1(Inar1Spec(lam, alpha), t_len, RngStream(seed)).values
            assert abs(s.mean() - mean) <= 3 * batch_se(s)
            variances = s.astype(float).reshape(50, -1).var(axis=1, ddof=1)
            assert abs(s.var(ddof=1) - mean) <= 3 * variances.std(ddof=1) / math.sqrt(50)
            assert abs(acf(s) - alpha) <= 3 * batch_acf_se(s)

        reseed_once(check, *seeds)


class TestStationaryStart:
    """Every series simulator starts in its stationary law, with no burn-in."""

    REPLICATES, BATCHES = 3_000, 20

    @pytest.mark.parametrize(
        "simulate, weights, mean, seeds",
        [
            (lambda r: simulate_inar1(Inar1Spec(LAM, ALPHA), 4, r), [ALPHA], STATIONARY_MEAN,
             (181, 182)),
            # two classes drawn as per-step counts, their step-0 chains too
            (lambda r: simulate_inar1(Inar1Spec(20.0, 0.5), 4, r), [0.5], 40.0, (183, 184)),
            (lambda r: simulate_inar_p(InarPSpec(LAM, (0.3, 0.15, 0.07)), 4, r),
             [0.3, 0.15, 0.07], LAM / 0.48, (191, 192)),
            (lambda r: simulate_inar_inf(GeomInarSpec(20.0, 0.3, 0.4), 4, r),
             [0.3 * 0.4 ** (i - 1) for i in range(1, 4)], 20.0 * 0.6 / 0.3, (201, 202)),
        ],
        ids=["inar1", "inar1_dense", "inar_p", "geom_inf"],
    )
    def test_first_steps_have_the_stationary_law(self, reseed_once, simulate, weights, mean,
                                                   seeds):
        n = self.REPLICATES

        def corr(a, b):
            return np.corrcoef(a, b)[0, 1]

        def check(seed):
            series = [simulate(RngStream(seed, i)) for i in range(n)]
            assert {s.burn_in for s in series} == {0}
            x = np.array([s.values for s in series], dtype=float)
            assert abs(x[:, 0].mean() - mean) <= 3 * math.sqrt(mean / n)
            # The marginal is Poisson: its variance is its mean, and the sample
            # variance has variance (mean + 2 mean**2) / n.
            assert abs(x[:, 0].var(ddof=1) - mean) <= 3 * math.sqrt((mean + 2 * mean**2) / n)
            batches = x.reshape(self.BATCHES, -1, x.shape[1])
            for k, target in enumerate(renewal_acf(weights, 3), start=1):
                per_batch = [corr(b[:, 0], b[:, k]) for b in batches]
                se = np.std(per_batch, ddof=1) / math.sqrt(self.BATCHES)
                assert abs(corr(x[:, 0], x[:, k]) - target) <= 3 * se, k

        reseed_once(check, *seeds)


def thinning_chi_square(latent, reported, q, omega):
    """Chi-square statistic and degrees of freedom of the reported counts,
    grouped by latent count n, against their law given n: Binomial(n, q)
    with probability omega, n otherwise.

    Within each group, consecutive values are merged into bins of at least
    5 expected entries; a short last bin joins the one before it.
    """
    stat, df = 0.0, 0
    for n in np.unique(latent):
        got = reported[latent == n]
        expected = omega * sps.binom.pmf(np.arange(n + 1), n, q) * got.size
        expected[n] += (1.0 - omega) * got.size
        ends, acc = [], 0.0
        for k, e in enumerate(expected):
            acc += e
            if acc >= 5.0:
                ends.append(k + 1)
                acc = 0.0
        if len(ends) < 2:
            continue
        ends[-1] = n + 1
        starts = [0] + ends[:-1]
        bin_expected = np.add.reduceat(expected, starts)
        observed = np.bincount(np.searchsorted(ends, got, side="right"), minlength=len(ends))
        stat += float(((observed - bin_expected) ** 2 / bin_expected).sum())
        df += len(ends) - 1
    return stat, df


class TestApplyReporting:
    def test_full_reporting_is_identity(self):
        s = simulate_inar1(Inar1Spec(LAM, ALPHA), 1_000, RngStream(1))
        for omega in (1.0, 0.5, 0.0):
            rng = RngStream(2)
            out = apply_reporting(s, ReportingSpec(q=1.0, omega=omega), rng)
            assert np.array_equal(out.values, s.values)
            # No draw: the generator's next draws are a fresh stream's first.
            assert np.array_equal(rng.generator.random(4), RngStream(2).generator.random(4))

    @pytest.mark.parametrize("q", [0.33, 0.9])
    @pytest.mark.parametrize("omega", [1.0, 0.5])
    def test_reported_count_given_latent_count(self, reseed_once, q, omega):
        # Shuffled groups of equal latent counts, one of them at or above 2**16
        # so that the counts are ordered as int64, not uint16.
        latent = np.repeat([0, 1, 2, 3, 7, 20, 100, 70_000], 2_000)
        np.random.default_rng(5).shuffle(latent)
        series = CountSeries(latent, (0, 0), 0, "groups")

        def check(seed):
            out = apply_reporting(series, ReportingSpec(q=q, omega=omega), RngStream(seed))
            stat, df = thinning_chi_square(latent, out.values, q, omega)
            assert df > 20
            assert sps.chi2.sf(stat, df) > 1e-4, (stat, df)

        reseed_once(check, 121, 122)

    def test_never_underreported_is_identity(self):
        s = simulate_inar1(Inar1Spec(LAM, ALPHA), 1_000, RngStream(1))
        out = apply_reporting(s, ReportingSpec(q=0.4, omega=0.0), RngStream(2))
        assert np.array_equal(out.values, s.values)

    def test_reported_never_exceeds_latent(self):
        s = simulate_inar1(Inar1Spec(LAM, ALPHA), 5_000, RngStream(1))
        for omega in (1.0, 0.5):
            out = apply_reporting(s, ReportingSpec(q=0.33, omega=omega), RngStream(2))
            assert (out.values <= s.values).all()
            assert (out.values >= 0).all()

    def test_thinned_mean(self, reseed_once):
        def check(seed):
            s = simulate_inar1(Inar1Spec(LAM, ALPHA), 200_000, RngStream(seed))
            out = apply_reporting(s, ReportingSpec(q=Q), RngStream(seed + 1))
            assert abs(out.values.mean() - OBSERVED_MEAN) <= 3 * batch_se(out.values)

        reseed_once(check, 111, 112)

    def test_reporting_spec_invariants(self):
        with pytest.raises(ParameterError):
            ReportingSpec(q=0.0)
        with pytest.raises(ParameterError):
            ReportingSpec(q=0.5, omega=1.5)
        for q, omega in ((math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0)):
            with pytest.raises(ParameterError):
                ReportingSpec(q=q, omega=omega)


def sorted_thin(counts, q, g):
    """The sorted-binomial thinning that series with a count above the table's top keep."""
    key = counts.astype(np.uint16) if counts.max(initial=0) < 1 << 16 else counts
    order = np.argsort(key, kind="stable")
    thinned = np.empty_like(counts)
    thinned[order] = g.binomial(counts[order], q)
    return thinned


TABLE_COUNTS = (0, 1, 2, 3, 8, 16, 31, 32)


class TestThinTable:
    """Series whose counts are at most 32 are thinned by the byte-indexed
    inversion table."""

    @pytest.mark.parametrize("q", [1e-3, 1 / 256, 0.25, 0.33, 0.5, 3 / 7, 0.9, 0.999])
    def test_law(self, reseed_once, q):
        latent = np.repeat(TABLE_COUNTS, 20_000)
        np.random.default_rng(7).shuffle(latent)

        def check(seed):
            reported = _thin(latent, q, RngStream(seed).generator)
            stat, df = thinning_chi_square(latent, reported, q, 1.0)
            assert df >= 1
            assert sps.chi2.sf(stat, df) > 1e-4, (stat, df)

        reseed_once(check, 131, 132)

    @pytest.mark.parametrize("q", [0.9, 0.999])
    def test_draw_never_exceeds_count(self, q):
        counts = np.tile(np.arange(33), 40_000)
        reported = _thin(counts, q, RngStream(3).generator)
        assert ((0 <= reported) & (reported <= counts)).all()
        # Each row's top draw occurs; its CDF step lies inside a cell at these q.
        assert (np.bincount(counts, weights=reported == counts)[1:] > 0).all()

    def test_above_the_top_draws_as_the_sorted_path(self):
        counts = np.random.default_rng(1).poisson(8.0, 5_000)
        counts[17] = 33
        got = _thin(counts, 0.33, RngStream(4).generator)
        want = sorted_thin(counts, 0.33, RngStream(4).generator)
        assert got.tobytes() == want.tobytes()

    def test_at_the_top_never_calls_binomial(self):
        counts = np.minimum(np.random.default_rng(1).poisson(8.0, 5_000), 32)
        counts[17] = 32
        g = CountingGenerator(RngStream(4).generator)
        _thin(counts, 0.33, g)
        assert g.calls["binomial"] == 0
        assert g.calls["integers"] == 1

    @pytest.mark.parametrize("q", [1e-9, 0.5, 0.999999, 0.33, 2.0**-8, *np.linspace(0.0, 1.0, 61)])
    def test_table_matches_the_per_row_reference(self, q):
        want = reference_byte_table(processes._binomial_table(q, _TABLE_TOP),
                                    np.arange(_TABLE_TOP + 1))
        assert_same_arrays(_inversion_table.__wrapped__(q), want)

    def test_table_is_cached_and_read_only(self):
        table, cdf = _inversion_table(0.33)
        again = _inversion_table(0.33)
        assert again[0] is table and again[1] is cdf
        fresh = _inversion_table.__wrapped__(0.33)
        assert np.array_equal(fresh[0], table) and np.array_equal(fresh[1], cdf)
        for array in (table, cdf):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1


# The dense benchmark spec's canonical form, inar1(28, 0.7), draws its first
# three length classes as per-step counts at these rates.
DENSE_CLASS_RATES = (8.4, 5.88, 4.116)
# The highest rate the byte table draws; numpy's Poisson sampler draws the
# rates above it, such as NUMPY_RATE, whose row would still fit a byte.
TOP_TABLE_RATE = _POISSON_TABLE_RATE
NUMPY_RATE = 145.0


def reference_byte_table(pmf, last):
    """:func:`processes._byte_table` one row at a time: table[r, b] is the
    ``searchsorted`` of b among row r's CDF steps."""
    cdf = np.cumsum(pmf, axis=1)
    cdf[np.arange(cdf.shape[1]) >= last[:, None]] = 1.0
    cdf = np.minimum(cdf, 1.0) * 256.0
    cells = np.arange(256.0)
    table = np.array([np.searchsorted(row, cells, side="right") for row in cdf], dtype=np.uint8)
    table = table.reshape(len(cdf), cells.size)
    rows, steps = np.nonzero(cdf != np.floor(cdf))
    table[rows, cdf[rows, steps].astype(np.int64)] = _STRADDLE
    return table.ravel(), cdf


def reference_poisson_row(rate):
    """The Poisson(``rate``) pmf on 0..c, c the least count with P(X > c) below
    ``_POISSON_TAIL``, its tail summed from the top of a 510-cell support."""
    ratios = np.concatenate(([1.0], rate / np.arange(1, 2 * _STRADDLE)))
    pmf = math.exp(-rate) * np.cumprod(ratios)
    beyond = np.cumsum(pmf[:0:-1])[::-1]
    return pmf[: int(np.argmax(beyond < _POISSON_TAIL)) + 1]


def reference_poisson_table(rates):
    """:func:`_poisson_table` one :func:`reference_poisson_row` per admitted rate."""
    fits = np.array(rates, dtype=np.float64) <= _POISSON_TABLE_RATE
    rows = [reference_poisson_row(rate) for rate, fit in zip(rates, fits) if fit]
    pmf = np.zeros((len(rows), max((row.size for row in rows), default=1)))
    for r, row in enumerate(rows):
        pmf[r, : row.size] = row
    return (*reference_byte_table(pmf, np.array([row.size - 1 for row in rows])), fits)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


class TestPoissonTable:
    """Per-step class counts of a rate up to 16 are drawn from one random
    byte each and a Poisson table cached per set of rates."""

    @pytest.mark.parametrize("rate", [*DENSE_CLASS_RATES, 3.0, TOP_TABLE_RATE])
    def test_row_drops_a_tail_below_2_to_the_minus_53(self, rate):
        _, cdf, _ = _poisson_table((rate,))
        cut = cdf.shape[1] - 1  # one row, as wide as its own cut
        assert cdf[0, cut] == 256.0
        assert sps.poisson.sf(cut, rate) < _POISSON_TAIL == 2.0**-53
        assert sps.poisson.sf(cut - 1, rate) >= _POISSON_TAIL  # the least such cut

    def test_rows_past_the_top_rate_are_left_out(self):
        assert TOP_TABLE_RATE == 16.0
        past = float(np.nextafter(TOP_TABLE_RATE, np.inf))
        table, cdf, fits = _poisson_table((3.0, past, TOP_TABLE_RATE, NUMPY_RATE, 1e6))
        assert fits.tolist() == [True, False, True, False, False]
        # two rows, as wide as the top rate's: 60 cells
        assert cdf.shape == (2, _poisson_table((TOP_TABLE_RATE,))[1].shape[1]) == (2, 60)
        assert table.size == 2 * 256

    @pytest.mark.parametrize("rates, seeds", [
        (DENSE_CLASS_RATES, (141, 142)),
        ((3.0,), (143, 144)),
        ((TOP_TABLE_RATE,), (145, 146)),
        ((NUMPY_RATE,), (147, 148)),
    ], ids=["dense_spec", "rate_3", "top_rate", "numpy_rate"])
    def test_law(self, reseed_once, rates, seeds):
        # Each rate's counts against the Poisson pmf: a chi-square test at the
        # 0.01% level over the counts expecting at least 5 draws, the tails
        # of either side merged into one bin each.
        width = 400_000

        def check(seed):
            counts = _poisson_counts(np.array(rates), width, RngStream(seed).generator)
            assert counts.shape == (len(rates), width) and counts.dtype == np.int64
            for rate, row in zip(rates, counts):
                k = np.arange(row.max() + 2)
                expected = width * sps.poisson.pmf(k, rate)
                lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
                observed = np.bincount(np.clip(row, lo, hi) - lo, minlength=hi - lo + 1)
                expected = expected[lo : hi + 1]
                expected[0] = width * sps.poisson.cdf(lo, rate)
                expected[-1] = width * sps.poisson.sf(hi - 1, rate)
                stat = float(((observed - expected) ** 2 / expected).sum())
                assert sps.chi2.sf(stat, hi - lo) > 1e-4, (rate, stat, hi - lo)

        reseed_once(check, *seeds)

    @pytest.mark.parametrize("rates, poisson_rows", [
        (DENSE_CLASS_RATES, 0),
        ((200.0, 8.4, 5.88), 1),
        ((1e4, NUMPY_RATE, TOP_TABLE_RATE, 3.0), 2),
    ])
    def test_only_rows_past_the_table_call_poisson(self, rates, poisson_rows):
        width = 1_000
        g = CountingGenerator(RngStream(4).generator)
        counts = _poisson_counts(np.array(rates), width, g)
        assert g.calls["poisson"] == (poisson_rows > 0)
        assert g.values["poisson"] == poisson_rows * width
        assert g.calls["integers"] == 1
        assert g.values["integers"] == (len(rates) - poisson_rows) * width
        # every row keeps its own rate, whichever way it was drawn
        means = counts.mean(axis=1)
        assert (np.abs(means - rates) <= 6 * np.sqrt(np.array(rates) / width)).all()

    @pytest.mark.parametrize("lam, rho, rows", [
        (1e6, 0.9995, 3347), (28.0, 0.7, 3), (2e3, 0.9, 16), (1e3, 0.99, 120),
    ], ids=["near_bound", "dense_spec", "rate_2e3", "rate_1e3"])
    def test_table_matches_the_per_row_reference(self, lam, rho, rows):
        # The dense class rates _chain_blocks draws by _poisson_counts.
        rates = lam * (1.0 - rho) * rho ** np.arange(_dense_classes(lam, rho), dtype=np.float64)
        got = _poisson_table.__wrapped__(tuple(rates.tolist()))
        assert got[2].sum() == len(got[1]) == rows
        assert_same_arrays(got, reference_poisson_table(tuple(rates.tolist())))

    def test_table_is_cached_and_read_only(self):
        table, cdf, fits = _poisson_table(DENSE_CLASS_RATES)
        again = _poisson_table(DENSE_CLASS_RATES)
        assert all(a is b for a, b in zip(again, (table, cdf, fits)))
        fresh = _poisson_table.__wrapped__(DENSE_CLASS_RATES)
        assert all(np.array_equal(a, b) for a, b in zip(fresh, (table, cdf, fits)))
        for array in (table, cdf, fits):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_dense_classes_draw_no_poisson_counts(self):
        # The canonical form of the dense spec: its 3 x 5000 per-step class
        # counts come from the table, so numpy's Poisson sampler draws only
        # the start's and the blocks' class counts, a few dozen.
        rng = counting_stream(13)
        simulate_inar1(Inar1Spec(28.0, 0.7), 5_000, rng)
        assert rng.generator.values["poisson"] <= 100, rng.generator.values


@pytest.fixture(scope="module")
def trace():
    return simulate_individual_level(
        Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 100_000, RngStream(121)
    )


class TestIndividualLevel:
    def test_requires_homogeneous_reporting(self):
        with pytest.raises(UnsupportedMechanismError):
            simulate_individual_level(
                Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q, omega=0.9), 100, RngStream(1)
            )

    def test_population_follows_first_order_recursion(self, trace):
        assert abs(trace.x.mean() - STATIONARY_MEAN) <= 3 * batch_se(trace.x)
        assert abs(acf(trace.x) - ALPHA) <= 3 * batch_acf_se(trace.x)

    def test_observed_follows_thinned_law(self, trace):
        assert abs(trace.x_tilde.mean() - OBSERVED_MEAN) <= 3 * batch_se(trace.x_tilde)
        assert (trace.x_tilde <= trace.x).all()

    def test_first_observation_mean(self, trace):
        lam_first = Q * LAM / (1 - ALPHA * (1 - Q))  # 0.8204...
        assert abs(trace.u_total.mean() - lam_first) <= 3 * batch_se(trace.u_total)

    def test_first_observation_age_one_rate(self, trace):
        # survive once, stay unobserved once, then be observed
        target = ALPHA * (1 - Q) * Q * LAM  # 0.18625...
        count = trace.u_counts[trace.u_counts[:, 1] == 1, 2].sum()
        rate = count / len(trace)
        assert abs(rate - target) <= 3 * math.sqrt(target / len(trace))

    def test_observation_split_identity(self, trace):
        assert (trace.x_tilde == trace.u_total + trace.v_total).all()

    def test_full_observation_makes_gaps_one(self):
        t = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=1.0), 3_000, RngStream(5)
        )
        assert np.flatnonzero(t.gaps).tolist() == [1]

    def test_no_survival_means_no_reobservation(self):
        t = simulate_individual_level(
            Inar1Spec(LAM, 0.0), ReportingSpec(q=Q), 3_000, RngStream(5)
        )
        assert t.gaps.size == 0
        assert (t.v_total == 0).all()

    def test_trace_csv_shapes(self, trace, tmp_path):
        wide, long = trace_csvs(trace, tmp_path)
        header, first = wide.decode("ascii").splitlines()[:2]
        assert header == "t,x,x_tilde,u_total,v_total"
        assert len(first.split(",")) == 5
        long_header = long.decode("ascii").splitlines()[0]
        assert long_header == "t,i,kind,count"

    def test_deterministic_given_seed(self, tmp_path):
        a = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 2_000, RngStream(5, 7)
        )
        b = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 2_000, RngStream(5, 7)
        )
        assert np.array_equal(a.x, b.x)
        assert trace_csvs(a, tmp_path)[1] == trace_csvs(b, tmp_path)[1]


def layout_by_repeat(spec, rep, t_len, rng):
    """simulate_individual_level with every in-horizon appearance laid out as
    int64 step and owner arrays, then thinned by one uniform each: the
    reference for the index-mapped observations."""
    blocks = [b[1:3] for b in _chain_blocks(spec.lambda_, spec.alpha, t_len, rng)]
    births, lengths = map(np.concatenate, zip(*blocks))
    alive = np.minimum(lengths, t_len - births)
    times = np.repeat(births - (np.cumsum(alive) - alive), alive) + np.arange(alive.sum())
    owner = np.repeat(np.arange(births.size), alive)
    seen = rng.generator.random(times.size) < rep.q
    obs_times, obs_owner = times[seen], owner[seen]
    del times, owner, seen
    return processes.PopulationTrace(births, births + lengths, obs_times, obs_owner, t_len,
                                     (spec.lambda_, spec.alpha, rep.q), rng.identity)


TRACE_FIELDS = ("births", "deaths", "obs_times", "obs_owner", "x", "x_tilde", "u_total",
                "v_total", "b_tilde", "u_counts", "v_counts", "gaps")


class TestIndexMappedObservations:
    @pytest.mark.parametrize("lam, alpha, q, seed", [
        *[(LAM, ALPHA, Q, seed) for seed in range(1, 6)],
        (1e-9, ALPHA, Q, 1),  # nobody is born
        (LAM, 0.0, Q, 2),  # every individual alive one step
        (LAM, ALPHA, 1.0, 3),  # every appearance observed
        (LAM, ALPHA, 1e-3, 4),  # few observations
    ], ids=[*[f"seed{s}" for s in range(1, 6)], "no_births", "alpha0", "q1", "q_small"])
    def test_same_trace_as_the_repeat_layout(self, lam, alpha, q, seed):
        spec, rep = Inar1Spec(lam, alpha), ReportingSpec(q=q)
        got = simulate_individual_level(spec, rep, 3_000, RngStream(seed))
        want = layout_by_repeat(spec, rep, 3_000, RngStream(seed))
        if lam < 1e-6:
            assert got.births.size == 0
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_draw_stage_peak_below_the_repeat_layout(self, monkeypatch):
        # The draw stage alone: the trace's constructor, which derives the
        # aggregates, is replaced by one that returns its columns.
        monkeypatch.setattr(processes, "PopulationTrace", lambda *columns: columns)

        def peak(simulate):
            tracemalloc.start()
            try:
                columns = simulate(Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 200_000,
                                   RngStream(1))
                return tracemalloc.get_traced_memory()[1], columns
            finally:
                tracemalloc.stop()

        (mapped, got), (laid_out, want) = peak(simulate_individual_level), peak(layout_by_repeat)
        assert all(np.array_equal(g, w) for g, w in zip(got[:4], want[:4]))
        # About 24 against 30 MB: the step and owner arrays of 6.7e5 appearances are gone.
        assert mapped < 0.9 * laid_out, (mapped, laid_out)


class TestTracePathwiseIdentities:
    def test_decompositions_sum_to_totals(self, trace):
        for table, total in ((trace.u_counts, trace.u_total), (trace.v_counts, trace.v_total)):
            t, i, c = table.T
            keys = t * len(trace) + i
            assert (np.diff(keys) > 0).all() and (c > 0).all()  # sorted by (t, i), positive
            per_t = np.zeros(len(trace), dtype=np.int64)
            np.add.at(per_t, t, c)
            assert np.array_equal(per_t, total)

    def test_gaps_are_the_gap_marginal_of_reobservations(self, trace):
        _, i, c = trace.v_counts.T
        marginal = np.zeros(trace.gaps.size, dtype=np.int64)
        np.add.at(marginal, i, c)
        assert np.array_equal(marginal, trace.gaps)
        assert trace.gaps[0] == 0 and trace.gaps[-1] > 0

    def test_predecessor_counts_match_reobservations(self, trace):
        t, i, c = trace.v_counts.T
        per_s = np.zeros(len(trace), dtype=np.int64)
        np.add.at(per_s, t - i, c)
        assert np.array_equal(per_s, trace.b_tilde)

    def test_individuals_add_up_to_counts(self, trace):
        t_len = len(trace)
        births, deaths = trace.births, trace.deaths
        ends = np.minimum(deaths, t_len)
        assert (births < ends).all() and (births >= 0).all()
        # alive steps [birth, end) clipped to the horizon, tallied per step
        alive = np.cumsum(np.bincount(births, minlength=t_len + 1)
                          - np.bincount(ends, minlength=t_len + 1))[:t_len]
        assert np.array_equal(alive, trace.x)
        assert alive.sum() == trace.x.sum() == (ends - births).sum()
        assert np.array_equal(np.bincount(trace.obs_times, minlength=t_len), trace.x_tilde)
        # grouped by individual, in time order within each
        owner, times = trace.obs_owner, trace.obs_times
        assert (np.diff(owner) >= 0).all()
        assert (np.diff(times)[owner[1:] == owner[:-1]] > 0).all()

    def test_death_unknown_exactly_when_lifetime_passes_horizon(self, trace):
        t_len = len(trace)
        # The simulator draws its individuals with the chain kernel before any
        # observation draw, so replaying the kernel on the same stream recovers
        # every individual's birth and lifetime, in record order.
        blocks = list(_chain_blocks(LAM, ALPHA, t_len, RngStream(121)))
        births = np.concatenate([b for _, b, _, _ in blocks])
        lifetimes = np.concatenate([n for _, _, n, _ in blocks])
        assert np.array_equal(trace.births, births)
        assert np.array_equal(trace.deaths, births + lifetimes)  # never clipped
        assert (trace.deaths > t_len).any()
        # alive at the last step = still alive after it, or dying right at the horizon
        assert (trace.deaths >= t_len).sum() == trace.x[-1]

    def test_long_csv_lists_both_tables(self, trace, tmp_path):
        lines = trace_csvs(trace, tmp_path)[1].decode("ascii").splitlines()
        assert lines[0] == "t,i,kind,count"
        rows = [line.split(",") for line in lines[1:]]
        keys = [(int(t), int(i), kind) for t, i, kind, _ in rows]
        assert keys == sorted(keys)
        for kind, table in (("u", trace.u_counts), ("v", trace.v_counts)):
            listed = [[int(t), int(i), int(c)] for t, i, k, c in rows if k == kind]
            assert listed == table.tolist()


class TestIndividualsView:
    @staticmethod
    def small():
        return simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 2_000, RngStream(171)
        )

    def test_checks_and_csv_build_no_individual_records(self, tmp_path):
        t = self.small()
        individual_level_checks(t)
        trace_csvs(t, tmp_path)
        assert "individuals" not in vars(t)

    def test_records_agree_with_columns(self):
        t = self.small()
        records = t.individuals
        assert len(records) == t.births.size
        assert [b for b, _, _ in records] == t.births.tolist()
        alive_at_end = t.deaths > len(t)
        assert alive_at_end.any() and not alive_at_end.all()
        assert [d is None for _, d, _ in records] == alive_at_end.tolist()
        assert [d for _, d, _ in records if d is not None] == t.deaths[~alive_at_end].tolist()
        assert [len(obs) for _, _, obs in records] == np.bincount(
            t.obs_owner, minlength=t.births.size).tolist()
        assert [o for _, _, obs in records for o in obs] == t.obs_times.tolist()


class TestPopulationTraceLifetimes:
    @staticmethod
    def make(births, deaths, obs_times, obs_owner, length=4):
        return PopulationTrace(births=births, deaths=deaths, obs_times=obs_times,
                               obs_owner=obs_owner, length=length, params=(LAM, ALPHA, Q),
                               seed=(0, 0))

    def test_observations_inside_lifetimes_accepted(self):
        # the second individual outlives the horizon of 4 steps; the third is never seen
        self.make([0, 1, 2], [2, 6, 3], [0, 1, 1, 3], [0, 0, 1, 1])

    def test_observation_before_birth_rejected(self):
        with pytest.raises(ParameterError):
            self.make([0, 2], [2, 6], [0, 3, 1], [0, 1, 1])

    def test_observation_at_death_rejected(self):
        with pytest.raises(ParameterError):
            self.make([0, 1], [2, 3], [0, 1, 3], [0, 1, 1])

    @pytest.mark.parametrize("owner", [[1, 0, 1], [0, 1, 2], [-1, 0, 0], [0, 1]],
                             ids=["ungrouped", "past_last", "negative", "short"])
    def test_observation_owners_must_be_grouped_indices(self, owner):
        with pytest.raises(ParameterError):
            self.make([0, 1], [3, 3], [1, 1, 2], owner)

    @pytest.mark.parametrize("births, deaths, obs_times, obs_owner, match", [
        ([-1, 1], [2, 3], [0, 1], [0, 1], "every birth must lie in"),
        ([0, 4], [2, 6], [0], [0], "every birth must lie in"),
        ([0, 1], [2, 1], [0], [0], "after its birth"),
        ([0, 1], [2, 6], [0, 1, 4], [0, 1, 1], "lie before 4"),
        ([0, 1], [2, 6], [0, 3, 2], [0, 1, 1], "in time order"),
    ], ids=["birth_before_start", "birth_at_length", "death_at_birth", "observed_at_length",
            "observations_out_of_order"])
    def test_columns_outside_the_trace_rejected(self, births, deaths, obs_times, obs_owner,
                                                match):
        with pytest.raises(ParameterError, match=match):
            self.make(births, deaths, obs_times, obs_owner)

    @pytest.mark.parametrize("length", [2.5, "4"])
    def test_non_integer_length_rejected(self, length):
        with pytest.raises(ParameterError, match="length must be an integer"):
            self.make([], [], [], [], length=length)

    def test_numpy_columns_copied_and_length_taken(self):
        columns = [np.array(c, dtype=np.int64)
                   for c in ([0, 1, 2], [2, 6, 3], [0, 1, 1, 3], [0, 0, 1, 1])]
        trace = self.make(*columns, length=np.int64(4))
        assert len(trace) == trace.length == 4 and type(trace.length) is int
        for name, column in zip(("births", "deaths", "obs_times", "obs_owner"), columns):
            assert column.flags.writeable, name
            assert not getattr(trace, name).flags.writeable, name
            assert getattr(trace, name).tolist() == column.tolist(), name

    def test_length_below_one_step_rejected(self):
        with pytest.raises(ParameterError, match="every birth must lie in"):
            self.make([], [], [], [], length=0)

    def test_derived_arrays_are_read_only(self):
        trace = self.make([0, 1, 2], [2, 6, 3], [0, 1, 1, 3], [0, 0, 1, 1])
        assert len(trace) == trace.length == 4
        assert trace.x.tolist() == [1, 2, 2, 1]
        assert trace.u_counts.tolist() == [[0, 0, 1], [1, 0, 1]]
        assert trace.v_counts.tolist() == [[1, 1, 1], [3, 2, 1]]
        for name in ("x", "x_tilde", "u_total", "v_total", "b_tilde", "u_counts", "v_counts",
                     "gaps"):
            value = getattr(trace, name)
            assert value.dtype == np.int64 and not value.flags.writeable, name
