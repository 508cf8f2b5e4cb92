import math

import numpy as np
import pytest

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
from inarq.processes import (
    _BLOCK_APPEARANCES,
    _CSV_CHUNK_ROWS,
    _chain_blocks,
    _run_chains,
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

    def test_csv_format(self):
        s = CountSeries(np.array([3, 0, 1]), (0, 0), 0, "x")
        assert s.to_csv() == "t,count\n0,3\n1,0\n2,1\n"

    def test_chunked_writer_matches_to_csv(self, tmp_path):
        values = np.random.default_rng(3).poisson(7.0, _CSV_CHUNK_ROWS + 17)
        s = CountSeries(values, (0, 0), 0, "x")
        path = tmp_path / "series.csv"
        write_series_csv(s, path)
        assert path.read_bytes() == s.to_csv().encode("utf-8")


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

    def test_deterministic_given_seed(self):
        a = simulate_inar1(Inar1Spec(LAM, ALPHA), 2_000, RngStream(5, 7))
        b = simulate_inar1(Inar1Spec(LAM, ALPHA), 2_000, RngStream(5, 7))
        assert np.array_equal(a.values, b.values)
        assert a.to_csv() == b.to_csv()


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


class TestChainKernel:
    def test_conserves_appearances(self):
        # Slow decay, so many chains cross block boundaries and the horizon.
        spec = GeomInarSpec(5.0, 0.3, 0.6)
        rng = RngStream(91)

        def gaps(k):
            return geometric_draws(1.0 - spec.gamma, k, rng)

        out, stats = _run_chains(spec.lambda_, spec.total_weight, gaps, 20_000, rng)
        assert stats["appearances"] == int(out.sum()) + stats["beyond"]
        assert stats["appearances"] > stats["chains"] > 0
        assert stats["beyond"] > 0

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


class TestStationaryStart:
    """Every series simulator starts in its stationary law, with no burn-in."""

    REPLICATES, BATCHES = 3_000, 20

    @pytest.mark.parametrize(
        "simulate, weights, mean, seeds",
        [
            (lambda r: simulate_inar1(Inar1Spec(LAM, ALPHA), 4, r), [ALPHA], STATIONARY_MEAN,
             (181, 182)),
            (lambda r: simulate_inar_p(InarPSpec(LAM, (0.3, 0.15, 0.07)), 4, r),
             [0.3, 0.15, 0.07], LAM / 0.48, (191, 192)),
            (lambda r: simulate_inar_inf(GeomInarSpec(20.0, 0.3, 0.4), 4, r),
             [0.3 * 0.4 ** (i - 1) for i in range(1, 4)], 20.0 * 0.6 / 0.3, (201, 202)),
        ],
        ids=["inar1", "inar_p", "geom_inf"],
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


class TestApplyReporting:
    def test_full_reporting_is_identity(self):
        s = simulate_inar1(Inar1Spec(LAM, ALPHA), 1_000, RngStream(1))
        out = apply_reporting(s, ReportingSpec(q=1.0, omega=1.0), RngStream(2))
        assert np.array_equal(out.values, s.values)

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

    def test_trace_csv_shapes(self, trace):
        header, first = trace.to_csv().splitlines()[:2]
        assert header == "t,x,x_tilde,u_total,v_total"
        assert len(first.split(",")) == 5
        long_header = trace.to_long_csv().splitlines()[0]
        assert long_header == "t,i,kind,count"

    def test_deterministic_given_seed(self):
        a = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 2_000, RngStream(5, 7)
        )
        b = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 2_000, RngStream(5, 7)
        )
        assert np.array_equal(a.x, b.x)
        assert a.to_long_csv() == b.to_long_csv()


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
        # The simulator lays out its individuals with the chain kernel before any
        # observation draw, so replaying the kernel on the same stream recovers
        # every individual's birth and lifetime, in record order.
        blocks = list(_chain_blocks(LAM, ALPHA, _unit_gaps, t_len, RngStream(121)))
        births = np.concatenate([b for _, b, _, _ in blocks])
        lifetimes = np.concatenate([n for _, _, n, _ in blocks])
        assert np.array_equal(trace.births, births)
        assert np.array_equal(trace.deaths, births + lifetimes)  # never clipped
        assert (trace.deaths > t_len).any()
        # alive at the last step = still alive after it, or dying right at the horizon
        assert (trace.deaths >= t_len).sum() == trace.x[-1]

    def test_long_csv_lists_both_tables(self, trace):
        lines = trace.to_long_csv().splitlines()
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
        individual_level_checks(t, Inar1Spec(LAM, ALPHA), Q)
        t.to_csv()
        t.to_long_csv()
        write_trace_csv(t, tmp_path / "trace.csv", tmp_path / "trace_long.csv")
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
    def make(births, deaths, obs_times, obs_owner):
        zeros = np.zeros(4, dtype=np.int64)
        no_rows = np.zeros((0, 3), dtype=np.int64)
        return PopulationTrace(
            x=zeros, x_tilde=zeros, u_total=zeros, v_total=zeros, b_tilde=zeros,
            u_counts=no_rows, v_counts=no_rows, gaps=[], births=births, deaths=deaths,
            obs_times=obs_times, obs_owner=obs_owner, params=(LAM, ALPHA, Q), seed=(0, 0),
        )

    def test_observations_inside_lifetimes_accepted(self):
        # the second individual outlives the horizon of 4 steps; the third is never seen
        self.make([0, 1, 2], [2, 6, 3], [0, 1, 3, 1], [0, 0, 1, 1])

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
