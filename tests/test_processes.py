import math

import numpy as np
import pytest

from inarq import (
    CountSeries,
    GeomInarSpec,
    Inar1Spec,
    InarPSpec,
    ParameterError,
    ReportingSpec,
    RngStream,
    UnsupportedMechanismError,
    apply_reporting,
    simulate_inar1,
    simulate_inar_inf,
    simulate_inar_p,
    simulate_individual_level,
)
from inarq.processes import _BLOCK_APPEARANCES, _CSV_CHUNK_ROWS, _run_chains, write_series_csv
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
        count = sum(c for (t, age), c in trace.u_counts.items() if age == 1)
        rate = count / len(trace)
        assert abs(rate - target) <= 3 * math.sqrt(target / len(trace))

    def test_observation_split_identity(self, trace):
        assert (trace.x_tilde == trace.u_total + trace.v_total).all()

    def test_full_observation_makes_gaps_one(self):
        t = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=1.0), 3_000, RngStream(5)
        )
        assert set(t.gaps) == {1}

    def test_no_survival_means_no_reobservation(self):
        t = simulate_individual_level(
            Inar1Spec(LAM, 0.0), ReportingSpec(q=Q), 3_000, RngStream(5)
        )
        assert t.gaps == {}
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
