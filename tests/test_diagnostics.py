import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from inarq import (
    CountSeries,
    GeomInarSpec,
    Inar1Spec,
    ParameterError,
    ReportingSpec,
    RngStream,
    TruncationError,
    UnderreportedModel,
    absorb_reporting,
    equivalence_mc_test,
    individual_level_checks,
    joint_pmf_oracle,
    shift_reporting,
    simulate_inar1,
    simulate_inar_inf,
    simulate_individual_level,
    theoretical_observed_moments,
    total_variation,
)
from inarq import diagnostics
from inarq.diagnostics import (
    BATCH_COUNT,
    MAX_LAG,
    MAX_ORACLE_STATES,
    _acf,
    _batch_rows,
    _chi2_sf,
    _oracle_truncation,
    _p_value,
    _pair_bins,
    _pearson,
    _poisson_quantile,
    _pooled_pmf,
    _z_score,
)
from inarq.equivalence import canonicalize
from inarq.processes import _MAX_STEPS

LAM, ALPHA, Q = 1.62, 0.52, 0.33
EXAMPLE = UnderreportedModel.from_inar1(Inar1Spec(LAM, ALPHA), Q)
OBSERVED_MEAN = Q * LAM / (1 - ALPHA)  # 1.11375
IMAGE_MODEL = UnderreportedModel(absorb_reporting(Inar1Spec(LAM, ALPHA), Q), 1.0)


def reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def scipy_joint_pmf(lam, alpha, q):
    """The enumeration oracle's table and default cut-offs from scipy.stats pmfs."""
    mu = lam / (1.0 - alpha)
    truncation = int(sps.poisson.ppf(1.0 - 1e-13, mu)) + 15
    support_cap = min(truncation, int(sps.poisson.ppf(1.0 - 1e-12, q * mu)) + 10)
    xs = np.arange(truncation + 1)
    immigration = sps.poisson.pmf(xs, lam)
    transition = np.array([
        np.convolve(sps.binom.pmf(np.arange(x1 + 1), x1, alpha), immigration)[: xs.size]
        for x1 in xs
    ])
    observe = sps.binom.pmf(np.arange(support_cap + 1)[None, :], xs[:, None], q)
    pi = sps.poisson.pmf(xs, mu)
    return observe.T @ (pi[:, None] * (transition @ observe)), truncation, support_cap


class TestEmpiricalMoments:
    def test_iid_poisson_mean_z_score(self, reseed_once):
        def check(seed):
            values = simulate_inar1(Inar1Spec(LAM, 0.0), 200_000, RngStream(seed)).values
            batch_means = _batch_rows(values, np.zeros(0, np.int64), 0)[:, 0]
            se_mean = batch_means.std(ddof=1) / math.sqrt(BATCH_COUNT)
            assert abs(values.mean() - LAM) / se_mean <= 3
            assert all(abs(r) <= 1 for r in _acf(values.astype(float), MAX_LAG))

        reseed_once(check, 141, 142)

    def test_acf_ratio_recovers_survival_probability(self, reseed_once):
        # consecutive autocorrelations decay by the survival probability
        def check(seed):
            s = simulate_inar1(Inar1Spec(LAM, ALPHA), 200_000, RngStream(seed))
            values = s.values.astype(float)
            batches = values[: values.size - values.size % 50].reshape(50, -1)
            ratios = []
            for b in batches:
                c = b - b.mean()
                denom = c @ c
                r1 = c[:-1] @ c[1:] / denom
                r2 = c[:-2] @ c[2:] / denom
                ratios.append(r2 / r1)
            se = np.std(ratios, ddof=1) / math.sqrt(len(ratios))
            assert abs(np.mean(ratios) - ALPHA) <= 3 * se

        reseed_once(check, 151, 152)


class TestTheoreticalMoments:
    def test_worked_example(self):
        mean, variance, acf = theoretical_observed_moments(EXAMPLE)
        assert abs(mean - 1.11375) <= 1e-12
        assert variance == mean
        assert abs(acf[0] - Q * ALPHA) <= 1e-12
        assert abs(acf[1] - Q * ALPHA**2) <= 1e-12

    def test_iid_case(self):
        m = UnderreportedModel.from_inar1(Inar1Spec(2.5, 0.0), 1.0)
        mean, variance, acf = theoretical_observed_moments(m)
        assert mean == 2.5
        assert all(r == 0 for r in acf)

    def test_invariant_across_the_equivalence_class(self):
        for q_target in (0.4, 0.7, 1.0):
            shifted = shift_reporting(EXAMPLE, q_target)
            a = theoretical_observed_moments(EXAMPLE)
            b = theoretical_observed_moments(shifted)
            assert abs(a[0] - b[0]) <= 1e-12
            assert all(abs(x - y) <= 1e-12 for x, y in zip(a[2], b[2]))

    def test_matches_long_simulation(self, reseed_once):
        def check(seed):
            mean, _, acf = theoretical_observed_moments(IMAGE_MODEL)
            s = simulate_inar_inf(IMAGE_MODEL.latent, 400_000, RngStream(seed))
            values = s.values.astype(float)
            batches = values[: values.size - values.size % 50].reshape(50, -1)
            se_mean = batches.mean(axis=1).std(ddof=1) / math.sqrt(50)
            assert abs(values.mean() - mean) / se_mean <= 3
            # batch-means error for the lag-1 autocorrelation
            r1 = []
            for b in batches:
                c = b - b.mean()
                r1.append(c[:-1] @ c[1:] / (c @ c))
            se = np.std(r1, ddof=1) / math.sqrt(50)
            assert abs(np.mean(r1) - acf[0]) <= 3 * se

        reseed_once(check, 161, 162)


class TestJointPmfOracle:
    def test_independence_when_memoryless_and_fully_observed(self):
        m = UnderreportedModel.from_inar1(Inar1Spec(1.3, 0.0), 1.0)
        joint = joint_pmf_oracle(m)
        pmf = sps.poisson.pmf(np.arange(joint.shape[0]), 1.3)
        assert joint.shape == (pmf.size, pmf.size)
        assert np.abs(joint - np.outer(pmf, pmf)).max() <= 1e-12

    def test_marginal_is_thinned_poisson(self):
        joint = joint_pmf_oracle(EXAMPLE)
        marginal = joint.sum(axis=1)
        target = sps.poisson.pmf(np.arange(marginal.size), OBSERVED_MEAN)
        assert np.abs(marginal - target).max() <= 1e-8

    def test_one_table_for_the_whole_class(self):
        # The law of a pair depends on the observed mean and lag-1
        # autocorrelation alone, so every member of the class gives one table.
        joint = joint_pmf_oracle(EXAMPLE)
        members = [IMAGE_MODEL] + [shift_reporting(EXAMPLE, q) for q in (0.4, 0.7, 1.0)]
        for member in members:
            table = joint_pmf_oracle(member)
            assert table.shape == joint.shape
            assert np.abs(table - joint).max() <= 1e-14

    def test_table_size_is_bounded_before_enumerating(self):
        # A slow-decay class: its canonical latent mean is 11110, so the latent
        # cut is 11908, far past the admission bound of 2048 states.
        slow = canonicalize(UnderreportedModel(GeomInarSpec(1.0, 0.0009, 0.999), 1.0))
        mu = slow.lambda_star / (1.0 - slow.alpha_star)
        assert _poisson_quantile(mu, 1e-13) + 15 == 11908
        for mean in (mu, 1e18, MAX_ORACLE_STATES - 1.0):
            with pytest.raises(ParameterError, match="oracle"):
                _oracle_truncation(mean)
        # Mean 2000 passes the first bound; its truncation, 2352, fails the second.
        high = UnderreportedModel.from_inar1(Inar1Spec(2000.0, 0.0), 1.0)
        assert _poisson_quantile(2000.0, 1e-13) + 15 == 2352
        with pytest.raises(ParameterError, match="oracle"):
            joint_pmf_oracle(high)
        # The truncation, up to the largest admitted mean.
        for mean in (LAM / (1 - ALPHA), 300.0, 1_700.0):
            truncation = _oracle_truncation(mean)
            assert truncation == _poisson_quantile(mean, 1e-13) + 15 < MAX_ORACLE_STATES

    def test_truncation_too_small_rejected(self, monkeypatch):
        # Cut after observed value 2, the table keeps 0.814 of the joint mass.
        real = diagnostics._poisson_quantile
        monkeypatch.setattr(diagnostics, "_poisson_quantile",
                            lambda mu, tail: -8 if tail == 1e-12 else real(mu, tail))
        with pytest.raises(TruncationError, match=r"retained joint mass 0\.8141") as err:
            joint_pmf_oracle(EXAMPLE)
        assert "support_cap" not in str(err.value)

    @pytest.mark.parametrize("lam, alpha, q", [
        (LAM, ALPHA, Q),
        (1.3, 0.0, 1.0),
        (0.05, 0.9, 1.0),
        (5.0, 0.3, 0.05),
        (150.0, 0.5, 0.4),  # latent mean 300
        (0.1, 0.5, 5e-324),  # observed mean underflows to 0
    ])
    def test_agrees_with_scipy_reference(self, lam, alpha, q):
        table, truncation, support_cap = scipy_joint_pmf(lam, alpha, q)
        mu = lam / (1.0 - alpha)
        assert _poisson_quantile(mu, 1e-13) + 15 == truncation
        joint = joint_pmf_oracle(UnderreportedModel.from_inar1(Inar1Spec(lam, alpha), q))
        assert joint.shape == table.shape == (support_cap + 1, support_cap + 1)
        assert np.abs(joint - table).max() <= 1e-12

    def test_default_cutoffs_are_scipy_quantiles(self):
        for lam in (1e-6, 0.05, 0.5, 1.62, 5.0, 30.0, 100.0, 500.0):
            for alpha in (0.0, 0.3, 0.52, 0.9):
                mu = lam / (1.0 - alpha)
                assert _poisson_quantile(mu, 1e-13) == sps.poisson.ppf(1.0 - 1e-13, mu)
                for q in (0.05, 0.33, 1.0):
                    target = sps.poisson.ppf(1.0 - 1e-12, q * mu)
                    assert _poisson_quantile(q * mu, 1e-12) == target

    def test_simulation_agrees_with_oracle(self, reseed_once):
        def check(seed):
            joint = joint_pmf_oracle(EXAMPLE)
            s = simulate_inar_inf(IMAGE_MODEL.latent, 200_000, RngStream(seed))
            v = s.values
            width = int(v.max()) + 1
            codes = np.bincount(v[:-1] * width + v[1:], minlength=width * width)
            emp = codes.reshape(width, width) / (v.size - 1)
            assert total_variation(emp, joint) <= 0.03

        reseed_once(check, 171, 172)


class TestChiSquareTail:
    def test_survival_function_matches_scipy(self):
        for df in range(1, 61):
            for x in np.geomspace(1e-4, 2_000.0, 60):
                reference = sps.chi2.sf(x, df)
                if reference >= 1e-300:
                    assert _chi2_sf(float(x), df) == pytest.approx(reference, rel=1e-12)

    def test_zero_statistic_has_unit_tail(self):
        assert _chi2_sf(0.0, 1) == 1.0
        assert _chi2_sf(0.0, 4) == 1.0

    @pytest.mark.parametrize("df", [49, 149, 2_499])
    def test_t_score_p_value_matches_scipy(self, df):
        assert _p_value(None, df) is None
        assert _p_value(3.0) == pytest.approx(2 * sps.norm.sf(3.0), rel=1e-14)
        for p in np.geomspace(1e-5, 1e-2, 30):
            t = sps.t.isf(p / 2, df)
            assert _p_value(t, df) == pytest.approx(p, rel=0.2)
            assert _p_value(-t, df) == _p_value(t, df)

    def test_pearson_matches_scipy_chisquare(self):
        g = np.random.default_rng(37)
        probs = 0.3 * 0.7 ** np.arange(40)
        counts = np.bincount(g.geometric(0.3, 400) - 1)
        check = _pearson("gaps", counts, probs, 0.01)
        # By hand: values 0..8 expect at least 5 of 400; the tail past them
        # expects 400 * 0.7**9 = 16.1, so it keeps its own bin.
        expected = np.append(400 * probs[:9], 400 * 0.7**9)
        observed = np.append(counts[:9], 400 - counts[:9].sum())
        want = sps.chisquare(observed, expected)
        assert check.detail == {"chi2": pytest.approx(want.statistic, rel=1e-12),
                                "bins": 10, "n": 400}
        assert check.p_value == pytest.approx(want.pvalue, rel=1e-9)
        assert check.passed == (want.pvalue >= 0.01)
        # A tail expecting fewer than 5 joins the last bin.
        folded = _pearson("short", counts[:3], np.array([0.5, 0.3, 0.2]), 0.01)
        n = counts[:3].sum()
        want = sps.chisquare(counts[:3], n * np.array([0.5, 0.3, 0.2]))
        assert folded.detail["bins"] == 3
        assert folded.p_value == pytest.approx(want.pvalue, rel=1e-9)
        # Fewer than two bins leave nothing to test.
        assert _pearson("few", np.array([3, 1]), np.array([0.6, 0.4]), 0.01).passed


def loop_batch_stats(values, max_lag):
    # Reference: one batch at a time, acf by dot products, 0 for a constant batch.
    usable = values.size - values.size % BATCH_COUNT
    rows = []
    for batch in values[:usable].astype(float).reshape(BATCH_COUNT, -1):
        centred = batch - batch.mean()
        denom = centred @ centred
        acf = [centred[:-k] @ centred[k:] / denom if denom > 0 else 0.0
               for k in range(1, max_lag + 1)]
        rows.append([batch.mean(), batch.var(ddof=1), *acf])
    return np.array(rows)


class TestBatchStats:
    @pytest.mark.parametrize("kind", ["poisson", "all_zero", "near_constant", "uneven"])
    def test_matches_per_batch_loop(self, kind):
        g = np.random.default_rng(17)
        values = {
            "poisson": g.poisson(OBSERVED_MEAN, 10_000),
            "all_zero": np.zeros(10_000, dtype=np.int64),
            # one nonzero count in a single batch; the other 49 are constant
            "near_constant": np.where(np.arange(10_000) == 4321, 1, 0),
            "uneven": g.poisson(40.0, 10_037),  # remainder past the last batch is dropped
        }[kind]
        got = _batch_rows(values, np.zeros(0, np.int64), 0)  # no pair bins: the moments
        want = loop_batch_stats(values, MAX_LAG)
        assert got.shape == (BATCH_COUNT, 7)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def dict_total_variation(p, q):
    # Reference: pmfs as {value: probability} dicts, absent keys are 0.
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def as_dict(pmf):
    return {k: float(pmf[k]) for k in np.ndindex(pmf.shape) if pmf[k] > 0}


class TestArrayStatistics:
    def test_acf_matches_loop(self):
        values = np.random.default_rng(23).poisson(OBSERVED_MEAN, 20_011).astype(float)
        c = (values - values.mean()).tolist()
        denom = math.fsum(x * x for x in c)
        want = [math.fsum(c[j] * c[j + k] for j in range(len(c) - k)) / denom
                for k in range(1, 6)]
        np.testing.assert_allclose(_acf(values, 5), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shapes", [((7,), (12,)), ((5, 9), (11, 3)), ((1,), (1,))])
    def test_total_variation_matches_dict_formula(self, shapes):
        g = np.random.default_rng(29)
        for _ in range(20):
            p, q = (g.dirichlet(np.ones(math.prod(n))).reshape(n) for n in shapes)
            p[g.random(p.shape) < 0.2] = 0.0  # some absent values
            want = dict_total_variation(as_dict(p), as_dict(q))
            assert total_variation(p, q) == pytest.approx(want, rel=0, abs=1e-15)
            assert total_variation(q, p) == total_variation(p, q)

    def test_pooled_pmfs_match_dict_counts(self):
        g = np.random.default_rng(31)
        samples = [g.poisson(3.0, 5_000), g.poisson(3.0, 4_321)]
        samples[1][17] = 40  # a value far past the others
        pooled = np.concatenate(samples)
        marginal = _pooled_pmf(samples)
        assert marginal.size == 41
        assert as_dict(marginal) == {
            (k,): c / pooled.size for k, c in enumerate(np.bincount(pooled)) if c > 0
        }

    def test_pair_cells_match_loop_counts(self):
        oracle = joint_pmf_oracle(EXAMPLE)
        labels, cells = _pair_bins(oracle, 199)
        width = cells.shape[0]
        # Bins are runs of values; each cell holds the oracle's mass of its pairs.
        assert width >= 2 and (np.diff(labels) >= 0).all() and labels[0] == 0
        want = np.zeros((width, width))
        for a, b in np.ndindex(oracle.shape):
            want[labels[a], labels[b]] += oracle[a, b]
        np.testing.assert_allclose(cells, want, rtol=1e-12, atol=0)
        assert cells.min() * 199 >= 5
        values = np.random.default_rng(41).poisson(OBSERVED_MEAN, 10_000)
        values[123] = labels.size + 7  # past the oracle's support: the last bin
        rows = _batch_rows(values, labels, width)[:, 2 + MAX_LAG :]
        m = values.size // BATCH_COUNT
        for i, batch in enumerate(values.reshape(BATCH_COUNT, m)):
            counts = np.zeros(width * width)
            for a, b in zip(batch[:-1].tolist(), batch[1:].tolist()):
                counts[labels[min(a, labels.size - 1)] * width + labels[min(b, labels.size - 1)]] += 1
            np.testing.assert_array_equal(rows[i], counts / (m - 1))


class TestEquivalenceMcTest:
    def test_identical_models_pass(self, reseed_once):
        def check(seed):
            report = equivalence_mc_test(EXAMPLE, EXAMPLE, 50_000, 1, RngStream(seed))
            assert report.passed
            assert report.canonical_delta == {"lambda": 0.0, "alpha": 0.0, "q": 0.0}

        reseed_once(check, 181, 182)

    def test_equivalent_representations_pass(self, reseed_once):
        def check(seed):
            report = equivalence_mc_test(EXAMPLE, IMAGE_MODEL, 50_000, 1, RngStream(seed))
            assert report.passed, report.to_json()

        reseed_once(check, 191, 192)

    def test_inflated_rate_fails_on_mean(self):
        bumped = UnderreportedModel.from_inar1(Inar1Spec(LAM * 1.1, ALPHA), Q)
        report = equivalence_mc_test(EXAMPLE, bumped, 10_000, 1, RngStream(201))
        assert not report.passed
        mean_stat = next(s for s in report.stats if s.name == "mean")
        assert abs(mean_stat.z) > 3
        assert abs(report.canonical_delta["lambda"]) > 0.1

    def test_oversized_oracle_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated before bounding the oracle")

        monkeypatch.setattr(diagnostics, "_observed_series", no_simulation)
        slow = UnderreportedModel(GeomInarSpec(1.0, 0.0009, 0.999), 1.0)
        with pytest.raises(ParameterError, match="oracle"):
            equivalence_mc_test(slow, slow, 10_000, 1, RngStream(1))

    @pytest.mark.parametrize("t_len, reps", [(10**11, 1), (10_000, 10**8)])
    def test_step_count_rejected_before_simulating(self, monkeypatch, t_len, reps):
        def no_simulation(*args):
            raise AssertionError("simulated before bounding the steps")

        monkeypatch.setattr(diagnostics, "_observed_series", no_simulation)
        with pytest.raises(ParameterError, match=str(_MAX_STEPS)):
            equivalence_mc_test(EXAMPLE, IMAGE_MODEL, t_len, reps, RngStream(1))

    def test_draws_each_model_as_written(self, monkeypatch):
        # The test checks the identity that simulate relies on, so it must not
        # route through it: the worked model is the first-order latent series
        # thinned by q, its image the geometric-lag series, unthinned.
        calls = []
        for name in ("simulate_inar_inf", "apply_reporting"):
            def spy(*args, _real=getattr(diagnostics, name), _name=name, **kwargs):
                calls.append((_name, args[0] if _name == "simulate_inar_inf" else args[1]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(diagnostics, name, spy)
        equivalence_mc_test(EXAMPLE, IMAGE_MODEL, 10_000, 1, RngStream(1))
        assert calls == [
            ("simulate_inar_inf", GeomInarSpec(LAM, ALPHA, 0.0)),
            ("apply_reporting", ReportingSpec(q=Q)),
            ("simulate_inar_inf", IMAGE_MODEL.latent),
        ]

    def test_zero_standard_error_scores(self):
        assert _z_score(0.25, 0.25, 0.0) == 0.0
        assert _z_score(0.25, 0.5, 0.0) is None
        assert _p_value(None) is None

    @pytest.mark.parametrize("second, passed", [(0, True), (1, False)])
    def test_undefined_score_fails_the_verdict(self, monkeypatch, second, passed):
        # Constant series give every batch the same statistics, so every SE
        # is zero: a score on target is 0 and passes, one off target is
        # undefined (None) and fails. This class has no pair cells at this
        # length, so the seven stats are the only scores.
        sparse = Inar1Spec(0.05, 0.5)
        image = UnderreportedModel(absorb_reporting(sparse, 0.5), 1.0)

        def constant(model, t_len, stream):
            values = np.full(t_len, second if model is image else 0)
            return CountSeries(values, stream.identity, 0, "constant")

        monkeypatch.setattr(diagnostics, "_observed_series", constant)
        report = equivalence_mc_test(UnderreportedModel.from_inar1(sparse, 0.5), image,
                                     10_000, 1, RngStream(1))
        assert report.pair_cells["cells"] == []
        mean = next(s for s in report.stats if s.name == "mean")
        assert (mean.value_1, mean.value_2) == (0.0, float(second))
        assert mean.z == (0.0 if passed else None)
        assert report.passed is passed
        doc = json.loads(report.to_json(), parse_constant=reject_constant)
        assert doc["stats"][0]["z"] == mean.z  # null in the JSON when undefined

    def test_report_is_deterministic(self):
        a = equivalence_mc_test(EXAMPLE, IMAGE_MODEL, 10_000, 2, RngStream(211))
        b = equivalence_mc_test(EXAMPLE, IMAGE_MODEL, 10_000, 2, RngStream(211))
        assert a.to_json() == b.to_json()

    def test_randomized_class_members_pass(self, reseed_once):
        # Random model plus a random admissible shift of it must compare equal.
        def check(seed):
            g = np.random.default_rng(seed)
            lam = g.uniform(0.3, 4.0)
            beta = g.uniform(0.05, 0.6)
            gamma = g.uniform(0.0, 0.75 - beta)
            q = g.uniform(0.2, 1.0)
            model = UnderreportedModel(GeomInarSpec(lam, beta, gamma), q)
            lower = q * beta / (beta + gamma)
            q_target = g.uniform(lower, 1.0)
            shifted = shift_reporting(model, q_target)
            report = equivalence_mc_test(model, shifted, 100_000, 3, RngStream(seed))
            assert report.passed, report.to_json()

        reseed_once(check, 261, 262)

    def test_json_schema(self):
        report = equivalence_mc_test(EXAMPLE, EXAMPLE, 10_000, 1, RngStream(221))
        doc = report.to_json_dict()
        assert set(doc) == {
            "canonical_delta", "stats", "pair_cells", "tv_marginal", "level", "p_floor",
            "verdict", "seeds", "n",
        }
        assert doc["level"] == diagnostics.LEVEL
        cells = doc["pair_cells"]["cells"]
        assert doc["pair_cells"]["bin_starts"][0] == 0 and len(cells) in (4, 9, 16)
        assert set(cells[0]) == {"cell", "target", "estimate_1", "z_1", "estimate_2", "z_2"}
        assert doc["p_floor"] == pytest.approx(diagnostics.LEVEL / (7 + 2 * len(cells)))
        assert {s["name"] for s in doc["stats"]} == {
            "mean", "variance", "acf_1", "acf_2", "acf_3", "acf_4", "acf_5",
        }
        assert set(doc["stats"][0]) == {"name", "value_1", "value_2", "z"}
        assert doc["verdict"] in ("pass", "fail")

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            equivalence_mc_test(EXAMPLE, EXAMPLE, 5_000, 1, RngStream(1))
        with pytest.raises(ParameterError):
            equivalence_mc_test(EXAMPLE, EXAMPLE, 10_000, 0, RngStream(1))


@pytest.fixture(scope="module")
def trace():
    return simulate_individual_level(
        Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), 60_000, RngStream(231)
    )


class TestIndividualLevelChecks:
    def test_all_checks_pass_on_matching_trace(self, trace):
        report = individual_level_checks(trace)
        assert report.all_passed, report.to_json()
        assert [c.name for c in report.checks] == [
            "first_obs_mean",
            "first_obs_rates",
            "gap_distribution",
            "reobservation_fraction",
            "observation_split_identity",
        ]

    def test_first_observations_expected_from_the_empty_start(self):
        # An individual born at t - i is first observed at t with chance
        # q decay^i, decay = alpha (1 - q); births start at step 0.
        t_len, decay = 200, ALPHA * (1 - Q)
        t = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=Q), t_len, RngStream(5)
        )
        first = individual_level_checks(t).checks[0]
        want = math.fsum(Q * LAM * decay**i for s in range(t_len) for i in range(s + 1))
        assert first.detail == {"count": int(t.u_total.sum()),
                                "expected": pytest.approx(want, rel=1e-12)}
        assert first.z == pytest.approx((first.detail["count"] - want) / math.sqrt(want))

    def test_degenerate_gap_check_under_full_observation(self):
        t = simulate_individual_level(
            Inar1Spec(LAM, ALPHA), ReportingSpec(q=1.0), 5_000, RngStream(241)
        )
        report = individual_level_checks(t)
        gap = next(c for c in report.checks if c.name == "gap_distribution")
        assert gap.passed and gap.estimate == 1.0

    def test_trace_without_observations_passes_with_notes(self):
        spec = Inar1Spec(1e-9, 0.5)
        t = simulate_individual_level(spec, ReportingSpec(q=0.5), 100, RngStream(1))
        assert t.x_tilde.sum() == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning from an empty trace
            report = individual_level_checks(t)
        assert report.all_passed, report.to_json()
        notes = {c.name: c.detail["note"] for c in report.checks if "note" in (c.detail or {})}
        assert notes == {
            "first_obs_rates": "too few counts for a binned test",
            "gap_distribution": "too few counts for a binned test",
            "reobservation_fraction": "no observations occurred",
        }
        json.loads(report.to_json(), parse_constant=reject_constant)

    def test_no_survival_trace_passes_vacuously(self):
        t = simulate_individual_level(
            Inar1Spec(LAM, 0.0), ReportingSpec(q=Q), 5_000, RngStream(251)
        )
        report = individual_level_checks(t)
        assert report.all_passed, report.to_json()
