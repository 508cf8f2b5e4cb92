import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats as sps

from inarq import (
    ParameterError,
    RngStream,
    binomial_thin,
    geometric_draws,
    multinomial_allocate,
    poisson_draw,
)

N_REPLICATES = 100_000
CHI2_P_FLOOR = 0.0027  # two-sided 3-sigma


def exact_multinomial_pmf(x, probs):
    """Brute-force oracle: pmf over all category-count outcomes, residual included."""
    residual = 1.0 - math.fsum(probs)
    pmf = {}
    for outcome in product(*(range(x + 1) for _ in probs)):
        taken = sum(outcome)
        if taken > x:
            continue
        coeff = math.factorial(x)
        for c in outcome:
            coeff //= math.factorial(c)
        coeff //= math.factorial(x - taken)
        prob = coeff * residual ** (x - taken)
        for p, c in zip(probs, outcome):
            prob *= p**c
        pmf[outcome] = prob
    return pmf


class TestBinomialThin:
    def test_certain_thinning_is_identity(self):
        assert binomial_thin(5, 1.0, RngStream(1)) == 5

    def test_empty_population(self):
        assert binomial_thin(0, 0.7, RngStream(1)) == 0

    def test_zero_probability(self):
        assert binomial_thin(9, 0.0, RngStream(1)) == 0

    @pytest.mark.parametrize("n,p", [(-1, 0.5), (3, -0.1), (3, 1.1)])
    def test_domain_errors(self, n, p):
        with pytest.raises(ParameterError):
            binomial_thin(n, p, RngStream(1))

    def test_sample_mean(self, reseed_once):
        # Binomial mean is n*p = 6.6; SE of the replicate mean follows from
        # the exact variance n*p*(1-p).
        def check(seed):
            rng = RngStream(seed)
            draws = [binomial_thin(20, 0.33, rng) for _ in range(N_REPLICATES)]
            se = math.sqrt(20 * 0.33 * 0.67 / N_REPLICATES)
            assert abs(np.mean(draws) - 6.6) <= 3 * se
            assert all(0 <= d <= 20 for d in draws)

        reseed_once(check, 101, 102)


class TestPoissonDraw:
    def test_zero_rate(self):
        assert poisson_draw(0.0, RngStream(1)) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            poisson_draw(-0.5, RngStream(1))

    def test_mean_and_equidispersion(self, reseed_once):
        def check(seed):
            rng = RngStream(seed)
            draws = np.array([poisson_draw(1.62, rng) for _ in range(N_REPLICATES)])
            se_mean = math.sqrt(1.62 / N_REPLICATES)
            assert abs(draws.mean() - 1.62) <= 3 * se_mean
            # var(s^2) for Poisson is (lambda + 2 lambda^2)/n
            se_var = math.sqrt((1.62 + 2 * 1.62**2) / N_REPLICATES)
            assert abs(draws.var(ddof=1) - 1.62) <= 3 * se_var

        reseed_once(check, 201, 202)


class TestMultinomialAllocate:
    def test_no_categories(self):
        assert multinomial_allocate(7, [], RngStream(1)) == []

    def test_zero_count(self):
        assert multinomial_allocate(0, [0.3, 0.2], RngStream(1)) == [0, 0]

    def test_probability_sum_above_one_rejected(self):
        with pytest.raises(ParameterError):
            multinomial_allocate(4, [0.7, 0.4], RngStream(1))

    def test_negative_probability_rejected(self):
        with pytest.raises(ParameterError):
            multinomial_allocate(4, [0.5, -0.1], RngStream(1))

    def test_joint_pmf_matches_exact_enumeration(self, reseed_once):
        expected_pmf = exact_multinomial_pmf(4, [0.5, 0.5])

        def check(seed):
            rng = RngStream(seed)
            counts = {}
            for _ in range(N_REPLICATES):
                outcome = tuple(multinomial_allocate(4, [0.5, 0.5], rng))
                counts[outcome] = counts.get(outcome, 0) + 1
            outcomes = sorted(k for k, p in expected_pmf.items() if p > 0)
            observed = [counts.get(k, 0) for k in outcomes]
            expected = [expected_pmf[k] * N_REPLICATES for k in outcomes]
            assert min(expected) >= 5
            _, p_value = sps.chisquare(observed, expected)
            assert p_value >= CHI2_P_FLOOR

        reseed_once(check, 301, 302)

    def test_residual_category_pmf(self, reseed_once):
        # Probabilities summing below 1 leave an implicit residual outcome.
        expected_pmf = exact_multinomial_pmf(3, [0.3, 0.2])

        def check(seed):
            rng = RngStream(seed)
            counts = {}
            for _ in range(N_REPLICATES // 2):
                outcome = tuple(multinomial_allocate(3, [0.3, 0.2], rng))
                counts[outcome] = counts.get(outcome, 0) + 1
            outcomes = sorted(expected_pmf)
            observed = [counts.get(k, 0) for k in outcomes]
            expected = [expected_pmf[k] * (N_REPLICATES // 2) for k in outcomes]
            assert min(expected) >= 5
            _, p_value = sps.chisquare(observed, expected)
            assert p_value >= CHI2_P_FLOOR

        reseed_once(check, 303, 304)


class TestGeometricDraw:
    def test_certain_success(self):
        assert (geometric_draws(1.0, 5, RngStream(1)) == 1).all()

    @pytest.mark.parametrize("p", [0.0, -0.2, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ParameterError):
            geometric_draws(p, 5, RngStream(1))

    def test_mean(self, reseed_once):
        # 0.6516 is the renewal probability of the worked example; mean 1/p.
        def check(seed):
            rng = RngStream(seed)
            draws = geometric_draws(0.6516, N_REPLICATES, rng)
            p = 0.6516
            se = math.sqrt((1 - p) / p**2 / N_REPLICATES)
            assert abs(draws.mean() - 1 / p) <= 3 * se
            assert draws.min() >= 1

        reseed_once(check, 401, 402)

    def test_pmf_head(self, reseed_once):
        def check(seed):
            rng = RngStream(seed)
            draws = geometric_draws(0.5, N_REPLICATES, rng)
            for i, target in [(1, 0.5), (2, 0.25), (3, 0.125)]:
                freq = np.mean(draws == i)
                se = math.sqrt(target * (1 - target) / N_REPLICATES)
                assert abs(freq - target) <= 3 * se

        reseed_once(check, 403, 404)

    def test_vector_version_matches_law(self, reseed_once):
        def check(seed):
            draws = geometric_draws(0.5, N_REPLICATES, RngStream(seed))
            se = math.sqrt(0.5 / 0.25 / N_REPLICATES)
            assert abs(draws.mean() - 2.0) <= 3 * se

        reseed_once(check, 405, 406)


class TestDeterminism:
    @staticmethod
    def _consume(rng):
        return (
            binomial_thin(50, 0.3, rng),
            poisson_draw(2.5, rng),
            tuple(geometric_draws(0.4, 1, rng)),
            tuple(multinomial_allocate(10, [0.2, 0.3], rng)),
            tuple(geometric_draws(0.7, 5, rng)),
        )

    def test_replay_bit_reproduces(self):
        assert self._consume(RngStream(9, 3)) == self._consume(RngStream(9, 3))

    def test_substream_derivation_is_stable(self):
        a = RngStream(9).substream(5)
        b = RngStream(9).substream(5)
        assert a.identity == b.identity
        assert self._consume(a) == self._consume(b)

    def test_distinct_streams_differ(self):
        a = RngStream(9, 0).generator.random(20)
        b = RngStream(9, 1).generator.random(20)
        assert not np.array_equal(a, b)

    def test_substreams_do_not_collide(self):
        ids = {RngStream(9).substream(i).stream_id for i in range(1000)}
        assert len(ids) == 1000


@given(n=st.integers(0, 200), p=st.floats(0, 1), seed=st.integers(0, 2**32))
def test_thinning_never_exceeds_population(n, p, seed):
    r = binomial_thin(n, p, RngStream(seed))
    assert 0 <= r <= n
    assert binomial_thin(n, 0.0, RngStream(seed)) == 0


@given(
    x=st.integers(0, 100),
    probs=st.lists(st.floats(0, 0.2), max_size=5),
    seed=st.integers(0, 2**32),
)
def test_allocation_never_exceeds_count(x, probs, seed):
    counts = multinomial_allocate(x, probs, RngStream(seed))
    assert len(counts) == len(probs)
    assert all(c >= 0 for c in counts)
    assert sum(counts) <= x


@given(p=st.floats(0.01, 1.0), seed=st.integers(0, 2**32))
def test_geometric_support_starts_at_one(p, seed):
    assert (geometric_draws(p, 16, RngStream(seed)) >= 1).all()
