import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inarq import (
    AdmissibleRangeError,
    DegenerateClassError,
    GeomInarSpec,
    Inar1Spec,
    ParameterError,
    ReportingSpec,
    RngStream,
    UnderreportedModel,
    absorb_reporting,
    apply_reporting,
    canonicalize,
    equivalence_curve,
    expand_lags,
    shift_reporting,
    simulate_inar1,
    write_curve_csv,
)
from inarq.equivalence import admissible_reporting_interval, split_reporting
from inarq.processes import LAYOUT_MAX_MEAN, _require_geom_block_size, simulation_route

LAM, ALPHA, Q = 1.62, 0.52, 0.33
EXAMPLE = UnderreportedModel.from_inar1(Inar1Spec(LAM, ALPHA), Q)

TOL = 1e-12


def close(a, b, scale=1.0):
    return abs(a - b) <= TOL * max(1.0, abs(scale))


# Parameter strategies kept away from the extreme corners so the 1e-12
# round-trip contract is meaningful (total lag weight capped at 0.97).
lambdas = st.floats(0.1, 10.0)
alphas = st.floats(0.0, 0.95)
probs = st.floats(0.05, 1.0)
betas = st.floats(0.01, 0.9)
fractions = st.floats(0.0, 1.0)


@st.composite
def geom_specs(draw):
    lam = draw(lambdas)
    beta = draw(betas)
    gamma = draw(fractions) * (0.97 - beta)
    return GeomInarSpec(lam, beta, gamma)


@st.composite
def models(draw):
    return UnderreportedModel(latent=draw(geom_specs()), q=draw(probs))


@st.composite
def models_with_target(draw):
    model = draw(models())
    lower, upper = admissible_reporting_interval(model)
    frac = draw(fractions)
    return model, lower + frac * (upper - lower)


class TestAbsorbReporting:
    def test_worked_example(self):
        image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)
        # independent re-derivation with a different arithmetic arrangement
        assert close(image.lambda_, (LAM * Q) / (1 - ALPHA + ALPHA * Q))
        assert close(image.beta, 0.1716)
        assert close(image.gamma, ALPHA - ALPHA * Q)
        assert round(image.lambda_, 2) == 0.82

    def test_full_reporting_is_identity_representation(self):
        image = absorb_reporting(Inar1Spec(LAM, ALPHA), 1.0)
        assert (image.lambda_, image.beta, image.gamma) == (LAM, ALPHA, 0.0)

    def test_thinned_iid_poisson_stays_iid(self):
        image = absorb_reporting(Inar1Spec(2.0, 0.0), 0.5)
        assert (image.lambda_, image.beta, image.gamma) == (1.0, 0.0, 0.0)

    @given(lam=lambdas, alpha=alphas, q=probs)
    def test_matches_the_closed_form_bit_for_bit(self, lam, alpha, q):
        image = absorb_reporting(Inar1Spec(lam, alpha), q)
        assert image.lambda_ == lam * q / (1 - alpha * (1 - q))
        assert (image.beta, image.gamma) == (alpha * q, alpha * (1 - q))

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.2])
    def test_reporting_probability_domain(self, q):
        with pytest.raises(ParameterError):
            absorb_reporting(Inar1Spec(LAM, ALPHA), q)


class TestSplitReporting:
    def test_worked_example_rounds_to_published_estimates(self):
        c = split_reporting(GeomInarSpec(0.8204, 0.1716, 0.3484))
        assert round(c.lambda_star, 2) == 1.62
        assert round(c.alpha_star, 2) == 0.52
        assert round(c.q_star, 2) == 0.33

    def test_first_order_input_is_fixed_point(self):
        c = split_reporting(GeomInarSpec(1.7, 0.4, 0.0))
        assert (c.lambda_star, c.alpha_star, c.q_star) == (1.7, 0.4, 1.0)

    def test_iid_class_with_decay_is_iid_poisson(self):
        # beta = 0 puts no weight on any lag, whatever gamma.
        c = split_reporting(GeomInarSpec(1.0, 0.0, 0.5))
        assert (c.lambda_star, c.alpha_star, c.q_star) == (1.0, 0.0, 1.0)

    @given(lam=lambdas, alpha=st.floats(0.01, 0.95), q=probs)
    def test_round_trip_recovers_input(self, lam, alpha, q):
        c = split_reporting(absorb_reporting(Inar1Spec(lam, alpha), q))
        assert close(c.lambda_star, lam, scale=lam)
        assert close(c.alpha_star, alpha)
        assert close(c.q_star, q)

    @given(spec=geom_specs())
    def test_reverse_round_trip_recovers_lag_structure(self, spec):
        c = split_reporting(spec)
        back = absorb_reporting(Inar1Spec(c.lambda_star, c.alpha_star), c.q_star)
        assert close(back.lambda_, spec.lambda_, scale=spec.lambda_)
        assert close(back.beta, spec.beta)
        assert close(back.gamma, spec.gamma)


class TestShiftReporting:
    def test_identity_at_current_probability(self):
        out = shift_reporting(EXAMPLE, Q)
        assert close(out.latent.lambda_, LAM, scale=LAM)
        assert close(out.latent.beta, ALPHA)
        assert close(out.latent.gamma, 0.0)
        assert out.q == Q

    def test_worked_example_at_half_reporting(self):
        out = shift_reporting(EXAMPLE, 0.5)
        # direct evaluation of the reparameterization formulas
        r = Q / 0.5
        assert close(out.latent.beta, ALPHA * r)
        assert close(out.latent.gamma, (1 - r) * ALPHA)
        assert close(out.latent.lambda_, LAM * r / (1 - (1 - r) * ALPHA), scale=LAM)
        c0, c1 = canonicalize(EXAMPLE), canonicalize(out)
        assert close(c0.lambda_star, c1.lambda_star, scale=c0.lambda_star)
        assert close(c0.alpha_star, c1.alpha_star)
        assert close(c0.q_star, c1.q_star)

    def test_full_observation_endpoint_matches_absorbed_form(self):
        out = shift_reporting(EXAMPLE, 1.0)
        image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)
        assert close(out.latent.lambda_, image.lambda_, scale=image.lambda_)
        assert close(out.latent.beta, image.beta)
        assert close(out.latent.gamma, image.gamma)
        assert out.q == 1.0

    def test_out_of_range_target_names_interval(self):
        with pytest.raises(AdmissibleRangeError) as err:
            shift_reporting(EXAMPLE, 0.2)
        assert close(err.value.lower, 0.33)
        assert err.value.upper == 1.0
        with pytest.raises(AdmissibleRangeError):
            shift_reporting(EXAMPLE, 1.1)

    def test_lower_end_is_the_canonical_form(self):
        out = shift_reporting(EXAMPLE, Q - 1e-13)
        assert out == UnderreportedModel(GeomInarSpec(LAM, ALPHA, 0.0), Q)

    def test_subnormal_weight_reaches_full_observation(self):
        # canonicalize's lambda_star overflows here, but the image does not.
        out = shift_reporting(UnderreportedModel(GeomInarSpec(20.0, 1e-310, 0.5), 0.5), 1.0)
        assert out == UnderreportedModel(GeomInarSpec(10.0, 5e-311, 0.5), 1.0)

    def test_underflowing_lower_end_is_parameter_error(self):
        # beta > 0, so the class is not i.i.d., but its lowest reporting
        # probability q * beta / (beta + gamma) underflows to 0.
        model = UnderreportedModel(GeomInarSpec(20.0, 5e-324, 0.9), 0.5)
        calls = [admissible_reporting_interval, canonicalize,
                 lambda m: equivalence_curve(m, 68), lambda m: shift_reporting(m, 1e-300)]
        for call in calls:
            with pytest.raises(ParameterError, match="underflows to 0"):
                call(model)

    @given(pair=models_with_target())
    def test_image_satisfies_lag_spec_invariants(self, pair):
        model, q_target = pair
        out = shift_reporting(model, q_target)  # GeomInarSpec validates on build
        assert 0.0 <= out.latent.beta < 1.0 - out.latent.gamma

    @given(pair=models_with_target(), frac=fractions)
    def test_semigroup_law(self, pair, frac):
        model, q1 = pair
        lower, upper = admissible_reporting_interval(model)
        q2 = lower + frac * (upper - lower)
        via_q1 = shift_reporting(shift_reporting(model, q1), q2)
        direct = shift_reporting(model, q2)
        assert close(via_q1.latent.lambda_, direct.latent.lambda_, scale=direct.latent.lambda_)
        assert close(via_q1.latent.beta, direct.latent.beta)
        assert close(via_q1.latent.gamma, direct.latent.gamma)

    @given(pair=models_with_target())
    def test_conserved_quantities(self, pair):
        model, q_target = pair
        out = shift_reporting(model, q_target)
        before = model.latent.beta + model.latent.gamma
        after = out.latent.beta + out.latent.gamma
        assert close(after, before)
        c0, c1 = canonicalize(model), canonicalize(out)
        assert close(c0.q_star, c1.q_star)
        mean0 = model.q * model.latent.stationary_mean
        mean1 = out.q * out.latent.stationary_mean
        assert close(mean1, mean0, scale=mean0)


class TestCanonicalize:
    def test_first_order_model_is_its_own_representative(self):
        c = canonicalize(EXAMPLE)
        assert (c.lambda_star, c.alpha_star, c.q_star) == (LAM, ALPHA, Q)

    def test_fully_observed_image_canonicalizes_back(self):
        c = canonicalize(UnderreportedModel(GeomInarSpec(0.8204, 0.1716, 0.3484), 1.0))
        assert round(c.lambda_star, 2) == 1.62
        assert round(c.alpha_star, 2) == 0.52
        assert round(c.q_star, 2) == 0.33

    def test_iid_class_with_decay_is_iid_poisson(self):
        c = canonicalize(UnderreportedModel(GeomInarSpec(1.0, 0.0, 0.4), 0.5))
        assert (c.lambda_star, c.alpha_star, c.q_star) == (0.5, 0.0, 1.0)

    def test_iid_class_gets_unique_representative(self):
        a = canonicalize(UnderreportedModel(GeomInarSpec(2.0, 0.0, 0.0), 0.5))
        b = canonicalize(UnderreportedModel(GeomInarSpec(1.0, 0.0, 0.0), 1.0))
        assert close(a.lambda_star, b.lambda_star)
        assert (a.alpha_star, a.q_star) == (b.alpha_star, b.q_star) == (0.0, 1.0)

    @given(pair=models_with_target())
    def test_invariant_along_the_class(self, pair):
        model, q_target = pair
        c0 = canonicalize(model)
        c1 = canonicalize(shift_reporting(model, q_target))
        assert close(c0.lambda_star, c1.lambda_star, scale=c0.lambda_star)
        assert close(c0.alpha_star, c1.alpha_star)
        assert close(c0.q_star, c1.q_star)


class TestExpandLags:
    def test_worked_example_expansion(self):
        image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)
        terms = expand_lags(image, 0.005)
        assert [i for i, _ in terms] == [1, 2, 3, 4]
        assert [round(w, 2) for _, w in terms] == [0.17, 0.06, 0.02, 0.01]
        assert [round(w, 4) for _, w in terms] == [0.1716, 0.0598, 0.0208, 0.0073]

    def test_first_order_expansion_has_one_term(self):
        assert expand_lags(GeomInarSpec(1.0, 0.5, 0.0), 0.3) == [(1, 0.5)]
        assert expand_lags(GeomInarSpec(1.0, 0.5, 0.0), 0.0) == [(1, 0.5)]

    def test_non_terminating_request_rejected(self):
        with pytest.raises(ParameterError):
            expand_lags(GeomInarSpec(1.0, 0.2, 0.5), 0.0)

    @pytest.mark.parametrize("cutoff", [-0.1, math.nan])
    def test_invalid_cutoff_rejected(self, cutoff):
        with pytest.raises(ParameterError, match="nonnegative"):
            expand_lags(GeomInarSpec(1.0, 0.2, 0.5), cutoff)

    def test_subnormal_cutoff_terminates(self):
        # 0.6 times the smallest subnormal rounds back to it, so the product
        # stops shrinking above this cutoff; the list still ends there.
        terms = expand_lags(GeomInarSpec(1.0, 0.3, 0.6), 5e-324)
        weights = [w for _, w in terms]
        assert [i for i, _ in terms] == list(range(1, len(terms) + 1))
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[-1] == 5e-324

    def test_total_weight_matches_geometric_series(self):
        spec = GeomInarSpec(1.0, 0.1716, 0.3484)
        terms = expand_lags(spec, 1e-9)
        tail = spec.beta * spec.gamma ** len(terms) / (1 - spec.gamma)
        total = math.fsum(w for _, w in terms) + tail
        assert close(total, spec.beta / (1 - spec.gamma))
        assert close(spec.total_weight, spec.beta / (1 - spec.gamma))


class TestEquivalenceCurve:
    def test_endpoints(self):
        points = equivalence_curve(EXAMPLE, 68)
        assert len(points) == 68
        first, last = points[0], points[-1]
        assert close(first.q_y, Q)
        assert close(first.lambda_y, LAM, scale=LAM)
        assert close(first.beta_y, ALPHA)
        assert close(first.gamma_y, 0.0)
        image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)
        assert last.q_y == 1.0
        assert close(last.lambda_y, image.lambda_, scale=image.lambda_)
        assert close(last.beta_y, image.beta)
        assert close(last.gamma_y, image.gamma)

    def test_grid_is_linspace_bit_for_bit(self):
        rng = random.Random(20)
        cases = [(EXAMPLE, 10**6)]
        for _ in range(60):
            gamma = rng.uniform(0.0, 0.95)
            beta = rng.uniform(1e-6, 1.0 - gamma) * 0.999
            model = UnderreportedModel(GeomInarSpec(rng.uniform(0.1, 50.0), beta, gamma),
                                       rng.uniform(1e-3, 1.0))
            cases.append((model, rng.randint(2, 5000)))
        for model, n in cases:
            lower, upper = admissible_reporting_interval(model)
            grid = [p.q_y for p in equivalence_curve(model, n)]
            assert grid == np.linspace(lower, upper, n).tolist(), (model, n)

    def test_every_point_canonicalizes_identically(self):
        for p in equivalence_curve(EXAMPLE, 68):
            c = canonicalize(
                UnderreportedModel(GeomInarSpec(p.lambda_y, p.beta_y, p.gamma_y), p.q_y)
            )
            assert close(c.lambda_star, LAM, scale=LAM)
            assert close(c.alpha_star, ALPHA)
            assert close(c.q_star, Q)

    def test_monotone_in_reporting_probability(self):
        points = equivalence_curve(EXAMPLE, 40)
        for a, b in zip(points, points[1:]):
            assert b.beta_y < a.beta_y
            assert b.gamma_y > a.gamma_y
            assert b.lambda_y < a.lambda_y

    @given(model=models(), n=st.integers(2, 100))
    def test_first_row_is_the_canonical_form(self, model, n):
        first, c = equivalence_curve(model, n)[0], canonicalize(model)
        assert (first.q_y, first.lambda_y, first.beta_y) == (c.q_star, c.lambda_star, c.alpha_star)
        assert first.gamma_y == 0.0

    def test_grid_too_small_rejected(self):
        with pytest.raises(ParameterError):
            equivalence_curve(EXAMPLE, 1)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_iid_class_has_no_lower_end(self, gamma):
        with pytest.raises(DegenerateClassError):
            equivalence_curve(UnderreportedModel(GeomInarSpec(2.0, 0.0, gamma), 0.5), 10)

    def test_csv_format(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(equivalence_curve(EXAMPLE, 3), path)
        text = path.read_bytes().decode("utf-8")
        assert text.endswith("\n") and "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "q_Y,lambda_Y,beta_Y,gamma_Y"
        assert len(lines) == 4
        assert lines[1].startswith("0.33,")


class TestSimulationRoute:
    def test_worked_example_lays_out_its_image(self):
        spec, q = simulation_route(EXAMPLE)
        image = shift_reporting(EXAMPLE, 1.0).latent
        assert spec == image and q == 1.0
        assert image.stationary_mean <= LAYOUT_MAX_MEAN

    def test_fully_observed_model_is_drawn_as_written(self):
        image = absorb_reporting(Inar1Spec(LAM, ALPHA), Q)
        assert simulation_route(UnderreportedModel(image, 1.0)) == (image, 1.0)

    @pytest.mark.parametrize("latent, q", [
        (GeomInarSpec(20.0, 0.3, 0.4), 1.0),  # mean 40, fully observed
        (GeomInarSpec(6.0, 0.55, 0.3), 0.9),  # mean 28, thinned
    ])
    def test_dense_class_draws_the_canonical_form_thinned_once(self, latent, q):
        model = UnderreportedModel(latent, q)
        spec, q_route = simulation_route(model)
        canon = canonicalize(model)
        assert shift_reporting(model, 1.0).latent.stationary_mean > LAYOUT_MAX_MEAN
        assert spec == Inar1Spec(canon.lambda_star, canon.alpha_star)
        assert q_route == canon.q_star

    def test_thinned_first_order_spec_keeps_its_own_parameters(self):
        # Above the threshold, the canonical form of an inar1 spec is the spec.
        model = UnderreportedModel.from_inar1(Inar1Spec(20.0, 0.5), 0.9)
        assert simulation_route(model) == (Inar1Spec(20.0, 0.5), 0.9)

    @pytest.mark.parametrize("beta, gamma", [(0.0, 0.0), (0.0, 0.5), (0.4, 0.0)])
    def test_iid_and_first_order_images_count_intervals(self, beta, gamma):
        spec, q = simulation_route(UnderreportedModel(GeomInarSpec(3.0, beta, gamma), 1.0))
        assert spec == Inar1Spec(3.0, beta) and q == 1.0

    def test_iid_class_with_decay_needs_no_first_order_form(self):
        # beta = 0 with gamma > 0 is i.i.d. Poisson with the observed mean:
        # the image is drawn by interval counting, with no gap draw.
        spec, q = simulation_route(UnderreportedModel(GeomInarSpec(3.0, 0.0, 0.5), 0.4))
        assert isinstance(spec, Inar1Spec) and spec.alpha == 0.0 and q == 1.0
        assert close(spec.lambda_, 1.2)

    def test_threshold_on_the_image_mean(self):
        def at_mean(mean):
            return UnderreportedModel(GeomInarSpec(mean / 2.0, 0.25, 0.5), 1.0)

        assert isinstance(simulation_route(at_mean(LAYOUT_MAX_MEAN))[0], GeomInarSpec)
        assert isinstance(simulation_route(at_mean(LAYOUT_MAX_MEAN * 1.01))[0], Inar1Spec)

    def test_undrawable_image_takes_the_canonical_form(self):
        # Image mean 5, but its start block would lay out about 5e7 appearances;
        # the first-order form holds about 10 chains.
        model = UnderreportedModel.from_inar1(Inar1Spec(1e-6, 0.9999999), 0.5)
        with pytest.raises(ParameterError, match="chain appearances"):
            _require_geom_block_size(shift_reporting(model, 1.0).latent)
        assert simulation_route(model) == (Inar1Spec(1e-6, 0.9999999), 0.5)

    def test_high_rate_canonical_form_is_drawn(self):
        # 1.69e7 chains under way at step 0 and arriving at it, but all except
        # about 4 fall in the classes drawn as per-step counts, so the
        # canonical form is drawable and the image's gap layout, about 7e6
        # appearances per step, is never chosen.
        alpha = q = 0.40996
        model = UnderreportedModel.from_inar1(Inar1Spec(1e7, alpha), q)
        spec, q_route = simulation_route(model)
        assert spec == Inar1Spec(1e7, alpha) and q_route == q
        t_len, rng = 100, RngStream(17)
        observed = apply_reporting(simulate_inar1(spec, t_len, rng), ReportingSpec(q_route), rng)
        mean = model.observed_mean
        # Poisson marginal, lag-k autocorrelation q * alpha**k < alpha**k.
        se = math.sqrt(mean * (1.0 + alpha) / (1.0 - alpha) / t_len)
        assert abs(observed.values.mean() - mean) <= 6 * se

    def test_unrepresentable_canonical_form_lays_out_the_image(self):
        # lambda_star = 20 * 0.5 * 0.5 / 1e-300 is past the largest Poisson rate.
        latent = GeomInarSpec(20.0, 1e-300, 0.5)
        canon = canonicalize(UnderreportedModel(latent, 1.0))
        with pytest.raises(ParameterError, match="immigration rate"):
            Inar1Spec(canon.lambda_star, canon.alpha_star)
        assert simulation_route(UnderreportedModel(latent, 1.0)) == (latent, 1.0)

    @given(model=models())
    def test_route_is_a_member_of_the_class(self, model):
        spec, q = simulation_route(model)
        latent = spec if isinstance(spec, GeomInarSpec) else GeomInarSpec(spec.lambda_, spec.alpha, 0.0)
        got, want = canonicalize(UnderreportedModel(latent, q)), canonicalize(model)
        assert close(got.lambda_star, want.lambda_star, scale=want.lambda_star)
        assert close(got.alpha_star, want.alpha_star)
        assert close(got.q_star, want.q_star)
