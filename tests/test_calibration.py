"""False-rejection rates and power of the `check` and `appendix` verdicts.

Each verdict is built to fail on equivalent inputs with probability at most
``diagnostics.LEVEL``. Over N seeded runs on equivalent inputs the failures
must stay within LEVEL * N plus three binomial standard deviations, at the
sizes the commands run at (T = 1e4). The power tests keep the canonical
forms equal, so only the statistical gates can fail the verdict, or read
the gates' p-values themselves.
"""

import math

import numpy as np
import pytest

from inarq import (
    CountSeries,
    GeomInarSpec,
    Inar1Spec,
    ReportingSpec,
    RngStream,
    UnderreportedModel,
    absorb_reporting,
    canonicalize,
    equivalence_mc_test,
    individual_level_checks,
    simulate_individual_level,
)
from inarq import diagnostics

ALPHA, Q = 0.52, 0.33
T_LEN = 10_000


def allowed_rejections(n):
    level = diagnostics.LEVEL
    return level * n + 3.0 * math.sqrt(n * level * (1.0 - level))


def worked_pair(mean):
    """The worked family (alpha = 0.52, q = 0.33) at the observed mean
    ``mean``, and its fully observed image."""
    spec = Inar1Spec(mean * (1.0 - ALPHA) / Q, ALPHA)
    return (UnderreportedModel.from_inar1(spec, Q),
            UnderreportedModel(absorb_reporting(spec, Q), 1.0))


# N = 150 seeds per case: at most 5 false rejections. At N = 60 (at most 2)
# a verdict calibrated at LEVEL = 0.01 still breaks a case with probability
# about 2%, so any change of draws broke one of the eight about 1 time in 7.
@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("mean", [0.1, 1.1, 8.0, 40.0])
def test_check_false_rejections(mean, reps):
    n = 150
    m1, m2 = worked_pair(mean)
    failed = [seed for seed in range(40_000, 40_000 + n)
              if not equivalence_mc_test(m1, m2, T_LEN, reps, RngStream(seed)).passed]
    assert len(failed) <= allowed_rejections(n), failed


# A class of observed mean 22 with q = 0.01 and latent mean 2222, against its
# fully observed image: the oracle's table is bounded by the observed mean,
# so the large latent mean is admitted. N = 60 seeds: at most 2 false rejections.
def test_check_false_rejections_small_reporting_probability():
    n = 60
    spec = Inar1Spec(2000.0, 0.1)
    m1, m2 = UnderreportedModel.from_inar1(spec, 0.01), UnderreportedModel(
        absorb_reporting(spec, 0.01), 1.0)
    failed = [seed for seed in range(40_000, 40_000 + n)
              if not equivalence_mc_test(m1, m2, T_LEN, 3, RngStream(seed)).passed]
    assert len(failed) <= allowed_rejections(n), failed


# Slow-decay classes (lag weights 0.0009 * 0.999**(i - 1), observed means 0.5
# and 2) against their own canonical forms. Their memory, 1 / (1 - alpha*) =
# 1e4 steps, outlasts the 200-step batches at T = 1e4, so the batch means are
# far from independent and about 30% of verdicts fail, mostly on pair cells.
# At T = 1e6 (batches of 2e4 steps) none of 40 seeds failed at lambda = 0.05.
# Remove the mark when the scores account for this.
@pytest.mark.xfail(strict=True, reason="batches shorter than the class's memory")
@pytest.mark.parametrize("lam", [0.05, 0.2])
def test_check_false_rejections_slow_decay(lam):
    n = 40
    slow = UnderreportedModel(GeomInarSpec(lam, 0.0009, 0.999), 1.0)
    c = canonicalize(slow)
    canonical = UnderreportedModel.from_inar1(Inar1Spec(c.lambda_star, c.alpha_star), c.q_star)
    failed = [seed for seed in range(43_000, 43_000 + n)
              if not equivalence_mc_test(slow, canonical, T_LEN, 3, RngStream(seed)).passed]
    assert len(failed) <= allowed_rejections(n), failed


def test_appendix_false_rejections():
    # N = 300 traces: at most 8 false rejections.
    n = 300
    spec = Inar1Spec(1.62, ALPHA)
    failed = []
    for seed in range(41_000, 41_000 + n):
        trace = simulate_individual_level(spec, ReportingSpec(q=Q), T_LEN, RngStream(seed))
        report = individual_level_checks(trace)
        if not report.all_passed:
            failed.append((seed, [c.name for c in report.checks if not c.passed]))
    assert len(failed) <= allowed_rejections(n), failed


def iid_poisson(model, t_len, stream):
    return CountSeries(stream.generator.poisson(1.62 * Q / (1.0 - ALPHA), t_len),
                       stream.identity, 0, "iid")


def faster_decay(model, t_len, stream, _real=diagnostics._observed_series):
    return _real(UnderreportedModel.from_inar1(Inar1Spec(1.62, 0.56), Q), t_len, stream)


@pytest.mark.parametrize("draw", [iid_poisson, faster_decay])
def test_gates_reject_other_laws(monkeypatch, draw):
    # Both models share one canonical form; the second is drawn from another
    # law: i.i.d. Poisson at the same mean, or the alpha = 0.56 member.
    worked, image = worked_pair(1.62 * Q / (1.0 - ALPHA))
    real = diagnostics._observed_series

    def observed(model, t_len, stream):
        return (draw if model is image else real)(model, t_len, stream)

    monkeypatch.setattr(diagnostics, "_observed_series", observed)
    failed = 0
    for seed in range(42_000, 42_020):
        report = equivalence_mc_test(worked, image, T_LEN, 1, RngStream(seed))
        assert max(map(abs, report.canonical_delta.values())) < 1e-12
        failed += not report.passed
    assert failed >= 19


def test_statistics_alone_see_a_change_of_lag_structure():
    # The worked model against the alpha' = 0.60 member of its observed mean
    # and lag-1 autocorrelation (q' alpha' = q alpha): the two differ only in
    # how the autocorrelation decays past lag 1. Their canonical forms differ,
    # so the verdict is not read; the statistical gates are: a seed sees the
    # change when a gate other than canonical_form fails.
    worked = UnderreportedModel.from_inar1(Inar1Spec(1.62, ALPHA), Q)
    q_alt = Q * ALPHA / 0.60
    alt = UnderreportedModel.from_inar1(
        Inar1Spec(1.62 * Q / (1.0 - ALPHA) * 0.40 / q_alt, 0.60), q_alt)
    seen = 0
    for seed in range(70_000, 70_012):
        report = equivalence_mc_test(worked, alt, 100_000, 3, RngStream(seed))
        seen += any(name != "canonical_form" for name in report.failed_gates)
    assert seen >= 10
