"""Integer-valued autoregressive count processes under underreporting.

Simulators for thinning-based count autoregressions and their reporting
mechanisms, exact closed-form transforms between equivalent underreported
parameterizations, and a statistical harness that verifies the equivalences
by Monte Carlo.
"""

import importlib

__version__ = "0.1.0"

# Every public name, under the module that defines it. Each is imported on
# first access, so ``import inarq`` loads no numpy until a numpy-backed name
# is used.
_EXPORTS = {
    "diagnostics": ("EquivalenceReport", "TraceCheckReport", "equivalence_mc_test",
                    "individual_level_checks", "joint_pmf_oracle",
                    "theoretical_observed_moments", "total_variation"),
    "equivalence": ("CanonicalForm", "CurvePoint", "UnderreportedModel", "absorb_reporting",
                    "admissible_reporting_interval", "canonicalize", "curve_to_csv",
                    "equivalence_curve", "expand_lags", "shift_reporting", "split_reporting",
                    "write_curve_csv"),
    "errors": ("AdmissibleRangeError", "DegenerateClassError", "InarError", "ParameterError",
               "TruncationError", "UnsupportedMechanismError"),
    "processes": ("CountSeries", "PopulationTrace", "apply_reporting", "simulate_inar1",
                  "simulate_inar_inf", "simulate_inar_p", "simulate_individual_level",
                  "write_series_csv", "write_trace_csv"),
    "sampling": ("RngStream", "binomial_thin", "geometric_draws", "multinomial_allocate",
                 "poisson_draw"),
    "specs": ("GeomInarSpec", "Inar1Spec", "InarPSpec", "ReportingSpec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
