"""Integer-valued autoregressive count processes under underreporting.

Simulators for thinning-based count autoregressions and their reporting
mechanisms, exact closed-form transforms between equivalent underreported
parameterizations, and a statistical harness that verifies the equivalences
by Monte Carlo.
"""

from .diagnostics import (
    EquivalenceReport,
    TraceCheckReport,
    equivalence_mc_test,
    individual_level_checks,
    joint_pmf_oracle,
    theoretical_observed_moments,
    total_variation,
)
from .equivalence import (
    CanonicalForm,
    CurvePoint,
    UnderreportedModel,
    absorb_reporting,
    admissible_reporting_interval,
    canonicalize,
    curve_to_csv,
    equivalence_curve,
    expand_lags,
    shift_reporting,
    split_reporting,
    write_curve_csv,
)
from .errors import (
    AdmissibleRangeError,
    DegenerateClassError,
    InarError,
    InsufficientDataError,
    ParameterError,
    TruncationError,
    UnsupportedMechanismError,
)
from .processes import (
    CountSeries,
    GeomInarSpec,
    Inar1Spec,
    InarPSpec,
    PopulationTrace,
    ReportingSpec,
    apply_reporting,
    simulate_inar1,
    simulate_inar_inf,
    simulate_inar_p,
    simulate_individual_level,
    write_series_csv,
    write_trace_csv,
)
from .sampling import (
    RngStream,
    binomial_thin,
    geometric_draws,
    multinomial_allocate,
    poisson_draw,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleRangeError",
    "CanonicalForm",
    "CountSeries",
    "CurvePoint",
    "DegenerateClassError",
    "EquivalenceReport",
    "GeomInarSpec",
    "Inar1Spec",
    "InarError",
    "InarPSpec",
    "InsufficientDataError",
    "ParameterError",
    "PopulationTrace",
    "ReportingSpec",
    "RngStream",
    "TraceCheckReport",
    "TruncationError",
    "UnderreportedModel",
    "UnsupportedMechanismError",
    "absorb_reporting",
    "admissible_reporting_interval",
    "apply_reporting",
    "binomial_thin",
    "canonicalize",
    "curve_to_csv",
    "equivalence_curve",
    "equivalence_mc_test",
    "expand_lags",
    "geometric_draws",
    "individual_level_checks",
    "joint_pmf_oracle",
    "multinomial_allocate",
    "poisson_draw",
    "shift_reporting",
    "simulate_inar1",
    "simulate_inar_inf",
    "simulate_inar_p",
    "simulate_individual_level",
    "split_reporting",
    "theoretical_observed_moments",
    "total_variation",
    "write_curve_csv",
    "write_series_csv",
    "write_trace_csv",
]
