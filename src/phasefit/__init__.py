"""Generalized Cox (phase-type) distributions: minimal two-moment fitting,
random variate generation, and absorbing-CTMC export."""

from .analysis import (
    MinSecondMomentReport,
    MomentSummary,
    cdf,
    laplace,
    mean,
    min_second_moment,
    moment_k,
    pdf,
    second_moment,
    summarize,
    variance,
)
from .des import EventCalendar, QueueStats, pk_mean_wait, run_mph1
from .fitting import (
    FitResult,
    almost_erlang,
    erlang_approximation,
    fit_two_moments,
    hyper_family,
    minimal_states,
    sample_stats,
    sauer_chandy,
    simplest_hyper,
)
from .markov import (
    CtmcExport,
    absorption_time_moments,
    approx_ctmc,
    exact_absorbing_ctmc,
    export_dot,
    export_json,
    parse_ctmc_json,
)
from .model import (
    Branch,
    ClassicalCoxSpec,
    CoxFeasibility,
    GeneralizedCoxModel,
    PhaseTypeRep,
    cox_routing_feasible,
    exponential_model,
    from_classical_cox,
    model_from_json,
    model_to_json,
    new_model,
    to_phase_type,
)
from .sampling import (
    EmpiricalReport,
    SamplerState,
    empirical_check,
    sample_n,
    split_seeds,
)

__version__ = "0.1.0"
