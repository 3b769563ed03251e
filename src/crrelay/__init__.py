"""Outage analysis, event-level simulation and power allocation for a
relay-aided underlay cognitive-radio link."""

from .allocation import (
    AllocationResult,
    allocate,
    alpha_for_primary_bound,
    common_alpha_band,
    min_snr_r_for_epsilon,
)
from .analytic import (
    OutageSummary,
    cond_outage_d0,
    cond_outage_d1_exact,
    noncoop_outage,
    prob_decode_order,
    prob_relay_active,
    prob_relay_active_exact,
    total_secondary_outage,
    upper_bound_d1,
)
from .harness import (
    Report,
    axis_values,
    compare_analytic_mc,
    default_params,
    load_config,
    reproduce,
    run_sweep,
    sweep_csv,
    table1_params,
)
from .montecarlo import (
    OutageEstimate,
    SchemeEstimates,
    estimate,
    estimate_many,
)
from .quadrature import (
    QuadratureError,
    integrate_exp_over_x,
)
from .system import (
    USER_LINKS,
    DerivedParams,
    LinkTable,
    SystemParams,
    db_to_linear,
    derive,
    linear_to_db,
    secondary_cutoff_db,
)

__version__ = "0.1.0"
