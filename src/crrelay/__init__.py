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
    ConditionalOutage,
    NoSecondaryAccessError,
    OutageSummary,
    cond_outage_d1_exact,
    cond_pri_outage_d0,
    cond_sec_outage_d0,
    conditional_outages,
    noncoop_primary_outage,
    noncoop_secondary_outage,
    prob_decode_order,
    prob_relay_active,
    prob_relay_active_exact,
    total_secondary_outage,
    upper_bound_d1,
)
from .harness import (
    Report,
    SweepSpec,
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
    DerivedParams,
    LinkTable,
    SystemParams,
    db_to_linear,
    derive,
    linear_to_db,
    secondary_cutoff_snr,
)

__version__ = "0.1.0"
