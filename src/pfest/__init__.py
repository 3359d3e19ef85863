"""Partition-function estimation on finite proposal/target pairs.

Exact coverage profiles and f-divergences drive sample-size planners
for median-of-means, quantile, and importance-sampling estimators of
the normalizing constant, plus an exponential-race sampler, with an
experiment harness for empirical verification sweeps.
"""

from .coverage import (
    CoverageProfile,
    MuTailBound,
    PZBound,
    coverage,
    coverage_bound_fdiv,
    icov_bound_fdiv,
    integrated_coverage,
    min_coverage_threshold,
    mu_tail_bound,
    paley_zygmund_bound_fdiv,
    paley_zygmund_lower_bound,
    solve_M_eps,
    truncated_second_moment,
)
from .distributions import (
    DistributionPair,
    SampleBatch,
    load_pair,
    make_bernoulli_pair,
    make_finite_pair,
    make_pointmass_pair,
    make_random_pair,
    make_twopoint_mu_pair,
    make_weighted_pair,
    sample,
    sample_counts,
    save_pair,
)
from .divergences import (
    FGenerator,
    Regime,
    chi_squared,
    classify_regime,
    estimate_c_threshold,
    f_divergence,
    gamma_f,
    hellinger,
    kl,
    log_gamma_f,
    parse_f_spec,
    renyi,
    tv,
)
from .errors import (
    AllNullDrawsError,
    ClassificationError,
    ConfigError,
    InfeasiblePlanError,
    PfestError,
    SingularPairError,
)
from .estimators import (
    EstimateReport,
    PlanResult,
    PlanSource,
    importance_sampling,
    median_of_means,
    plan_n_coverage,
    plan_n_fdiv,
    plan_n_is,
    plan_n_quantile,
    plan_n_snis,
    quantile_estimator,
    snis,
    within_multiplicative,
)
from .harness import (
    ExperimentConfig,
    SweepTable,
    build_family,
    config_from_text,
    config_to_text,
    csv_fingerprint,
    emit_csv,
    load_config,
    read_csv,
    run_experiment,
    run_phase_transition,
    run_sampling_vs_counting,
    run_success_curve,
    save_config,
    table_fingerprint,
)
from .rng import derive_seed, make_generator, substreams
from .sampler import (
    RaceState,
    RaceSummary,
    astar_sample,
    empirical_tv,
    plan_n_sampling,
    run_races,
)

__version__ = "0.1.0"
