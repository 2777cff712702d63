"""Discrete Bayesian-network toolkit for threshold-window trial emulation.

Fit (dynamic) discrete networks from longitudinal cohorts, run exact
posterior and interventional queries, extract a locally randomized sample
around a prediction threshold, and estimate per-category associational and
causal effects with significance testing and variable ranking.
"""

from .cohort import Cohort, encode_columns, read_cohort_csv, write_cohort_csv
from .errors import (
    ConfigError,
    CyclicGraph,
    DataError,
    DegenerateTable,
    EmptyClass,
    EmptyParentConfiguration,
    EmptySample,
    IncompleteAssignment,
    InsufficientPositives,
    InvalidModel,
    InvalidQuery,
    NoCausalPath,
    NonFiniteLikelihood,
    NonFiniteValue,
    RdTrialError,
    SingleClass,
    TooFewRecords,
    TooLargeForEnumeration,
    UnknownState,
    UnknownVariable,
    UnnormalizedCpt,
    ZeroProbabilityEvidence,
)
from .inference import (
    Posterior,
    dense_joint,
    do_posterior,
    enumerate_posterior,
    joint_probability,
    log_evidence,
    posterior,
    requisite,
)
from .learning import (
    FitReport,
    em_fit,
    mle_fit,
    stratified_split,
    undersample,
)
from .model import (
    Cpt,
    DbnTemplate,
    DiscreteNetwork,
    VariableDef,
    has_directed_path,
    mutilate,
    node_name,
    parse_node,
    slice_rank,
    unroll,
    validate_network,
)
from .modelio import load_model, save_model
from .preprocess import (
    BinningScheme,
    PlausibilityRange,
    apply_bins,
    apply_plausibility,
    bin_column,
    mdlp_cuts,
)
from .rddo import (
    CategoryEffect,
    EffectTable,
    RdDoReport,
    RunConfig,
    ScoredRecord,
    WindowReport,
    WindowScan,
    estimate_effects,
    load_run_config,
    parse_run_config,
    rank_effects,
    run_rd_do,
    scan_windows,
    score_cohort,
    select_window,
)
from .stats import (
    TestResult,
    bonferroni_alpha,
    chi2_homogeneity,
    ks_two_sample,
    sample_power,
    youden_threshold,
)
from .synth import (
    ScenarioSpec,
    confounded_triple,
    make_confounded_scenario,
    sample_cohort,
    solve_gap,
    true_interventional,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "VariableDef", "Cpt", "DiscreteNetwork", "DbnTemplate",
    "node_name", "parse_node", "slice_rank",
    "validate_network", "mutilate", "has_directed_path", "unroll",
    "load_model", "save_model",
    # inference
    "Posterior", "posterior", "do_posterior", "joint_probability",
    "log_evidence", "requisite", "dense_joint",
    "enumerate_posterior",
    # learning
    "FitReport", "mle_fit", "em_fit", "stratified_split", "undersample",
    # preprocess
    "PlausibilityRange", "apply_plausibility", "BinningScheme",
    "mdlp_cuts", "apply_bins", "bin_column",
    # stats
    "TestResult", "chi2_homogeneity", "ks_two_sample", "bonferroni_alpha",
    "youden_threshold", "sample_power",
    # cohort
    "Cohort", "read_cohort_csv", "write_cohort_csv", "encode_columns",
    # pipeline
    "ScoredRecord", "WindowReport", "WindowScan", "CategoryEffect", "EffectTable",
    "RunConfig", "RdDoReport", "score_cohort", "scan_windows",
    "select_window", "estimate_effects", "rank_effects", "run_rd_do",
    "parse_run_config", "load_run_config",
    # synth
    "ScenarioSpec", "solve_gap", "confounded_triple",
    "make_confounded_scenario", "sample_cohort", "true_interventional",
    # errors
    "RdTrialError", "InvalidModel", "CyclicGraph", "UnnormalizedCpt",
    "UnknownVariable", "UnknownState", "ZeroProbabilityEvidence", "InvalidQuery",
    "IncompleteAssignment", "EmptyParentConfiguration",
    "NonFiniteLikelihood", "InsufficientPositives", "EmptyClass",
    "NonFiniteValue", "DegenerateTable", "EmptySample", "SingleClass",
    "TooFewRecords", "NoCausalPath", "TooLargeForEnumeration",
    "ConfigError", "DataError",
]
