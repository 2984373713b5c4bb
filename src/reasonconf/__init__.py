"""Confidence estimation for sampled reasoning paths.

The library implements four estimators over a batch of sampled paths
(vote fraction, per-path probability, per-answer probability sum, and the
pruned probability sum), the exact error decomposition each satisfies, and
a synthetic categorical sampler against which every closed form can be
checked by brute force.
"""

from .errors import (
    AssumptionError,
    ConfigError,
    DomainError,
    EmptyBatchError,
    EmptyInputError,
    EnumerationTooLargeError,
    FitDegenerateError,
    InvalidPathError,
    InvalidSampleSizeError,
    NoCandidatesError,
    ParseError,
    ReasonConfError,
)
from .paths import (
    AnswerLabel,
    ConfidenceMap,
    ReasoningPath,
    SampleBatch,
    canonicalize_answer,
    derive_path_prob,
    make_path,
    select_answer,
    unique_paths,
)
from .oracle import (
    OracleSpec,
    OutcomeEnumeration,
    derive_seed,
    exact_estimator_moments,
    load_oracle,
    oracle_from_json,
    sample_batch,
    sample_count_matrix,
    true_answer_prob,
)
from .estimators import (
    ESTIMATOR_KINDS,
    estimate,
    pc_confidence,
    ppl_confidence,
    rpc_confidence,
    sc_confidence,
    selection_for_scoring,
)
from .pruning import (
    FitConfig,
    MixtureFit,
    PruningReport,
    WeibullParams,
    fit_mixture,
    mixture_loglik,
    p_high,
    prune,
)
from .error_analysis import (
    DegenerationDiagnostic,
    ErrorBreakdown,
    MCErrorEstimate,
    RateFit,
    degeneration_diagnostic,
    empirical_prune_failure_rate,
    hoeffding_bound,
    model_error_comparison,
    monte_carlo_estimation_error,
    pc_closed_form,
    ppl_closed_form,
    sc_closed_form,
)
from .metrics import (
    BudgetCurve,
    BudgetPoint,
    CalibrationBins,
    accuracy,
    budget_curve,
    budget_to_match,
    ece,
    reliability_bins,
)
from .ingest import (
    PathRecord,
    ResultRow,
    load_jsonl,
    load_records,
    render_results,
)

__version__ = "0.1.0"
