"""percolog: desk-scale simulation of how ground-fact distribution and
search-space connectivity drive the percolation of Horn-clause inference."""

from .engine import (
    Evaluator,
    Query,
    QueryTemplate,
    SnapshotCache,
    bottom_up_eval,
    depth_profile,
    solutions,
)
from .graph import (
    AndNode,
    AndOrGraph,
    GoalSchema,
    OrNode,
    SearchSpace,
    average_degree,
    build_graph,
    induced_space,
    or_out_degrees,
)
from .growth import InfeasibleConfigError, SynthConfig, ablate_grow, synth_kb
from .harness import (
    DetectorReport,
    ExperimentConfig,
    SweepRow,
    compare_models,
    detect_degenerate,
    detect_transition,
    emit,
    expand_templates,
    run_sweep,
)
from .kb import (
    ArityConflictError,
    Atom,
    AxiomSet,
    Fact,
    HornClause,
    KbError,
    KbSyntaxError,
    KbValidationError,
    KnowledgeBase,
    Variable,
    parse_kb,
    serialize_kb,
)
from .metrics import AlphaReport, QaResult, alpha, answered_fraction, threshold_hit
from .sampling import SampleParams, generate_replicates, model1_sample, model2_sample

__version__ = "0.1.0"
