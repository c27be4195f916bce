"""Growth polynomials of finitary-matroid ranks under commuting operators."""

from .errors import (
    ContractError,
    HypothesisError,
    InputError,
    InvalidMatroidError,
    OperatorError,
    OutOfBoxError,
    RankGrowthError,
)
from .matroid import (
    BasisBuilder,
    RankOracle,
    check_rank_axioms,
)
from .operators import (
    OperatorSystem,
    Partition,
    QUASI_TRIANGULAR,
    TRIANGULAR,
    apply_word,
    augment,
    check_system,
    graded_orbit,
)
from .engine import (
    BOX_TRUNCATED,
    CERTIFIED,
    ClosureDecision,
    DecreasingTable,
    GeneratingNumerator,
    GrowthPolynomial,
    PipelineResult,
    StabilizationConfig,
    StaircaseCertificate,
    VerifyReport,
    WINDOW_CERTIFIED,
    analyze_cumulative,
    analyze_graded,
    default_box,
    detect_stabilization,
    dominant_terms,
    interpolate,
    numerator_from_table,
    phi_closure_member,
    realize_monomial_module,
    tabulate_f,
    verify_fit,
)
from .backends import (
    BettiResult,
    ChainBoundaryOracle,
    ChainFreeOracle,
    CircuitBackend,
    CounterexampleGraphicBackend,
    GraphicBackend,
    LinearBackend,
    SimplicialComplex,
    TrivialBackend,
    betti_polynomials,
    make_circuit_backend,
    make_counterexample_graph,
    make_graphic_system,
    make_ideal_system,
    make_monomial_module_system,
    make_polynomial_ring_system,
    make_sumset_system,
    make_translation_system,
    simplicial_operator,
    vertex_map_edge_operator,
)

__version__ = "0.1.0"
