"""Canonical functions between countable homogeneous structures, at desk scale.

Finite approximations of generic limits, orbit labels for compositional group
presentations, behavior tables, canonicity checking, Ramsey-style extraction
of canonical functions, and the exact symbolic counterexample machinery on
the rational order.
"""

from .behaviors import (
    BehaviorTable,
    Exhausted,
    Violation,
    coherence_check,
    enumerate_behaviors,
    realize_behavior,
)
from .canonicity import (
    BackAndForthOracle,
    CanonicalUpTo,
    ComposeOracle,
    ConstantOracle,
    Counterexample,
    FunctionOracle,
    HarnessReport,
    IdentityOracle,
    LocalFailure,
    MaxOracle,
    MinOracle,
    NegationOracle,
    PiecewiseAffineOracle,
    ProjectionOracle,
    TableOracle,
    TowerWitness,
    TypeTower,
    behavior_of,
    check_canonical,
    local_equal,
    proposition_harness,
    tower_witness,
    type_tower,
)
from .canonize import (
    CanonicalApproximation,
    EmbeddingTower,
    HorizonExhausted,
    canonize,
    canonize_with_constants,
    mono_subset,
    pair_coloring,
)
from .errors import (
    AmalgamationFailure,
    ArityLimitExceeded,
    BudgetExhausted,
    CanonFnError,
    DensityProbeFailure,
    DomainGap,
    FormatError,
    NotCanonical,
    PresentationError,
    TypeMismatch,
    UsageError,
)
from .fraisse import (
    AgeOracle,
    AmalgamationReport,
    CallableAge,
    DemandLogEntry,
    FiniteStructure,
    ForbiddenSubstructuresAge,
    GenericLimit,
    GraphsAge,
    LimitStructure,
    LinearOrdersAge,
    OrderedGraphsAge,
    PureSetsAge,
    RelationSymbol,
    Signature,
    TupleTypeRecord,
    build_limit,
    builtin_age,
    builtin_limit,
    count_orbits,
    element,
    enumerate_types,
    eval_relation,
    one_point_extensions,
    qf_type,
    verify_amalgamation,
)
from .groups import (
    AutLimit,
    PartialAutomorphism,
    PowerGroup,
    StabilizerGroup,
    automorphism_extending,
    count_orbits_g,
    format_label,
    orbit_label,
    orbit_labels,
    parse_label,
    same_orbit,
)
from .symbolic import (
    BackAndForthMap,
    ComputableDenseSet,
    CutBracket,
    Inconclusive,
    ObstructionCertificate,
    automorphism_moving,
    canonical_iso,
    forced_cut,
    pham_refute,
    punctured_rationals,
    rationals_set,
)

__version__ = "0.1.0"
