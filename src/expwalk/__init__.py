"""Random-walk expansion, lattice heights, and fractal Diophantine experiments."""

from .kau import (
    FactorizationError,
    KAUFactors,
    ParabolicProfile,
    UnipotentLimitError,
    WeightPair,
    equivariance_residual,
    flow_element,
    kau_factorize,
    u_limit,
    unipotent,
    word_factors,
)
from .measures import (
    GroupMeasure,
    convolution_support,
    load_measure,
    sample_word,
    save_measure,
)
from .expansion import (
    ConeMembership,
    ConeSpec,
    ExpansionCertificate,
    expanding_cone_membership,
    expansion_certificate,
    fk_exponent_estimate,
    moment_contraction_estimate,
    relative_expansion_sweep,
)
from .lattices import (
    ConditioningError,
    ContractionFit,
    ContractionUnverified,
    HeightSpec,
    RecurrenceTable,
    TrajectoryRecord,
    UnimodularLattice,
    contraction_fit,
    lll_reduce,
    mahler_member,
    margulis_height,
    recurrence_experiment,
    shortest_vector,
    siegel_count,
    standard_lattice,
    walk_simulate,
)
from .fractal import (
    AffineIFS,
    IrreducibilityReport,
    MatrixAffinity,
    affinity_apply,
    coding_limit,
    coding_sample,
    embed_to_pgl,
    ifs_validate,
    irreducibility_check,
    load_ifs,
    measure_from_ifs,
    save_ifs,
    sponge_builder,
    sponge_check,
)
from .dioph import (
    FlowTrace,
    PointReport,
    brute_force_quality,
    classify_point,
    flow_trace,
    fractal_experiment,
)

__version__ = "0.1.0"
