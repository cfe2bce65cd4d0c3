"""Census of orthogonal-flag symmetry classes.

Exact combinatorics (partition counts, flag equivalence, Weyl groups, the
mod-4 double-partition families, generated-group structure) paired with
numerical verification (Lie-bracket closure and tangent ranks, polynomial
fixed-space intersections).
"""

from .errors import (
    DomainError,
    IndeterminateError,
    InternalInvariantError,
    NumericalError,
    ProbeDisagreementError,
    UnsupportedDimensionError,
)
from .partitions import (
    Partition,
    PartitionCounts,
    asymptotic_p,
    asymptotic_q,
    count_p,
    count_p_ge2,
    count_q,
    count_q_ge2,
    count_r,
    count_r_ge2,
    enumerate_partitions,
    partition_counts,
)
from .flags import (
    ClassCensus,
    InvolutionSpec,
    SignRep,
    WeylDescriptor,
    borel_classification,
    class_census,
    equivalent,
    nodal_subspaces,
    orbit_length,
    phi_indices,
    weyl,
)
from .special import SpecialFamily, double_partition, family, solutions_count
from .pairs import (
    Agreement,
    PairDecomposition,
    Window,
    WindowPlan,
    decompose,
    generated_group,
    has_common_subpartition,
    is_transitive_pair,
)
from .lieverify import (
    LieClosure,
    block_algebra,
    closure,
    involution_normalizes,
    transitive_on,
)
from .invverify import (
    IndependenceReport,
    PolySubspace,
    intersection_dim,
    intertwining_space,
    invariant_dim_by_derivations,
    invariant_space,
    pair_space_dims,
    swap_antisymmetric_space,
    verify_pair,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DomainError",
    "UnsupportedDimensionError",
    "NumericalError",
    "IndeterminateError",
    "ProbeDisagreementError",
    "InternalInvariantError",
    "Partition",
    "PartitionCounts",
    "count_p",
    "count_q",
    "count_r",
    "count_p_ge2",
    "count_q_ge2",
    "count_r_ge2",
    "partition_counts",
    "enumerate_partitions",
    "asymptotic_p",
    "asymptotic_q",
    "InvolutionSpec",
    "WeylDescriptor",
    "SignRep",
    "ClassCensus",
    "phi_indices",
    "equivalent",
    "orbit_length",
    "weyl",
    "class_census",
    "borel_classification",
    "nodal_subspaces",
    "SpecialFamily",
    "double_partition",
    "family",
    "solutions_count",
    "Agreement",
    "Window",
    "PairDecomposition",
    "WindowPlan",
    "has_common_subpartition",
    "decompose",
    "generated_group",
    "is_transitive_pair",
    "LieClosure",
    "block_algebra",
    "closure",
    "transitive_on",
    "involution_normalizes",
    "PolySubspace",
    "IndependenceReport",
    "invariant_space",
    "intertwining_space",
    "swap_antisymmetric_space",
    "intersection_dim",
    "invariant_dim_by_derivations",
    "pair_space_dims",
    "verify_pair",
]
