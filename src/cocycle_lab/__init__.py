"""Exact-arithmetic laboratory for cocycles of odometer actions.

Cocycles and coboundaries of the finite cylinder quotient of an odometer
(and of the commuting digit-flip group on binary sequences) are
constructed, decided, approximated, and certified in exact rational
arithmetic.
"""

from .values import (
    APPROX_REALS,
    DYADICS,
    INTEGERS,
    RATIONALS,
    GroupMismatchError,
    GroupValue,
    NeighborhoodChain,
    UnsupportedValueError,
    as_fraction,
    group_from_tag,
    integers_mod,
    is_dyadic,
    rational_vectors,
    round_to_dense,
    round_to_dyadic,
    value_from_json,
)
from .space import (
    BernoulliMeasure,
    CylinderFunction,
    DepthError,
    DiracMeasure,
    MarkovMeasure,
    MixtureMeasure,
    aut_distance,
    convergence_csv,
    convergence_rows,
    exceedance_mass,
    exceedance_prefixes,
    index_to_prefix,
    iter_prefixes,
    measure_from_json,
    measure_of_cylinder_set,
    prefix_to_index,
    tau1_membership,
    tau3_functional,
    tau4_functional,
)
from .dynamics import (
    FullGroupElement,
    MarkerSequence,
    NotBijectiveError,
    Odometer,
    Tower,
    TowerDecomposition,
    delta_apply,
    delta_element,
    delta_permutation,
    periodic_approx,
    stabilization_index,
    towers_from_marker,
)
from .zcocycles import (
    CoboundaryCertificate,
    GHReport,
    PeriodicityError,
    SkewOrbit,
    ZCocycle,
    cocycle_metric_convergence,
    coboundary_solve,
    density_sequence,
    density_table,
    extend_to_full_group,
    gh_check,
    periodic_coboundary,
    skew_orbit,
)
from .involution_cocycles import (
    ConjugationError,
    GeneratorFamily,
    InvarianceError,
    InvolutionCocycle,
    OracleInconsistencyError,
    TransferReport,
    h_approximate,
    psi,
    recover_generators,
    transport,
    transport_certificate,
    verify_identities,
    word_apply,
    word_reduce,
)

__version__ = "0.1.0"
