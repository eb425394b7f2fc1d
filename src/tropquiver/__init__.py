"""Exact computations with valuated matroids arranged along quivers:
min-plus arithmetic, tropical linear spaces, affine morphisms, and
membership tests for quiver Dressians and their realizable points."""

from .errors import (
    CapacityError,
    DegeneratePointError,
    NotAMatroidError,
    NotARealizationError,
    ShapeError,
    TropquiverError,
    UsageError,
)
from .matroid import (
    ValuatedMatroid,
    add_loop,
    circuits,
    cocircuits,
    delete,
    is_valuated_matroid,
    quotient_check,
    tls_equal,
    tls_membership,
    uniform_matroid,
)
from .morphism import (
    GroundSetMap,
    affine_induced,
    affine_induced_unpointed,
    associated_map,
    associated_matrix,
    compose_maps,
    decompose_weakly_monomial,
    image_equals_induced,
    is_affine_morphism,
    is_weakly_monomial,
)
from .puiseux import (
    FieldMatrix,
    PuiseuxElement,
    classical_containment,
    det,
    pluecker_valuations,
    rank_via_minors,
    valuation,
)
from .quiver import (
    QuiverRepresentation,
    RepArrow,
    all_relations,
    containment_check,
    flag_mode_check,
    grassmann_pluecker_relations,
    identity_chain_representation,
    is_subrepresentation,
    qdr_cross_check,
    qdr_membership,
    qdr_membership_via_containment,
    quiver_pluecker_relations,
    trop_qgr_witness_check,
)
from .trop import (
    INF,
    TropMatrix,
    TropPolynomial,
    TropValue,
    TropVector,
    min_attained_twice,
    projective_normalize,
    projectively_equal,
    trop_matvec,
    trop_poly_vanishes,
    trop_span_membership,
)

__version__ = "0.1.0"
