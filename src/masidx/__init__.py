"""Numerical Maslov-type indices for Lagrangian subspaces of R^{2n}.

The package computes:

* the index of a path of Lagrangian subspaces against a fixed reference,
  through eigenvalue counting in the symmetric-unitary model
  (``maslov``, ``unitary_maslov``);
* crossing forms and the crossing-sum formula for regular paths
  (``find_crossings``, ``crossing_form``, ``crossing_sum`` on forms
  already built, ``maslov_via_crossings`` from the path);
* intersection indices of triples: real and complex signature indices,
  the two-argument index of lifted unitaries, and the four-argument
  difference index (``kashiwara``, ``complex_kashiwara``, ``leray``,
  ``hormander``);
* indices of pairs of paths via their pair unitary, embeddings into
  direct sums, and reduction of polarized pairs
  (``pair_maslov``, ``embed_path``, ``gamma_reduce``);
* spectral flow of constant-coefficient boundary-value families and the
  coincidence with the index of the Cauchy-data path
  (``spectral_flow``, ``verify_coincidence``).
"""

__version__ = "0.1.0"

from .core import (
    BoxSpace,
    DEFAULT_TOL,
    LagrangianFrame,
    Standardization,
    SymplecticSpace,
    Tolerances,
    box_frame,
    box_space,
    compatible_structure,
    complexify_vectors,
    direct_sum_frame,
    direct_sum_space,
    haar_unitary,
    horizontal_frame,
    intersection_dim,
    lagrangian,
    random_lagrangian,
    random_symmetric,
    realify,
    standard_space,
    standardize,
    vertical_frame,
)
from .errors import (
    AmbiguityError,
    MasidxError,
    PreconditionError,
    ValidationError,
)
from .souriau import (
    lagrangian_from_souriau,
    minus_one_offsets,
    souriau,
)
from .paths import (
    IndexReport,
    LagrangianPath,
    PhaseTrace,
    UnitaryPath,
    catenate,
    lagrangian_path,
    lagrangian_path_from_function,
    maslov,
    reverse,
    to_unitary_path,
    unitary_maslov,
    unitary_path,
    unitary_path_from_function,
)
from .crossings import (
    Crossing,
    crossing_form,
    crossing_sum,
    find_crossings,
    maslov_via_crossings,
)
from .indices import (
    LiftedUnitary,
    SignatureResult,
    complex_kashiwara,
    connecting_path,
    hormander,
    kashiwara,
    leray,
    leray_general,
    lift_path_endpoints,
    transition_function,
)
from .pairs import (
    PolarizedPair,
    box,
    embed_path,
    embed_reference,
    gamma_reduce,
    gamma_reduce_path,
    pair_maslov,
    polarized_pair,
)
from .spectral import (
    JJ,
    BoundaryProblem,
    SpectralFlowReport,
    boundary_problem,
    cauchy_data_path,
    eigenvalue_trace,
    eigenvalues_near,
    fundamental_solution,
    spectral_flow,
    verify_coincidence,
)

__all__ = [
    "AmbiguityError",
    "BoundaryProblem",
    "BoxSpace",
    "Crossing",
    "DEFAULT_TOL",
    "IndexReport",
    "JJ",
    "LagrangianFrame",
    "LagrangianPath",
    "LiftedUnitary",
    "MasidxError",
    "PhaseTrace",
    "PolarizedPair",
    "PreconditionError",
    "SignatureResult",
    "SpectralFlowReport",
    "Standardization",
    "SymplecticSpace",
    "Tolerances",
    "UnitaryPath",
    "ValidationError",
    "boundary_problem",
    "box",
    "box_frame",
    "box_space",
    "catenate",
    "cauchy_data_path",
    "compatible_structure",
    "complex_kashiwara",
    "complexify_vectors",
    "connecting_path",
    "crossing_form",
    "crossing_sum",
    "direct_sum_frame",
    "direct_sum_space",
    "embed_path",
    "embed_reference",
    "eigenvalue_trace",
    "eigenvalues_near",
    "find_crossings",
    "fundamental_solution",
    "gamma_reduce",
    "gamma_reduce_path",
    "haar_unitary",
    "hormander",
    "horizontal_frame",
    "intersection_dim",
    "kashiwara",
    "lagrangian",
    "lagrangian_from_souriau",
    "lagrangian_path",
    "lagrangian_path_from_function",
    "leray",
    "leray_general",
    "lift_path_endpoints",
    "maslov",
    "maslov_via_crossings",
    "minus_one_offsets",
    "pair_maslov",
    "polarized_pair",
    "random_lagrangian",
    "random_symmetric",
    "realify",
    "reverse",
    "souriau",
    "spectral_flow",
    "standard_space",
    "standardize",
    "to_unitary_path",
    "transition_function",
    "unitary_maslov",
    "unitary_path",
    "unitary_path_from_function",
    "verify_coincidence",
    "vertical_frame",
]
