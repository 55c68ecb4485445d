"""Malformed matrix arguments: every library entry point ends in a typed error.

Each entry below is one valid call of a public function or constructor
that takes matrices in, with its matrix arguments as slots.  Seeded
hypothesis draws replace one slot by a malformed copy: a NaN or inf
entry, ragged nesting, string entries, a complex entry where real ones
are due, a wrong shape or ndim, or (for a frame) a rank-deficient one.
The call must raise a ``MasidxError`` with a non-empty ``where``: never
numpy's ``LinAlgError``, a bare ``ValueError`` or a silent result.  An
entry point handed an array where it takes a problem, a path or a frame
names what it expected, and one handed paths of two sizes, a window that
is not a number or a sample count that is not an integer says so.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from masidx import (
    LiftedUnitary,
    SymplecticSpace,
    boundary_problem,
    box,
    catenate,
    cauchy_data_path,
    complex_kashiwara,
    compatible_structure,
    complexify_vectors,
    crossing_form,
    eigenvalue_trace,
    eigenvalues_near,
    embed_path,
    embed_reference,
    find_crossings,
    fundamental_solution,
    gamma_reduce,
    gamma_reduce_path,
    haar_unitary,
    hormander,
    horizontal_frame,
    intersection_dim,
    kashiwara,
    lagrangian,
    lagrangian_from_souriau,
    lagrangian_path,
    lagrangian_path_from_function,
    leray_general,
    maslov,
    minus_one_offsets,
    pair_maslov,
    polarized_pair,
    realify,
    reverse,
    souriau,
    spectral_flow,
    standard_space,
    to_unitary_path,
    unitary_maslov,
    unitary_path,
    unitary_path_from_function,
    verify_coincidence,
    vertical_frame,
)
from masidx.errors import MasidxError, ValidationError

SP1, SP2 = standard_space(1), standard_space(2)
H2 = horizontal_frame(SP2)
V2, HF2 = vertical_frame(SP2), horizontal_frame(SP2)
HF1 = horizontal_frame(SP1)
I2 = np.eye(2)
Z2 = np.zeros((2, 2))
LINE = np.array([[1.0], [0.0]])
FRAME = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
U_A, U_B, U_C = (haar_unitary(2, np.random.default_rng(k)) for k in range(3))


def _turn(t):
    return np.diag(np.exp([2.0j * t, 1.0j * t]))


def _refined(U):
    """The count of the path t -> diag(exp(2it), exp(it)) sampled at 0 and
    1, whose refiner returns U at t = 1/2: the chord of the one piece is
    above 0.5, so the count reads its midpoint first."""
    return unitary_maslov(unitary_path_from_function(
        lambda t: U if t == 0.5 else _turn(t), num=2
    ))


# name: (call on the slot values, valid slot values, slot kinds), a kind
# "real", "complex" (complex entries allowed), "frame" (real, may be made
# rank-deficient) or "any" (a complex matrix of any shape)
ENTRIES = {
    "lagrangian": (lambda F: lagrangian(SP2, F), [FRAME], ["frame"]),
    "SymplecticSpace": (
        lambda J, G: SymplecticSpace(n=1, J=J, G=G),
        [SP1.J, I2], ["real", "real"],
    ),
    "compatible_structure": (compatible_structure, [SP1.J.T], ["real"]),
    "unitary_path": (
        lambda U0, U1: unitary_path([(0.0, U0), (1.0, U1)]),
        [U_A, U_B], ["complex", "complex"],
    ),
    "unitary_maslov refiner": (_refined, [_turn(0.5)], ["complex"]),
    "lagrangian_from_souriau": (
        lambda W: lagrangian_from_souriau(H2, W), [-I2], ["complex"]
    ),
    "minus_one_offsets": (minus_one_offsets, [U_A], ["complex"]),
    "complex_kashiwara": (
        complex_kashiwara, [U_A, U_B, U_C], ["complex"] * 3
    ),
    "LiftedUnitary": (
        lambda U: LiftedUnitary(U=U, alpha=0.0), [I2], ["complex"]
    ),
    "leray_general probe": (
        lambda P: leray_general(
            LiftedUnitary(U=I2, alpha=0.0),
            LiftedUnitary(U=-I2, alpha=2.0 * np.pi),
            probe=P,
        ),
        [1j * I2], ["complex"],
    ),
    "boundary_problem": (
        lambda B, C0, C1, l0, l1: boundary_problem(
            1, B, [(0.0, C0), (1.0, C1)], l0, l1
        ),
        [Z2, Z2, 3.0 * I2, LINE, LINE],
        ["real", "real", "real", "frame", "frame"],
    ),
    "fundamental_solution": (
        lambda B, C: fundamental_solution(B, C, 0.3), [Z2, I2],
        ["real", "real"],
    ),
    "polarized_pair": (
        lambda d: polarized_pair(V2, HF2, V2, HF2, d),
        [np.array([1.0, 2.0])], ["real"],
    ),
    "realify": (realify, [U_A[:, :1]], ["any"]),
    "complexify_vectors": (complexify_vectors, [FRAME], ["real"]),
}
# the malformations that each slot kind leaves invalid
_KINDS = {
    "real": ("nan", "inf", "ragged", "string", "complex", "shape", "ndim"),
    "complex": ("nan", "inf", "ragged", "string", "shape", "ndim"),
    "frame": ("nan", "inf", "ragged", "string", "complex", "shape", "ndim",
              "rank"),
    "any": ("nan", "inf", "ragged", "string", "ndim"),
}


def _ragged(X):
    rows = X.tolist()
    if isinstance(rows[0], list):
        rows[0].pop()
    else:
        rows[-1] = [rows[-1], rows[-1]]
    return rows


def _malformed(draw, X, slot, kind):
    """A copy of the slot value X made malformed as ``kind`` says."""
    X = np.array(X)
    if kind in ("nan", "inf", "complex"):
        bad = {"nan": np.nan, "inf": draw(st.sampled_from([np.inf, -np.inf])),
               "complex": 0.5j}[kind]
        X = X.astype(complex if kind == "complex" else X.dtype)
        X[np.unravel_index(draw(st.integers(0, X.size - 1)), X.shape)] += bad
        return X
    if kind == "ragged":
        return _ragged(X)
    if kind == "string":
        return X.astype(str)
    if kind == "shape":
        # one more row (an entry more, for a vector)
        return np.concatenate([X, np.zeros((1,) + X.shape[1:])])
    if kind == "ndim":
        # a single frame may also be a stack of one
        return X.ravel() if slot == "frame" else X[None]
    X[:, -1] = 0.0
    return X


@st.composite
def _malformed_call(draw):
    name = draw(st.sampled_from(sorted(ENTRIES)))
    call, values, slots = ENTRIES[name]
    k = draw(st.integers(0, len(values) - 1))
    kind = draw(st.sampled_from(_KINDS[slots[k]]))
    args = list(values)
    args[k] = _malformed(draw, values[k], slots[k], kind)
    return name, k, kind, call, args


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_entry_accepts_its_valid_call(name):
    call, values, _ = ENTRIES[name]
    call(*values)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(_malformed_call())
def test_a_malformed_matrix_argument_is_a_typed_error(case):
    name, k, kind, call, args = case
    with np.errstate(all="ignore"), pytest.raises(MasidxError) as info:
        call(*args)
    assert info.value.where, (name, k, kind)


PATH2 = lagrangian_path([(0.0, H2), (1.0, V2)])
PATH_KINDS = "expected a UnitaryPath or LagrangianPath or GeodesicPath"
PP2 = polarized_pair(V2, HF2, V2, HF2, np.array([1.0, 2.0]))
# name (the where, then the argument when more than one can be wrong):
# the call on an array in place of its problem, path or frame, and the
# reason it raises
WRONG_TYPE = {
    "spectral_flow": (spectral_flow, "expected a BoundaryProblem"),
    "verify_coincidence": (verify_coincidence, "expected a BoundaryProblem"),
    "eigenvalues_near": (
        lambda bp: eigenvalues_near(bp, 0.5, -1.0, 1.0),
        "expected a BoundaryProblem",
    ),
    "eigenvalue_trace": (eigenvalue_trace, "expected a BoundaryProblem"),
    "cauchy_data_path": (cauchy_data_path, "expected a BoundaryProblem"),
    "unitary_maslov": (unitary_maslov, "expected a unitary path"),
    "maslov path": (lambda x: maslov(x, H2), "expected a LagrangianPath"),
    "maslov lam": (lambda x: maslov(PATH2, x), "expected a LagrangianFrame"),
    "kashiwara": (
        lambda x: kashiwara(H2, V2, x), "expected a LagrangianFrame"
    ),
    "souriau": (lambda x: souriau(H2, x), "expected a LagrangianFrame"),
    "hormander": (
        lambda x: hormander(H2, V2, x, H2), "expected a LagrangianFrame"
    ),
    "intersection_dim": (
        lambda x: intersection_dim(x, H2), "expected a LagrangianFrame"
    ),
    "find_crossings path": (
        lambda x: find_crossings(x, H2), "expected a LagrangianPath"
    ),
    "find_crossings lam": (
        lambda x: find_crossings(PATH2, x), "expected a LagrangianFrame"
    ),
    "crossing_form": (
        lambda x: crossing_form(x, H2, 0.5), "expected a LagrangianPath"
    ),
    "pair_maslov": (
        lambda x: pair_maslov(PATH2, x), "expected a LagrangianPath"
    ),
    "to_unitary_path": (
        lambda x: to_unitary_path(PATH2, x), "expected a LagrangianFrame"
    ),
    "gamma_reduce": (
        lambda x: gamma_reduce(PP2, x), "expected a LagrangianFrame"
    ),
    "gamma_reduce pp": (
        lambda x: gamma_reduce(x, H2), "expected a PolarizedPair"
    ),
    "gamma_reduce_path": (
        lambda x: gamma_reduce_path(PP2, x), "expected a LagrangianPath"
    ),
    "polarized_pair": (
        lambda x: polarized_pair(V2, HF2, x, HF2, np.array([1.0, 2.0])),
        "expected a LagrangianFrame",
    ),
    "catenate": (lambda x: catenate(x, x), PATH_KINDS),
    "catenate second": (lambda x: catenate(PATH2, x), PATH_KINDS),
    "reverse": (reverse, PATH_KINDS),
    "box": (lambda x: box(x, H2), "expected a LagrangianFrame"),
    "box lam": (lambda x: box(H2, x), "expected a LagrangianFrame"),
    "embed_path": (
        lambda x: embed_path(x, H2, H2), "expected a LagrangianPath"
    ),
    "embed_path ell0": (
        lambda x: embed_path(PATH2, x, H2), "expected a LagrangianFrame"
    ),
    "embed_path ell1": (
        lambda x: embed_path(PATH2, H2, x), "expected a LagrangianFrame"
    ),
    "embed_reference": (
        lambda x: embed_reference(x, H2), "expected a LagrangianFrame"
    ),
    "embed_reference ell1": (
        lambda x: embed_reference(H2, x), "expected a LagrangianFrame"
    ),
}


@pytest.mark.parametrize("where", sorted(WRONG_TYPE))
def test_an_array_in_place_of_a_problem_or_path_is_a_validation_error(where):
    call, reason = WRONG_TYPE[where]
    with pytest.raises(ValidationError) as info:
        call(I2)
    assert (info.value.reason, info.value.where) == (
        reason, where.split()[0]
    )


BP = boundary_problem(1, Z2, [(0.0, Z2), (1.0, 3.0 * I2)], LINE, LINE)
U3 = haar_unitary(3, np.random.default_rng(3))
# name (the where, then a tag): a call with paths of two sizes, a window
# that is not a number or a sample count that is not an integer, and the
# reason it raises
WRONG_ARGUMENT = {
    "catenate unitary": (
        lambda: catenate(unitary_path([(0.0, U_A), (1.0, U_A)]),
                         unitary_path([(0.0, U3), (1.0, U3)])),
        "size mismatch",
    ),
    "catenate lagrangian": (
        lambda: catenate(
            lagrangian_path([(0.0, HF1), (1.0, HF1)]),
            lagrangian_path([(0.0, H2), (1.0, H2)]),
        ),
        "size mismatch",
    ),
    "eigenvalue_trace": (
        lambda: eigenvalue_trace(BP, window="a"), "expected a Real"
    ),
    "unitary_path_from_function": (
        lambda: unitary_path_from_function(_turn, num="a"),
        "num must be an integer",
    ),
    "lagrangian_path_from_function": (
        lambda: lagrangian_path_from_function(lambda t: H2, num=2.5),
        "num must be an integer",
    ),
}


@pytest.mark.parametrize("where", sorted(WRONG_ARGUMENT))
def test_a_size_mismatch_or_a_mistyped_number_is_a_validation_error(where):
    call, reason = WRONG_ARGUMENT[where]
    with pytest.raises(ValidationError) as info:
        call()
    assert (info.value.reason, info.value.where) == (
        reason, where.split()[0]
    )
