"""Property tests: transfer-matrix invariants over random complex structures,
the PT-real dense eigen path over random complex wells, the certified
symmetric eigen path over random real wells, with and without a prediction
of the levels, and the finite-difference partners over random
superpotentials."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvals

from susywell.scattering import (
    ConstantSegment,
    FieldSegment,
    PiecewisePotential,
    transfer_matrix,
    transmission_reflection,
)
from susywell.spectral import (
    RESIDUAL_TOL,
    Grid1D,
    _pt_real_form,
    _tridiagonal_dense,
    discretize,
    eigenvalues,
)
from susywell.susy_core import (
    WELL_FAMILIES,
    Family,
    Partner,
    SuperpotentialSpec,
    eval_partner,
    eval_superpotential,
    eval_superpotential_derivative,
    fundamental_cell,
    partner_field,
    partner_from_superpotential,
)

# roundoff in det M and in matrix products grows like eps |M|^2, so the
# tolerances scale with |M|^2; |V| <= 8 keeps Im sqrt(E - V) <= sqrt(8)
coefficient = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
energies = st.floats(0.1, 10.0)
widths = st.floats(0.1, 2.0)
frequencies = st.floats(-3.0, 3.0)


@dataclass(frozen=True)
class WaveField:
    """V(x) = v0 + v1 e^{i beta x}: complex, non-PT-symmetric in general."""

    v0: complex
    v1: complex
    beta: float

    def __call__(self, x):
        return self.v0 + self.v1 * np.exp(1j * self.beta * np.asarray(x))


fields = st.builds(WaveField, coefficient, coefficient, frequencies)


def det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@settings(max_examples=60, deadline=None)
@given(values=st.lists(coefficient, min_size=1, max_size=4), width=widths,
       energy=energies)
def test_constant_stack_is_unimodular(values, width, energy):
    bps = tuple(width * i for i in range(len(values) + 1))
    m = transfer_matrix(PiecewisePotential(bps, [ConstantSegment(v) for v in values]),
                        energy)
    assert abs(det(m) - 1.0) < 1e-12 * max(1.0, np.max(np.abs(m)) ** 2)


@settings(max_examples=60, deadline=None)
@given(half=st.lists(st.tuples(coefficient, widths), min_size=1, max_size=3),
       middle=st.none() | st.tuples(st.floats(-4.0, 4.0), widths), energy=energies)
def test_pt_symmetric_stack_obeys_generalized_unitarity(half, middle, energy):
    # V(c - x) = conj V(c + x) gives |T - 1| = sqrt(R_L R_R)
    # (Ge, Chong & Stone, PRA 85 (2012) 023802)
    mirrored = [(value.conjugate(), width) for value, width in reversed(half)]
    stack = half + ([middle] if middle else []) + mirrored
    bps = tuple(np.concatenate([[0.0], np.cumsum([width for _, width in stack])]))
    res = transmission_reflection(
        PiecewisePotential(bps, [ConstantSegment(v) for v, _ in stack]), energy)
    geometric = abs(res.r) * abs(res.r_right)
    gap = abs(abs(res.transmission - 1.0) - geometric)
    assert gap <= 1e-12 * max(1.0, res.transmission, geometric)


@pytest.mark.parametrize("slices", [256, 4096])
@pytest.mark.parametrize("family", [Family.PLANE_RIGHT, Family.PLANE_LEFT])
@pytest.mark.parametrize("partner", list(Partner))
@pytest.mark.parametrize("k, q, alpha", [(1.0, 1.5, 1.0), (1.7, 0.8, 0.5), (2.0, 1.0, 3.1)])
def test_plane_partner_obeys_generalized_unitarity(k, q, alpha, partner, family, slices):
    # a window centred at pi/(2 alpha), the plane partners' PT centre, is a
    # PT-symmetric scatterer; its midpoint slices mirror each other, so
    # |T - 1| = sqrt(R_L R_R) holds at any slice count
    centre = np.pi / (2 * alpha)
    field = partner_field(SuperpotentialSpec(family, k, q, alpha), partner)
    structure = PiecewisePotential((centre - np.pi, centre + np.pi),
                                   (FieldSegment(field, slices),))
    for energy in (0.3, 0.8, 2.0, 4.0):
        res = transmission_reflection(structure, energy)
        gap = abs(abs(res.transmission - 1.0) - abs(res.r) * abs(res.r_right))
        assert gap <= 1e-11


@settings(max_examples=40, deadline=None)
@given(field=fields, slices=st.integers(1, 5000), width=widths, energy=energies)
def test_field_segment_is_unimodular(field, slices, width, energy):
    m = transfer_matrix(PiecewisePotential((0.0, width), (FieldSegment(field, slices),)),
                        energy)
    assert abs(det(m) - 1.0) < 1e-11 * max(1.0, np.max(np.abs(m)) ** 2)


@settings(max_examples=40, deadline=None)
@given(field=fields, left=st.integers(1, 5000), right=st.integers(1, 5000),
       width=widths, energy=energies)
def test_split_field_segment_composes(field, left, right, width, energy):
    # cut at a slice boundary: both halves see the same midpoints as the whole
    cut = width * left / (left + right)
    whole = transfer_matrix(
        PiecewisePotential((0.0, width), (FieldSegment(field, left + right),)), energy)
    first = transfer_matrix(
        PiecewisePotential((0.0, cut), (FieldSegment(field, left),)), energy)
    second = transfer_matrix(
        PiecewisePotential((cut, width), (FieldSegment(field, right),)), energy)
    scale = max(1.0, np.max(np.abs(first)) * np.max(np.abs(second)))
    assert np.max(np.abs(second @ first - whole)) < 1e-11 * scale


@settings(max_examples=40, deadline=None)
@given(field=fields, slices=st.integers(1, 3000), width=widths, energy=energies)
def test_transmission_independent_of_incidence_side(field, slices, width, energy):
    # right incidence on V equals left incidence on the mirror image V(-x)
    forward = PiecewisePotential((0.0, width), (FieldSegment(field, slices),))
    mirror = PiecewisePotential((-width, 0.0),
                                (FieldSegment(lambda x: field(-x), slices),))
    t_left = transmission_reflection(forward, energy).t
    t_right = transmission_reflection(mirror, energy).t
    assert abs(t_left - t_right) < 1e-9 * max(1.0, abs(t_left))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(WELL_FAMILIES), partner=st.sampled_from(Partner),
       k=st.floats(0.5, 3.0), q=st.floats(0.0, 3.0), edge=st.floats(1e-4, 0.2),
       n=st.integers(32, 160))
def test_pt_real_eigenvalues_match_complex_fallback(family, partner, k, q, edge, n):
    spec = SuperpotentialSpec(family, k, q)
    lo, hi = fundamental_cell(spec)
    eps = edge * (hi - lo)
    ham = discretize(partner_field(spec, partner), Grid1D(lo + eps, hi - eps, n))
    assert _pt_real_form(ham) is not None
    count = n // 4
    rep = eigenvalues(ham, count)
    assert np.all(rep.scaled_residuals <= RESIDUAL_TOL)
    # set-matched: conjugate pairs share a real part, so at the count
    # boundary the two solvers may pick different members of a pair
    full = eigvals(_tridiagonal_dense(ham.diagonal, ham.off_diagonal))
    tol = 1e-10 * ham.norm_inf
    assert max(np.min(np.abs(full - ev)) for ev in rep.eigenvalues) <= tol
    lowest = np.sort(full.real)[:count]
    assert np.max(np.abs(np.sort(rep.eigenvalues.real) - lowest)) <= tol


def _perturbed_well(family, partner, k, ratio, bumps, n):
    # a real well plus a smooth perturbation that vanishes at the walls
    spec = SuperpotentialSpec(family, k, 0.0, k * ratio)
    lo, hi = fundamental_cell(spec)
    well = partner_field(spec, partner)

    def perturbed(x):
        phase = np.pi * (np.asarray(x) - lo) / (hi - lo)
        return well(x) + k * k * sum(c * np.sin((m + 1) * phase) for m, c in enumerate(bumps))

    ham = discretize(perturbed, Grid1D(lo, hi, n))
    assert ham.is_real
    return ham


def _lowest_levels(ham, count):
    return eigh_tridiagonal(ham.diagonal.real, np.full(ham.grid.n_interior - 1, ham.off_diagonal),
                            eigvals_only=True, select="i", select_range=(0, count - 1))


real_wells = dict(
    family=st.sampled_from(WELL_FAMILIES), partner=st.sampled_from(Partner),
    k=st.floats(0.5, 3.0), ratio=st.sampled_from((1.0, 0.5, 1 / 3, 0.25)),
    bumps=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
    n=st.integers(32, 400), count=st.integers(1, 8))


@settings(max_examples=60, deadline=None)
@given(**real_wells)
def test_symmetric_levels_match_full_bisection(family, partner, k, ratio, bumps, n, count):
    ham = _perturbed_well(family, partner, k, ratio, bumps, n)
    rep = eigenvalues(ham, count)
    bound = 4 * np.finfo(np.float64).eps * ham.norm_inf
    assert np.max(np.abs(rep.eigenvalues.real - _lowest_levels(ham, count))) <= bound


@settings(max_examples=60, deadline=None)
@given(**real_wells, skip=st.integers(0, 2),
       spread=st.sampled_from((0.0, 1e-9, 1e-3, 0.3, 3.0, 1e3)),
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), ordered=st.booleans())
def test_symmetric_levels_match_full_bisection_for_any_prediction(
        family, partner, k, ratio, bumps, n, count, skip, spread, offsets, ordered):
    # a prediction anywhere from exact to arbitrary, starting at level skip
    # instead of level 0: confirmed or refuted, it must not move the levels
    ham = _perturbed_well(family, partner, k, ratio, bumps, n)
    levels = _lowest_levels(ham, count + skip)
    guess = levels[skip:] + spread * np.array(offsets[:count])
    rep = eigenvalues(ham, count, guess=np.sort(guess) if ordered else guess)
    bound = 4 * np.finfo(np.float64).eps * ham.norm_inf
    assert np.max(np.abs(rep.eigenvalues.real - levels[:count])) <= bound


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(Family), partner=st.sampled_from(Partner),
       k=st.floats(0.5, 3.0), q=st.floats(-3.0, 3.0), ratio=st.floats(0.25, 2.0),
       u=st.floats(0.0, 1.0))
def test_finite_difference_partners_match_closed_forms(family, partner, k, q, ratio, u):
    # W^2 -/+ W' with W' by central difference against the expanded closed
    # forms, on the middle 80% of a well's cell or on [-5, 5] for a plane
    spec = SuperpotentialSpec(family, k, q, k * ratio)
    cell = fundamental_cell(spec)
    if cell is None:
        x = -5.0 + 10.0 * u
    else:
        x = cell[0] + (0.1 + 0.8 * u) * (cell[1] - cell[0])
    h = 1e-4 / spec.alpha
    gap = abs(partner_from_superpotential(spec, partner, x, h=h) - eval_partner(spec, partner, x))
    scale = abs(eval_superpotential(spec, x)) ** 2 + abs(eval_superpotential_derivative(spec, x))
    assert gap <= 1e-6 * max(1.0, scale)
