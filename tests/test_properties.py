"""Property tests: transfer-matrix invariants over random stacks of square
layers and random plane partners, the PT-real dense eigen path over random
complex wells, the certified symmetric eigen path over random real wells,
with and without a prediction of the levels and with any start vectors, the
bisected levels of flat boxes of any width, and the factorized partners
W^2 -/+ W' over random superpotentials."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvals

from susywell.scattering import _constant_steps, _plane_steps, plane_partner_sweep
from susywell.spectral import (
    RESIDUAL_TOL,
    Grid1D,
    _pt_real_form,
    _tridiagonal_dense,
    discretize,
    eigenvalues,
    richardson_spectrum,
)
from susywell.susy_core import (
    PLANE_FAMILIES,
    WELL_FAMILIES,
    Family,
    Partner,
    SuperpotentialSpec,
    eval_partner,
    eval_superpotential,
    fundamental_cell,
    partner_field,
)
from susywell.states import eval_wavefunction

# roundoff in det M and in matrix products grows like eps |M|^2, so the
# tolerances scale with |M|^2; |V| <= 8 keeps Im sqrt(E - V) <= sqrt(8)
coefficient = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
energies = st.floats(0.1, 10.0)
widths = st.floats(0.1, 2.0)


def plane_specs(ratios):
    """Plane partners with k and alpha in [0.5, 2] and q = ratio * alpha."""
    return st.builds(lambda family, k, ratio, alpha: SuperpotentialSpec(family, k, ratio * alpha,
                                                                        alpha),
                     st.sampled_from(PLANE_FAMILIES), st.floats(0.5, 2.0), ratios,
                     st.floats(0.5, 2.0))


# |q| <= alpha keeps the series coefficients below about 700, so the sums
# carry about 1e-13; 1 <= |q| / alpha <= 3 lets them reach about 2.5e4
# (largest of 9,000 random draws), and those sums are held to their own bound
planes = plane_specs(st.floats(-1.0, 1.0))
strong_planes = plane_specs(st.floats(1.0, 3.0) | st.floats(-3.0, -1.0))


def det(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def free_waves(k0, x):
    """(psi, psi') matrix of the free waves e^{+-ik0 x} at x."""
    e = np.exp(1j * k0 * x)
    return np.array([[e, 1 / e], [1j * k0 * e, -1j * k0 / e]])


def stack(layers, width, energy):
    """The transfer matrix of square layers of the given width on
    [0, width * len(layers)], each an exact constant step, composed here
    (later layer on the left) and matched to the free waves here."""
    steps = _constant_steps(energy - np.asarray(layers, dtype=complex), width)
    prop = np.eye(2)
    for i in range(len(layers)):
        prop = steps[..., i] @ prop
    k0 = np.sqrt(energy)
    return np.linalg.solve(free_waves(k0, width * len(layers)), prop @ free_waves(k0, 0.0))


def propagator(spec, which, window, energy):
    """The series propagator of a plane partner across window."""
    return _plane_steps(spec, which, window, np.array([energy]))[0][..., 0]


def composition_miss(spec, which, a, b, c, energy):
    """max |P(c, b) P(a, c) - P(a, b)|, relative to max(1, |P(a, c)| |P(c, b)|)."""
    whole, first, second = (propagator(spec, which, window, energy)
                            for window in ((a, b), (a, c), (c, b)))
    scale = max(1.0, np.max(np.abs(first)) * np.max(np.abs(second)))
    return np.max(np.abs(second @ first - whole)) / scale


@settings(max_examples=60, deadline=None)
@given(values=st.lists(coefficient, min_size=1, max_size=4), width=widths,
       energy=energies)
def test_constant_stack_is_unimodular(values, width, energy):
    m = stack(values, width, energy)
    assert abs(det(m) - 1.0) < 1e-12 * max(1.0, np.max(np.abs(m)) ** 2)


@settings(max_examples=60, deadline=None)
@given(half=st.lists(st.tuples(coefficient, st.integers(1, 3)), min_size=1, max_size=3),
       middle=st.none() | st.tuples(st.floats(-4.0, 4.0), st.integers(1, 3)), width=widths,
       energy=energies)
def test_pt_symmetric_stack_obeys_generalized_unitarity(half, middle, width, energy):
    # V(c - x) = conj V(c + x) gives |T - 1| = sqrt(R_L R_R)
    # (Ge, Chong & Stone, PRA 85 (2012) 023802); a layer of n steps of the
    # given width is n exact constant steps
    mirrored = [(value.conjugate(), n) for value, n in reversed(half)]
    layers = half + ([middle] if middle else []) + mirrored
    m = stack([value for value, n in layers for _ in range(n)], width, energy)
    r, t, r_right = -m[1, 0] / m[1, 1], 1 / m[1, 1], m[0, 1] / m[1, 1]
    geometric = abs(r) * abs(r_right)
    gap = abs(abs(abs(t) ** 2 - 1.0) - geometric)
    assert gap <= 1e-12 * max(1.0, abs(t) ** 2, geometric)


@pytest.mark.parametrize("half", [np.pi, 2.5])
@pytest.mark.parametrize("family", [Family.PLANE_RIGHT, Family.PLANE_LEFT])
@pytest.mark.parametrize("partner", list(Partner))
@pytest.mark.parametrize("k, q, alpha", [(1.0, 1.5, 1.0), (1.7, 0.8, 0.5), (2.0, 1.0, 3.1)])
def test_plane_partner_obeys_generalized_unitarity(k, q, alpha, partner, family, half):
    # a window centred at pi/(2 alpha), the plane partners' PT centre, is a
    # PT-symmetric scatterer of any half width, so |T - 1| = sqrt(R_L R_R)
    centre = np.pi / (2 * alpha)
    spec = SuperpotentialSpec(family, k, q, alpha)
    for res in plane_partner_sweep(spec, partner, (centre - half, centre + half),
                                   (0.3, 0.8, 2.0, 4.0)):
        gap = abs(abs(res.transmission - 1.0) - abs(res.r) * abs(res.r_right))
        assert gap <= 1e-11


@settings(max_examples=40, deadline=None)
@given(spec=planes, partner=st.sampled_from(Partner), a=st.floats(-3.0, 3.0),
       width=st.floats(0.1, 8.0), energy=energies)
def test_plane_propagator_is_unimodular(spec, partner, a, width, energy):
    p = propagator(spec, partner, (a, a + width), energy)
    assert abs(det(p) - 1.0) < 1e-11 * max(1.0, np.max(np.abs(p)) ** 2)


@settings(max_examples=40, deadline=None)
@given(spec=planes, partner=st.sampled_from(Partner), a=st.floats(-3.0, 3.0),
       width=st.floats(0.1, 8.0), cut=st.floats(0.05, 0.95), energy=energies)
def test_split_plane_window_composes(spec, partner, a, width, cut, energy):
    # P(a, b) = P(c, b) P(a, c) for any c inside the window
    assert composition_miss(spec, partner, a, a + width, a + cut * width, energy) < 1e-11


@settings(max_examples=40, deadline=None)
@given(spec=strong_planes, partner=st.sampled_from(Partner), a=st.floats(-3.0, 3.0),
       width=st.floats(0.1, 8.0), cut=st.floats(0.05, 0.95), energy=energies)
def test_strong_plane_propagator_is_unimodular_and_composes(spec, partner, a, width, cut,
                                                           energy):
    # coefficients up to about 2.5e4 carry eps times that into the sums: the
    # worst of 6,000 random draws missed det = 1 by 8.6e-13 and composition
    # by 1.1e-10, held here to 1e-11 and 1e-9
    p = propagator(spec, partner, (a, a + width), energy)
    assert abs(det(p) - 1.0) < 1e-11 * max(1.0, np.max(np.abs(p)) ** 2)
    assert composition_miss(spec, partner, a, a + width, a + cut * width, energy) < 1e-9


@settings(max_examples=40, deadline=None)
@given(spec=planes | strong_planes, partner=st.sampled_from(Partner), a=st.floats(-3.0, 3.0),
       width=st.floats(0.1, 8.0), energy=energies)
def test_transmission_independent_of_incidence_side(spec, partner, a, width, energy):
    # right incidence on V equals left incidence on its mirror image, and
    # V_L(x) = V_R(pi/alpha - x) mirrors each plane family onto the other
    mirror = replace(spec, family=PLANE_FAMILIES[1 - PLANE_FAMILIES.index(spec.family)])
    shift = np.pi / spec.alpha
    t_left = plane_partner_sweep(spec, partner, (a, a + width), [energy])[0].t
    t_right = plane_partner_sweep(mirror, partner, (shift - a - width, shift - a), [energy])[0].t
    assert abs(t_left - t_right) < 1e-9 * max(1.0, abs(t_left))


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(WELL_FAMILIES), partner=st.sampled_from(Partner),
       k=st.floats(0.5, 3.0), q=st.floats(0.0, 3.0), edge=st.floats(1e-4, 0.2),
       n=st.integers(32, 160))
def test_pt_real_eigenvalues_match_complex_fallback(family, partner, k, q, edge, n):
    _check_against_complex_eigvals(family, partner, k, q, edge, n)


def test_dense_path_normalizes_an_overflowing_solution():
    # a near-zero coupling makes the PT-real levels exact to rounding, and
    # inverse iteration from one of them returns a vector whose squared norm
    # overflows; it is scaled by its largest entry before it is normalized
    _check_against_complex_eigvals(Family.COTANGENT_WELL, Partner.V2, 1.2870049651575746,
                                   1.2411808812401817e-280, 1e-4, 65)


def test_dense_path_resolves_a_nan_solution():
    # at a subnormal coupling zgtsv divides by a pivot whose squared modulus
    # underflows and returns nan; the pivot-floor solve takes over
    _check_against_complex_eigvals(Family.TANGENT_WELL, Partner.V1, 2.1949912301712757,
                                   2.225073858507203e-309, 1e-4, 159)


def _check_against_complex_eigvals(family, partner, k, q, edge, n):
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


def _start_vectors(ham, count, kind, seed):
    # start vectors for the levels: none (the seeded one), random, the exact
    # eigenvectors, random ones orthogonal to their level's eigenvector, or
    # the eigenvector of the level above (orthogonal and itself an eigenvector)
    if kind == "seeded":
        return None
    _, exact = eigh_tridiagonal(ham.diagonal.real,
                                np.full(ham.grid.n_interior - 1, ham.off_diagonal),
                                select="i", select_range=(0, count))
    exact = exact.T
    noise = np.random.default_rng(seed).standard_normal((count, ham.grid.n_interior))
    if kind == "random":
        return noise
    if kind == "exact":
        return exact[:count]
    if kind == "orthogonal":
        return noise - np.sum(noise * exact[:count], axis=1)[:, None] * exact[:count]
    return exact[1:]


@settings(max_examples=60, deadline=None)
@given(**real_wells, skip=st.integers(0, 2),
       spread=st.sampled_from((0.0, 1e-9, 1e-3, 0.3, 3.0, 1e3)),
       offsets=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), ordered=st.booleans(),
       start=st.sampled_from(("seeded", "random", "exact", "orthogonal", "neighbour")),
       seed=st.integers(0, 2**32 - 1))
def test_symmetric_levels_match_full_bisection_for_any_prediction(
        family, partner, k, ratio, bumps, n, count, skip, spread, offsets, ordered, start,
        seed):
    # a prediction anywhere from exact to arbitrary, starting at level skip
    # instead of level 0, with any start vectors: confirmed or refuted, it
    # must not move the levels
    ham = _perturbed_well(family, partner, k, ratio, bumps, n)
    levels = _lowest_levels(ham, count + skip)
    guess = levels[skip:] + spread * np.array(offsets[:count])
    rep = eigenvalues(ham, count, guess=np.sort(guess) if ordered else guess,
                      vectors=_start_vectors(ham, count, start, seed))
    bound = 4 * np.finfo(np.float64).eps * ham.norm_inf
    assert np.max(np.abs(rep.eigenvalues.real - levels[:count])) <= bound


@settings(max_examples=40, deadline=None)
@given(k=st.floats(0.5, 2.0), log_width=st.floats(-7.0, 0.0), place=st.floats(0.0, 1.0))
@example(k=1.0, log_width=-4.0, place=0.0)
def test_bisected_levels_of_a_flat_box_are_exact(k, log_width, place):
    # at q = 0 and alpha = k, V1 = -k^2 on the cotangent cell, so on a box of
    # width w inside it the levels of an n-point grid, h = w / (n + 1), are
    # (4 / h^2) sin^2(m pi / (2 (n + 1))) - k^2; a custom domain gets no
    # prediction, so its coarsest grid bisects at any eps ||H||_inf
    cell = math.pi / k
    width = 10.0 ** log_width
    x_min = cell * (0.05 + 0.9 * place) - width * place
    field = partner_field(SuperpotentialSpec(Family.COTANGENT_WELL, k, 0.0), Partner.V1)
    count = 4
    report = richardson_spectrum(field, x_min, x_min + width, count, (64, 96, 128), guess=None)
    m = np.arange(1, count + 1)
    for rep in report.per_grid:
        grid = Grid1D(x_min, x_min + width, rep.grid_sizes_used[0])
        exact = 4 / grid.spacing ** 2 * np.sin(m * np.pi / (2 * (grid.n_interior + 1))) ** 2
        bound = 4 * np.finfo(np.float64).eps * discretize(field, grid).norm_inf
        assert np.max(np.abs(rep.eigenvalues.real - (exact - k * k))) <= bound


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(Family), partner=st.sampled_from(Partner),
       k=st.floats(0.5, 3.0), q=st.floats(-3.0, 3.0), ratio=st.floats(0.25, 2.0),
       u=st.floats(0.0, 1.0))
def test_factorized_partners_match_closed_forms(family, partner, k, q, ratio, u):
    # W^2 -/+ W', W' by central difference of the closed-form W, against
    # the expanded closed forms at any alpha, on the middle 80% of a well's
    # cell or on [-5, 5] for a plane: equal to the difference's 1e-7
    spec = SuperpotentialSpec(family, k, q, k * ratio)
    cell = fundamental_cell(spec)
    if cell is None:
        x = -5.0 + 10.0 * u
    else:
        x = cell[0] + (0.1 + 0.8 * u) * (cell[1] - cell[0])
    h = 1e-6
    w = eval_superpotential(spec, x)
    wp = (eval_superpotential(spec, x + h) - eval_superpotential(spec, x - h)) / (2 * h)
    sign = -1.0 if partner is Partner.V1 else 1.0
    gap = abs(w ** 2 + sign * wp - eval_partner(spec, partner, x))
    assert gap <= 1e-7 * max(1.0, abs(w) ** 2 + abs(wp))


def _tangent_well(k, q, a, x):
    # the tangent well written out, W = k tan(ax) + i q sec(ax): W, W', and
    # the size k(1 + |tan|) + |q sec| of the terms of W
    tan, sec = np.tan(a * x), 1.0 / np.cos(a * x)
    return (k * tan + 1j * q * sec, k * a * sec ** 2 + 1j * q * a * sec * tan,
            k * (1.0 + abs(tan)) + abs(q * sec))


def _left_plane(k, q, a, x):
    # the left plane family written out, W = ik + q e^{+iax}: W, W', and the
    # size k + |q| of the terms of W
    wave = np.exp(1j * a * x)
    return 1j * k + q * wave, 1j * a * q * wave, k + abs(q)


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from((Family.TANGENT_WELL, Family.PLANE_LEFT)),
       k=st.floats(0.5, 3.0), q=st.floats(-3.0, 3.0), ratio=st.floats(0.25, 2.0),
       u=st.floats(0.01, 0.99), cell=st.integers(-3, 3))
def test_derived_families_match_their_written_out_forms(family, k, q, ratio, u, cell):
    # the tangent well and the left plane are evaluated through their twins,
    # the cotangent well at x + pi/(2 alpha) and the conjugate right plane;
    # here they are compared with their own closed forms, at least 1% of the
    # cell from a pole, to 1e-12 of the size of the terms that make them up
    a = k * ratio
    spec = SuperpotentialSpec(family, k, q, a)
    period = np.pi / a
    if family is Family.TANGENT_WELL:
        x = period * (u - 0.5)
        sin, cos = np.sin(a * x), np.cos(a * x)
        # sec + tan = (1 + sin)/cos = cos/(1 - sin), each free of cancellation
        # on its own half of the cell
        log_arg = (1.0 + sin) / cos if sin >= 0 else cos / (1.0 - sin)
        psi = cos ** (k / a) * np.exp(-1j * (q / a) * np.log(log_arg))
        written_out = _tangent_well
    else:
        x = 4.0 * period * (u - 0.5)
        psi = np.exp(-1j * k * x) * np.exp(1j * (q / a) * np.exp(1j * a * x))
        written_out = _left_plane
    assert abs(eval_wavefunction(spec, x) - psi) <= 1e-12 * abs(psi)
    # W and the partners repeat from cell to cell
    x += cell * period
    w, wp, w_scale = written_out(k, q, a, x)
    assert abs(eval_superpotential(spec, x) - w) <= 1e-12 * w_scale
    v_scale = abs(w) ** 2 + abs(wp)
    for partner, sign in ((Partner.V1, -1.0), (Partner.V2, 1.0)):
        assert abs(eval_partner(spec, partner, x) - (w ** 2 + sign * wp)) <= 1e-12 * v_scale
