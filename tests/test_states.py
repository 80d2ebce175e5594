"""Tests for ground states, ladder energies, densities, parity checks, and the
residual probe."""

import itertools
import math
from contextlib import nullcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susywell import gates
from susywell.errors import SusywellError
from susywell.states import (
    eval_wavefunction,
    probability_density,
    pt_asymmetry,
    remainder_spectrum,
    schrodinger_residual,
)
from susywell.susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    WELL_FAMILIES,
    default_exclusion,
    eval_partner,
    fundamental_cell,
    partner_field,
)

ATOL = 1e-12
DENSITY_TOL = 1e-12
RESIDUAL_TOL = 1e-6
PT_TOL = 1e-12
# phrases of the three refusals of the closed forms, all SusywellError
STEP = "exceeds 1/10 of the distance"
OUTSIDE = "ground state is positive only on"
POLE = "within the exclusion radius of the singular point"

# (k, alpha): two steps below k and two above
STEPS = [(1.7, 0.5), (3.0, 1.0), (2.0, 3.1), (1.0, 2.0)]
COUPLINGS = [0.0, 0.5, 2.0, 5.0]

RESIDUAL_POINTS = {
    Family.COTANGENT_WELL: 1.0,
    Family.TANGENT_WELL: 0.6,
    Family.PLANE_RIGHT: 0.5,
    Family.PLANE_LEFT: 0.5,
}


class TestClosedForms:
    def test_flat_ground_state_is_sine(self):
        val = eval_wavefunction(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0),
                                math.pi / 2)
        assert_allclose([val.real, val.imag], [1.0, 0.0], atol=ATOL)

    def test_phase_factor_is_unity_at_midpoint(self):
        # the log argument csc - cot equals 1 there, so the phase collapses
        val = eval_wavefunction(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                                math.pi / 2)
        assert_allclose([val.real, val.imag], [1.0, 0.0], atol=ATOL)

    def test_plane_wave_reduction(self):
        x0 = 0.77
        val = eval_wavefunction(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 0.0), x0)
        assert_allclose([val.real, val.imag], [math.cos(x0), math.sin(x0)], atol=ATOL)

    def test_left_mover_conjugates_right_mover(self):
        xs = np.linspace(-2.0, 2.0, 101)
        right = eval_wavefunction(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.5), xs)
        left = eval_wavefunction(SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.5), xs)
        assert_allclose(left, np.conj(right), atol=ATOL)

    def test_tangent_nonzero_at_box_edge(self):
        # the tangent-family state does not satisfy a Dirichlet condition at 0;
        # its envelope is cos
        val = eval_wavefunction(SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 3.0), 0.0)
        assert abs(val - 1.0) < ATOL

    def test_dirichlet_decay_toward_edges(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        mags = [abs(eval_wavefunction(spec, eps)) for eps in (1e-2, 1e-3, 1e-4)]
        assert mags[0] < 2e-2
        assert mags[1] < mags[0] / 5
        assert mags[2] < mags[1] / 5
        mags_hi = [abs(eval_wavefunction(spec, math.pi - eps))
                   for eps in (1e-2, 1e-3, 1e-4)]
        assert mags_hi[2] < mags_hi[1] < mags_hi[0]


def sample_points(spec):
    """The PT centre and 41 points symmetric about it: the middle 60% of
    the cell, or pi/(2 alpha) +- 2 on the line."""
    cell = fundamental_cell(spec)
    if cell is None:
        centre = math.pi / (2 * spec.alpha)
        return centre, centre + np.linspace(-2.0, 2.0, 41)
    lo, hi = cell
    pad = 0.2 * (hi - lo)
    return 0.5 * (lo + hi), np.linspace(lo + pad, hi - pad, 41)


def alpha_k_closed_form(spec, x):
    # the ground states at alpha = k, envelope sin(kx) or cos(kx)
    xs = np.asarray(x, dtype=np.float64)
    k, q = spec.k, spec.q
    if spec.family is Family.COTANGENT_WELL:
        out = np.sin(k * xs) * np.exp(-1j * (q / k) * np.log(np.tan(0.5 * k * xs)))
    elif spec.family is Family.TANGENT_WELL:
        arg = (1.0 + np.sin(k * xs)) / np.cos(k * xs)
        out = np.cos(k * xs) * np.exp(-1j * (q / k) * np.log(arg))
    elif spec.family is Family.PLANE_RIGHT:
        out = np.exp(1j * k * xs) * np.exp(-1j * (q / k) * np.exp(-1j * k * xs))
    else:
        out = np.exp(-1j * k * xs) * np.exp(1j * (q / k) * np.exp(1j * k * xs))
    return out.item() if np.ndim(x) == 0 else out


class TestEveryStep:
    """psi = exp(-int W) at any alpha: envelope power k/alpha, phase q/alpha."""

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("k,alpha", STEPS)
    def test_ground_state_solves_v1(self, family, k, alpha):
        # the Richardson combination of two steps cancels the h^2 term
        for q in COUPLINGS:
            spec = SuperpotentialSpec(family, k, q, alpha)
            xs = sample_points(spec)[1] if fundamental_cell(spec) else np.linspace(-2.0, 2.0, 41)
            rich = (4 * schrodinger_residual(spec, 0.0, xs, h=1e-3)
                    - schrodinger_residual(spec, 0.0, xs, h=2e-3)) / 3
            assert np.max(np.abs(rich)) <= RESIDUAL_TOL, q

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("k,alpha", STEPS)
    def test_ground_state_is_a_pt_eigenstate(self, family, k, alpha):
        # conj psi(2 x0 - x) = lambda psi(x) with |lambda| = 1
        for q in COUPLINGS:
            spec = SuperpotentialSpec(family, k, q, alpha)
            centre, xs = sample_points(spec)
            psi = eval_wavefunction(spec, xs)
            mirror = np.conj(eval_wavefunction(spec, 2 * centre - xs))
            lam = np.vdot(psi, mirror) / np.vdot(psi, psi)
            assert np.max(np.abs(mirror - lam * psi)) <= PT_TOL * np.max(np.abs(psi)), q
            assert abs(abs(lam) - 1.0) <= PT_TOL, q

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    @pytest.mark.parametrize("k,alpha", STEPS)
    def test_density_ignores_the_coupling(self, family, k, alpha):
        base = SuperpotentialSpec(family, k, 0.0, alpha)
        xs = sample_points(base)[1]
        rho0 = probability_density(base, xs)
        for q in COUPLINGS[1:]:
            rho = probability_density(SuperpotentialSpec(family, k, q, alpha), xs)
            assert np.max(np.abs(rho - rho0)) <= gates.DENSITY_TOL, q

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("k", [0.5, 1.0, 1.7, 3.0])
    def test_alpha_equal_k_keeps_its_bits(self, family, k):
        # x ** 1.0 is exact, so the general forms reduce to these bit for bit;
        # the tangent state is the cotangent one at x + pi/(2k), and rounding
        # that sum moves it by a few ulp
        for q in COUPLINGS:
            spec = SuperpotentialSpec(family, k, q)
            xs = sample_points(spec)[1]
            x0 = float(xs[7])
            for x in (xs, x0):
                got, want = eval_wavefunction(spec, x), alpha_k_closed_form(spec, x)
                if family is Family.TANGENT_WELL:
                    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14, q
                else:
                    assert np.array_equal(got, want), q


class TestDensity:
    def test_cotangent_value(self):
        rho = probability_density(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 5.0),
                                  math.pi / 3)
        assert rho == pytest.approx(0.75, abs=DENSITY_TOL)

    def test_tangent_value(self):
        rho = probability_density(SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 3.0),
                                  math.pi / 4)
        assert rho == pytest.approx(0.5, abs=DENSITY_TOL)

    def test_plane_wave_is_flat(self):
        xs = np.linspace(-2.0, 2.0, 64)
        rho = probability_density(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 0.0), xs)
        assert_allclose(rho, 1.0, atol=DENSITY_TOL)

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    @pytest.mark.parametrize("q", [1.0, 2.0, 5.0])
    def test_phase_invariance(self, family, q):
        # the coupling enters the state only through a unimodular phase
        x_min, x_max = fundamental_cell(SuperpotentialSpec(family, 1.0, 0.0))
        pad = (x_max - x_min) / 1000
        xs = np.linspace(x_min + pad, x_max - pad, 2000)
        rho0 = probability_density(SuperpotentialSpec(family, 1.0, 0.0), xs)
        rhoq = probability_density(SuperpotentialSpec(family, 1.0, q), xs)
        assert np.max(np.abs(rhoq - rho0)) < DENSITY_TOL


class TestResidual:
    def test_flat_case(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        assert abs(schrodinger_residual(spec, 0.0, 1.0, h=1e-4)) < RESIDUAL_TOL

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_annihilation_all_families(self, family, q):
        spec = SuperpotentialSpec(family, 1.0, q)
        x = RESIDUAL_POINTS[family]
        assert abs(schrodinger_residual(spec, 0.0, x, h=1e-4)) < RESIDUAL_TOL

    @pytest.mark.parametrize("family", list(Family))
    def test_second_order_decay(self, family):
        spec = SuperpotentialSpec(family, 1.0, 2.0)
        x = RESIDUAL_POINTS[family]
        r_coarse = abs(schrodinger_residual(spec, 0.0, x, h=1e-3))
        r_fine = abs(schrodinger_residual(spec, 0.0, x, h=1e-4))
        # exact scaling is 100x; roundoff eats part of it at the fine step
        assert r_fine < r_coarse / 10

    def test_wrong_energy_leaves_residual(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        assert abs(schrodinger_residual(spec, 2.5, 1.0, h=1e-4)) > 1.0
        # the defect of -psi'' + (V1 - E) psi is that at E = 0 less E psi,
        # over |psi|; a residual of V1 + E would miss by 2 E = 5
        for family, q in itertools.product(Family, (0.0, 2.0)):
            spec, x = SuperpotentialSpec(family, 1.0, q), RESIDUAL_POINTS[family]
            psi = eval_wavefunction(spec, x)
            expected = schrodinger_residual(spec, 0.0, x) - 2.5 * psi / abs(psi)
            assert abs(schrodinger_residual(spec, 2.5, x) - expected) < 1e-12, (family, q)

    @pytest.mark.parametrize("family,x,h,outcome", [
        (Family.COTANGENT_WELL, 0.005, 1e-3, pytest.raises(SusywellError, match=STEP)),
        (Family.COTANGENT_WELL, 0.01, 0.005, pytest.raises(SusywellError, match=STEP)),
        (Family.COTANGENT_WELL, 1.0, 0.0, pytest.raises(ValueError)),
        (Family.PLANE_RIGHT, 0.01, -1e-4, pytest.raises(ValueError)),
        (Family.PLANE_RIGHT, 0.01, 0.5, nullcontext()),
        (Family.PLANE_LEFT, 0.01, 2.0, nullcontext()),
    ], ids=["pole", "pole-wide-step", "zero", "negative", "plane", "plane-wide"])
    def test_step_guard_near_pole(self, family, x, h, outcome):
        # the finite-difference step guard of susy_core; planes have no pole
        with outcome:
            schrodinger_residual(SuperpotentialSpec(family, 1.0, 1.0), 0.0, x, h=h)

    def test_step_refusal_prints_python_numbers(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        with pytest.raises(SusywellError) as err:
            schrodinger_residual(spec, 0.0, np.float64(0.01), h=np.float64(0.005))
        assert str(err.value) == ("step h=0.005 exceeds 1/10 of the distance 0.01 to the "
                                  "nearest singularity")


class TestParity:
    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("which", list(Partner))
    def test_well_partner_symmetry(self, q, which):
        # sampled away from the edges: reflecting across the rounded midpoint
        # amplifies fl(pi) error through the csc^2 derivative near the poles
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, q)
        xs = np.linspace(math.pi / 10, 9 * math.pi / 10, 500)
        asym = pt_asymmetry(partner_field(spec, which), math.pi / 2, xs)
        assert asym < 1e-12

    def test_flat_well_is_exactly_symmetric(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        xs = np.linspace(0.4, math.pi - 0.4, 200)
        assert pt_asymmetry(partner_field(spec, Partner.V1), math.pi / 2, xs) == 0.0

    def test_plane_partner_breaks_symmetry(self):
        # recorded behavior: the travelling-wave potential is not symmetric
        # about the origin, the asymmetry saturates near 2|q|k
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        xs = np.linspace(-2.0, 2.0, 500)
        asym = pt_asymmetry(partner_field(spec, Partner.V1), 0.0, xs)
        assert asym > 0.1


class TestDomains:
    def test_outside_cell_is_refused(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        with pytest.raises(SusywellError, match=OUTSIDE):
            eval_wavefunction(spec, -0.5)
        with pytest.raises(SusywellError, match=OUTSIDE):
            eval_wavefunction(spec, 3.5)

    def test_endpoint_is_singular(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        with pytest.raises(SusywellError, match=POLE):
            eval_wavefunction(spec, 0.0)
        with pytest.raises(SusywellError, match=POLE):
            eval_wavefunction(spec, math.pi)

    @pytest.mark.parametrize("family, x", [(Family.COTANGENT_WELL, 2 * math.pi),
                                           (Family.TANGENT_WELL, 1.5 * math.pi)])
    def test_a_pole_outside_the_cell_is_singular(self, family, x):
        # the pole guard of eval_partner comes before the cell check
        with pytest.raises(SusywellError, match=POLE):
            eval_wavefunction(SuperpotentialSpec(family, 1.0, 2.0), x)

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    def test_exclusion_radius_follows_the_cell(self, family):
        # the cell is pi/alpha wide: at k = 1e-6, alpha = 1 a radius of 1e-6 pi/k
        # would cover all of it
        spec = SuperpotentialSpec(family, 1e-6, 0.5, 1.0)
        assert default_exclusion(spec) == 1e-6 * math.pi
        lo, hi = fundamental_cell(spec)
        mid = 0.5 * (lo + hi)
        assert np.isfinite(eval_partner(spec, Partner.V1, mid))
        assert np.isfinite(eval_wavefunction(spec, mid))


class TestLadders:
    @pytest.mark.parametrize("n,expect", [(0, 0), (1, 3), (4, 24)])
    def test_analytic_levels(self, n, expect):
        assert remainder_spectrum(n) == expect

    @pytest.mark.parametrize("n,expect", [(0, 0.0), (1, 3.0), (3, 15.0)])
    def test_remainder_partial_sums(self, n, expect):
        assert remainder_spectrum(n, 1.0) == expect

    @pytest.mark.parametrize("k,alpha", [(1.0, 0.5), (1.7, 1.7 / 3), (3.0, 0.75)])
    def test_remainder_with_separate_step(self, k, alpha):
        # telescoped sum of alpha (alpha + 2 k_j), k_j = k + (j-1) alpha
        for n in range(12):
            steps = sum(alpha * (alpha + 2 * (k + j * alpha)) for j in range(n))
            assert remainder_spectrum(n, k, alpha) == pytest.approx(steps, rel=1e-13,
                                                                    abs=1e-13)
            assert remainder_spectrum(n, k, alpha) == pytest.approx((k + n * alpha) ** 2 - k ** 2)

    def test_telescoping_is_exact(self):
        for n in range(51):
            assert remainder_spectrum(n, 1.0) == n * (n + 2)

    def test_scaled_base(self):
        # first step at k_base=2: a(a+2k) = 4 + 8 = 12
        assert remainder_spectrum(1, 2.0) == pytest.approx(12.0)
