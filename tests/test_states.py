"""Tests for ground states, densities, parity checks, and the residual probe."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susywell.errors import DomainViolation, SingularPoint, StepTooLarge
from susywell.states import (
    WaveFunctionSpec,
    eval_wavefunction,
    probability_density,
    pt_asymmetry,
    schrodinger_residual,
)
from susywell.susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    WELL_FAMILIES,
    fundamental_cell,
    partner_field,
)

ATOL = 1e-12
DENSITY_TOL = 1e-12
RESIDUAL_TOL = 1e-6

RESIDUAL_POINTS = {
    Family.COTANGENT_WELL: 1.0,
    Family.TANGENT_WELL: 0.6,
    Family.PLANE_RIGHT: 0.5,
    Family.PLANE_LEFT: 0.5,
}


class TestClosedForms:
    def test_flat_ground_state_is_sine(self):
        val = eval_wavefunction(WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 0.0),
                                math.pi / 2)
        assert_allclose([val.real, val.imag], [1.0, 0.0], atol=ATOL)

    def test_phase_factor_is_unity_at_midpoint(self):
        # the log argument csc - cot equals 1 there, so the phase collapses
        val = eval_wavefunction(WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                                math.pi / 2)
        assert_allclose([val.real, val.imag], [1.0, 0.0], atol=ATOL)

    def test_plane_wave_reduction(self):
        x0 = 0.77
        val = eval_wavefunction(WaveFunctionSpec(Family.PLANE_RIGHT, 1.0, 0.0), x0)
        assert_allclose([val.real, val.imag], [math.cos(x0), math.sin(x0)], atol=ATOL)

    def test_norm_scales_linearly(self):
        base = eval_wavefunction(WaveFunctionSpec(Family.TANGENT_WELL, 1.0, 1.0), 0.3)
        scaled = eval_wavefunction(
            WaveFunctionSpec(Family.TANGENT_WELL, 1.0, 1.0, norm=2.0 - 1.0j), 0.3)
        assert_allclose(scaled, (2.0 - 1.0j) * base, atol=ATOL)

    def test_left_mover_conjugates_right_mover(self):
        xs = np.linspace(-2.0, 2.0, 101)
        right = eval_wavefunction(WaveFunctionSpec(Family.PLANE_RIGHT, 1.0, 1.5), xs)
        left = eval_wavefunction(WaveFunctionSpec(Family.PLANE_LEFT, 1.0, 1.5), xs)
        assert_allclose(left, np.conj(right), atol=ATOL)

    def test_tangent_nonzero_at_box_edge(self):
        # the tangent-family state does not satisfy a Dirichlet condition at 0;
        # its envelope is cos
        val = eval_wavefunction(WaveFunctionSpec(Family.TANGENT_WELL, 1.0, 3.0), 0.0)
        assert abs(val - 1.0) < ATOL

    def test_dirichlet_decay_toward_edges(self):
        spec = WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        mags = [abs(eval_wavefunction(spec, eps)) for eps in (1e-2, 1e-3, 1e-4)]
        assert mags[0] < 2e-2
        assert mags[1] < mags[0] / 5
        assert mags[2] < mags[1] / 5
        mags_hi = [abs(eval_wavefunction(spec, math.pi - eps))
                   for eps in (1e-2, 1e-3, 1e-4)]
        assert mags_hi[2] < mags_hi[1] < mags_hi[0]


class TestDensity:
    def test_cotangent_value(self):
        rho = probability_density(WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 5.0),
                                  math.pi / 3)
        assert rho == pytest.approx(0.75, abs=DENSITY_TOL)

    def test_tangent_value(self):
        rho = probability_density(WaveFunctionSpec(Family.TANGENT_WELL, 1.0, 3.0),
                                  math.pi / 4)
        assert rho == pytest.approx(0.5, abs=DENSITY_TOL)

    def test_plane_wave_is_flat(self):
        xs = np.linspace(-2.0, 2.0, 64)
        rho = probability_density(WaveFunctionSpec(Family.PLANE_RIGHT, 1.0, 0.0), xs)
        assert_allclose(rho, 1.0, atol=DENSITY_TOL)

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    @pytest.mark.parametrize("q", [1.0, 2.0, 5.0])
    def test_phase_invariance(self, family, q):
        # the coupling enters the state only through a unimodular phase
        x_min, x_max = fundamental_cell(SuperpotentialSpec(family, 1.0, 0.0))
        pad = (x_max - x_min) / 1000
        xs = np.linspace(x_min + pad, x_max - pad, 2000)
        rho0 = probability_density(WaveFunctionSpec(family, 1.0, 0.0), xs)
        rhoq = probability_density(WaveFunctionSpec(family, 1.0, q), xs)
        assert np.max(np.abs(rhoq - rho0)) < DENSITY_TOL


class TestResidual:
    def test_flat_case(self):
        spec = WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        pot = partner_field(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0),
                            Partner.V1)
        assert abs(schrodinger_residual(pot, spec, 0.0, 1.0, h=1e-4)) < RESIDUAL_TOL

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_annihilation_all_families(self, family, q):
        spec = WaveFunctionSpec(family, 1.0, q)
        pot = partner_field(SuperpotentialSpec(family, 1.0, q), Partner.V1)
        x = RESIDUAL_POINTS[family]
        assert abs(schrodinger_residual(pot, spec, 0.0, x, h=1e-4)) < RESIDUAL_TOL

    @pytest.mark.parametrize("family", list(Family))
    def test_second_order_decay(self, family):
        spec = WaveFunctionSpec(family, 1.0, 2.0)
        pot = partner_field(SuperpotentialSpec(family, 1.0, 2.0), Partner.V1)
        x = RESIDUAL_POINTS[family]
        r_coarse = abs(schrodinger_residual(pot, spec, 0.0, x, h=1e-3))
        r_fine = abs(schrodinger_residual(pot, spec, 0.0, x, h=1e-4))
        # exact scaling is 100x; roundoff eats part of it at the fine step
        assert r_fine < r_coarse / 10

    def test_wrong_energy_leaves_residual(self):
        spec = WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        pot = partner_field(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0),
                            Partner.V1)
        assert abs(schrodinger_residual(pot, spec, 2.5, 1.0, h=1e-4)) > 1.0

    def test_step_guard_near_pole(self):
        spec = WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        pot = partner_field(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0),
                            Partner.V1)
        with pytest.raises(StepTooLarge):
            schrodinger_residual(pot, spec, 0.0, 0.005, h=1e-3)


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
        spec = WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        with pytest.raises(DomainViolation):
            eval_wavefunction(spec, -0.5)
        with pytest.raises(DomainViolation):
            eval_wavefunction(spec, 3.5)

    def test_endpoint_is_singular(self):
        spec = WaveFunctionSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        with pytest.raises(SingularPoint):
            eval_wavefunction(spec, 0.0)
        with pytest.raises(SingularPoint):
            eval_wavefunction(spec, math.pi)
