"""Tests for the superpotential layer: closed forms, partners, the ladder."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susywell.errors import SingularPoint, StepTooLarge
from susywell.susy_core import (
    Family,
    Partner,
    SuperpotentialSpec,
    WELL_FAMILIES,
    check_shape_invariance,
    constraint_function,
    default_exclusion,
    eval_partner,
    eval_superpotential,
    eval_superpotential_derivative,
    fundamental_cell,
    partner_from_superpotential,
    remainder,
    singularity_distance,
)

ATOL = 1e-12
IDENTITY_TOL = 1e-10

ALL_FAMILIES = tuple(Family)

# interior sample grids per family, clear of every singularity
SAMPLES = {
    Family.COTANGENT_WELL: np.linspace(0.05, math.pi - 0.05, 400),
    Family.TANGENT_WELL: np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 400),
    Family.PLANE_RIGHT: np.linspace(-3.0, 3.0, 400),
    Family.PLANE_LEFT: np.linspace(-3.0, 3.0, 400),
}


def samples_for(spec):
    pts = SAMPLES[spec.family]
    return pts / spec.k if spec.k != 1.0 else pts


class TestSuperpotentialValues:
    def test_cotangent_real_part_only(self):
        # cot vanishes at the cell midpoint, so W is purely the iq csc term
        val = eval_superpotential(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0),
                                  math.pi / 2)
        assert abs(val) < ATOL

    def test_cotangent_with_coupling(self):
        val = eval_superpotential(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                                  math.pi / 2)
        assert_allclose([val.real, val.imag], [0.0, 2.0], atol=ATOL)

    def test_plane_right_at_origin(self):
        val = eval_superpotential(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 2.0), 0.0)
        assert_allclose([val.real, val.imag], [2.0, -1.0], atol=ATOL)

    def test_tangent_frozen_value(self):
        # tan(pi/4) + i sqrt(2): hand-evaluated closed form
        val = eval_superpotential(SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 1.0),
                                  math.pi / 4)
        assert_allclose([val.real, val.imag], [1.0, math.sqrt(2.0)], atol=ATOL)

    def test_plane_left_at_origin(self):
        val = eval_superpotential(SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.0), 0.0)
        assert_allclose([val.real, val.imag], [1.0, 1.0], atol=ATOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_derivative_matches_central_difference(self, family):
        spec = SuperpotentialSpec(family, 1.0, 1.5)
        xs = samples_for(spec)[::20]
        h = 1e-6
        fd = (eval_superpotential(spec, xs + h) - eval_superpotential(spec, xs - h)) / (2 * h)
        assert_allclose(eval_superpotential_derivative(spec, xs), fd, atol=1e-7)


class TestPartnerValues:
    def test_flat_well_everywhere(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        xs = np.linspace(0.1, math.pi - 0.1, 50)
        vals = eval_partner(spec, Partner.V1, xs)
        assert_allclose(vals.real, -1.0, atol=ATOL)
        assert_allclose(vals.imag, 0.0, atol=ATOL)

    def test_cotangent_v1_at_midpoint(self):
        val = eval_partner(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                           Partner.V1, math.pi / 2)
        assert_allclose([val.real, val.imag], [-5.0, 0.0], atol=ATOL)

    def test_cotangent_v2_at_midpoint(self):
        # W = 2i, W' = 1 there, so V2 = W^2 + W' = -3
        val = eval_partner(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                           Partner.V2, math.pi / 2)
        assert_allclose([val.real, val.imag], [-3.0, 0.0], atol=ATOL)

    def test_plane_right_v1_at_origin(self):
        val = eval_partner(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0),
                           Partner.V1, 0.0)
        assert_allclose([val.real, val.imag], [0.0, -1.0], atol=ATOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.5])
    def test_sum_is_twice_w_squared(self, family, q):
        spec = SuperpotentialSpec(family, 1.0, q)
        xs = samples_for(spec)
        w = eval_superpotential(spec, xs)
        total = eval_partner(spec, Partner.V1, xs) + eval_partner(spec, Partner.V2, xs)
        assert_allclose(total, 2.0 * w ** 2, atol=IDENTITY_TOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.5])
    def test_difference_is_twice_w_prime(self, family, q):
        spec = SuperpotentialSpec(family, 1.0, q)
        xs = samples_for(spec)
        wp = eval_superpotential_derivative(spec, xs)
        diff = eval_partner(spec, Partner.V2, xs) - eval_partner(spec, Partner.V1, xs)
        assert_allclose(diff, 2.0 * wp, atol=IDENTITY_TOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_zero_coupling_partners_are_real(self, family):
        spec = SuperpotentialSpec(family, 2.0, 0.0)
        xs = samples_for(spec)
        for which in Partner:
            vals = eval_partner(spec, which, xs)
            assert np.max(np.abs(vals.imag)) < ATOL

    @pytest.mark.parametrize("family", WELL_FAMILIES)
    def test_negated_coupling_conjugates_wells(self, family):
        plus = SuperpotentialSpec(family, 1.0, 2.0)
        minus = SuperpotentialSpec(family, 1.0, -2.0)
        xs = samples_for(plus)
        assert_allclose(eval_superpotential(minus, xs),
                        np.conj(eval_superpotential(plus, xs)), atol=ATOL)
        for which in Partner:
            assert_allclose(eval_partner(minus, which, xs),
                            np.conj(eval_partner(plus, which, xs)), atol=ATOL)

    def test_left_mover_conjugates_right_mover(self):
        right = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.5)
        left = SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.5)
        xs = SAMPLES[Family.PLANE_RIGHT]
        assert_allclose(eval_superpotential(left, xs),
                        np.conj(eval_superpotential(right, xs)), atol=ATOL)
        for which in Partner:
            assert_allclose(eval_partner(left, which, xs),
                            np.conj(eval_partner(right, which, xs)), atol=ATOL)

    def test_left_mover_mirrors_right_mover(self):
        # V_L(x) = V_R(pi/k - x): reflection about the quarter period
        k = 1.0
        right = SuperpotentialSpec(Family.PLANE_RIGHT, k, 1.0)
        left = SuperpotentialSpec(Family.PLANE_LEFT, k, 1.0)
        xs = SAMPLES[Family.PLANE_LEFT]
        for which in Partner:
            assert_allclose(eval_partner(left, which, xs),
                            eval_partner(right, which, math.pi / k - xs), atol=ATOL)


class TestNumericCrossValidation:
    def test_flat_case(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 0.0)
        val = partner_from_superpotential(spec, Partner.V1, math.pi / 2, h=1e-5)
        assert abs(val - (-1.0)) < 1e-8

    def test_cotangent_matches_closed_form(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        num = partner_from_superpotential(spec, Partner.V1, 1.0, h=1e-5)
        assert abs(num - eval_partner(spec, Partner.V1, 1.0)) < 1e-6

    def test_plane_left_matches_closed_form(self):
        spec = SuperpotentialSpec(Family.PLANE_LEFT, 2.0, 1.0)
        num = partner_from_superpotential(spec, Partner.V2, 0.3, h=1e-5)
        assert abs(num - eval_partner(spec, Partner.V2, 0.3)) < 1e-6

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("which", list(Partner))
    def test_second_order_in_step(self, family, which):
        spec = SuperpotentialSpec(family, 1.0, 1.5)
        x = 0.9 if family is Family.COTANGENT_WELL else 0.4
        exact = eval_partner(spec, which, x)
        errs = [abs(partner_from_superpotential(spec, which, x, h=h) - exact)
                for h in (1e-3, 1e-4, 1e-5)]
        # each tenfold step refinement must buy close to two digits
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 10
        assert errs[2] < errs[1] / 5


class TestConstraint:
    def test_cotangent_value(self):
        val = constraint_function(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0),
                                  math.pi / 2)
        assert_allclose([val.real, val.imag], [2.0, 0.0], atol=ATOL)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_zero_coupling_vanishes(self, family):
        spec = SuperpotentialSpec(family, 1.0, 0.0)
        assert abs(constraint_function(spec, 0.4)) == 0.0

    def test_plane_right_at_origin(self):
        val = constraint_function(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0), 0.0)
        assert_allclose([val.real, val.imag], [1.0, 0.0], atol=ATOL)


class TestRemainder:
    def test_cotangent_k1(self):
        val = remainder(SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0), 0.7)
        assert_allclose([val.real, val.imag], [3.0, 0.0], atol=1e-10)

    def test_cotangent_k2(self):
        val = remainder(SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0), 0.4)
        assert_allclose([val.real, val.imag], [12.0, 0.0], atol=1e-10)

    def test_plane_right(self):
        val = remainder(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 3.0), 1.1)
        assert_allclose([val.real, val.imag], [3.0, 0.0], atol=1e-10)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_general_step_size(self, family):
        # with the ladder step decoupled from k the constant is a(a + 2k)
        spec = SuperpotentialSpec(family, 1.0, 2.0, alpha=0.5)
        xs = samples_for(spec)[::40]
        vals = np.array([remainder(spec, float(x)) for x in xs])
        assert_allclose(vals.real, 0.5 * (0.5 + 2.0), atol=1e-10)
        assert_allclose(vals.imag, 0.0, atol=1e-10)


class TestShapeInvariance:
    def test_cotangent_benchmark(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        pts = np.linspace(0.05, math.pi - 0.05, 1000)
        res = check_shape_invariance(spec, pts)
        assert res.holds
        assert res.max_abs_deviation < 1e-10
        assert abs(res.mean - 3.0) < 1e-10

    def test_tangent_full_cell_avoiding_midpole(self):
        # sampled on (0, pi) around the interior pole rather than the
        # symmetric cell, to pin the constant on both branches
        spec = SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 2.0)
        pts = np.concatenate([np.linspace(0.05, math.pi / 2 - 0.05, 300),
                              np.linspace(math.pi / 2 + 0.05, math.pi - 0.05, 300)])
        res = check_shape_invariance(spec, pts)
        assert res.holds
        assert abs(res.mean - 3.0) < 1e-10

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("q", [0.0, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
    def test_constancy_grid(self, family, q, k):
        spec = SuperpotentialSpec(family, k, q)
        res = check_shape_invariance(spec, samples_for(spec))
        assert res.holds, (family, q, k, res.max_abs_deviation)
        assert abs(res.mean - 3.0 * k * k) < 1e-10 * max(1.0, 3.0 * k * k)

    def test_detuned_constraint_fails(self):
        # negative control: doubling the constraint frequency breaks the
        # cancellation, so the deviation must blow past the tolerance
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        pts = np.linspace(0.05, math.pi - 0.05, 1000)
        res = check_shape_invariance(spec, pts, constraint_frequency=2.0)
        assert not res.holds
        assert res.max_abs_deviation > 1.0


class TestGuardsAndGeometry:
    def test_singular_point_at_cell_edge(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        with pytest.raises(SingularPoint):
            eval_superpotential(spec, 0.0)
        with pytest.raises(SingularPoint):
            eval_partner(spec, Partner.V1, math.pi)

    def test_singular_point_at_tangent_pole(self):
        spec = SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 1.0)
        with pytest.raises(SingularPoint):
            eval_superpotential(spec, math.pi / 2)

    def test_exclusion_radius_scales_with_k(self):
        assert default_exclusion(SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0)) \
            == pytest.approx(1e-6 * math.pi / 2.0)

    def test_singularity_distance(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        assert singularity_distance(spec, 0.3) == pytest.approx(0.3)
        assert singularity_distance(spec, 3.0) == pytest.approx(math.pi - 3.0)
        plane = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        assert math.isinf(singularity_distance(plane, 5.0))

    def test_step_too_large_near_pole(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        with pytest.raises(StepTooLarge):
            partner_from_superpotential(spec, Partner.V1, 0.01, h=0.005)

    def test_fundamental_cells(self):
        assert fundamental_cell(SuperpotentialSpec(Family.COTANGENT_WELL, 2.0, 0.0)) \
            == pytest.approx((0.0, math.pi / 2))
        assert fundamental_cell(SuperpotentialSpec(Family.TANGENT_WELL, 1.0, 0.0)) \
            == pytest.approx((-math.pi / 2, math.pi / 2))
        assert fundamental_cell(SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 0.0)) is None

    def test_shifted_spec_climbs_ladder(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 2.0)
        up = spec.shifted(2)
        assert up.k == pytest.approx(3.0)
        assert up.q == spec.q
        assert up.alpha == spec.alpha
