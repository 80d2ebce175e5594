"""Tests for the transfer-matrix machinery and the sweep plumbing."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from susywell.errors import DegenerateMatch, EvanescentOverflow, SliceTooCoarse
from susywell.gates import ORACLE_TOL
from susywell.scattering import (
    ConstantSegment,
    FieldSegment,
    PiecewisePotential,
    SERIES_MAX,
    SLICE_BLOCK,
    SWEEP_HEADER,
    _constant_propagator,
    _field_propagator,
    _series,
    _slice_entries,
    plane_partner_sweep,
    square_barrier_transmission,
    sweep_csv,
    transfer_matrix,
    transmission_reflection,
)
from susywell.susy_core import Family, Partner, SuperpotentialSpec, partner_field

MATRIX_TOL = 1e-10
ORACLE_RTOL = 1e-8

# frozen closed-form values, evaluated by hand from the textbook expressions
T_TUNNEL_V4_A1_E1 = 0.0909668503958455
T_WELL_V5_A1_E2 = 0.9082214485068217
T_RESONANCE_V4_A1 = 0.5


def barrier(v0=4.0, width=1.0):
    return PiecewisePotential((0.0, width), (ConstantSegment(v0),))


def sliced(spec, window, slices):
    """The V1 partner of spec on window as one FieldSegment, V = 0 outside."""
    return PiecewisePotential(window, (FieldSegment(partner_field(spec, Partner.V1), slices),))


def sequential_propagator(field, a, b, slices, energy):
    """Reference: one scalar slice matrix at a time, later slices on the left."""
    width = (b - a) / slices
    values = field(a + width * (np.arange(slices) + 0.5))
    out = np.eye(2, dtype=complex)
    for v in values:
        ksq = energy - complex(v)
        z = cmath.sqrt(ksq) * width
        sfac = width * cmath.sin(z) / z
        out = np.array([[cmath.cos(z), sfac], [-ksq * sfac, cmath.cos(z)]]) @ out
    return out


class TestTransferMatrix:
    def test_empty_structure_is_identity(self):
        pot = PiecewisePotential((0.0, 2.0), (ConstantSegment(0.0),))
        m = transfer_matrix(pot, 3.7)
        assert np.max(np.abs(m - np.eye(2))) < MATRIX_TOL

    def test_zero_width_propagator_is_identity(self):
        # the container refuses degenerate breakpoints, but the segment
        # propagator itself degrades continuously to the identity
        m = _constant_propagator(4.0, 0.0, 1.0)
        assert np.max(np.abs(m - np.eye(2))) == 0.0

    def test_unimodular(self):
        for E in (0.5, 1.0, 7.3):
            m = transfer_matrix(barrier(), E)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) < MATRIX_TOL

    def test_composition(self):
        left = PiecewisePotential((0.0, 1.0), (ConstantSegment(2.0),))
        right = PiecewisePotential((1.0, 2.5), (ConstantSegment(-1.0),))
        both = PiecewisePotential((0.0, 1.0, 2.5),
                                  (ConstantSegment(2.0), ConstantSegment(-1.0)))
        E = 5.0
        combined = transfer_matrix(right, E) @ transfer_matrix(left, E)
        assert np.max(np.abs(combined - transfer_matrix(both, E))) < MATRIX_TOL

    def test_translation_only_shifts_phases(self):
        # |T| of a shifted copy of the structure is unchanged
        E = 2.0
        base = transmission_reflection(barrier(), E)
        moved = transmission_reflection(
            PiecewisePotential((10.0, 11.0), (ConstantSegment(4.0),)), E)
        assert moved.transmission == pytest.approx(base.transmission, abs=1e-12)
        assert moved.reflection == pytest.approx(base.reflection, abs=1e-12)

    @pytest.mark.parametrize("energy", [-0.5, 0.0, math.nan])
    def test_nonpositive_or_nan_energy_refused(self, energy):
        with pytest.raises(ValueError):
            transfer_matrix(barrier(), energy)

    def test_vanishing_free_wave_wronskian(self):
        # E = 1e-30 puts 2 k0 = 2e-15 below WRONSKIAN_TOL
        with pytest.raises(DegenerateMatch):
            transmission_reflection(barrier(), 1e-30)

    def test_ascending_breakpoints_enforced(self):
        with pytest.raises(ValueError):
            PiecewisePotential((0.0, 0.0), (ConstantSegment(1.0),))
        with pytest.raises(ValueError):
            PiecewisePotential((1.0, 0.5), (ConstantSegment(1.0),))

    def test_segment_count_enforced(self):
        with pytest.raises(ValueError):
            PiecewisePotential((0.0, 1.0, 2.0), (ConstantSegment(1.0),))

    def test_evanescent_overflow_guard(self):
        wide = PiecewisePotential((0.0, 100.0), (ConstantSegment(1e8),))
        with pytest.raises(EvanescentOverflow):
            transfer_matrix(wide, 1.0)


class TestSliceKernel:
    def test_series_matches_numpy_trig(self):
        # the real u axis on both sides of 0 and the circle |u| = SERIES_MAX
        axis = np.geomspace(1e-12, SERIES_MAX, 200)
        circle = SERIES_MAX * np.exp(2j * np.pi * np.arange(64) / 64)
        u = np.concatenate([axis, -axis, circle]).astype(complex)
        z = np.sqrt(u)
        cosz, sinc = _series(u)
        assert np.max(np.abs(cosz / np.cos(z) - 1.0)) <= 1e-15
        assert np.max(np.abs(sinc / (np.sin(z) / z) - 1.0)) <= 1e-15

    def test_mixed_block_matches_single_slices(self):
        # thin slices (series) beside |u| >> 1 ones (trig) in one block,
        # E = V among them; no warning of any kind
        width, energy = 0.01, 2.0
        values = np.array([2.0, 1e6, 2.5 + 1j, -1e6, 3.0 - 2e4j, 1.0, 2.0 + 1e5j])
        with np.errstate(all="raise"):
            block = _slice_entries(values, width, energy)
            alone = [_slice_entries([v], width, energy) for v in values]
        u = np.abs((energy - values) * width ** 2)
        assert np.any(u <= SERIES_MAX) and np.any(u > 10.0)
        for i, entries in enumerate(alone):
            assert [e[i] for e in block] == [e[0] for e in entries]

    def test_resonance_slice_is_exact(self):
        # E = V: the linear-solution pair, exactly
        w = 0.37
        m = _constant_propagator(4.0, w, 4.0)
        assert np.array_equal(m, np.array([[1.0, w], [0.0, 1.0]]))


class TestBarrierOracle:
    def test_free_space(self):
        pot = PiecewisePotential((0.0, 1.0), (ConstantSegment(0.0),))
        res = transmission_reflection(pot, 1.0)
        assert abs(res.r) < MATRIX_TOL
        assert abs(res.t - 1.0) < MATRIX_TOL
        assert abs(res.flux_defect) < MATRIX_TOL

    def test_tunneling_value(self):
        res = transmission_reflection(barrier(4.0, 1.0), 1.0)
        assert res.transmission == pytest.approx(T_TUNNEL_V4_A1_E1,
                                                 rel=ORACLE_RTOL)
        assert square_barrier_transmission(4.0, 1.0, 1.0) == pytest.approx(
            T_TUNNEL_V4_A1_E1, rel=1e-12)

    def test_well_value(self):
        res = transmission_reflection(
            PiecewisePotential((0.0, 1.0), (ConstantSegment(-5.0),)), 2.0)
        assert res.transmission == pytest.approx(T_WELL_V5_A1_E2, rel=ORACLE_RTOL)
        assert abs(res.flux_defect) < 1e-10

    def test_resonance_branch(self):
        # E = V0 goes through the sinc limit in both code paths
        res = transmission_reflection(barrier(4.0, 1.0), 4.0)
        assert res.transmission == pytest.approx(T_RESONANCE_V4_A1, abs=1e-12)
        assert square_barrier_transmission(4.0, 1.0, 4.0) == pytest.approx(
            T_RESONANCE_V4_A1, abs=1e-12)

    def test_resonance_is_continuous(self):
        eps = 1e-6
        below = square_barrier_transmission(4.0, 1.0, 4.0 - eps)
        above = square_barrier_transmission(4.0, 1.0, 4.0 + eps)
        assert below == pytest.approx(T_RESONANCE_V4_A1, abs=1e-5)
        assert above == pytest.approx(T_RESONANCE_V4_A1, abs=1e-5)

    def test_transparency_above_barrier(self):
        # sin(sqrt(E - V0) a) = 0 gives T = 1 exactly
        E = 4.0 + math.pi ** 2
        assert square_barrier_transmission(4.0, 1.0, E) == pytest.approx(1.0,
                                                                         abs=1e-12)
        res = transmission_reflection(barrier(4.0, 1.0), E)
        assert res.transmission == pytest.approx(1.0, abs=1e-10)

    def test_deep_tunneling_branch(self):
        # kappa*a = 310 and 299.9: one evaluation on each side of the sinh
        # overflow cutoff, still representable, and T(w) ~ exp(-2 kappa w)
        # so the two must sit on the same exponential
        v0 = 96101.0  # kappa = sqrt(v0 - 1) = 310 exactly
        w_hi, w_lo = 1.0, 299.9 / 310.0
        t_hi = square_barrier_transmission(v0, w_hi, 1.0)
        t_lo = square_barrier_transmission(v0, w_lo, 1.0)
        assert 0.0 < t_hi < 1e-250
        assert t_hi / t_lo == pytest.approx(math.exp(-2.0 * 310.0 * (w_hi - w_lo)),
                                            rel=1e-6)

    @pytest.mark.parametrize("mult", [0.1, 0.5, 2.0, 5.0, 10.0])
    def test_flux_and_oracle_sweep(self, mult):
        v0, width = 4.0, 1.0
        energy = mult * v0
        res = transmission_reflection(barrier(v0, width), energy)
        assert abs(res.flux_defect) < 1e-10
        ref = square_barrier_transmission(v0, width, energy)
        assert res.transmission == pytest.approx(ref, rel=ORACLE_RTOL)

    @pytest.mark.parametrize("energy", [1e-8, 1e-12, 1e-16, 1e-20])
    def test_oracle_near_zero_energy(self, energy):
        # the entries of M grow like 1/k0; t = 1/M22 does not rebuild
        # det M = 1 from them by cancellation
        res = transmission_reflection(barrier(4.0, 1.0), energy)
        ref = square_barrier_transmission(4.0, 1.0, energy)
        assert abs(res.transmission - ref) / ref < ORACLE_TOL
        assert abs(res.flux_defect) < 1e-10

    def test_two_segment_structure_conserves_flux(self):
        pot = PiecewisePotential((0.0, 1.0, 2.0),
                                 (ConstantSegment(3.0), ConstantSegment(-1.0)))
        for E in (0.4, 1.1, 6.0):
            res = transmission_reflection(pot, E)
            assert abs(res.flux_defect) < 1e-10

    def test_oracle_input_validation(self):
        with pytest.raises(ValueError):
            square_barrier_transmission(4.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            square_barrier_transmission(4.0, 1.0, 0.0)


class TestFieldSegments:
    def test_thin_slices_match_exact_constant(self):
        const = transfer_matrix(barrier(2.5, 1.3), 1.0)

        def field(x):
            return np.full_like(np.asarray(x, dtype=float), 2.5, dtype=complex)

        sliced = transfer_matrix(
            PiecewisePotential((0.0, 1.3), (FieldSegment(field, 500),)), 1.0)
        assert np.max(np.abs(const - sliced)) < 1e-10

    @pytest.mark.parametrize("slices", [1, 2, 3, SLICE_BLOCK - 1, SLICE_BLOCK,
                                        SLICE_BLOCK + 1, 2 * SLICE_BLOCK + 1])
    def test_batched_product_matches_sequential_loop(self, slices):
        field = partner_field(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0), Partner.V1)
        got = _field_propagator(FieldSegment(field, slices), 0.0, 2.0, 1.5)
        ref = sequential_propagator(field, 0.0, 2.0, slices, 1.5)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_evanescent_overflow_guard(self):
        # one opaque slice in the last block is enough to refuse the segment
        def field(x):
            return np.where(x > 90.0, 1e12, 0.0)

        pot = PiecewisePotential((0.0, 100.0),
                                 (FieldSegment(field, 2 * SLICE_BLOCK + 1),))
        with pytest.raises(EvanescentOverflow):
            transfer_matrix(pot, 1.0)

    def test_accumulated_overflow_guard(self):
        # at q = 200 no slice reaches |Im z| = 700, but their product would
        # overflow: refused at the first slice count, with no RuntimeWarning
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 200.0)
        width = 2 * math.pi / 2000
        values = partner_field(spec, Partner.V1)(width * (np.arange(2000) + 0.5))
        assert np.max(np.abs((np.sqrt(0.25 - values) * width).imag)) < 1.0
        with pytest.raises(EvanescentOverflow) as err:
            plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [0.25], slices=2000)
        assert err.value.exponent > 700.0

    def test_slice_convergence_second_order(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        field = partner_field(spec, Partner.V1)

        def t_at(n):
            pot = PiecewisePotential((0.0, 2.0), (FieldSegment(field, n),))
            return transmission_reflection(pot, 1.5).transmission

        t_fine = t_at(6400)
        e1 = abs(t_at(200) - t_fine)
        e2 = abs(t_at(400) - t_fine)
        e3 = abs(t_at(800) - t_fine)
        assert 3.0 < e1 / e2 < 5.0
        assert 3.0 < e2 / e3 < 5.5


class TestPlaneFamilySweep:
    def test_zero_coupling_reduces_to_constant_well(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 0.0)
        res = plane_partner_sweep(spec, Partner.V1, (0.0, 1.0), [1.0],
                                  slices=400)[0]
        ref = square_barrier_transmission(-1.0, 1.0, 1.0)
        assert res.transmission == pytest.approx(ref, rel=1e-6)

    def test_complex_window_recorded_and_stable(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        res = plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [1.0],
                                  slices=1000)[0]
        assert res.flux_defect != 0.0
        assert math.isfinite(res.flux_defect)
        again = plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [1.0],
                                    slices=2000)[0]
        assert res.transmission == pytest.approx(again.transmission, abs=2e-6)

    def test_left_right_equal_on_full_period_window(self):
        # V_L(x) = V_R(pi/k - x); a window spanning whole periods makes the
        # two restrictions differ by translation + mirror, so T must agree
        k = 1.0
        left = SuperpotentialSpec(Family.PLANE_LEFT, k, 1.0)
        right = SuperpotentialSpec(Family.PLANE_RIGHT, k, 1.0)
        window = (-math.pi / k, math.pi / k)
        for E in (0.5, 1.7):
            tl = transmission_reflection(sliced(left, window, 40000), E)
            tr = transmission_reflection(sliced(right, window, 40000), E)
            assert abs(tl.transmission - tr.transmission) < 1e-8

    def test_left_right_mirrored_windows_agree_exactly(self):
        # the sharper statement: mirroring the window as well makes the two
        # discretized problems identical slice by slice
        k = 1.0
        left = SuperpotentialSpec(Family.PLANE_LEFT, k, 1.0)
        right = SuperpotentialSpec(Family.PLANE_RIGHT, k, 1.0)
        a, b = 0.3, 2.2
        tl = transmission_reflection(sliced(left, (a, b), 1000), 1.7)
        tr = transmission_reflection(
            sliced(right, (math.pi / k - b, math.pi / k - a), 1000), 1.7)
        assert abs(tl.transmission - tr.transmission) < 1e-12

    def test_conjugate_matrix_relation(self):
        # V_L = conj(V_R) pointwise, so conjugating the ODE swaps the
        # plane-wave basis vectors: M_L = sx conj(M_R) sx
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        right = partner_field(SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0),
                              Partner.V1)
        left = partner_field(SuperpotentialSpec(Family.PLANE_LEFT, 1.0, 1.0),
                             Partner.V1)
        mr = transfer_matrix(
            PiecewisePotential((-1.0, 1.0), (FieldSegment(right, 3000),)), 0.5)
        ml = transfer_matrix(
            PiecewisePotential((-1.0, 1.0), (FieldSegment(left, 3000),)), 0.5)
        assert np.max(np.abs(ml - sx @ np.conj(mr) @ sx)) < 1e-12

    def test_shared_samples_leave_results_unchanged(self):
        # one sweep reuses each slice count's partner sample across energies;
        # energies that double 0 to 3 times must match one-energy sweeps bit for bit
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.5)
        energies = [0.45, 0.6, 1.0, 1.2, 2.0]
        window = (0.0, 2 * math.pi)
        together = plane_partner_sweep(spec, Partner.V1, window, energies)
        alone = [plane_partner_sweep(spec, Partner.V1, window, [E])[0] for E in energies]
        assert together == alone

    def test_requires_plane_family(self):
        spec = SuperpotentialSpec(Family.COTANGENT_WELL, 1.0, 1.0)
        with pytest.raises(ValueError):
            plane_partner_sweep(spec, Partner.V1, (0.0, 1.0), [1.0])

    def test_slice_too_coarse(self):
        spec = SuperpotentialSpec(Family.PLANE_RIGHT, 1.0, 1.0)
        with pytest.raises(SliceTooCoarse):
            plane_partner_sweep(spec, Partner.V1, (0.0, 2 * math.pi), [1.0], slices=1)


class TestSweepSerialization:
    def test_header_and_shape(self):
        res = [transmission_reflection(barrier(), E) for E in (0.4, 2.0)]
        text = sweep_csv(res)
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 3
        assert text.endswith("\n")
        assert "\r" not in text

    def test_byte_determinism(self):
        res = [transmission_reflection(barrier(), E) for E in (0.4, 2.0)]
        assert sweep_csv(res) == sweep_csv(
            [transmission_reflection(barrier(), E) for E in (0.4, 2.0)])

    def test_roundtrip_values(self):
        res = [transmission_reflection(barrier(), 2.0)]
        row = sweep_csv(res).splitlines()[1].split(",")
        assert float(row[0]) == 2.0
        assert float(row[6]) == res[0].transmission
