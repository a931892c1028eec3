import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    GeometryError,
    SwimProblem,
    SurfaceMesh,
    analytic_sphere_resistance,
    analytic_spheroid_resistance,
    calibrate_slip_length,
    convergence_study,
    energy_identity_check,
    make_parametric_surface,
    random_boundary_data,
    reciprocal_check,
    squirmer_oracle,
    surface_integral,
)
from slipswim import validation
from slipswim.cli import main
from slipswim.mobility import ThrustBasis
from slipswim.stokeslets import FlowField, evaluate_strain, place_sources
from slipswim.validation import write_convergence_csv


class TestAnalyticOracles:
    def test_no_slip_limit(self):
        k, r = analytic_sphere_resistance(1.0, 0.0)
        npt.assert_allclose(k, 6.0 * np.pi)
        npt.assert_allclose(r, 8.0 * np.pi)

    def test_unit_slip_length(self):
        k, r = analytic_sphere_resistance(1.0, 1.0)
        npt.assert_allclose(k, 4.5 * np.pi)
        npt.assert_allclose(r, 2.0 * np.pi)

    def test_radius_scaling(self):
        k, r = analytic_sphere_resistance(2.0, 0.0)
        npt.assert_allclose(k, 12.0 * np.pi)
        npt.assert_allclose(r, 64.0 * np.pi)

    def test_perfect_slip_limit(self):
        # b -> infinity: drag falls to 4 pi a, torque to zero
        k, r = analytic_sphere_resistance(1.0, 1e12)
        npt.assert_allclose(k, 4.0 * np.pi, rtol=1e-10)
        assert r < 1e-10

    def test_squirmer_oracle(self):
        npt.assert_allclose(squirmer_oracle(1.0), 2.0 / 3.0)
        npt.assert_allclose(squirmer_oracle(1.5), 1.0)


class TestIdentityChecks:
    def test_reciprocal_translation(self, problem12):
        chk = reciprocal_check(1, 1, problem12.basis, problem12.mesh, 20.0)
        assert chk.passed
        assert chk.name == "reciprocal[1,1]"
        assert chk.tail_bound is not None and chk.tail_bound > 0
        assert chk.relative_error < 2e-2

    def test_energy_balance_with_slip(self, problem12):
        chk = energy_identity_check(
            1, 1, problem12.basis, problem12.mesh, problem12.alpha, 20.0
        )
        assert chk.passed
        # drag work exceeds bulk dissipation; slip absorbs the difference
        assert chk.lhs > 0 and chk.rhs > 0
        assert chk.relative_error < 2e-2

    def test_rotation_pair_has_tiny_tail(self, problem12):
        # rotlet strain decays fast enough that the tail term is negligible
        chk = reciprocal_check(4, 4, problem12.basis, problem12.mesh, 20.0)
        assert chk.passed
        assert chk.tail_bound < 1e-20

    def test_truncation_radius_must_enclose(self, problem12):
        with pytest.raises(GeometryError, match="enclose"):
            reciprocal_check(1, 1, problem12.basis, problem12.mesh, 0.5)

    def test_indices_must_lie_in_range(self, problem12):
        for i, j in ((0, 1), (1, 7)):
            with pytest.raises(ValueError, match="indices"):
                reciprocal_check(i, j, problem12.basis, problem12.mesh, 20.0)
            with pytest.raises(ValueError, match="indices"):
                energy_identity_check(i, j, problem12.basis, problem12.mesh, 2.0, 20.0)

    def test_ray_radius_needs_shape_info(self, problem12, sphere12):
        anonymous = SurfaceMesh(
            sphere12.nodes,
            sphere12.normals,
            sphere12.weights,
            sphere12.tangent1,
            sphere12.tangent2,
            shape_info=None,
        )
        with pytest.raises(GeometryError):
            reciprocal_check(1, 1, problem12.basis, anonymous, 20.0)


@pytest.fixture()
def kernel_passes(monkeypatch):
    """(points, sets of strengths) of every strain-kernel pass of the identity checks."""
    calls, original = [], validation._strain_product

    def counted(points, locations, strengths):
        calls.append((len(points), len(strengths)))
        return original(points, locations, strengths)

    monkeypatch.setattr(validation, "_strain_product", counted)
    return calls


class TestSharedVolumeStrain:
    def test_validate_job_evaluates_each_field_once(self, tmp_path, kernel_passes):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"shape": {"kind": "sphere", "resolution": 16}, "alpha": 2.0, "shrink": 0.5}
            )
        )
        held = len(validation._STRAINS)
        assert main(["validate", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 0
        # reciprocal[1,1], reciprocal[1,2] and energy[1,1] share one pass:
        # 1/16 of the volume points against six fields times 16 rotations
        assert kernel_passes == [(32 * 32 * 48 // 16, 6 * 16)]
        del kernel_passes[:]
        gc.collect()
        assert len(validation._STRAINS) == held

    def test_identity_suite_shares_strains(self, kernel_passes):
        prob = SwimProblem(make_parametric_surface("sphere", 8), 2.0, shrink=0.5)
        basis, mesh = prob.basis, prob.mesh

        def suite():
            return [
                check
                for r_t in (20.0, 40.0)
                for check in (
                    reciprocal_check(1, 1, basis, mesh, r_t),
                    reciprocal_check(4, 4, basis, mesh, r_t),
                    energy_identity_check(1, 1, basis, mesh, prob.alpha, r_t),
                    energy_identity_check(4, 4, basis, mesh, prob.alpha, r_t),
                )
            ]

        first = suite()
        assert len(kernel_passes) == 2  # one pass per radius
        assert suite() == first and len(kernel_passes) == 2

        alive = weakref.ref(basis.aux_fields[0])
        held = len(validation._STRAINS)
        del prob, basis, kernel_passes[:]
        gc.collect()
        assert alive() is None
        assert len(validation._STRAINS) == held - 6


def _full_pairings(fa, fb, mesh, r_t):
    """2 int D : D' plus the tail for (a, a), (a, b) and (b, b), from
    evaluate_strain at every volume point."""
    pts, wvol = validation._volume_rule(mesh, r_t)
    strain = {f: evaluate_strain(f, pts) for f in (fa, fb)}

    def pairing(f, h):
        tail = float(f.total_strength @ h.total_strength) / (4.0 * np.pi * r_t)
        return 2.0 * float(np.sum(wvol * np.einsum("mab,mab->m", strain[f], strain[h]))) + tail

    return [pairing(fa, fa), pairing(fa, fb), pairing(fb, fb)]


class TestOrbitStrain:
    """The orbit pass against a full evaluate_strain pairing over 32 x 32 x 48 points."""

    @pytest.mark.parametrize(
        "kind, resolution, axes, stride, g",
        [
            ("sphere", 16, {}, 1, 16),
            ("sphere", 20, {}, 1, 4),
            ("sphere", 9, {}, 1, 1),  # odd P
            ("spheroid", 12, {"a_axis": 1.0, "c_axis": 1.3}, 1, 4),
            ("sphere", 16, {}, 2, 1),  # strided sources: one ring
        ],
        ids=["sphere16", "sphere20", "sphere9", "spheroid12", "sphere16-stride2"],
    )
    def test_matches_full_pairing(self, kind, resolution, axes, stride, g, rng, kernel_passes):
        mesh = make_parametric_surface(kind, resolution, **axes)
        # stride thins the sources of a mesh without rings only
        sources = place_sources(mesh if stride == 1 else dataclasses.replace(mesh), 0.5, stride)
        assert math.gcd(32, sources.rings) == g
        fields = [FlowField(sources, rng.normal(size=(sources.count, 3))) for _ in range(5)]
        # a flux source off the axis: its strain is not rotation-invariant
        fields.append(
            FlowField(
                sources, rng.normal(size=(sources.count, 3)),
                source_flux=0.7, source_point=np.array([0.1, -0.05, 0.2]),
            )
        )
        basis = ThrustBasis(None, tuple(fields), None, None)
        got = [validation._volume_term(i, j, basis, mesh, 20.0)[0] for i, j in ((1, 1), (1, 6), (6, 6))]
        npt.assert_allclose(got, _full_pairings(fields[0], fields[5], mesh, 20.0), rtol=1e-12)
        assert kernel_passes == [(32 * 32 * 48 // g, 6 * g)]

    def test_fields_must_share_sources(self, sphere8, rng):
        a, b = (place_sources(sphere8, shrink) for shrink in (0.5, 0.6))
        fields = [FlowField(s, rng.normal(size=(s.count, 3))) for s in (a, b, a, a, a, a)]
        basis = ThrustBasis(None, tuple(fields), None, None)
        with pytest.raises(ValueError, match="one source set"):
            reciprocal_check(1, 1, basis, sphere8, 20.0)


class TestSpheroidOracle:
    """Chwang & Wu's prolate-spheroid resistances, and the solver against them at alpha 1e6."""

    def test_limits_and_scaling(self):
        for c_axis in (1.0, 1.0 + 1e-9):
            npt.assert_allclose(analytic_spheroid_resistance(1.0, c_axis), 6.0 * np.pi, rtol=1e-8)
        # the series below e = 1/2 and the closed form above it meet
        c_half = 1.0 / math.sqrt(0.75)
        below, above = (
            analytic_spheroid_resistance(1.0, c_half * f) for f in (1 - 1e-13, 1 + 1e-13)
        )
        npt.assert_allclose(below, above, rtol=1e-11)
        npt.assert_allclose(
            analytic_spheroid_resistance(2.0, 3.2),
            2.0 * np.array(analytic_spheroid_resistance(1.0, 1.6)),
            rtol=1e-14,
        )
        # broadside drag exceeds axial drag, and both exceed the inscribed sphere's
        k_xx, k_zz = analytic_spheroid_resistance(1.0, 3.0)
        assert k_xx > k_zz > 6.0 * np.pi
        with pytest.raises(ValueError):
            analytic_spheroid_resistance(1.0, 0.5)

    @pytest.mark.parametrize(
        "c_axis, res, shrink, tol",
        [(1.6, 28, 0.6, 1e-4), (2.0, 28, 0.6, 1e-4), (3.0, 36, 0.6, 1e-4), (1.6, 28, 0.7, 1e-3)],
    )
    def test_no_slip_limit(self, c_axis, res, shrink, tol):
        # the last config gave K_zz 12x too large with exit 0 when every node carried a source
        mesh = make_parametric_surface("spheroid", res, a_axis=1.0, c_axis=c_axis)
        k = np.diag(SwimProblem(mesh, 1e6, shrink=shrink).grand_matrix.K)
        k_xx, k_zz = analytic_spheroid_resistance(1.0, c_axis)
        assert np.max(np.abs(k / np.array([k_xx, k_xx, k_zz]) - 1.0)) < tol

    @pytest.mark.parametrize(
        "c_axis, res, alpha", [(2.0, 28, 2.0), (2.0, 28, 1e6), (3.0, 36, 1e6), (1.6, 28, 2.0)]
    )
    def test_elongated_bodies_are_positive_definite(self, c_axis, res, alpha):
        # each was indefinite at the default shrink when every node carried a source
        mesh = make_parametric_surface("spheroid", res, a_axis=1.0, c_axis=c_axis)
        assert SwimProblem(mesh, alpha).grand_matrix.min_eigenvalue > 0.0


class TestConvergence:
    def test_sphere_errors_shrink(self, tmp_path):
        study = convergence_study("sphere", 1.0, (8, 10, 12), shrink=0.5)
        assert [row.n_nodes for row in study.rows] == [64, 100, 144]
        errs = [row.k_error for row in study.rows]
        assert errs[-1] < errs[0]
        # the estimate bounds the largest diagonal error, k_error is that of the mean
        estimates = [row.k_error_estimate for row in study.rows]
        assert estimates[0] > estimates[1] > estimates[2] > errs[2]
        k_exact, _ = analytic_sphere_resistance(1.0, 1.0)
        npt.assert_allclose(study.rows[-1].k_value, k_exact, rtol=5e-2)
        path = tmp_path / "study.csv"
        write_convergence_csv(study, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "N,value,error,defect,residual,estimate"
        assert len(lines) == 1 + len(study.rows)

    def test_spheroid_uses_extrapolated_truth(self):
        study = convergence_study(
            "spheroid", 2.0, (8, 10, 12), a_axis=1.0, c_axis=1.3, shrink=0.5
        )
        for row in study.rows:
            assert np.isfinite(row.k_value) and np.isfinite(row.k_error)

    def test_non_monotone_decay_warns(self):
        with pytest.warns(UserWarning, match="did not decrease") as caught:
            convergence_study("sphere", 2.0, (12, 10, 8), shrink=0.5)
        assert len(caught) == 2

    def test_too_few_resolutions(self):
        with pytest.raises(ValueError):
            convergence_study("sphere", 1.0, (8, 10))


class TestCalibration:
    def test_recovers_inverse_alpha(self):
        checks = calibrate_slip_length(
            alphas=(0.5, 1.0, 2.0), resolution=16, shrink=0.5
        )
        assert len(checks) == 3
        assert all(c.passed for c in checks)
        assert all("alpha" in c.name for c in checks)


class TestRandomBoundaryData:
    def test_reproducible_from_seed(self, sphere12):
        a = random_boundary_data(sphere12, np.random.default_rng(5))
        b = random_boundary_data(sphere12, np.random.default_rng(5))
        npt.assert_allclose(a.normal_data, b.normal_data)
        npt.assert_allclose(a.tangential_data, b.tangential_data)

    def test_flux_injection(self, sphere12, rng):
        data = random_boundary_data(sphere12, rng, flux=1.7)
        base = random_boundary_data(sphere12, np.random.default_rng(11), flux=0.0)
        npt.assert_allclose(
            surface_integral(sphere12, data.normal_data)
            - surface_integral(sphere12, base.normal_data),
            0.0,
            atol=10.0,
        )
        # the flux term itself is exact: subtracting it recovers zero shift
        shifted = random_boundary_data(sphere12, np.random.default_rng(11), flux=1.7)
        npt.assert_allclose(
            surface_integral(sphere12, shifted.normal_data - base.normal_data),
            1.7,
            rtol=1e-12,
        )

    def test_smooth_not_white_noise(self, sphere12, rng):
        # singular sources sit well inside the body, so neighboring nodes
        # see correlated values, unlike independent per-node noise
        data = random_boundary_data(sphere12, rng, rigid_amplitude=0.0)
        grid = data.normal_data.reshape(12, 12)
        jumps = np.abs(np.diff(grid, axis=1)).mean()
        scale = np.abs(grid).mean()
        assert jumps < scale
