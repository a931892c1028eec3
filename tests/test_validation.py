import gc
import json
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    GeometryError,
    SwimProblem,
    SurfaceMesh,
    analytic_sphere_resistance,
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
        with pytest.raises(ValueError):
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


class TestSharedVolumeStrain:
    @pytest.fixture()
    def strain_calls(self, monkeypatch):
        calls, original = [], validation.evaluate_strain

        def counted(field, points):
            calls.append(field)
            return original(field, points)

        monkeypatch.setattr(validation, "evaluate_strain", counted)
        return calls

    def test_validate_job_evaluates_each_field_once(self, tmp_path, strain_calls):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {"shape": {"kind": "sphere", "resolution": 16}, "alpha": 2.0, "shrink": 0.5}
            )
        )
        held = len(validation._STRAINS)
        assert main(["validate", "--config", str(cfg), "--output", str(tmp_path / "o")]) == 0
        # reciprocal[1,1], reciprocal[1,2] and energy[1,1] need fields 1 and 2
        assert len(strain_calls) == 2
        del strain_calls[:]
        gc.collect()
        assert len(validation._STRAINS) == held

    def test_identity_suite_shares_strains(self, strain_calls):
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
        assert len(strain_calls) == 4  # fields 1 and 4 at two radii
        assert suite() == first and len(strain_calls) == 4

        alive = weakref.ref(basis.aux_fields[0])
        held = len(validation._STRAINS)
        del prob, basis, strain_calls[:]
        gc.collect()
        assert alive() is None
        assert len(validation._STRAINS) == held - 2


class TestConvergence:
    def test_sphere_errors_shrink(self, tmp_path):
        study = convergence_study("sphere", 1.0, (8, 10, 12), shrink=0.5)
        assert [row.n_nodes for row in study.rows] == [64, 100, 144]
        errs = [row.k_error for row in study.rows]
        assert errs[-1] < errs[0]
        k_exact, _ = analytic_sphere_resistance(1.0, 1.0)
        npt.assert_allclose(study.rows[-1].k_value, k_exact, rtol=5e-2)
        path = tmp_path / "study.csv"
        write_convergence_csv(study, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("N,")
        assert len(lines) == 1 + len(study.rows)

    def test_spheroid_uses_extrapolated_truth(self):
        study = convergence_study(
            "spheroid", 2.0, (8, 10, 12), a_axis=1.0, c_axis=1.3, shrink=0.5
        )
        for row in study.rows:
            assert np.isfinite(row.k_value) and np.isfinite(row.k_error)

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
