import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    SwimProblem,
    evaluate_flow,
    flux_and_carrier,
    h_half_norm,
    make_parametric_surface,
    ns_certificate,
    rigid_trace_data,
    squirmer_data,
    squirmer_oracle,
    surface_integral,
    uniform_flux_data,
)
from slipswim.collocation import BoundaryData, data_vector
from slipswim.geometry import tangential_part


class TestRestState:
    def test_coefficients_cancel_rigid_mode(self, problem12):
        for k in (1, 2, 4, 6):
            sol = problem12.solve(rigid_trace_data(problem12.mesh, k))
            npt.assert_allclose(sol.coefficients, -np.eye(6)[k - 1], atol=1e-12)
            # lifting and auxiliary strengths cancel node by node
            assert np.max(np.abs(sol.field.strengths)) < 1e-12

    def test_exterior_velocity_vanishes(self, problem12, rng):
        sol = problem12.solve(rigid_trace_data(problem12.mesh, 3))
        pts = rng.normal(size=(8, 3))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * 2.5
        vel, _ = evaluate_flow(sol.field, pts)
        assert np.max(np.abs(vel)) < 1e-12


class TestSquirmer:
    def test_swims_at_two_thirds(self, problem16_noslip):
        sol = problem16_noslip.solve(squirmer_data(problem16_noslip.mesh, b1=1.0))
        npt.assert_allclose(sol.xi[2], squirmer_oracle(1.0), rtol=5e-3)
        assert np.max(np.abs(sol.xi[:2])) < 1e-8
        assert np.max(np.abs(sol.omega)) < 1e-10
        assert sol.force_residual < 1e-8
        assert sol.torque_residual < 1e-8

    def test_b1_scaling_is_linear(self, problem12):
        one = problem12.solve(squirmer_data(problem12.mesh, b1=1.0))
        three = problem12.solve(squirmer_data(problem12.mesh, b1=3.0))
        npt.assert_allclose(three.coefficients, 3.0 * one.coefficients, atol=1e-12)


class TestFluxData:
    def test_carrier_splitting(self, sphere12):
        phi, sigma_hat, beta_star = flux_and_carrier(
            uniform_flux_data(sphere12, 2.5), sphere12
        )
        npt.assert_allclose(phi, 2.5, rtol=1e-13)
        carried = surface_integral(
            sphere12, np.sum(sigma_hat * sphere12.normals, axis=1)
        )
        npt.assert_allclose(carried, 1.0, rtol=1e-12)
        residual_flux = surface_integral(
            sphere12, np.sum(beta_star * sphere12.normals, axis=1)
        )
        assert abs(residual_flux) < 1e-12

    def test_swim_with_net_flux(self, problem12):
        data = uniform_flux_data(problem12.mesh, 1.5)
        sol = problem12.solve(data)
        assert sol.field.source_point is not None
        npt.assert_allclose(sol.field.source_flux, 1.5, rtol=1e-6)
        assert sol.force_residual < 1e-8
        # purely radial pumping off a sphere produces no net motion
        assert np.max(np.abs(sol.coefficients)) < 1e-8


class TestOneShotSolver:
    def test_matches_problem_solve(self, problem12):
        data = squirmer_data(problem12.mesh)
        mesh = make_parametric_surface("sphere", 12)
        sol = SwimProblem(mesh, 2.0, shrink=0.5).solve(data)
        ref = problem12.solve(data)
        npt.assert_allclose(sol.coefficients, ref.coefficients, atol=1e-12)


class TestCertificate:
    def test_zero_reynolds_always_passes(self, problem12):
        cert = problem12.certificate(
            0.0, squirmer_data(problem12.mesh), thresholds=(1e-30, 1e-30)
        )
        assert cert.passes
        assert cert.re == 0.0

    def test_brackets_are_half_and_three_halves(self, problem12):
        data = squirmer_data(problem12.mesh)
        cert = problem12.certificate(0.2, data)
        xi, omega = problem12.swim(data)
        npt.assert_allclose(
            cert.xi_bracket, (0.5 * np.linalg.norm(xi), 1.5 * np.linalg.norm(xi)),
            rtol=1e-14,
        )
        npt.assert_allclose(
            cert.omega_bracket,
            (0.5 * np.linalg.norm(omega), 1.5 * np.linalg.norm(omega)),
            rtol=1e-14,
        )

    def test_large_reynolds_with_flux_fails(self, problem12):
        data = uniform_flux_data(problem12.mesh, 2.0)
        cert = problem12.certificate(50.0, data, thresholds=(1e-6, 1e-6))
        assert not cert.passes
        assert cert.re_phi > cert.c1_user

    def test_negative_reynolds_rejected(self, problem12):
        with pytest.raises(ValueError):
            problem12.certificate(-0.1, squirmer_data(problem12.mesh))

    def test_standalone_entry_point(self, problem12):
        data = squirmer_data(problem12.mesh)
        cert = ns_certificate(
            0.1,
            data,
            problem12.mesh,
            problem12.grand_matrix,
            problem12.wrench(data),
        )
        assert cert.passes
        assert "conditional" in cert.note or "threshold" in cert.note


class TestSobolevSeminorm:
    def test_constant_field_reduces_to_l2(self, sphere12):
        values = np.tile([0.0, 0.0, 2.0], (sphere12.n_nodes, 1))
        got = h_half_norm(values, sphere12)
        npt.assert_allclose(got, 2.0 * np.sqrt(sphere12.area), rtol=1e-12)

    def test_homogeneous_scaling(self, sphere12, rng):
        values = rng.normal(size=(sphere12.n_nodes, 3))
        npt.assert_allclose(
            h_half_norm(3.0 * values, sphere12),
            3.0 * h_half_norm(values, sphere12),
            rtol=1e-12,
        )

    def test_chunk_size_invariance(self, rng):
        # 400 nodes span two row chunks; compare with the unchunked double sum
        mesh = make_parametric_surface("sphere", 20)
        values = rng.normal(size=(mesh.n_nodes, 3))
        diff = np.sum((values[:, None] - values[None]) ** 2, axis=2)
        dist = np.linalg.norm(mesh.nodes[:, None] - mesh.nodes[None], axis=2)
        np.fill_diagonal(dist, np.inf)
        w = mesh.weights
        want = np.sum(w * np.sum(values**2, axis=1)) + np.sum(np.outer(w, w) * diff / dist**3)
        npt.assert_allclose(h_half_norm(values, mesh), np.sqrt(want), rtol=1e-12)


class TestSolutionRecord:
    def test_fields_are_consistent(self, problem12):
        sol = problem12.solve(squirmer_data(problem12.mesh))
        npt.assert_allclose(sol.coefficients[:3], sol.xi)
        npt.assert_allclose(sol.coefficients[3:], sol.omega)
        assert sol.lifting_report is not None
        assert sol.lifting_report.residual_normal < 1e-8


class TestStridedBody:
    def test_swim_and_certificate_solve_with_m(self, problem20_strided):
        # M is symmetric only to ~1e-5 here; the solve must still reproduce W
        prob = problem20_strided
        data = squirmer_data(prob.mesh)
        w = prob.wrench(data)
        xi, omega = prob.swim(data)
        defect = prob.grand_matrix.M @ np.concatenate([xi, omega]) - w
        assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(w)
        cert = prob.certificate(0.0, data)
        npt.assert_allclose(cert.xi_bracket[1], 1.5 * np.linalg.norm(xi), rtol=1e-12)
