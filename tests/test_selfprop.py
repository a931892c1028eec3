import copy
import dataclasses
import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    AccuracyWarning,
    GrandMatrix,
    SwimProblem,
    analytic_sphere_resistance,
    evaluate_flow,
    flux_and_carrier,
    h_half_norm,
    load_triangle_mesh,
    make_parametric_surface,
    ns_certificate,
    random_boundary_data,
    rigid_trace_data,
    squirmer_data,
    squirmer_oracle,
    surface_integral,
    uniform_flux_data,
)
from slipswim import collocation, geometry, selfprop
from slipswim.collocation import BoundaryData, data_vector
from slipswim.geometry import tangential_part
from slipswim.mobility import thrust_projection
from test_geometry import _icosphere, _write_off
from test_stokeslets import _ONE_BLOCK, _blocked


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

    def test_scaling_law_at_the_extremes(self, sphere12, rng):
        # the weights scale as r^2 and the kernel w_j w_k / d^3 as r, so on the
        # sphere of radius r the square of the norm is A r^2 + B r
        values = rng.normal(size=(sphere12.n_nodes, 3))
        a = float(np.sum(sphere12.weights * np.sum(values**2, axis=1)))
        b = h_half_norm(values, sphere12) ** 2 - a
        for k in (-300, -100, -10, 10, 100, 300):
            r = 2.0**k
            got = h_half_norm(values, make_parametric_surface("sphere", 12, radius=r))
            npt.assert_allclose(got, np.sqrt(a * r**2 + b * r), rtol=1e-14)

    def test_chunk_size_invariance(self, rng):
        # one ring of 400 rows, in blocks and in one block; and the plain double sum
        mesh = dataclasses.replace(make_parametric_surface("sphere", 20), shape_info=None)
        values = rng.normal(size=(mesh.n_nodes, 3))
        diff = np.sum((values[:, None] - values[None]) ** 2, axis=2)
        dist = np.linalg.norm(mesh.nodes[:, None] - mesh.nodes[None], axis=2)
        np.fill_diagonal(dist, np.inf)
        w = mesh.weights
        want = np.sum(w * np.sum(values**2, axis=1)) + np.sum(np.outer(w, w) * diff / dist**3)
        assert mesh.rings == 1
        got, blocks = _blocked(2**16, h_half_norm, values, mesh)
        one, count = _blocked(_ONE_BLOCK, h_half_norm, values, mesh)
        assert blocks >= 3 and count == 1
        npt.assert_allclose(got, one, rtol=1e-12)
        npt.assert_allclose(got, np.sqrt(want), rtol=1e-12)

    @pytest.mark.parametrize("kind", ["random", "squirmer", "random+flux", "uniform-flux"])
    @pytest.mark.parametrize(
        "body, rings",
        [("sphere12", 12), ("sphere24", 24), ("spheroid16", 16), ("sphere24-one-ring", 1), ("icosphere", 1)],
    )
    def test_matches_double_sum(self, tmp_path, rng, body, rings, kind):
        mesh = _sobolev_mesh(body, tmp_path)
        assert mesh.rings == rings
        data = {
            "random": lambda: random_boundary_data(mesh, rng),
            "squirmer": lambda: squirmer_data(mesh),
            "random+flux": lambda: random_boundary_data(mesh, rng, flux=0.7),
            "uniform-flux": lambda: uniform_flux_data(mesh, 2.0),
        }[kind]()
        beta_star = flux_and_carrier(data, mesh)[2]
        want = _gagliardo_double_sum(beta_star, mesh)
        # squirmer and uniform-flux beta_star vanish on a sphere up to rounding
        scale = np.sqrt(np.sum(mesh.weights * np.sum(beta_star**2, axis=1)))
        npt.assert_allclose(h_half_norm(beta_star, mesh), want, rtol=1e-12, atol=1e-12 * scale)

    def test_ring_blocks_bound_memory(self, rng):
        # the N x N double sum in 256-row chunks peaked at 125 MiB here
        mesh = make_parametric_surface("sphere", 80)
        values = rng.normal(size=(mesh.n_nodes, 3))
        tracemalloc.start()
        try:
            h_half_norm(values, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_one_ring_norm_memory(self, rng):
        # the N x N double sum in 256-row blocks had a traced peak of 31 MiB
        mesh = dataclasses.replace(make_parametric_surface("sphere", 40), shape_info=None)
        values = rng.normal(size=(mesh.n_nodes, 3))
        tracemalloc.start()
        try:
            h_half_norm(values, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mesh.rings == 1
        assert peak < 10 * 2**20


class TestScaleFree:
    """Stokes flow has one length, the body's: every number scales with a known power of it."""

    @staticmethod
    def _diagnostics(k):
        r = 2.0**k
        mesh = make_parametric_surface("sphere", 12, radius=r)
        prob = SwimProblem(mesh, 2.0 / r, shrink=0.5)
        sol = prob.solve(squirmer_data(mesh))
        return {
            "K": prob.grand_matrix.K / r,
            "R": prob.grand_matrix.R / r**3,
            "aux": [dataclasses.astuple(report) for report in prob.aux_reports],
            "worst": prob.worst_residual(),
            "lifting": dataclasses.astuple(sol.lifting_report),
            "force, torque": (sol.force_residual, sol.torque_residual),
        }

    def test_diagnostics_are_bit_identical_across_power_of_two_radii(self):
        # scaling by a power of two is exact, and the residuals are relative to
        # the data they fit, so they are the unit sphere's to the last bit
        unit = self._diagnostics(0)
        for k in (-300, -200, -60, 60, 200, 300):
            got = self._diagnostics(k)
            for name in unit:
                assert np.array_equal(got[name], unit[name]), (k, name)

    @pytest.mark.parametrize(
        "r",
        [2.0**-300, 2.0**-60, 1.0, 2.0**60, 2.0**300, 1e100, 1e-100],
        ids=["2^-300", "2^-60", "1", "2^60", "2^300", "1e100", "1e-100"],
    )
    def test_swim_and_sums_at_any_size(self, r):
        # the 6x6 solves are equilibrated by a power of two of the order of r, and
        # the surface sums run on the data over a power of two, so neither the
        # unequal scales of K, S and R nor the r^4 of sum w v.v for rotation data
        # reach the answer: the unit sphere's xi, and rotation data, whose exact
        # answer is xi = 0, omega = -e_x and no translation traction in its
        # projection, gives xi and those coefficients at rounding relative to r
        def swim(r):
            mesh = make_parametric_surface("sphere", 12, radius=r)
            prob = SwimProblem(mesh, 2.0 / r, shrink=0.5)
            with warnings.catch_warnings():
                warnings.simplefilter("error", AccuracyWarning)
                data = squirmer_data(mesh)
                xi = np.concatenate((prob.swim(data)[0], prob.solve(data).xi))
                data = rigid_trace_data(mesh, 4)
                rotation = np.concatenate((*prob.swim(data), prob.solve(data).coefficients))
            coeff, residual, _ = thrust_projection(data, prob.basis, mesh)
            return xi, rotation, coeff, residual, prob.certificate(1.0, data).beta_star_half_norm

        xi, rotation, coeff, residual, half_norm = swim(r)
        if np.frexp(r)[0] == 0.5:
            assert np.array_equal(xi, swim(1.0)[0])
        else:
            npt.assert_allclose(xi, swim(1.0)[0], rtol=0, atol=1e-14)
        for x in rotation.reshape(-1, 6):
            assert np.max(np.abs(x[:3])) <= 1e-15 * r
            npt.assert_allclose(x[3:], [-1.0, 0.0, 0.0], rtol=0, atol=1e-12)
        assert np.max(np.abs(coeff[:3])) <= 1e-15 * r**2
        for value in (residual, half_norm):
            assert np.isfinite(value) and value > 0.0


def _memo_arrays(mesh):
    """Every array held for ``mesh`` in the per-mesh memo."""

    def walk(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for v in value:
                yield from walk(v)

    return [a for _, value in geometry._MEMO.get(mesh, {}).values() for a in walk(value)]


class TestPerMeshMemo:
    @staticmethod
    def _use(mesh, rng):
        """Certificate, lifting and H^{1/2} norm of flux data on a fresh body over ``mesh``."""
        prob = SwimProblem(mesh, 2.0, shrink=0.5)
        data = random_boundary_data(mesh, rng, flux=0.7)
        return prob.certificate(0.1, data), prob.solve(data)

    def test_built_once_per_body(self, monkeypatch, rng):
        builds = []
        for module, name in (
            (selfprop, "_ring_kernel"),
            (collocation, "_build_carrier"),
            (collocation, "point_source_traction"),
        ):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name):
                builds.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        prob = SwimProblem(make_parametric_surface("sphere", 10), 2.0, shrink=0.5)
        sets = [random_boundary_data(prob.mesh, rng, flux=0.7), uniform_flux_data(prob.mesh, -0.3)]
        first = [prob.certificate(0.1, data) for data in sets]
        for k in range(20):
            assert prob.certificate(0.1, sets[k % 2]) == first[k % 2]
            prob.solve(sets[k % 2])
        assert sorted(builds) == ["_build_carrier", "_ring_kernel", "point_source_traction"]

    def test_collected_mesh_leaves_no_entry(self, rng):
        mesh = make_parametric_surface("sphere", 10)
        self._use(mesh, rng)
        assert mesh in geometry._MEMO
        gc.collect()
        alive, held = weakref.ref(mesh), len(geometry._MEMO)
        del mesh
        gc.collect()
        assert alive() is None
        assert len(geometry._MEMO) == held - 1

    def test_memoized_arrays_reject_writes(self, rng):
        mesh = make_parametric_surface("sphere", 10)
        self._use(mesh, rng)
        arrays = _memo_arrays(mesh)
        # rigid modes, carrier, sink traction, row sums and DFT blocks of the norm
        assert len(arrays) == 5
        assert not any(a.flags.writeable for a in arrays)
        sigma_hat = flux_and_carrier(uniform_flux_data(mesh, 1.0), mesh)[1]
        with pytest.raises(ValueError):
            sigma_hat[0, 0] = 0.0

    def test_ring_blocks_are_the_only_kernel_held(self, tmp_path, rng):
        # a ring mesh holds the (P//2+1) T x T blocks, a one-ring mesh no N x N kernel
        for body, largest in (("sphere12", 7 * 12 * 12), ("icosphere", 3 * 1280)):
            mesh = _sobolev_mesh(body, tmp_path)
            h_half_norm(rng.normal(size=(mesh.n_nodes, 3)), mesh)
            flux_and_carrier(uniform_flux_data(mesh, 1.0), mesh)
            assert max(a.size for a in _memo_arrays(mesh)) == largest


def _sobolev_mesh(body, tmp_path):
    if body == "icosphere":
        verts, faces = _icosphere(3)
        _write_off(tmp_path / "ico.off", verts, faces)
        return load_triangle_mesh(tmp_path / "ico.off")
    if body == "spheroid16":
        return make_parametric_surface("spheroid", 16, a_axis=1.0, c_axis=1.6)
    if body == "sphere24-one-ring":
        return dataclasses.replace(make_parametric_surface("sphere", 24), shape_info=None)
    return make_parametric_surface("sphere", {"sphere12": 12, "sphere24": 24}[body])


def _gagliardo_double_sum(values, mesh):
    """The O(N^2) double sum of :func:`h_half_norm`, one row at a time."""
    w, x = mesh.weights, mesh.nodes
    total = np.sum(w * np.sum(values**2, axis=1))
    for j in range(mesh.n_nodes):
        others = np.arange(mesh.n_nodes) != j
        diff = np.sum((values[j] - values[others]) ** 2, axis=1)
        dist = np.linalg.norm(x[j] - x[others], axis=1)
        total += w[j] * np.sum(w[others] * diff / dist**3)
    return np.sqrt(total)


class TestSolutionRecord:
    def test_fields_are_consistent(self, problem24_deep):
        # a source grid that resolves the stroke fits it to rounding
        sol = problem24_deep.solve(squirmer_data(problem24_deep.mesh))
        npt.assert_allclose(sol.coefficients[:3], sol.xi)
        npt.assert_allclose(sol.coefficients[3:], sol.omega)
        assert sol.lifting_report is not None
        assert sol.lifting_report.residual_normal < 1e-8

    def test_inaccurate_solve_warns(self, problem12):
        # a grand matrix 1% off leaves the composite field a net force and torque
        prob = copy.copy(problem12)
        prob.grand_matrix = GrandMatrix.from_matrix(1.01 * problem12.grand_matrix.M)
        with pytest.warns(AccuracyWarning, match="self-propulsion residuals"):
            prob.solve(squirmer_data(prob.mesh))


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


# diag K of the c = 1.6 spheroid at alpha 2: res 40 and res 48 at shrink 0.5 agree to 1e-9
_C16_K = np.array([19.4135782, 19.4135782, 16.3388475])


class TestKErrorEstimate:
    @pytest.mark.parametrize("shrink", [0.5, 0.7, 0.85, 0.9])
    def test_tracks_the_error_of_k(self, shrink):
        # ever shallower sources: K is 3.3e-5, 5.2e-4, 13% and 42% off
        mesh = make_parametric_surface("spheroid", 20, a_axis=1.0, c_axis=1.6)
        prob = SwimProblem(mesh, 2.0, shrink=shrink)
        error = np.max(np.abs(np.diag(prob.grand_matrix.K) / _C16_K - 1.0))
        assert 0.5 * error < prob.k_error_estimate < 2.0 * error

    def test_tracks_the_error_on_a_sphere(self, problem12):
        k_exact, _ = analytic_sphere_resistance(1.0, 1.0 / problem12.alpha)
        error = np.max(np.abs(np.diag(problem12.grand_matrix.K) / k_exact - 1.0))
        assert 0.5 * error < problem12.k_error_estimate < 2.0 * error

    def test_none_without_a_source_grid(self, problem20_strided):
        # a triangle mesh, and a sphere whose mesh copy lost its shape, have no finer rule
        assert problem20_strided.k_error_estimate is None
        mesh = dataclasses.replace(make_parametric_surface("sphere", 10), shape_info=None)
        assert SwimProblem(mesh, 2.0, shrink=0.5).k_error_estimate is None

