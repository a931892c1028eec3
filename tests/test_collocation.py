import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    BoundaryData,
    SwimProblem,
    SlipSolver,
    evaluate_flow,
    place_sources,
    rigid_trace_data,
    solve_lifting,
    squirmer_data,
    surface_integral,
    tangential_part,
    uniform_flux_data,
)
from slipswim.collocation import (
    _ring_count,
    boundary_data_from_field,
    data_vector,
    normalized_carrier,
)
from slipswim.geometry import elementary_rigid_motion, make_parametric_surface


class TestBoundaryData:
    def test_rigid_trace_round_trip(self, sphere12):
        for i in (1, 4):
            data = rigid_trace_data(sphere12, i)
            npt.assert_allclose(
                data_vector(data, sphere12),
                elementary_rigid_motion(i, sphere12.nodes),
                atol=1e-14,
            )

    def test_field_splitting_round_trip(self, sphere12, rng):
        values = rng.normal(size=(sphere12.n_nodes, 3))
        data = boundary_data_from_field(sphere12, values)
        npt.assert_allclose(data_vector(data, sphere12), values, atol=1e-13)
        npt.assert_allclose(
            np.sum(data.tangential_data * sphere12.normals, axis=1), 0.0, atol=1e-13
        )

    def test_tangential_must_be_tangential(self, problem12):
        # the orthogonality check runs where normals are available
        mesh = problem12.mesh
        for flux in (0.0, 2.0):
            bad = BoundaryData(uniform_flux_data(mesh, flux).normal_data, mesh.normals.copy())
            with pytest.raises(ValueError, match="orthogonal"):
                problem12.solver.solve_data(bad)
            with pytest.raises(ValueError, match="orthogonal"):
                solve_lifting(bad, problem12.solver)

    def test_non_finite_rejected(self, sphere8):
        tang = np.zeros((sphere8.n_nodes, 3))
        for bad in (np.nan, np.inf):
            normal = np.zeros(sphere8.n_nodes)
            normal[3] = bad
            with pytest.raises(ValueError):
                BoundaryData(normal, tang)

    def test_squirmer_data_shape(self, sphere12):
        data = squirmer_data(sphere12, b1=2.0)
        npt.assert_allclose(data.normal_data, 0.0, atol=1e-14)
        # |v| = B1 sin(theta) peaks at the equator and vanishes at the poles
        speed = np.linalg.norm(data.tangential_data, axis=1)
        z = sphere12.nodes[:, 2]
        npt.assert_allclose(speed, 2.0 * np.sqrt(1.0 - z**2), atol=1e-12)

    def test_uniform_flux_data(self, sphere12):
        data = uniform_flux_data(sphere12, 3.0)
        npt.assert_allclose(surface_integral(sphere12, data.normal_data), 3.0)
        npt.assert_allclose(data.tangential_data, 0.0)


class TestAssembly:
    def test_bad_svd_tol(self, sphere8):
        srcs = place_sources(sphere8, 0.5)
        with pytest.raises(ValueError):
            SlipSolver(sphere8, srcs, 1.0, svd_tol=2.0)

    def test_failed_svd_is_solver_error(self, sphere8):
        from slipswim import SolverError, SourceSet

        # NaN entries make LAPACK give up; that surfaces as a solver failure
        srcs = SourceSet(np.full((4, 3), np.nan), 0.5)
        with pytest.raises(SolverError):
            SlipSolver(sphere8, srcs, 1.0)


class TestSlipSolver:
    def test_no_slip_translation(self, problem16_noslip):
        # near no-slip, the field with translation data carries 6 pi drag
        mesh = problem16_noslip.mesh
        field = problem16_noslip.aux_fields[0]
        solver = problem16_noslip.solver
        vel = evaluate_flow(field, mesh.nodes)[0]
        # alpha = 1e6 leaves a physical slip of order |traction| / alpha
        npt.assert_allclose(vel, np.tile([1.0, 0, 0], (mesh.n_nodes, 1)), atol=1e-4)
        force = surface_integral(mesh, solver.node_traction(field))
        npt.assert_allclose(force, [6.0 * np.pi, 0, 0], rtol=1e-2, atol=1e-2)

    def test_navier_slip_condition_holds(self, problem12):
        # normal rows pin v.n; tangential rows balance traction against slip
        mesh = problem12.mesh
        alpha = problem12.alpha
        data = rigid_trace_data(mesh, 1)
        field, report = problem12.solver.solve_data(data)
        u = evaluate_flow(field, mesh.nodes)[0]
        t = problem12.solver.node_traction(field)
        full = data_vector(data, mesh)
        normal_defect = np.sum((u - full) * mesh.normals, axis=1)
        slip_defect = tangential_part(t + alpha * (u - full), mesh.normals)
        assert np.max(np.abs(normal_defect)) < 1e-10
        assert np.max(np.abs(slip_defect)) < 1e-9
        assert report.residual_normal < 1e-10
        assert report.residual_tangential < 1e-9

    def test_report_fields(self, problem12):
        _, report = problem12.solver.solve_data(rigid_trace_data(problem12.mesh, 2))
        assert report.svd_rank <= 3 * problem12.sources.count
        assert report.condition_estimate >= 1.0

    def test_report_matches_recomputed_residuals(self, problem20_strided):
        # over-determined system: the residuals are far from rounding, so
        # re-applying the boundary rows independently must reproduce them
        prob = problem20_strided
        mesh, alpha = prob.mesh, prob.alpha
        data = squirmer_data(mesh)
        field, report = prob.solver.solve_data(data)
        u = evaluate_flow(field, mesh.nodes)[0] - data_vector(data, mesh)
        mis = prob.solver.node_traction(field) + alpha * u
        rn = np.sum(u * mesh.normals, axis=1)
        r1 = np.sum(mis * mesh.tangent1, axis=1)
        r2 = np.sum(mis * mesh.tangent2, axis=1)
        res_n = np.sqrt(np.sum(mesh.weights * rn**2))
        res_t = np.sqrt(np.sum(mesh.weights * (r1**2 + r2**2)))
        assert res_n > 1e-4 and res_t > 1.0
        npt.assert_allclose(report.residual_normal, res_n, rtol=1e-10)
        npt.assert_allclose(report.residual_tangential, res_t, rtol=1e-10)


class TestLifting:
    def test_no_flux_path_has_no_source(self, problem12):
        data = squirmer_data(problem12.mesh)
        field, _ = solve_lifting(data, problem12.solver)
        assert field.source_flux == 0.0
        assert field.source_point is None

    def test_flux_data_gets_carrier(self, problem12, rng):
        mesh = problem12.mesh
        tang = tangential_part(rng.normal(size=(mesh.n_nodes, 3)), mesh.normals)
        base = uniform_flux_data(mesh, 2.0)
        data = BoundaryData(base.normal_data, tang)
        field, report = solve_lifting(data, problem12.solver)
        assert field.source_point is not None
        # carrier strength is the flux divided by the discrete unit-sink flux
        npt.assert_allclose(field.source_flux, 2.0, rtol=1e-6)
        # the composite field still honors the original boundary data
        u = evaluate_flow(field, mesh.nodes)[0]
        t = problem12.solver.node_traction(field)
        full = data_vector(data, mesh)
        normal_defect = np.sum((u - full) * mesh.normals, axis=1)
        slip_defect = tangential_part(
            t + problem12.alpha * (u - full), mesh.normals
        )
        # per-node white noise is not in the collocation space, so the fit
        # is only approximate; the carrier bookkeeping must still line up
        assert np.max(np.abs(normal_defect)) < 1e-6
        assert np.max(np.abs(slip_defect)) < 1e-6
        assert report.residual_normal < 1e-6

    def test_large_flux_lifts(self, sphere8):
        # only the caller's data is held to the orthogonality check; the
        # carrier-reduced data carries a normal leak of order eps * phi
        solver = SwimProblem(sphere8, 2.0, shrink=0.5).solver
        field, _ = solve_lifting(uniform_flux_data(sphere8, 1e8), solver)
        assert np.all(np.isfinite(field.strengths))
        npt.assert_allclose(field.source_flux, 1e8, rtol=1e-6)

    def test_carrier_normalization(self, sphere12):
        sigma_hat, unit_strength = normalized_carrier(sphere12, np.zeros(3))
        flux = surface_integral(
            sphere12, np.sum(sigma_hat * sphere12.normals, axis=1)
        )
        npt.assert_allclose(flux, 1.0, rtol=1e-13)
        npt.assert_allclose(unit_strength, 1.0, rtol=1e-10)

    def test_carrier_outside_body_rejected(self, sphere12):
        from slipswim import PlacementError

        with pytest.raises(PlacementError):
            normalized_carrier(sphere12, np.array([0.0, 0.0, 5.0]))


def _ring_and_dense(request, body):
    """The same body twice: as built (ring route) and without shape_info (dense)."""
    if body == "problem16_noslip":
        ring = request.getfixturevalue(body)
    elif body == "spheroid16":
        mesh = make_parametric_surface("spheroid", 16, a_axis=1.0, c_axis=1.2)
        ring = SwimProblem(mesh, 2.0, shrink=0.5)
    else:
        ring = SwimProblem(request.getfixturevalue(body), 2.0, shrink=0.5)
    dense_mesh = dataclasses.replace(ring.mesh, shape_info=None)
    dense = SwimProblem(dense_mesh, ring.alpha, shrink=ring.shrink)
    return ring, dense


class TestRingRoute:
    """Parametric bodies factor through an FFT over the phi rings."""

    @pytest.mark.parametrize(
        "body", ["sphere8", "sphere12", "spheroid12", "problem16_noslip", "spheroid16"]
    )
    def test_agrees_with_dense_route(self, request, body):
        ring, dense = _ring_and_dense(request, body)
        res = int(np.sqrt(ring.mesh.n_nodes))
        assert _ring_count(ring.mesh, ring.sources) == res
        assert _ring_count(dense.mesh, dense.sources) == 1
        assert ring.solver.svd_rank == dense.solver.svd_rank
        # the smallest kept singular value sits at 1e-12 of the largest, so
        # it carries a relative rounding error of ~1e-4
        npt.assert_allclose(
            ring.solver.condition_estimate, dense.solver.condition_estimate, rtol=1e-3
        )
        m_ring, m_dense = ring.grand_matrix.M, dense.grand_matrix.M
        assert np.max(np.abs(m_ring - m_dense)) <= 1e-9 * np.max(np.abs(m_dense))
        if body == "spheroid12":
            return  # c = 1.6 at res 12 is under-resolved: the fields differ at 1e-7
        points = 1.7 * ring.mesh.nodes
        for f_ring, f_dense in zip(ring.aux_fields, dense.aux_fields):
            v_ring = evaluate_flow(f_ring, points)[0]
            v_dense = evaluate_flow(f_dense, points)[0]
            assert np.max(np.abs(v_ring - v_dense)) <= 1e-9 * np.max(np.abs(v_dense))

    @pytest.mark.parametrize("body", ["sphere12", "spheroid12"])
    def test_tangent1_is_ez_projection(self, request, body):
        mesh = request.getfixturevalue(body)
        n = mesh.normals
        assert np.any(np.abs(n[:, 2]) > 0.9)  # the polar rings are covered
        ref = np.array([0.0, 0.0, 1.0]) - n[:, 2:] * n
        npt.assert_allclose(
            mesh.tangent1, ref / np.linalg.norm(ref, axis=1)[:, None], atol=1e-14
        )

    def test_strided_sources_take_dense_route(self, problem20_strided):
        prob = problem20_strided
        assert _ring_count(prob.mesh, prob.sources) == 1

    def test_triangle_mesh_takes_dense_route(self, tmp_path):
        from slipswim import load_triangle_mesh

        # a cube split into triangles: symmetric about z, but not parametric
        verts = [[x, y, z] for z in (-1, 1) for y in (-1, 1) for x in (-1, 1)]
        faces = [
            [0, 2, 1], [1, 2, 3], [4, 5, 6], [5, 7, 6], [0, 1, 4], [1, 5, 4],
            [2, 6, 3], [3, 6, 7], [0, 4, 2], [2, 4, 6], [1, 3, 5], [3, 7, 5],
        ]
        path = tmp_path / "cube.off"
        lines = ["OFF", "8 12 0"] + [" ".join(map(str, v)) for v in verts]
        lines += ["3 " + " ".join(map(str, f)) for f in faces]
        path.write_text("\n".join(lines) + "\n")
        mesh = load_triangle_mesh(path)
        assert _ring_count(mesh, place_sources(mesh, 0.5)) == 1

    def test_moved_source_takes_dense_route(self, sphere8):
        from slipswim import SourceSet

        srcs = place_sources(sphere8, 0.5)
        locs = srcs.locations.copy()
        locs[5] *= 1.01
        assert _ring_count(sphere8, srcs) == 8
        assert _ring_count(sphere8, SourceSet(locs, srcs.min_surface_distance)) == 1
