import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    BoundaryData,
    SourceSet,
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
    _FRAME,
    _XYZ,
    _RingSide,
    _mode_multiplicity,
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


# Bodies built here: (shape, resolution, c_axis).  Odd resolutions put a
# Gauss-Legendre ring on the equator, which the z-mirror split keeps whole.
_BODIES = {
    "sphere9": ("sphere", 9, 1.0),
    "sphere10": ("sphere", 10, 1.0),
    "spheroid16": ("spheroid", 16, 1.2),
    "spheroid21": ("spheroid", 21, 1.2),
}


def _ring_and_dense(request, body):
    """The same body twice: as built (ring route) and without shape_info (dense)."""
    if body == "problem16_noslip":
        ring = request.getfixturevalue(body)
    elif body in _BODIES:
        kind, res, c_axis = _BODIES[body]
        mesh = make_parametric_surface(kind, res, a_axis=1.0, c_axis=c_axis)
        ring = SwimProblem(mesh, 2.0, shrink=0.5)
    else:
        ring = SwimProblem(request.getfixturevalue(body), 2.0, shrink=0.5)
    dense_mesh = dataclasses.replace(ring.mesh, shape_info=None)
    dense = SwimProblem(dense_mesh, ring.alpha, shrink=ring.shrink)
    return ring, dense


def _assert_routes_agree(ring, dense, fields=True):
    assert ring.solver.svd_rank == dense.solver.svd_rank
    # the smallest kept singular value sits at 1e-12 of the largest, so
    # it carries a relative rounding error of ~1e-4
    npt.assert_allclose(
        ring.solver.condition_estimate, dense.solver.condition_estimate, rtol=1e-3
    )
    m_ring, m_dense = ring.grand_matrix.M, dense.grand_matrix.M
    assert np.max(np.abs(m_ring - m_dense)) <= 1e-9 * np.max(np.abs(m_dense))
    if not fields:
        return
    points = 1.7 * ring.mesh.nodes
    for f_ring, f_dense in zip(ring.aux_fields, dense.aux_fields):
        v_ring = evaluate_flow(f_ring, points)[0]
        v_dense = evaluate_flow(f_dense, points)[0]
        assert np.max(np.abs(v_ring - v_dense)) <= 1e-9 * np.max(np.abs(v_dense))


class TestRingRoute:
    """Parametric bodies factor through an FFT over the phi rings."""

    @pytest.mark.parametrize(
        "body",
        [
            "sphere8", "sphere12", "spheroid12", "problem16_noslip", "spheroid16",
            "sphere9", "sphere10", "spheroid21",
        ],
    )
    def test_agrees_with_dense_route(self, request, body):
        ring, dense = _ring_and_dense(request, body)
        res = int(np.sqrt(ring.mesh.n_nodes))
        assert ring.mesh.rings == ring.sources.rings == res
        # the equator ring of an odd resolution gives n and t2 to the even half
        assert ring.solver._rows.sizes == ((3 * res + 1) // 2, 3 * res // 2)
        assert dense.mesh.rings == dense.sources.rings == 1
        assert dense.solver._rows.sizes == (3 * dense.mesh.n_nodes,)
        # c = 1.6 at res 12 is under-resolved: the fields differ at 1e-7
        _assert_routes_agree(ring, dense, fields=body != "spheroid12")

    @pytest.mark.parametrize(
        "kind, res, c_axis",
        [("sphere", 8, 1.0), ("sphere", 9, 1.0), ("spheroid", 21, 1.6)],
    )
    def test_half_spectra_match_dense(self, kind, res, c_axis):
        # Under-resolved bodies (c = 1.6) truncate a nearly rank-deficient
        # matrix, so their fields differ between routes at 1e-5 (at every
        # commit); the spectra show that the real halves are exact.
        mesh = make_parametric_surface(kind, res, a_axis=1.0, c_axis=c_axis)
        srcs = place_sources(mesh, 0.5)
        ring = SlipSolver(mesh, srcs, 2.0)
        dense = SlipSolver(dataclasses.replace(mesh, shape_info=None), srcs, 2.0)
        assert ring.svd_rank == dense.svd_rank
        npt.assert_allclose(ring.condition_estimate, dense.condition_estimate, rtol=1e-3)
        halves = list(zip(ring._rows.sizes, ring._cols.sizes))
        s_ring = np.concatenate([
            np.repeat(np.linalg.svd(block[k, :m, :n], compute_uv=False), mult)
            for block, mult in zip(ring._a, _mode_multiplicity(res))
            for k, (m, n) in enumerate(halves)
        ])
        s_dense = np.linalg.svd(dense._a[0, 0], compute_uv=False)
        assert np.max(np.abs(np.sort(s_ring)[::-1] - s_dense)) <= 1e-13 * s_dense[0]

    @pytest.mark.parametrize("moved", ["copy", "z_shift", "rotation"])
    def test_hand_built_sources_take_dense_route(self, moved):
        # A hand-built set has one ring, so it takes the dense route even
        # where its locations are exactly those of place_sources.  The
        # z shift breaks the z mirror and the rotation the phi reflection.
        mesh = make_parametric_surface("sphere", 9)
        locs = place_sources(mesh, 0.5).locations
        if moved == "z_shift":
            locs = locs + np.array([0.0, 0.0, 0.05])
        elif moved == "rotation":
            c, s = np.cos(0.01), np.sin(0.01)
            locs = locs @ np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        dist = np.linalg.norm(mesh.nodes[:, None] - locs[None], axis=2).min()
        srcs = SourceSet(locs, dist)
        assert srcs.rings == 1
        hand = SwimProblem(mesh, 2.0, shrink=0.5)
        hand.sources = srcs
        assert hand.solver._rows.sizes == (3 * mesh.n_nodes,)
        if moved == "copy":
            # the ring route on place_sources' own set
            ref = SwimProblem(mesh, 2.0, shrink=0.5)
            assert ref.solver._rows.sizes == (14, 13)
        else:
            ref = SwimProblem(dataclasses.replace(mesh, shape_info=None), 2.0, shrink=0.5)
            ref.sources = srcs
        _assert_routes_agree(ref, hand)

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
        assert prob.mesh.rings == 20
        assert prob.sources.rings == 1
        assert prob.solver._rows.sizes == (3 * prob.mesh.n_nodes,)

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
        srcs = place_sources(mesh, 0.5)
        assert mesh.rings == srcs.rings == 1
        assert SlipSolver(mesh, srcs, 2.0)._rows.sizes == (3 * mesh.n_nodes,)

    def test_moved_source_takes_dense_route(self, sphere8):
        from slipswim import SourceSet

        srcs = place_sources(sphere8, 0.5)
        locs = srcs.locations.copy()
        locs[5] *= 1.01
        assert srcs.rings == 8
        assert SlipSolver(sphere8, srcs, 2.0)._rows.sizes == (12, 12)
        moved = SourceSet(locs, srcs.min_surface_distance)
        assert moved.rings == 1
        assert SlipSolver(sphere8, moved, 2.0)._rows.sizes == (3 * sphere8.n_nodes,)


class TestButterfly:
    """The z-mirror butterfly Q^T of one side, held as one real (2, h, 3t) matrix."""

    @pytest.mark.parametrize("t", [8, 9, 20, 21])
    @pytest.mark.parametrize("kind", [_FRAME, _XYZ], ids=["frame", "xyz"])
    def test_orthogonal_padded_and_inverted_by_join(self, t, kind, rng):
        side = _RingSide(t, kind, True)
        h = max(side.sizes)
        assert side.q.shape == (2, h, 3 * t)
        assert sum(side.sizes) == 3 * t
        q = side.q.reshape(2 * h, 3 * t)
        npt.assert_allclose(q.T @ q, np.eye(3 * t), rtol=0, atol=1e-15)
        for half, size in enumerate(side.sizes):
            assert not np.any(side.q[half, size:])
        v = rng.normal(size=(4, 3 * t)) + 1j * rng.normal(size=(4, 3 * t))
        for conj in (False, True):
            # D Q Q^T conj(D) = I, so each conjugation undoes the other
            npt.assert_allclose(side.join(side.halves(v, conj), not conj), v, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", [8, 9])
    @pytest.mark.parametrize("kind", [_FRAME, _XYZ], ids=["frame", "xyz"])
    def test_mirror_parts_go_to_their_halves(self, t, kind, rng):
        # v_(t-1-j) = +-s_c v_j: the mirror-even part has no odd half and
        # the mirror-odd part no even half
        side = _RingSide(t, kind, True)
        v = rng.normal(size=(t, 3))
        for half, sign in ((0, 1.0), (1, -1.0)):
            w = (v + sign * kind[1] * v[::-1]).ravel()
            out = side.halves(w)
            assert np.max(np.abs(out[1 - half])) <= 1e-15 * np.max(np.abs(out[half]))

    def test_one_ring_is_the_identity(self, rng):
        side = _RingSide(8, _XYZ, False)
        assert side.q is None and side.sizes == (24,)
        v = rng.normal(size=(3, 24))
        npt.assert_array_equal(side.join(side.halves(v)), v)


# The assembly of the parent design, kept as the oracle of the fused row
# kernel: dense velocity and traction matrices of all ring-0 rows in x, y, z
# (I/d + r r^T/d^3 and -(3/4 pi)(rhat . n) rhat rhat^T/d^2), the slip rows
# projected onto the node frame, then the z-mirror butterfly Q_r^T on the
# rows, the rotation of each source ring's columns into its frame, Q_c on
# the columns and the rfft over the source rings.
def _ref_rows(points, normals, locations):
    r = points[:, None, :] - locations[None, :, :]
    d = np.linalg.norm(r, axis=2)[..., None, None]
    rr = r[..., :, None] * r[..., None, :]
    vel = (np.eye(3) / d + rr / d**3) / (8.0 * np.pi)
    rn = np.einsum("mkj,mj->mk", r, normals)[..., None, None] / d
    trac = -(3.0 / (4.0 * np.pi)) * rn * rr / d**4
    m, k = r.shape[:2]
    return (b.transpose(0, 2, 1, 3).reshape(3 * m, 3 * k) for b in (vel, trac))


def _ref_frame(mat, frames):
    """(3M, 3K) rows in x, y, z to rows along each point's frame (n, t1, t2)."""
    return np.einsum("mae,mek->mak", frames, mat.reshape(len(frames), 3, -1)).reshape(mat.shape)


def _ref_mode_blocks(mat, rot, rows, cols):
    p = len(rot)
    if p == 1:
        return mat[None, None]
    c = rows.q @ mat
    halves = c.shape[:2]
    c = c.reshape(halves[0] * halves[1], -1, p, 3).transpose(2, 0, 1, 3) @ rot[:, None]
    c = c.reshape((p,) + halves + (-1,)) @ cols.q.swapaxes(1, 2)
    f = np.fft.rfft(c, axis=0)
    phase = rows.half_phase[:, :, None] * cols.half_phase[:, None, :]
    return f.real * phase.real + f.imag * phase.imag


def _ref_blocks(solver):
    """The oracle's half blocks of the row-weighted slip matrix and of the node tractions."""
    mesh, p = solver.mesh, len(solver._rot)
    ring0 = slice(None, None, p)
    frames = np.stack((mesh.normals, mesh.tangent1, mesh.tangent2), axis=1)[ring0]
    vel, trac = _ref_rows(mesh.nodes[ring0], mesh.normals[ring0], solver.sources.locations)
    vel_f, trac_f = _ref_frame(vel, frames), _ref_frame(trac, frames)
    a = vel_f.copy()
    a[1::3] = trac_f[1::3] + solver.alpha * vel_f[1::3]
    a[2::3] = trac_f[2::3] + solver.alpha * vel_f[2::3]
    a *= solver._scale[:, None]
    return (
        _ref_mode_blocks(a, solver._rot, solver._rows, solver._cols),
        _ref_mode_blocks(trac, solver._rot, solver._trows, solver._cols),
    )


def _parametric(kind, res, c_axis):
    return make_parametric_surface(kind, res, a_axis=1.0, c_axis=c_axis)


class TestFusedAssembly:
    """One Stokeslet row kernel, on the mirror-half rows of one block column."""

    @pytest.mark.parametrize(
        "kind, res, c_axis",
        [
            ("sphere", 8, 1.0), ("sphere", 9, 1.0), ("sphere", 10, 1.0),
            ("spheroid", 21, 1.2), ("spheroid", 12, 1.6),
        ],
    )
    def test_half_blocks_match_the_oracle(self, kind, res, c_axis):
        mesh = _parametric(kind, res, c_axis)
        solver = SlipSolver(mesh, place_sources(mesh, 0.5), 2.0)
        assert len(solver._rot) == res
        for got, want in zip((solver._a, solver._tmat), _ref_blocks(solver)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("res", [8, 9])
    def test_dense_route_matches_the_oracle(self, res):
        mesh = dataclasses.replace(make_parametric_surface("sphere", res), shape_info=None)
        solver = SlipSolver(mesh, place_sources(mesh, 0.5), 2.0)
        assert len(solver._rot) == 1
        for got, want in zip((solver._a, solver._tmat), _ref_blocks(solver)):
            assert got.shape == want.shape == (1, 1, 3 * mesh.n_nodes, 3 * mesh.n_nodes)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "kind, res, c_axis, dense",
        [
            ("sphere", 8, 1.0, False), ("sphere", 9, 1.0, False),
            ("spheroid", 21, 1.2, False), ("sphere", 9, 1.0, True),
        ],
    )
    def test_kernel_point_count(self, monkeypatch, kind, res, c_axis, dense):
        from slipswim import stokeslets

        mesh = _parametric(kind, res, c_axis)
        if dense:
            mesh = dataclasses.replace(mesh, shape_info=None)
        sources = place_sources(mesh, 0.5)
        pairs = []
        displacements = stokeslets._unit_displacements

        def counted(points, locations):
            pairs.append(len(points) * len(locations))
            return displacements(points, locations)

        monkeypatch.setattr(stokeslets, "_unit_displacements", counted)
        SlipSolver(mesh, sources, 2.0)
        n, k = mesh.n_nodes, sources.count
        # ceil(T/2) K on ring bodies (T = N / P), N K on the dense route
        assert sum(pairs) == (n * k if dense else -(-res // 2) * k)


class TestBatchedSolves:
    @pytest.mark.parametrize("body", ["problem12", "problem20_strided"])
    def test_aux_reports_equal_single_solves(self, request, body):
        prob = request.getfixturevalue(body)
        for i, (field, report) in enumerate(zip(prob.aux_fields, prob.aux_reports), start=1):
            single_field, single = prob.solver.solve_data(rigid_trace_data(prob.mesh, i))
            for got, want in zip(dataclasses.astuple(report), dataclasses.astuple(single)):
                npt.assert_allclose(got, want, rtol=1e-12, atol=0)
            npt.assert_allclose(field.strengths, single_field.strengths, rtol=0,
                                atol=1e-12 * np.max(np.abs(single_field.strengths)))

    def test_basis_tractions_equal_single_tractions(self, problem12):
        prob = problem12
        for got, field in zip(prob.basis.tractions, prob.aux_fields):
            want = prob.solver.node_traction(field)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestResidualNorms:
    def test_plain_formula_where_it_is_finite(self, sphere12, rng):
        from slipswim.collocation import _residual_norms

        w = sphere12.weights
        for scale in (1e-30, 1.0, 1e30):
            res = scale * rng.normal(size=3 * sphere12.n_nodes)
            want = (
                np.sqrt(np.sum(w * res[0::3] ** 2)),
                np.sqrt(np.sum(w * (res[1::3] ** 2 + res[2::3] ** 2))),
            )
            assert _residual_norms(res, w) == want

    def test_no_overflow_on_large_bodies(self, sphere12, rng):
        from slipswim.collocation import _residual_norms

        res = rng.normal(size=3 * sphere12.n_nodes)
        unit = _residual_norms(res, sphere12.weights)
        large = _residual_norms(1e100 * res, 1e200 * sphere12.weights)
        npt.assert_allclose(large, 1e200 * np.array(unit), rtol=1e-14)
