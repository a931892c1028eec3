import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    BoundaryData,
    FlowField,
    SourceSet,
    SwimProblem,
    SlipSolver,
    evaluate_flow,
    place_sources,
    random_boundary_data,
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
from slipswim import collocation
from slipswim.stokeslets import traction_matrix
from slipswim.geometry import (
    _rigid_modes,
    _z_rotations,
    elementary_rigid_motion,
    make_parametric_surface,
)


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
                solve_lifting(bad, problem12.solver)

    def test_orthogonality_tolerance_follows_the_tangential_part(self, problem12, rng):
        mesh = problem12.mesh
        tang = random_boundary_data(mesh, rng).tangential_data
        # a normal part 1e3 times larger widens the tolerance by its rounding only
        leaky = BoundaryData(np.full(mesh.n_nodes, 1e3), tang + 1e-8 * mesh.normals)
        with pytest.raises(ValueError, match="orthogonal"):
            solve_lifting(leaky, problem12.solver)
        # the split of a mostly normal field leaves rounding of the normal size
        split = boundary_data_from_field(mesh, mesh.normals + 1e-12 * tang)
        solve_lifting(split, problem12.solver)

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

    def test_failed_svd_is_solver_error(self, sphere8, monkeypatch):
        from slipswim import SolverError

        # LAPACK giving up surfaces as a solver failure, on the ring halves
        # and on the dense block's R (svd_tol 0.99 fails its certificate)
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        srcs = place_sources(sphere8, 0.5)
        monkeypatch.setattr(np.linalg, "svd", fails)
        for mesh in (sphere8, dataclasses.replace(sphere8)):
            with pytest.raises(SolverError, match="did not converge"):
                SlipSolver(mesh, srcs, 1.0, svd_tol=0.99)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
    def test_alpha_must_be_positive_and_finite(self, sphere8, alpha):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            SlipSolver(sphere8, place_sources(sphere8, 0.5), alpha)

    @pytest.mark.parametrize("case", ["empty", "square", "wide"])
    def test_needs_fewer_sources_than_nodes(self, sphere8, case):
        # the fit must oversample the surface: K = N interpolates, K > N more so
        mesh = dataclasses.replace(sphere8, shape_info=None)
        if case == "empty":
            sources = SourceSet(np.empty((0, 3)), 0.5)
        elif case == "square":
            sources = place_sources(mesh, 0.5, stride=1)
        else:
            # K > N: 3K = 288 columns against 3N = 192 rows
            finer = place_sources(make_parametric_surface("sphere", 12), 0.5)
            sources = SourceSet(finer.locations, finer.min_surface_distance)
        with pytest.raises(ValueError, match="1 <= K < N"):
            SlipSolver(mesh, sources, 2.0)


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

    def test_navier_slip_condition_holds(self, problem24_deep):
        # normal rows pin v.n; tangential rows balance traction against slip.
        # The system is overdetermined, so it holds to rounding only where
        # the source grid resolves the data.
        mesh = problem24_deep.mesh
        alpha = problem24_deep.alpha
        data = rigid_trace_data(mesh, 1)
        field, report = solve_lifting(data, problem24_deep.solver)
        u = evaluate_flow(field, mesh.nodes)[0]
        t = problem24_deep.solver.node_traction(field)
        full = data_vector(data, mesh)
        normal_defect = np.sum((u - full) * mesh.normals, axis=1)
        slip_defect = tangential_part(t + alpha * (u - full), mesh.normals)
        assert np.max(np.abs(normal_defect)) < 1e-10
        assert np.max(np.abs(slip_defect)) < 1e-9
        assert report.residual_normal < 1e-10
        assert report.residual_tangential < 1e-9

    def test_report_fields(self, problem12):
        # rank and condition describe the solver, not a solve
        _, report = solve_lifting(rigid_trace_data(problem12.mesh, 2), problem12.solver)
        assert report.residual_normal >= 0.0 and report.residual_tangential >= 0.0
        assert problem12.solver.svd_rank <= 3 * problem12.sources.count
        assert problem12.solver.condition_estimate >= 1.0

    def test_report_matches_recomputed_residuals(self, problem20_strided):
        # over-determined system: the residuals are far from rounding, so
        # re-applying the boundary rows independently must reproduce them,
        # each relative to the same norm of the data's rows
        prob = problem20_strided
        mesh, alpha = prob.mesh, prob.alpha
        data = squirmer_data(mesh)
        field, report = solve_lifting(data, prob.solver)
        full = data_vector(data, mesh)
        u = evaluate_flow(field, mesh.nodes)[0] - full
        mis = prob.solver.node_traction(field) + alpha * u
        rn = np.sum(u * mesh.normals, axis=1)
        r1 = np.sum(mis * mesh.tangent1, axis=1)
        r2 = np.sum(mis * mesh.tangent2, axis=1)
        res_n = np.sqrt(np.sum(mesh.weights * rn**2))
        res_t = np.sqrt(np.sum(mesh.weights * (r1**2 + r2**2)))
        assert res_n > 1e-4 and res_t > 1.0
        # the fit's row scale: tangential rows over max(1/L, alpha)
        slip = max(np.sqrt(4.0 * np.pi / mesh.area), alpha)
        dn = np.sum(full * mesh.normals, axis=1)
        dt = alpha * tangential_part(full, mesh.normals) / slip
        norm = np.sqrt(np.sum(mesh.weights * (dn**2 + np.sum(dt**2, axis=1))))
        npt.assert_allclose(report.residual_normal, res_n / norm, rtol=1e-10)
        npt.assert_allclose(report.residual_tangential, res_t / slip / norm, rtol=1e-10)


class TestLifting:
    def test_no_flux_path_has_no_source(self, problem12):
        data = squirmer_data(problem12.mesh)
        field, _ = solve_lifting(data, problem12.solver)
        assert field.source_flux == 0.0
        assert field.source_point is None

    def test_flux_data_gets_carrier(self, problem24_deep, rng):
        mesh = problem24_deep.mesh
        # smooth tangential data: per-node white noise is not in the span of
        # the overdetermined source grid, so only smooth data is fit to rounding
        tang = random_boundary_data(mesh, rng).tangential_data
        base = uniform_flux_data(mesh, 2.0)
        data = BoundaryData(base.normal_data, tang)
        field, report = solve_lifting(data, problem24_deep.solver)
        assert field.source_point is not None
        # carrier strength is the flux divided by the discrete unit-sink flux
        npt.assert_allclose(field.source_flux, 2.0, rtol=1e-6)
        # the composite field still honors the original boundary data
        u = evaluate_flow(field, mesh.nodes)[0]
        t = problem24_deep.solver.node_traction(field)
        full = data_vector(data, mesh)
        normal_defect = np.sum((u - full) * mesh.normals, axis=1)
        slip_defect = tangential_part(
            t + problem24_deep.alpha * (u - full), mesh.normals
        )
        # the carrier bookkeeping must line up: what is left is the fit's
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

    def test_sink_matched_flux_fits_nothing(self):
        # on a sphere the centroid sink matches uniform flux data, so the
        # remainder is rounding: it is fitted as zero, on the grand matrix's modes only
        mesh = make_parametric_surface("sphere", 30)
        prob = SwimProblem(mesh, 2.0, shrink=0.5)
        prob.grand_matrix
        factored = prob.solver._factored.copy()
        assert not factored.all()
        data = uniform_flux_data(mesh, 0.4)
        field, report = solve_lifting(data, prob.solver)
        assert np.array_equal(prob.solver._factored, factored)
        assert not np.any(field.strengths) and field.source_flux != 0.0
        assert report.residual_normal == report.residual_tangential == 0.0

    @pytest.mark.parametrize("scale", [1e-11, 1e-13])
    def test_small_flux_data_keeps_its_sink(self, problem12, scale):
        # the flux floor is relative to the data, so data small in absolute
        # terms keeps its sink and the relative residual of the unscaled data
        data = random_boundary_data(problem12.mesh, np.random.default_rng(1), flux=0.5)
        field, report = solve_lifting(data, problem12.solver)
        small = BoundaryData(scale * data.normal_data, scale * data.tangential_data)
        small_field, small_report = solve_lifting(small, problem12.solver)
        assert field.source_flux != 0.0
        npt.assert_allclose(small_field.source_flux, scale * field.source_flux, rtol=1e-12)
        npt.assert_allclose(
            dataclasses.astuple(small_report), dataclasses.astuple(report), rtol=1e-8
        )

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
    """The same body twice: as built (ring route), and without rings and with a
    one-ring copy of its source grid (dense)."""
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
    dense.sources = SourceSet(ring.sources.locations, ring.sources.min_surface_distance)
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
        n_t = round(2 * res / 3)
        assert ring.sources.count == n_t * res
        # the equator ring of an odd resolution gives n and t2 to the even
        # half, that of an odd n_t (res 8 and 10) the x and y strengths
        assert ring.solver._rows.sizes == ((3 * res + 1) // 2, 3 * res // 2)
        assert ring.solver._cols.sizes == ((3 * n_t + 1) // 2, 3 * n_t // 2)
        assert dense.mesh.rings == dense.sources.rings == 1
        assert dense.solver._rows.sizes == (3 * dense.mesh.n_nodes,)
        assert dense.solver._cols.sizes == (3 * ring.sources.count,)
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
        # stride thins the sources of triangle meshes only; a sphere or
        # spheroid rejects it (test_stokeslets)
        prob = problem20_strided
        assert prob.mesh.rings == prob.sources.rings == 1
        assert prob.sources.count == -(-prob.mesh.n_nodes // 3)
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

    def test_one_ring_columns_are_component_major(self, rng):
        # one ring: _to_rings hands source-major strengths (x, y, z of each
        # source) over as the kernel's component-major columns, the column
        # side is the identity, and _from_rings takes them back
        side = _RingSide(8, _XYZ, False, columns=True)
        assert side.q is None and side.sizes == (24,)
        rot = _z_rotations(1)
        q = rng.normal(size=(3, 8, 3))
        v = collocation._to_rings(q, rot)
        assert v.shape == (3, 1, 24)
        npt.assert_array_equal(v[:, 0], q.swapaxes(1, 2).reshape(3, 24))
        half = side.halves(v)
        npt.assert_array_equal(half[:, :, 0], v)
        npt.assert_array_equal(collocation._from_rings(side.join(half), rot), q)

    @pytest.mark.parametrize("p", [4, 7])
    def test_ring_columns_are_component_major_in_the_ring_frame(self, p, rng):
        # P rings: source k of ring q (entry k P + q) is rotated back by R_q^T
        # into ring q's vector, component c at c K/P + k, and back again
        rot = _z_rotations(p)
        q = rng.normal(size=(2, 5 * p, 3))
        v = collocation._to_rings(q, rot)
        assert v.shape == (2, p, 15)
        for ring in range(p):
            want = (q[:, ring::p] @ rot[ring]).swapaxes(1, 2).reshape(2, 15)
            npt.assert_allclose(v[:, ring], want, rtol=0, atol=1e-15)
        npt.assert_allclose(collocation._from_rings(v, rot), q, rtol=0, atol=1e-15)


# The assembly of the parent design, kept as the oracle of the fused row
# kernel: dense velocity and traction matrices of all ring-0 rows in x, y, z
# (I/d + r r^T/d^3 and -(3/4 pi)(rhat . n) rhat rhat^T/d^2), both projected
# onto the node frame and combined into the slip rows, then the z-mirror
# butterfly Q_r^T on the rows, the rotation of each source ring's columns
# into its frame, Q_c on the columns and the rfft over the source rings.
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
        # the dense route's columns are component-major, as the kernel writes them
        return mat.reshape(len(mat), -1, 3).swapaxes(1, 2).reshape(mat.shape)[None, None]
    c = rows.q @ mat
    halves = c.shape[:2]
    c = c.reshape(halves[0] * halves[1], -1, p, 3).transpose(2, 0, 1, 3) @ rot[:, None]
    # each source ring's columns component-major, the column side's order
    c = c.swapaxes(-1, -2).reshape((p,) + halves + (-1,)) @ cols.q.swapaxes(1, 2)
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
        _ref_mode_blocks(trac_f, solver._rot, solver._rows, solver._cols),
    )


def _check_node_tractions(solver, rng):
    """The node tractions of two random sets of strengths against the dense x, y, z matrix."""
    mesh, sources = solver.mesh, solver.sources
    q = rng.normal(size=(2, sources.count, 3))
    want = (traction_matrix(mesh.nodes, mesh.normals, sources) @ q.reshape(2, -1).T).T
    got = solver._node_tractions(q)
    assert got.shape == (2, mesh.n_nodes, 3)
    assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-13 * np.max(np.abs(want))


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
    def test_half_blocks_match_the_oracle(self, kind, res, c_axis, rng):
        mesh = _parametric(kind, res, c_axis)
        solver = SlipSolver(mesh, place_sources(mesh, 0.5), 2.0)
        assert len(solver._rot) == res
        for got, want in zip((solver._a, solver._tmat), _ref_blocks(solver)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        _check_node_tractions(solver, rng)

    @pytest.mark.parametrize("res", [8, 9])
    def test_dense_route_matches_the_oracle(self, res, rng):
        mesh = dataclasses.replace(make_parametric_surface("sphere", res), shape_info=None)
        sources = place_sources(mesh, 0.5, stride=2)
        solver = SlipSolver(mesh, sources, 2.0)
        assert len(solver._rot) == 1
        for got, want in zip((solver._a, solver._tmat), _ref_blocks(solver)):
            assert got.shape == want.shape == (1, 1, 3 * mesh.n_nodes, 3 * sources.count)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        _check_node_tractions(solver, rng)

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


def _factored(solver):
    return np.flatnonzero(solver._factored).tolist()


def _grand_body(kind, size=1.0):
    """The benchmark's two bodies: a res-30 sphere and a res-24 spheroid with c = 1.2 a."""
    res, c_axis = {"sphere": (30, 1.0), "spheroid": (24, 1.2)}[kind]
    return make_parametric_surface(kind, res, radius=size, a_axis=size, c_axis=c_axis * size)


class TestModesOnDemand:
    """Ring bodies factor the modes the norm bound cannot rule out first, the rest when data holds them."""

    @pytest.mark.parametrize("kind", ["sphere", "spheroid"])
    @pytest.mark.parametrize("size", [0.8, 1.25])
    def test_grand_matrix_takes_four_half_svds(self, kind, size, monkeypatch):
        # the norm bound rules out every mode but 0 and 1, which the aux solves need
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        prob = SwimProblem(_grand_body(kind, size), 2.0, shrink=0.5)
        prob.grand_matrix
        assert len(calls) == 4
        assert _factored(prob.solver) == [0, 1]

    @pytest.mark.parametrize("kind", ["sphere", "spheroid"])
    def test_preset_data_takes_only_its_modes(self, kind):
        mesh = _grand_body(kind)
        finished = SwimProblem(mesh, 2.0, shrink=0.5).solver
        finished.svd_rank
        for data in (squirmer_data(mesh, 1.3), uniform_flux_data(mesh, 0.4), rigid_trace_data(mesh, 4)):
            prob = SwimProblem(mesh, 2.0, shrink=0.5)
            prob.grand_matrix
            field, _ = solve_lifting(data, prob.solver)
            assert _factored(prob.solver) == [0, 1]
            assert np.array_equal(field.strengths, solve_lifting(data, finished)[0].strengths)

    @pytest.mark.parametrize("body", ["problem12", "problem20_strided"])
    def test_zero_data_keeps_one_mode(self, request, body):
        # ring route and dense route: no mode is live, mode 0 is still solved
        prob = request.getfixturevalue(body)
        field, report = solve_lifting(squirmer_data(prob.mesh, 0.0), prob.solver)
        assert not field.strengths.any()
        assert np.isfinite(dataclasses.astuple(report)).all()

    @pytest.mark.parametrize("kind", ["sphere", "spheroid"])
    def test_grand_matrix_factors_modes_0_and_1(self, kind):
        prob = SwimProblem(_grand_body(kind), 2.0, shrink=0.5)
        prob.grand_matrix
        assert _factored(prob.solver) == [0, 1]
        prob.solver.svd_rank
        assert prob.solver._factored.all()

    @pytest.mark.parametrize("kind", ["sphere", "spheroid"])
    def test_grand_matrix_does_not_depend_on_a_general_solve(self, kind, rng):
        mesh = _grand_body(kind)
        fresh = SwimProblem(mesh, 2.0, shrink=0.5)
        after = SwimProblem(mesh, 2.0, shrink=0.5)
        solve_lifting(random_boundary_data(mesh, rng), after.solver)
        assert np.array_equal(fresh.grand_matrix.M, after.grand_matrix.M)
        assert np.array_equal(fresh._aux[2], after._aux[2])

    @pytest.mark.parametrize("kind", ["sphere", "spheroid"])
    def test_matches_a_solve_on_every_mode(self, kind, monkeypatch):
        mesh = _grand_body(kind)
        prob = SwimProblem(mesh, 2.0, shrink=0.5)
        m = prob.grand_matrix.M
        # the reference solves the six traces on every mode, keeping their rounding
        monkeypatch.setattr(collocation, "_MODE_FLOOR", 0.0)
        solver = SlipSolver(mesh, prob.sources, 2.0)
        traces = [boundary_data_from_field(mesh, mode) for mode in _rigid_modes(mesh)]
        strengths, reports = solver._solve(traces)
        tractions = solver._node_tractions(strengths)
        m_ref = np.einsum("n,inj,knj->ik", mesh.weights, _rigid_modes(mesh), tractions)
        assert np.max(np.abs(m - m_ref)) <= 1e-13 * np.max(np.abs(m_ref))
        if kind == "sphere":
            # on the spheroid (condition 9e11, strengths up to 280) the residuals
            # of 1e-13 are rounding, which differs by as much between any two
            # orderings of the same products
            for got, want in zip(prob.aux_reports, reports):
                npt.assert_allclose(dataclasses.astuple(got), dataclasses.astuple(want), rtol=0, atol=1e-13)

    def test_norm_bound_keeps_the_threshold_exact(self):
        # on this flat, ill-conditioned body the bound cannot rule out the
        # higher modes, so they are factored with modes 0 and 1
        mesh = make_parametric_surface("spheroid", 16, a_axis=1.0, c_axis=0.5)
        sources = place_sources(mesh, 0.9)
        ring = SlipSolver(mesh, sources, 0.01)
        assert len(_factored(ring)) > 2
        dense = SlipSolver(dataclasses.replace(mesh, shape_info=None), sources, 0.01)
        assert ring.svd_rank == dense.svd_rank
        npt.assert_allclose(ring.condition_estimate, dense.condition_estimate, rtol=1e-3)

    def test_norm_bound_takes_no_copy_of_the_blocks(self):
        import tracemalloc

        mesh = _grand_body("sphere")
        solver = SlipSolver(mesh, place_sources(mesh, 0.5), 2.0)
        tracemalloc.start()
        try:
            collocation._norm_bound(solver._a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * solver._a.nbytes

    def test_dense_route_factors_at_construction_without_copies(self, problem20_strided, monkeypatch):
        solver = SlipSolver(problem20_strided.mesh, problem20_strided.sources, 1e6)
        assert _factored(solver) == [0]
        # a solve applies each reflector block, then the V stack (R^-1), once
        # each, as views of the solver's arrays, no copies: this certified
        # block has no U and is too well conditioned to refine
        mats, reflected = [], []
        real_matmul, reflect = collocation._real_matmul, collocation._reflect

        def recorded(mat, x):
            mats.append(mat)
            return real_matmul(mat, x)

        def recorded_block(y, v, t):
            reflected.append((v, t))
            reflect(y, v, t)

        monkeypatch.setattr(collocation, "_real_matmul", recorded)
        monkeypatch.setattr(collocation, "_reflect", recorded_block)
        solve_lifting(squirmer_data(solver.mesh, 1.0), solver)
        assert solver._uh is None
        used = [m for m in mats if np.shares_memory(m, solver._v)]
        assert len(used) == 1 and not any(m.flags.owndata for m in used)
        # 960 rows against 321 columns: two blocks, every V a view of one array
        blocks = solver._reflectors
        assert len(blocks) == 2
        assert [(id(v), id(t)) for v, t in reflected] == [(id(v), id(t)) for _, v, t in blocks]
        assert not any(v.flags.owndata for _, v, _ in blocks)
        assert blocks[0][1].base is blocks[1][1].base


class TestBatchedSolves:
    @pytest.mark.parametrize("body", ["problem12", "problem20_strided"])
    def test_aux_reports_equal_single_solves(self, request, body):
        # the six-column solve against one column at a time; both read the DFT
        # modes |m| <= 1 of rigid data off the data (one mode on the dense route)
        prob = request.getfixturevalue(body)
        for i, (field, report) in enumerate(zip(prob.aux_fields, prob.aux_reports), start=1):
            trace = rigid_trace_data(prob.mesh, i)
            (strengths,), (single,) = prob.solver._solve([trace])
            single_field = FlowField(prob.sources, strengths)
            for got, want in zip(dataclasses.astuple(report), dataclasses.astuple(single)):
                npt.assert_allclose(got, want, rtol=1e-12, atol=0)
            npt.assert_allclose(field.strengths, single_field.strengths, rtol=0,
                                atol=1e-12 * np.max(np.abs(single_field.strengths)))

    def test_one_block_stack_takes_one_product(self, rng):
        # the dense route's (1, 1, m, n) stack times C real vectors is one
        # (C, n) @ (n, m) product, not C matrix-vector products (which round
        # differently), as in the residuals, refinement and node tractions
        a = rng.standard_normal((1, 1, 960, 480))
        x = rng.standard_normal((6, 1, 1, 480))
        got = collocation._real_matmul(a, x)
        assert got.shape == (6, 1, 1, 960)
        assert np.array_equal(got[:, 0, 0], x[:, 0, 0] @ a[0, 0].T)

    def test_basis_tractions_equal_single_tractions(self, problem12):
        prob = problem12
        for got, field in zip(prob.basis.tractions, prob.aux_fields):
            want = prob.solver.node_traction(field)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _svd_shapes(monkeypatch):
    """Record the shape of every np.linalg.svd call from here on."""
    shapes, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return shapes


class TestCertifiedQR:
    """The one block of the dense route takes a QR where R^-1 proves that the SVD would truncate nothing."""

    def test_grand_matrix_takes_no_svd(self, icosphere2, monkeypatch):
        shapes = _svd_shapes(monkeypatch)
        prob = SwimProblem(icosphere2, 1e6, shrink=0.7, stride=3)
        prob.grand_matrix
        assert shapes == []
        assert prob.solver.svd_rank == 3 * prob.sources.count

    def test_matches_the_svd_route(self, problem20_strided, monkeypatch):
        prob = problem20_strided
        cond = prob.solver.condition_estimate
        # the cut 0.9 s_min keeps every singular value, and the certificate
        # would need ||W||_F ||A|| <= cond / 1.8, where it is at least cond
        svd_route = SwimProblem(prob.mesh, prob.alpha, shrink=prob.shrink, stride=3, svd_tol=0.9 / cond)
        shapes = _svd_shapes(monkeypatch)

        def fails(*args, **kwargs):
            raise AssertionError("R^-1 formed")

        # the norm of R's inverted diagonal alone fails the certificate
        with monkeypatch.context() as patch:
            patch.setattr(collocation, "_triu_inv", fails)
            svd_route.solver
        k = 3 * prob.sources.count
        assert svd_route.solver.svd_rank == prob.solver.svd_rank == k
        # 3N = 960 rows against 321 columns: the SVD takes the certificate's R,
        # and U^T is U_R^T, acting on Q^T b: no U with 3N rows
        assert shapes == [(k, k)]
        assert svd_route.solver._uh.shape == (1, 1, k, k)
        npt.assert_allclose(svd_route.solver.condition_estimate, cond, rtol=1e-10)
        m, m_svd = prob.grand_matrix.M, svd_route.grand_matrix.M
        assert np.max(np.abs(m - m_svd)) <= 1e-13 * np.max(np.abs(m_svd))
        data = squirmer_data(prob.mesh)
        xi, xi_svd = prob.solve(data).xi, svd_route.solve(data).xi
        assert np.max(np.abs(xi - xi_svd)) <= 1e-13 * np.max(np.abs(xi_svd))

    # one case: a singular R fails the diagonal test and never reaches R^-1
    @pytest.mark.parametrize("case", ["svd_tol"])
    def test_falls_back_to_the_svd(self, case, sphere8, monkeypatch):
        mesh = dataclasses.replace(sphere8, shape_info=None)
        sources = place_sources(sphere8, 0.5)
        shapes = _svd_shapes(monkeypatch)
        solver = SlipSolver(mesh, sources, 2.0, 0.99)
        # the block (192 x 120 here) takes the SVD of its 120 x 120 R
        k = 3 * sources.count
        assert shapes == [(k, k)]
        field, report = solve_lifting(squirmer_data(mesh), solver)
        assert np.isfinite(field.strengths).all() and report.residual_tangential < 1.0
        assert solver.svd_rank < 3 * sources.count

    @staticmethod
    def _check_qr(a, rng):
        """The blocked QR of a against numpy's: R to rounding, Q^T b against an explicit Q."""
        m, n = a.shape
        r, blocks = collocation._householder_qr(a)
        q, r_np = np.linalg.qr(a)
        assert np.max(np.abs(r - r_np)) <= 1e-13 * np.max(np.abs(r_np))
        b = rng.standard_normal((3, m))
        got, want = collocation._apply_qt(blocks, b), b @ q
        assert got.shape == want.shape
        # two QRs' Q differ by up to about eps cond(a): 4e3 for the square block
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # panels of _WY_WIDTH columns; each V^T a unit upper trapezoidal
        # view of the one working array, each T upper triangular
        width = collocation._WY_WIDTH
        assert [j for j, _, _ in blocks] == list(range(0, n, width))
        for j, vt, t in blocks:
            w = len(vt)
            assert vt.shape == (w, m - j) and t.shape == (w, w)
            assert vt.base is blocks[0][1].base and not vt.flags.owndata
            assert np.array_equal(np.tril(vt[:, :w]), np.eye(w))
            assert np.array_equal(np.triu(t), t)
        return r, blocks

    @pytest.mark.parametrize("width", [None, 16])
    @pytest.mark.parametrize(
        "shape", [(300, 300), (640, 300), (301, 77), (50, 1), (2000, 1920), (301, 10)]
    )
    def test_reflector_map_matches_the_explicit_q(self, shape, width, rng, monkeypatch):
        # square (the last column has no tail, so its tau is 0), a width that
        # is no multiple of the panel width (1920 at the default), one panel,
        # one column, a panel narrower than 16; at the default and a small
        # panel width
        if width is not None:
            monkeypatch.setattr(collocation, "_WY_WIDTH", width)
        a = rng.standard_normal(shape)
        _, blocks = self._check_qr(a, rng)
        if shape[0] == shape[1]:
            assert blocks[-1][2][-1, -1] == 0.0

    @pytest.mark.parametrize("width, chunk", [(None, None), (7, 5)])
    def test_blocked_qr_with_a_zero_column(self, width, chunk, rng, monkeypatch):
        # a zero column: its reflector has tau = 0, and R a zero on its
        # diagonal.  Rows 200 on are zero left of column 200, so the
        # reflectors before it leave those rows as they are: column 200,
        # -3 e_200 there, has no tail (tau = 0, and R keeps -3), and column
        # 201 a zero diagonal entry and a tail (tau = 1).  At the default
        # sizes, and with panels of 7 columns (ragged halves at every level)
        # and the trailing columns 5 at a time
        if width is not None:
            monkeypatch.setattr(collocation, "_WY_WIDTH", width)
            monkeypatch.setattr(collocation, "_QR_CHUNK", chunk)
        a = rng.standard_normal((700, 300))
        a[:, 100] = 0.0
        a[200:, :200] = 0.0
        a[200:, 200] = 0.0
        a[200, 200], a[201, 201] = -3.0, 0.0
        r, blocks = self._check_qr(a, rng)
        tau = np.concatenate([np.diag(t) for _, _, t in blocks])
        assert r[100, 100] == 0.0 and tau[100] == 0.0
        assert r[200, 200] == -3.0 and tau[200] == 0.0
        assert tau[201] == 1.0

    def test_blocked_qr_leaves_and_chunks(self, rng, monkeypatch):
        # every panel recurses on views of the working array down to single
        # columns, with no LAPACK QR, and the trailing columns go _QR_CHUNK
        # at a time: with panels of 32 and chunks of 40, a 150 x 107 block
        # takes a last panel of 11 (ragged halves 5 + 6, 2 + 3 and 3 + 3)
        # and several chunks per panel
        monkeypatch.setattr(collocation, "_WY_WIDTH", 32)
        monkeypatch.setattr(collocation, "_QR_CHUNK", 40)
        widths, reflected = [], []
        qr_panel, reflect = collocation._qr_panel, collocation._reflect

        def panel(xt, r, t):
            assert not xt.flags.owndata and xt.shape[0] == r.shape[0] == t.shape[0]
            widths.append(len(xt))
            qr_panel(xt, r, t)

        def rows(x, vt, t):
            reflected.append(len(x))
            reflect(x, vt, t)

        def no_qr(*args, **kwargs):
            raise AssertionError("a LAPACK QR call")

        a = rng.standard_normal((150, 107))
        with monkeypatch.context() as patch:
            patch.setattr(collocation, "_qr_panel", panel)
            patch.setattr(collocation, "_reflect", rows)
            patch.setattr(np.linalg, "qr", no_qr)
            collocation._householder_qr(a)
        assert widths.count(1) == 107 and {32, 11, 6, 5, 3, 2} <= set(widths)
        assert max(reflected) == 40 and reflected.count(40) >= 2
        self._check_qr(a, rng)

    def test_blocked_qr_updates_a_chunk_at_a_time(self, rng, monkeypatch):
        # the QR's traced peak is its working array, R and the T blocks, plus
        # temporaries of one chunk: with panels of 32 and chunks of 16 rows a
        # 700 x 300 block peaks within 10% of those (an update of all the
        # columns right of a panel at once reads about 60% over them)
        import tracemalloc

        monkeypatch.setattr(collocation, "_WY_WIDTH", 32)
        monkeypatch.setattr(collocation, "_QR_CHUNK", 16)
        a = rng.standard_normal((700, 300))
        tracemalloc.start()
        try:
            r, blocks = collocation._householder_qr(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = blocks[0][1].base.nbytes + r.nbytes + sum(t.nbytes for _, _, t in blocks)
        assert peak <= 1.1 * kept

    @staticmethod
    def _right_residuals(r):
        """max |R W - I| of the blocked back substitution and of np.linalg.inv, and both W."""
        w, want = collocation._triu_inv(r), np.linalg.inv(r)
        eye = np.eye(len(r))
        return np.max(np.abs(r @ w - eye)), np.max(np.abs(r @ want - eye)), w, want

    @pytest.mark.parametrize("width", [None, 16])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_triangular_inverse_matches_inv(self, n, width, rng, monkeypatch):
        # a 1 x 1 R, sizes just below, at and just above the block width, and
        # several block rows with a ragged last one
        if width is not None:
            monkeypatch.setattr(collocation, "_WY_WIDTH", width)
        r = np.linalg.qr(rng.standard_normal((n + 3, n)), mode="r")
        got, inv, w, want = self._right_residuals(r)
        assert np.all(np.tril(w, -1) == 0.0)
        assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))
        assert got <= 4.0 * max(inv, np.finfo(float).eps)

    @pytest.mark.parametrize("width", [None, 16])
    def test_triangular_inverse_of_an_ill_conditioned_r(self, width, rng, monkeypatch):
        # condition 1e10, as the seed-3 benchmark icosphere's R at stride 1: an
        # inverse built from products of block inverses loses the right
        # residual there, a back substitution keeps it
        if width is not None:
            monkeypatch.setattr(collocation, "_WY_WIDTH", width)
        n = 300
        u, v = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        r = np.linalg.qr((u * np.logspace(0.0, -10.0, n)) @ v.T, mode="r")
        assert 1e9 < np.linalg.cond(r) < 1e11
        got, inv, w, _ = self._right_residuals(r)
        assert np.all(np.tril(w, -1) == 0.0)
        assert got <= 4.0 * inv

    @pytest.mark.parametrize("index", [0, 100, 299])
    def test_triangular_inverse_of_a_singular_r(self, index, rng):
        # a zero in the first, a middle and the last block row solved
        r = np.linalg.qr(rng.standard_normal((300, 300)), mode="r")
        r[index, index] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            collocation._triu_inv(r)

    @pytest.mark.parametrize("width", [None, 16])
    @pytest.mark.parametrize("t, k", [(320, 107), (5, 1), (600, 256)])
    def test_one_ring_block_is_the_source_major_matrix(self, t, k, width, rng, monkeypatch):
        # the block is the kernel's array itself, row-major, its columns
        # component-major, at any panel width; _to_rings hands source-major
        # strengths over in that order, so it acts as the source-major matrix
        if width is not None:
            monkeypatch.setattr(collocation, "_WY_WIDTH", width)
        mat = rng.standard_normal((1, 3 * t, 3, k))
        cols = _RingSide(k, _XYZ, False, columns=True)
        got = collocation._mode_blocks(mat, _RingSide(t, _FRAME, False), cols)
        assert got.shape == (1, 1, 3 * t, 3 * k) and np.shares_memory(got, mat)
        assert got[0, 0].flags.c_contiguous
        x = rng.standard_normal((2, k, 3))
        y = collocation._real_matmul(got, cols.halves(collocation._to_rings(x, _z_rotations(1))))
        want = x.reshape(2, 3 * k) @ mat[0].swapaxes(1, 2).reshape(3 * t, 3 * k).T
        assert np.max(np.abs(y[:, 0, 0] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_dense_qr_factors_one_copy_of_the_block(self, problem20_strided, monkeypatch):
        # the kernel's arrays are kept as they lie, and the QR's working
        # array, the one copy of the block, is what every WY block's V^T
        # views; no LAPACK QR is called
        calls, qr = [], np.linalg.qr
        kernel, frame_rows = [], collocation._frame_rows

        def recorded(a, mode="reduced"):
            calls.append(a)
            return qr(a, mode=mode)

        def rows(*args):
            kernel.append(args[-2:])
            frame_rows(*args)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        monkeypatch.setattr(collocation, "_frame_rows", rows)
        prob = problem20_strided
        solver = SlipSolver(prob.mesh, prob.sources, prob.alpha, prob.svd_tol)
        for block, written in zip((solver._a, solver._tmat), kernel[0]):
            assert block[0, 0].flags.c_contiguous and np.shares_memory(block, written)
        work = solver._reflectors[0][1].base
        assert work.shape == solver._a[0, 0].T.shape and work.flags.c_contiguous
        assert all(v.base is work for _, v, _ in solver._reflectors)
        assert calls == []
        # the certified block's W is R^-1 of that QR's R, bit for bit
        monkeypatch.undo()
        r, _ = collocation._householder_qr(solver._a[0, 0])
        assert solver._certified
        assert np.array_equal(solver._v[0, 0], collocation._triu_inv(r))

    @pytest.mark.parametrize("svd_tol", [1e-12, 1e-4])
    def test_dense_build_forms_no_q(self, icosphere2, svd_tol, monkeypatch):
        # certified, and the CI's 960 x 480 block at svd_tol 1e-4, which fails
        # the certificate and keeps all 480 singular values of R: the build
        # calls no LAPACK QR, and so forms no Q
        calls, qr = [], np.linalg.qr

        def recorded(a, mode="reduced"):
            calls.append(a)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        prob = SwimProblem(icosphere2, 2.0, stride=2, svd_tol=svd_tol)
        prob.grand_matrix
        assert prob.solver._certified == (svd_tol == 1e-12)
        assert prob.solver.svd_rank == 3 * prob.sources.count
        assert calls == []

    def test_dense_build_peak_is_the_arrays_it_keeps(self, icosphere2):
        # the traced peak of a certified dense build (960 x 480) is the
        # arrays it keeps, within 10%: the block, the traction block, the
        # QR's working array and its T blocks, R and W; a temporary the size
        # of the block (3.7 MB) in the QR or after it would exceed it
        import tracemalloc

        sources = SwimProblem(icosphere2, 2.0, stride=2).sources
        tracemalloc.start()
        try:
            solver = SlipSolver(icosphere2, sources, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solver._certified
        n = solver._a.shape[3]
        kept = solver._a.nbytes + solver._tmat.nbytes + solver._reflectors[0][1].base.nbytes
        kept += sum(t.nbytes for _, _, t in solver._reflectors) + 8 * n * n + solver._v.nbytes
        assert peak <= 1.1 * kept

    def test_refines_only_where_r_inverse_could_lose_the_route_agreement(self, request, problem20_strided):
        # eps ||W||_F ||A|| against 1e-9: the res-16 near no-slip sphere on the
        # dense route (condition 1.1e9) needs the step to agree with the ring
        # route (test_agrees_with_dense_route), the strided icosphere does not
        _, dense = _ring_and_dense(request, "problem16_noslip")
        for solver, refine in ((dense.solver, True), (problem20_strided.solver, False)):
            assert solver._certified and solver._refine == refine
