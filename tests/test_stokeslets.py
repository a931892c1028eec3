import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    ConditioningWarning,
    FlowField,
    PlacementError,
    SingularEvaluationError,
    SlipSolver,
    SourceSet,
    evaluate_flow,
    evaluate_strain,
    load_triangle_mesh,
    make_parametric_surface,
    place_sources,
    point_source_velocity,
    surface_integral,
    traction_matrix,
    velocity_matrix,
)
from slipswim import selfprop, stokeslets
from slipswim.stokeslets import point_source_traction
from test_geometry import _icosphere, _write_off


def _blocked(row_bytes, fn, *args):
    """``fn(*args)`` with blocks of ``row_bytes`` in every pass, and the number of blocks it ran."""
    slices, blocks = [], stokeslets._blocks

    def counted(n, item_bytes):
        for sl in blocks(n, item_bytes):
            slices.append(sl)
            yield sl

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stokeslets, "_ROW_BYTES", row_bytes)
        mp.setattr(stokeslets, "_blocks", counted)
        mp.setattr(selfprop, "_blocks", counted)
        return fn(*args), len(slices)


# Blocks of this many bytes hold everything at once.
_ONE_BLOCK = 2**62


def _oseen_velocity(source, q, x):
    """Independent Oseen-tensor form: u_i = (d_ij/r + r_i r_j / r^3) q_j / 8 pi."""
    r = x - source
    d = np.linalg.norm(r)
    return (q / d + r * np.dot(r, q) / d**3) / (8.0 * np.pi)


def _stokeslet(source, q):
    """One-source field: the production kernels evaluate a single Stokeslet."""
    return FlowField(SourceSet(np.reshape(source, (1, 3)), 1.0), np.reshape(q, (1, 3)))


def _fd_gradient(velocity, x, h=1e-5):
    """(3, 3) gradient du_i/dx_k of ``velocity`` at x by central differences."""
    e = h * np.eye(3)
    return np.column_stack(
        [(velocity(x + e[k]) - velocity(x - e[k])) / (2 * h) for k in range(3)]
    )


def _fd_stress(field, x):
    """-p I + grad u + grad u^T of ``field`` at x, from central differences of the flow."""
    grad = _fd_gradient(lambda y: evaluate_flow(field, y)[0], x)
    return -evaluate_flow(field, x)[1] * np.eye(3) + grad + grad.T


def _fd_sink_stress(x0, x):
    """Stress of the unit sink at x from central differences of point_source_velocity.

    Potential flow: the pressure vanishes and the stress is grad u + grad u^T.
    """
    grad = _fd_gradient(lambda y: point_source_velocity(x0, y[None])[0], x)
    return grad + grad.T


def _traction_matrix_stress(field, x):
    """Stress at x recovered column by column from traction_matrix with normals e1, e2, e3."""
    tmat = traction_matrix(np.tile(x, (3, 1)), np.eye(3), field.sources)
    return (tmat @ field.strengths.ravel()).reshape(3, 3).T


class TestStokesletKernel:
    def test_frozen_axis_values(self):
        field = _stokeslet(np.zeros(3), [0.0, 0.0, 1.0])
        u, p = evaluate_flow(field, np.array([0.0, 0.0, 2.0]))
        npt.assert_allclose(u, [0.0, 0.0, 1.0 / (8.0 * np.pi)], rtol=1e-15)
        npt.assert_allclose(p, 1.0 / (16.0 * np.pi), rtol=1e-15)
        u, p = evaluate_flow(field, np.array([2.0, 0.0, 0.0]))
        npt.assert_allclose(u, [0.0, 0.0, 1.0 / (16.0 * np.pi)], rtol=1e-15)
        npt.assert_allclose(p, 0.0, atol=1e-18)

    def test_matches_oseen_tensor(self, rng):
        for _ in range(5):
            src = rng.normal(size=3)
            q = rng.normal(size=3)
            x = src + rng.normal(size=3) * 2.0
            u, _ = evaluate_flow(_stokeslet(src, q), x)
            npt.assert_allclose(u, _oseen_velocity(src, q, x), rtol=1e-13)

    def test_incompressible(self, rng):
        field = _stokeslet(np.zeros(3), rng.normal(size=3))
        for _ in range(3):
            x = rng.normal(size=3) + np.array([2.0, 0, 0])
            grad = _fd_gradient(lambda y: evaluate_flow(field, y)[0], x)
            assert abs(np.trace(grad)) < 1e-9

    def test_momentum_balance(self, rng):
        # mu lap(u) = grad p away from the singularity (unit viscosity)
        field = _stokeslet(np.zeros(3), rng.normal(size=3))
        x = np.array([1.3, -0.7, 0.9])
        h = 1e-3
        lap = np.zeros(3)
        grad_p = np.zeros(3)
        u0, _ = evaluate_flow(field, x)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up, pp = evaluate_flow(field, x + e)
            um, pm = evaluate_flow(field, x - e)
            lap += (up - 2 * u0 + um) / h**2
            grad_p[k] = (pp - pm) / (2 * h)
        npt.assert_allclose(lap, grad_p, atol=1e-5)

    def test_stress_from_finite_differences(self, rng):
        field = _stokeslet(np.zeros(3), rng.normal(size=3))
        x = np.array([0.8, 1.1, -0.6])
        npt.assert_allclose(_traction_matrix_stress(field, x), _fd_stress(field, x), atol=1e-9)

    def test_singular_evaluation_raises(self):
        with pytest.raises(SingularEvaluationError):
            evaluate_flow(_stokeslet(np.zeros(3), np.ones(3)), np.zeros(3))

    def test_far_points_do_not_set_the_scale(self):
        # each point is judged on its own scale: a point 0.5 from the source
        # next to one 1e12 away evaluates, one 1e-13 from it still raises
        x0 = np.array([0.3, -0.2, 0.1])
        far = np.array([1e12, 0.0, 0.0])
        vel, _ = evaluate_flow(_stokeslet(x0, np.ones(3)), np.array([x0 + 0.5, far]))
        assert np.all(np.isfinite(vel))
        near = np.array([x0 + 1e-13, far])
        with pytest.raises(SingularEvaluationError):
            evaluate_flow(_stokeslet(x0, np.ones(3)), near)
        assert np.all(np.isfinite(point_source_velocity(x0, np.array([x0 + 0.5, far]))))
        with pytest.raises(SingularEvaluationError):
            point_source_velocity(x0, near)
        with pytest.raises(SingularEvaluationError):
            point_source_traction(x0, near, np.ones((2, 3)))


class TestPointSource:
    def test_velocity_is_radial_sink(self):
        v = point_source_velocity(np.zeros(3), np.array([[0.0, 0.0, 2.0]]))
        npt.assert_allclose(v[0], [0.0, 0.0, -1.0 / (16.0 * np.pi)], rtol=1e-15)

    def test_unit_flux_through_surface(self, sphere12):
        # into-body normals make the discrete flux of the sink field +1;
        # off-center the rule is no longer exact, only spectrally accurate
        for x0, tol in ((np.zeros(3), 1e-12), (np.array([0.2, -0.1, 0.3]), 1e-6)):
            v = point_source_velocity(x0, sphere12.nodes)
            flux = surface_integral(sphere12, np.sum(v * sphere12.normals, axis=1))
            npt.assert_allclose(flux, 1.0, rtol=tol)

    def test_stress_traction_consistency(self, rng):
        x0 = rng.normal(size=3) * 0.1
        pts = x0 + rng.normal(size=(4, 3)) * 1.5
        n = rng.normal(size=(4, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        tr = point_source_traction(x0, pts, n)
        for k in range(4):
            npt.assert_allclose(tr[k], _fd_sink_stress(x0, pts[k]) @ n[k], atol=1e-9)

    def test_stress_from_finite_differences(self):
        x0 = np.zeros(3)
        x = np.array([0.9, -0.4, 1.2])
        stress = point_source_traction(x0, np.tile(x, (3, 1)), np.eye(3)).T
        npt.assert_allclose(stress, _fd_sink_stress(x0, x), atol=1e-9)


class TestSourcePlacement:
    def test_shrunken_copies_inside(self, icosphere2):
        # a triangle mesh shrinks its node cloud toward the centroid
        srcs = place_sources(icosphere2, 0.5, stride=1)
        assert srcs.count == icosphere2.n_nodes
        assert srcs.rings == icosphere2.rings == 1
        c = icosphere2.centroid
        assert np.array_equal(srcs.locations, c + 0.5 * (icosphere2.nodes - c))
        brute = np.min(
            np.linalg.norm(icosphere2.nodes[:, None, :] - srcs.locations[None, :, :], axis=2)
        )
        npt.assert_allclose(srcs.min_surface_distance, brute, rtol=1e-12)

    @pytest.mark.parametrize(
        "shape, res, c_axis, shrink",
        [
            ("sphere", 12, 1.0, 0.5),
            ("spheroid", 15, 1.6, 0.9),
            ("spheroid", 10, 2.0, 0.3),
            # depth 0.25 is the rim's radius of curvature c^2/a: the nodes are searched
            ("spheroid", 16, 0.5, 0.5),
        ],
    )
    def test_grid_on_parametric_bodies(self, shape, res, c_axis, shrink):
        mesh = make_parametric_surface(shape, res, a_axis=1.0, c_axis=c_axis)
        srcs = place_sources(mesh, shrink)
        n_t = round(2 * res / 3)
        assert srcs.rings == mesh.rings == res
        assert srcs.count == n_t * res
        # n_t Gauss-Legendre rings times P phi samples, theta-major, each
        # source at depth (1 - shrink) min(a, c) along the inward normal
        a, c = 1.0, c_axis
        cos_t = np.repeat(np.polynomial.legendre.leggauss(n_t)[0], res)
        phi = np.tile(2.0 * np.pi * np.arange(res) / res, n_t)
        sin_t = np.sqrt(1.0 - cos_t**2)
        surface = np.column_stack((a * sin_t * np.cos(phi), a * sin_t * np.sin(phi), c * cos_t))
        normal = -surface / np.array([a * a, a * a, c * c])
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        depth = (1.0 - shrink) * min(a, c)
        npt.assert_allclose(srcs.locations, surface + depth * normal, rtol=0, atol=1e-14)
        if shape == "sphere":
            npt.assert_allclose(np.linalg.norm(srcs.locations, axis=1), shrink, rtol=1e-14)
        brute = np.min(np.linalg.norm(mesh.nodes[:, None, :] - srcs.locations[None, :, :], axis=2))
        if depth < min(a * a / c, c * c / a):
            # each source's foot on the surface is its nearest surface point
            assert srcs.min_surface_distance == depth < brute
        else:
            npt.assert_allclose(srcs.min_surface_distance, brute, rtol=1e-12)

    def test_grid_outside_a_flat_body_rejected(self):
        # on a c = a/10 spheroid a depth of 0.07 leaves the body near the rim
        mesh = make_parametric_surface("spheroid", 16, a_axis=1.0, c_axis=0.1)
        with pytest.raises(PlacementError, match="outside the body"):
            place_sources(mesh, 0.3)

    def test_asymmetric_mesh_searches_every_source(self, sphere12):
        # one node off ring 0 moved inward along its normal breaks the ring
        # symmetry; its source is then the closest to the surface.  The
        # replaced mesh has one ring, so every source is searched.
        nodes = sphere12.nodes.copy()
        nodes[5 * 12 + 7] += 0.3 * sphere12.normals[5 * 12 + 7]
        mesh = dataclasses.replace(sphere12, nodes=nodes)
        assert mesh.rings == 1
        srcs = place_sources(mesh, 0.5)
        assert srcs.rings == 1
        brute = np.min(np.linalg.norm(nodes[:, None, :] - srcs.locations[None, :, :], axis=2))
        npt.assert_allclose(srcs.min_surface_distance, brute, rtol=1e-12)
        assert srcs.min_surface_distance < 0.4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_locations_rejected(self, bad):
        locs = np.zeros((4, 3))
        locs[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SourceSet(locs, 0.5)

    def test_stride_thins_sources(self, icosphere2):
        srcs = place_sources(icosphere2, 0.5, stride=3)
        assert srcs.count == int(np.ceil(icosphere2.n_nodes / 3))
        # by default every second node: K < N, as the fit needs
        assert place_sources(icosphere2, 0.5).count == int(np.ceil(icosphere2.n_nodes / 2))

    def test_stride_rejected_on_parametric_bodies(self, sphere12, spheroid12):
        for mesh in (sphere12, spheroid12):
            assert place_sources(mesh, 0.5, stride=1).count == 8 * 12
            with pytest.raises(ValueError, match="triangle meshes only"):
                place_sources(mesh, 0.5, stride=2)

    def test_invalid_shrink(self, sphere12):
        for bad in (0.0, 1.0, 1.3, -0.2):
            with pytest.raises(PlacementError):
                place_sources(sphere12, bad)

    def test_near_surface_warns(self, sphere8):
        with pytest.warns(ConditioningWarning):
            place_sources(sphere8, 0.999)

    def test_nearest_node_search_memory(self):
        # one K x N x 3 displacement array would take 61 MB here; the copy
        # has no rings, so it shrinks its node cloud and searches every source
        import tracemalloc

        mesh = dataclasses.replace(make_parametric_surface("sphere", 40))
        tracemalloc.start()
        try:
            srcs = place_sources(mesh, 0.5, stride=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert srcs.count == 1600
        assert peak < 80 * 2**20

    def test_triangle_mesh_placement_memory(self, tmp_path):
        # 512-source blocks against every node had a traced peak of 45 MiB
        import tracemalloc

        _write_off(tmp_path / "ico.off", *_icosphere(3))
        mesh = load_triangle_mesh(tmp_path / "ico.off")
        tracemalloc.start()
        try:
            srcs = place_sources(mesh, 0.5, stride=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert srcs.count == mesh.n_nodes == 1280
        assert peak < 10 * 2**20


class TestMatricesAndFields:
    def test_velocity_matrix_against_loop(self, rng):
        pts = rng.normal(size=(5, 3)) + np.array([0, 0, 4.0])
        srcs = SourceSet(rng.normal(size=(3, 3)) * 0.3, 1.0)
        q = rng.normal(size=(3, 3))
        mat = velocity_matrix(pts, srcs)
        assert mat.shape == (15, 9)
        got = (mat @ q.ravel()).reshape(5, 3)
        want = np.zeros((5, 3))
        for m in range(5):
            for k in range(3):
                want[m] += _oseen_velocity(srcs.locations[k], q[k], pts[m])
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_traction_matrix_against_loop(self, rng):
        pts = rng.normal(size=(4, 3)) + np.array([3.0, 0, 0])
        n = rng.normal(size=(4, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        srcs = SourceSet(rng.normal(size=(2, 3)) * 0.2, 1.0)
        field = FlowField(srcs, rng.normal(size=(2, 3)))
        mat = traction_matrix(pts, n, srcs)
        got = (mat @ field.strengths.ravel()).reshape(4, 3)
        for m in range(4):
            npt.assert_allclose(got[m], _fd_stress(field, pts[m]) @ n[m], atol=1e-9)

    def test_frame_rows_are_scale_free(self):
        # rhat / d and rhat / d^2 hold no d^3, so a body 1e-120 across has the
        # unit body's rows times 1e120 (velocity) and 1e240 (traction)
        from slipswim.stokeslets import _frame_rows

        rows = []
        mesh = make_parametric_surface("sphere", 8)
        locs = place_sources(mesh, 0.5).locations
        frames = np.stack((mesh.normals, mesh.tangent1, mesh.tangent2), axis=1)
        # the points alone, scaled below the smallest body a mesh accepts
        for radius in (1.0, 1e-120):
            vel = np.empty((mesh.n_nodes, 3, 3, len(locs)))
            trac = np.empty_like(vel)
            _frame_rows(radius * mesh.nodes, frames, radius * locs, mesh.normals, vel, trac)
            rows.append((vel, trac))
        for (unit, tiny), power in zip(zip(*rows), (120, 240)):
            assert np.all(np.isfinite(tiny))
            got = tiny * 10.0**-power
            assert np.max(np.abs(got - unit)) <= 1e-13 * np.max(np.abs(unit))

    def test_frame_rows_project_the_xyz_rows(self, rng):
        # rows along a frame are the frame's components of the x, y, z rows
        from slipswim.stokeslets import _frame_rows

        pts = rng.normal(size=(7, 3)) + np.array([0.0, 0.0, 3.0])
        srcs = SourceSet(rng.normal(size=(4, 3)) * 0.3, 1.0)
        nrm = rng.normal(size=(7, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        frames = np.linalg.qr(rng.normal(size=(7, 3, 3)))[0].swapaxes(1, 2)
        vel, trac = np.empty((7, 3, 3, 4)), np.empty((7, 3, 3, 4))
        _frame_rows(pts, frames, srcs.locations, nrm, vel, trac)
        for got, mat in ((vel, velocity_matrix(pts, srcs)), (trac, traction_matrix(pts, nrm, srcs))):
            # the rows are component-major, the matrices source-major
            want = np.einsum("mae,mekc->makc", frames, mat.reshape(7, 3, 4, 3))
            npt.assert_allclose(got.swapaxes(2, 3), want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_evaluate_flow_chunking(self, rng):
        srcs = SourceSet(rng.normal(size=(6, 3)) * 0.2, 1.0)
        field = FlowField(srcs, rng.normal(size=(6, 3)))
        pts = rng.normal(size=(600, 3)) * 0.5 + np.array([0, 0, 5.0])
        (vel, pres), blocks = _blocked(2**16, evaluate_flow, field, pts)
        (v, p), one = _blocked(_ONE_BLOCK, evaluate_flow, field, pts)
        assert blocks >= 3 and one == 1
        npt.assert_allclose(vel, v, rtol=1e-13)
        npt.assert_allclose(pres, p, rtol=1e-13)

    @pytest.mark.parametrize("which", ["strain", "traction", "nearest"])
    def test_blocks_match_one_block(self, rng, sphere12, which):
        srcs = SourceSet(rng.normal(size=(40, 3)) * 0.3, 1.0)
        pts = rng.normal(size=(700, 3)) * 3.0
        nrm = rng.normal(size=(700, 3))
        strengths = rng.normal(size=(2, 40, 3))
        fn, args = {
            "strain": (evaluate_strain, (FlowField(srcs, rng.normal(size=(40, 3))), pts)),
            "traction": (stokeslets._traction_product, (pts, nrm, srcs.locations, strengths)),
            "nearest": (stokeslets._nearest_nodes, (sphere12, pts)),
        }[which]
        got, blocks = _blocked(2**16, fn, *args)
        want, one = _blocked(_ONE_BLOCK, fn, *args)
        assert blocks >= 3 and one == 1
        if which == "nearest":
            npt.assert_array_equal(got, want)
        else:
            npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))

    def test_flow_with_source_term(self, rng):
        srcs = SourceSet(rng.normal(size=(2, 3)) * 0.1, 1.0)
        field = FlowField(
            srcs,
            rng.normal(size=(2, 3)),
            source_flux=2.0,
            source_point=np.zeros(3),
        )
        x = np.array([[0.0, 0.0, 3.0]])
        vel, _ = evaluate_flow(field, x)
        bare = FlowField(srcs, field.strengths)
        vel0, _ = evaluate_flow(bare, x)
        npt.assert_allclose(vel - vel0, 2.0 * point_source_velocity(np.zeros(3), x))

    def test_flux_requires_source_point(self, rng):
        srcs = SourceSet(rng.normal(size=(2, 3)) * 0.1, 1.0)
        with pytest.raises(ValueError):
            FlowField(srcs, np.zeros((2, 3)), source_flux=1.0)

    @pytest.mark.parametrize(
        "mesh, shrink, stride, rings",
        [("sphere16", 0.2, 7, 1), ("sphere12", 0.1, 1, 12)],
        ids=["dense", "ring"],
    )
    def test_total_force_identity(self, request, rng, mesh, shrink, stride, rings):
        # momentum flux through the surface recovers the summed strengths;
        # stride thins the sources of a mesh without rings only
        mesh = request.getfixturevalue(mesh)
        if stride > 1:
            mesh = dataclasses.replace(mesh)
        srcs = place_sources(mesh, shrink, stride=stride)
        assert srcs.rings == rings
        q = rng.normal(size=(srcs.count, 3))
        traction = SlipSolver(mesh, srcs, 1.0).node_traction(FlowField(srcs, q))
        force = surface_integral(mesh, traction)
        npt.assert_allclose(force, q.sum(axis=0), rtol=1e-7)

    def test_traction_includes_source_term(self, sphere12, rng):
        srcs = place_sources(dataclasses.replace(sphere12), 0.5, stride=11)
        q = rng.normal(size=(srcs.count, 3))
        x0 = np.array([0.1, 0.0, -0.2])
        field = FlowField(srcs, q, source_flux=1.5, source_point=x0)
        bare = FlowField(srcs, q)
        solver = SlipSolver(sphere12, srcs, 1.0)
        diff = solver.node_traction(field) - solver.node_traction(bare)
        want = 1.5 * point_source_traction(x0, sphere12.nodes, sphere12.normals)
        npt.assert_allclose(diff, want, rtol=1e-12, atol=1e-14)

    def test_strain_from_finite_differences(self, rng):
        srcs = SourceSet(rng.normal(size=(3, 3)) * 0.2, 1.0)
        field = FlowField(
            srcs, rng.normal(size=(3, 3)), source_flux=0.7, source_point=np.zeros(3)
        )
        x = np.array([1.1, -0.8, 1.4])
        h = 1e-5
        grad = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up, _ = evaluate_flow(field, (x + e)[None, :])
            um, _ = evaluate_flow(field, (x - e)[None, :])
            grad[:, k] = (up[0] - um[0]) / (2 * h)
        want = 0.5 * (grad + grad.T)
        got = evaluate_strain(field, x[None, :])[0]
        npt.assert_allclose(got, want, atol=1e-9)

    def test_strain_matches_einsum_form(self, rng):
        srcs = SourceSet(rng.normal(size=(40, 3)) * 0.3, 1.0)
        field = FlowField(srcs, rng.normal(size=(40, 3)))
        pts = rng.normal(size=(700, 3)) * 3.0
        r = pts[:, None, :] - srcs.locations[None, :, :]
        d = np.linalg.norm(r, axis=2)
        rhat = r / d[..., None]
        f = np.einsum("mkj,kj->mk", rhat, field.strengths) / d**2
        want = (
            np.sum(f, axis=1)[:, None, None] * np.eye(3)
            - 3.0 * np.einsum("mk,mka,mkb->mab", f, rhat, rhat)
        ) / (8.0 * np.pi)
        got = evaluate_strain(field, pts)
        npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))
