import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    ConditioningWarning,
    FlowField,
    PlacementError,
    SingularEvaluationError,
    SourceSet,
    evaluate_flow,
    evaluate_strain,
    evaluate_traction,
    make_parametric_surface,
    place_sources,
    point_source_velocity,
    stokeslet_stress,
    stokeslet_velocity,
    surface_integral,
    traction_matrix,
    velocity_matrix,
)
from slipswim.stokeslets import point_source_stress, point_source_traction


def _oseen_velocity(source, q, x):
    """Independent Oseen-tensor form: u_i = (d_ij/r + r_i r_j / r^3) q_j / 8 pi."""
    r = x - source
    d = np.linalg.norm(r)
    return (q / d + r * np.dot(r, q) / d**3) / (8.0 * np.pi)


class TestStokesletKernel:
    def test_frozen_axis_values(self):
        q = np.array([0.0, 0.0, 1.0])
        u, p = stokeslet_velocity(np.zeros(3), q, np.array([0.0, 0.0, 2.0]))
        npt.assert_allclose(u, [0.0, 0.0, 1.0 / (8.0 * np.pi)], rtol=1e-15)
        npt.assert_allclose(p, 1.0 / (16.0 * np.pi), rtol=1e-15)
        u, p = stokeslet_velocity(np.zeros(3), q, np.array([2.0, 0.0, 0.0]))
        npt.assert_allclose(u, [0.0, 0.0, 1.0 / (16.0 * np.pi)], rtol=1e-15)
        npt.assert_allclose(p, 0.0, atol=1e-18)

    def test_matches_oseen_tensor(self, rng):
        for _ in range(5):
            src = rng.normal(size=3)
            q = rng.normal(size=3)
            x = src + rng.normal(size=3) * 2.0
            u, _ = stokeslet_velocity(src, q, x)
            npt.assert_allclose(u, _oseen_velocity(src, q, x), rtol=1e-13)

    def test_incompressible(self, rng):
        src = np.zeros(3)
        q = rng.normal(size=3)
        h = 1e-5
        for _ in range(3):
            x = rng.normal(size=3) + np.array([2.0, 0, 0])
            div = 0.0
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                up, _ = stokeslet_velocity(src, q, x + e)
                um, _ = stokeslet_velocity(src, q, x - e)
                div += (up[k] - um[k]) / (2 * h)
            assert abs(div) < 1e-9

    def test_momentum_balance(self, rng):
        # mu lap(u) = grad p away from the singularity (unit viscosity)
        src = np.zeros(3)
        q = rng.normal(size=3)
        x = np.array([1.3, -0.7, 0.9])
        h = 1e-3
        lap = np.zeros(3)
        grad_p = np.zeros(3)
        u0, _ = stokeslet_velocity(src, q, x)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up, pp = stokeslet_velocity(src, q, x + e)
            um, pm = stokeslet_velocity(src, q, x - e)
            lap += (up - 2 * u0 + um) / h**2
            grad_p[k] = (pp - pm) / (2 * h)
        npt.assert_allclose(lap, grad_p, atol=1e-5)

    def test_stress_from_finite_differences(self, rng):
        src = np.zeros(3)
        q = rng.normal(size=3)
        x = np.array([0.8, 1.1, -0.6])
        h = 1e-5
        grad = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up, _ = stokeslet_velocity(src, q, x + e)
            um, _ = stokeslet_velocity(src, q, x - e)
            grad[:, k] = (up - um) / (2 * h)
        _, p = stokeslet_velocity(src, q, x)
        expected = -p * np.eye(3) + grad + grad.T
        npt.assert_allclose(stokeslet_stress(src, q, x), expected, atol=1e-9)

    def test_singular_evaluation_raises(self):
        with pytest.raises(SingularEvaluationError):
            stokeslet_velocity(np.zeros(3), np.ones(3), np.zeros(3))


class TestPointSource:
    def test_velocity_is_radial_sink(self):
        v = point_source_velocity(np.zeros(3), np.array([0.0, 0.0, 2.0]))
        npt.assert_allclose(v, [0.0, 0.0, -1.0 / (16.0 * np.pi)], rtol=1e-15)

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
            npt.assert_allclose(tr[k], point_source_stress(x0, pts[k]) @ n[k], rtol=1e-13)

    def test_stress_from_finite_differences(self):
        x0 = np.zeros(3)
        x = np.array([0.9, -0.4, 1.2])
        h = 1e-5
        grad = np.zeros((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            grad[:, k] = (
                point_source_velocity(x0, x + e) - point_source_velocity(x0, x - e)
            ) / (2 * h)
        # potential flow: pressure vanishes, stress is the symmetric gradient
        npt.assert_allclose(point_source_stress(x0, x), grad + grad.T, atol=1e-9)


class TestSourcePlacement:
    def test_shrunken_copies_inside(self, sphere12):
        srcs = place_sources(sphere12, 0.5)
        assert srcs.count == sphere12.n_nodes
        npt.assert_allclose(np.linalg.norm(srcs.locations, axis=1), 0.5, rtol=1e-12)
        brute = np.min(
            np.linalg.norm(
                sphere12.nodes[:, None, :] - srcs.locations[None, :, :], axis=2
            )
        )
        npt.assert_allclose(srcs.min_surface_distance, brute, rtol=1e-12)

    def test_stride_thins_sources(self, sphere12):
        srcs = place_sources(sphere12, 0.5, stride=3)
        assert srcs.count == int(np.ceil(sphere12.n_nodes / 3))

    def test_invalid_shrink(self, sphere12):
        for bad in (0.0, 1.0, 1.3, -0.2):
            with pytest.raises(PlacementError):
                place_sources(sphere12, bad)

    def test_near_surface_warns(self, sphere8):
        with pytest.warns(ConditioningWarning):
            place_sources(sphere8, 0.999)

    def test_nearest_node_search_memory(self):
        # one K x N x 3 displacement array would take 61 MB here
        import tracemalloc

        mesh = make_parametric_surface("sphere", 40)
        tracemalloc.start()
        try:
            srcs = place_sources(mesh, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert srcs.count == 1600
        assert peak < 80 * 2**20


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
                u, _ = stokeslet_velocity(srcs.locations[k], q[k], pts[m])
                want[m] += u
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_traction_matrix_against_loop(self, rng):
        pts = rng.normal(size=(4, 3)) + np.array([3.0, 0, 0])
        n = rng.normal(size=(4, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        srcs = SourceSet(rng.normal(size=(2, 3)) * 0.2, 1.0)
        q = rng.normal(size=(2, 3))
        mat = traction_matrix(pts, n, srcs)
        got = (mat @ q.ravel()).reshape(4, 3)
        want = np.zeros((4, 3))
        for m in range(4):
            for k in range(2):
                want[m] += stokeslet_stress(srcs.locations[k], q[k], pts[m]) @ n[m]
        npt.assert_allclose(got, want, rtol=1e-12)

    def test_evaluate_flow_chunking(self, rng):
        srcs = SourceSet(rng.normal(size=(6, 3)) * 0.2, 1.0)
        field = FlowField(srcs, rng.normal(size=(6, 3)))
        pts = rng.normal(size=(600, 3)) * 0.5 + np.array([0, 0, 5.0])
        vel, pres = evaluate_flow(field, pts)
        for m in (0, 100, 599):
            v, p = evaluate_flow(field, pts[m : m + 1])
            npt.assert_allclose(vel[m], v[0], rtol=1e-13)
            npt.assert_allclose(pres[m], p[0], rtol=1e-13)

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
        npt.assert_allclose(vel[0] - vel0[0], 2.0 * point_source_velocity(np.zeros(3), x[0]))

    def test_flux_requires_source_point(self, rng):
        srcs = SourceSet(rng.normal(size=(2, 3)) * 0.1, 1.0)
        with pytest.raises(ValueError):
            FlowField(srcs, np.zeros((2, 3)), source_flux=1.0)

    def test_total_force_identity(self, sphere16, rng):
        # momentum flux through the surface recovers the summed strengths
        srcs = place_sources(sphere16, 0.2, stride=7)
        q = rng.normal(size=(srcs.count, 3))
        field = FlowField(srcs, q)
        traction = evaluate_traction(field, sphere16)
        force = surface_integral(sphere16, traction)
        npt.assert_allclose(force, q.sum(axis=0), rtol=1e-7)

    def test_traction_includes_source_term(self, sphere12, rng):
        srcs = place_sources(sphere12, 0.5, stride=11)
        q = rng.normal(size=(srcs.count, 3))
        x0 = np.array([0.1, 0.0, -0.2])
        field = FlowField(srcs, q, source_flux=1.5, source_point=x0)
        bare = FlowField(srcs, q)
        diff = evaluate_traction(field, sphere12) - evaluate_traction(bare, sphere12)
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
