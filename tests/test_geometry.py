import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import (
    GeometryError,
    MeshFormatError,
    PlacementError,
    SlipSolver,
    SourceSet,
    SurfaceMesh,
    elementary_rigid_motion,
    load_triangle_mesh,
    make_parametric_surface,
    place_sources,
    surface_integral,
    tangential_part,
)
from slipswim.collocation import _FRAME, _XYZ
from slipswim.geometry import _gauss_legendre, _z_rotations


def _icosphere(subdivisions=3):
    """Icosahedron refined by edge midpoint splitting, projected to the unit sphere."""
    p = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            (-1, p, 0), (1, p, 0), (-1, -p, 0), (1, -p, 0),
            (0, -1, p), (0, 1, p), (0, -1, -p), (0, 1, -p),
            (p, 0, -1), (p, 0, 1), (-p, 0, -1), (-p, 0, 1),
        ],
        dtype=float,
    )
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), faces


_CUBE_VERTS = np.array(
    [
        (-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
        (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1),
    ],
    dtype=float,
)
_CUBE_FACES = [
    (0, 2, 1), (0, 3, 2), (4, 5, 6), (4, 6, 7),
    (0, 1, 5), (0, 5, 4), (2, 3, 7), (2, 7, 6),
    (1, 2, 6), (1, 6, 5), (3, 0, 4), (3, 4, 7),
]


def _write_off(path, verts, faces):
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{v[0]} {v[1]} {v[2]}" for v in verts]
    lines += ["3 " + " ".join(str(i) for i in f) for f in faces]
    path.write_text("\n".join(lines) + "\n")


def _revolve(profile, n_phi):
    """Closed triangle surface of revolution about z of a (rho, z) polyline.

    The first and last profile points lie on the axis and become poles.
    """
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    rings = profile[1:-1]
    verts = [(0.0, 0.0, profile[0][1])]
    verts += [(r * np.cos(p), r * np.sin(p), z) for r, z in rings for p in phi]
    verts.append((0.0, 0.0, profile[-1][1]))

    def at(ring, q):
        return 1 + ring * n_phi + q % n_phi

    last = len(rings) - 1
    faces = [(0, at(0, q + 1), at(0, q)) for q in range(n_phi)]
    for ring in range(last):
        for q in range(n_phi):
            a, b = at(ring, q), at(ring, q + 1)
            c, d = at(ring + 1, q + 1), at(ring + 1, q)
            faces += [(a, b, c), (a, c, d)]
    faces += [(len(verts) - 1, at(last, q), at(last, q + 1)) for q in range(n_phi)]
    return np.array(verts), faces


def _write_obj(path, verts, faces, with_normals=False):
    lines = [f"v {v[0]} {v[1]} {v[2]}" for v in verts]
    if with_normals:
        lines += ["vn 0 0 1"]
        lines += ["f " + " ".join(f"{i + 1}//1" for i in f) for f in faces]
    else:
        lines += ["f " + " ".join(str(i + 1) for i in f) for f in faces]
    path.write_text("\n".join(lines) + "\n")


class TestParametricSphere:
    def test_area_matches_unit_sphere(self, sphere12):
        npt.assert_allclose(sphere12.area, 4.0 * np.pi, rtol=1e-12)

    def test_centroid_at_origin(self, sphere12):
        npt.assert_allclose(sphere12.centroid, 0.0, atol=1e-13)
        # weights times nodes is of size r**3, a normal float across the accepted sizes
        huge = make_parametric_surface("sphere", 12, radius=2.0**300)
        assert np.max(np.abs(huge.centroid)) <= 1e-13 * 2.0**300
        with pytest.raises(GeometryError, match="outside the accepted range"):
            make_parametric_surface("sphere", 12, radius=1e150)

    def test_hand_built_mesh_size_is_checked(self, sphere8):
        # SurfaceMesh checks every mesh, not only those the builders make
        for scale in (1e-120, 1e120):
            with pytest.raises(GeometryError, match="outside the accepted range"):
                SurfaceMesh(
                    scale * sphere8.nodes, sphere8.normals, scale**2 * sphere8.weights,
                    sphere8.tangent1, sphere8.tangent2,
                )

    def test_gauss_legendre_rule_is_held_read_only(self):
        from numpy.polynomial.legendre import leggauss

        t, w = _gauss_legendre(13)
        assert _gauss_legendre(13)[0] is t
        assert not t.flags.writeable and not w.flags.writeable
        npt.assert_array_equal(np.stack((t, w)), np.stack(leggauss(13)))
        mesh = make_parametric_surface("sphere", 13)
        npt.assert_array_equal(mesh.nodes[::13, 2], t)

    def test_radius_scaling(self):
        mesh = make_parametric_surface("sphere", 8, radius=2.5)
        npt.assert_allclose(mesh.area, 4.0 * np.pi * 2.5**2, rtol=1e-12)
        npt.assert_allclose(np.linalg.norm(mesh.nodes, axis=1), 2.5, rtol=1e-12)

    def test_divergence_identity(self, sphere12):
        # With normals pointing into the body, sum w (n . x) = -3 V.
        total = surface_integral(
            sphere12, np.sum(sphere12.normals * sphere12.nodes, axis=1)
        )
        npt.assert_allclose(total, -4.0 * np.pi, rtol=1e-12)

    def test_normals_point_into_body(self, sphere12):
        radial = np.sum(sphere12.normals * sphere12.nodes, axis=1)
        assert np.all(radial < 0.0)

    def test_node_count_and_ordering(self):
        res = 10
        mesh = make_parametric_surface("sphere", res)
        assert mesh.n_nodes == res * res
        grid = mesh.nodes.reshape(res, res, 3)
        # theta-major ordering: each row shares one polar height, ascending in z
        z_rows = grid[:, :, 2]
        assert np.all(np.ptp(z_rows, axis=1) < 1e-13)
        assert np.all(np.diff(z_rows[:, 0]) > 0)

    def test_weights_positive(self, sphere12):
        assert np.all(sphere12.weights > 0)

    def test_resolution_floor(self):
        with pytest.raises(GeometryError):
            make_parametric_surface("sphere", 6)

    def test_unknown_shape(self):
        with pytest.raises(GeometryError):
            make_parametric_surface("torus", 12)

    @pytest.mark.parametrize(
        "shape, dims, small",
        [
            ("sphere", {"radius": 1e-155}, "1e-155"),
            ("spheroid", {"a_axis": 1e-160, "c_axis": 3e-160}, "3e-160"),
        ],
    )
    def test_dimension_floor(self, shape, dims, small):
        # below 1e-101 the resistance R, of size r**3, is no longer a normal float
        with pytest.raises(GeometryError, match=f"size {small} .* range 1e-101 to 1e\\+101"):
            make_parametric_surface(shape, 8, **dims)

    def test_shape_info_recorded(self, sphere12, spheroid12):
        assert sphere12.shape_info == ("sphere", 1.0)
        assert spheroid12.shape_info == ("spheroid", 1.0, 1.6)


class TestParametricSpheroid:
    def test_prolate_area_closed_form(self):
        a, c = 1.0, 2.0
        mesh = make_parametric_surface("spheroid", 24, a_axis=a, c_axis=c)
        e = np.sqrt(1.0 - (a / c) ** 2)
        exact = 2.0 * np.pi * a**2 * (1.0 + (c / (a * e)) * np.arcsin(e))
        npt.assert_allclose(mesh.area, exact, rtol=1e-10)

    def test_divergence_identity(self):
        a, c = 1.0, 2.0
        mesh = make_parametric_surface("spheroid", 16, a_axis=a, c_axis=c)
        total = surface_integral(mesh, np.sum(mesh.normals * mesh.nodes, axis=1))
        npt.assert_allclose(total, -4.0 * np.pi * a * a * c, rtol=1e-10)

    def test_normals_unit_and_interior(self, spheroid12):
        npt.assert_allclose(np.linalg.norm(spheroid12.normals, axis=1), 1.0, atol=1e-12)
        assert np.all(np.sum(spheroid12.normals * spheroid12.nodes, axis=1) < 0)


class TestFramesAndMotions:
    def test_tangent_frames_orthonormal(self, spheroid12):
        m = spheroid12
        for t in (m.tangent1, m.tangent2):
            npt.assert_allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-12)
            npt.assert_allclose(np.sum(t * m.normals, axis=1), 0.0, atol=1e-12)
        npt.assert_allclose(np.sum(m.tangent1 * m.tangent2, axis=1), 0.0, atol=1e-12)
        cross = np.cross(m.normals, m.tangent1)
        npt.assert_allclose(cross, m.tangent2, atol=1e-12)

    def test_elementary_motions(self, rng):
        x = rng.normal(size=(5, 3))
        npt.assert_allclose(elementary_rigid_motion(1, x), np.tile([1.0, 0, 0], (5, 1)))
        npt.assert_allclose(elementary_rigid_motion(5, x), np.cross([0, 1.0, 0], x))
        with pytest.raises(ValueError):
            elementary_rigid_motion(7, x)

    def test_tangential_part_is_tangent(self, sphere12, rng):
        v = rng.normal(size=(sphere12.n_nodes, 3))
        vt = tangential_part(v, sphere12.normals)
        npt.assert_allclose(np.sum(vt * sphere12.normals, axis=1), 0.0, atol=1e-12)
        # removing the normal component twice changes nothing
        npt.assert_allclose(tangential_part(vt, sphere12.normals), vt, atol=1e-13)


class TestSurfaceIntegral:
    def test_scalar_and_vector(self, sphere12, rng):
        ones = np.ones(sphere12.n_nodes)
        npt.assert_allclose(surface_integral(sphere12, ones), sphere12.area)
        v = rng.normal(size=(sphere12.n_nodes, 3))
        expected = np.array([surface_integral(sphere12, v[:, j]) for j in range(3)])
        npt.assert_allclose(surface_integral(sphere12, v), expected)

    def test_length_mismatch(self, sphere12):
        with pytest.raises(ValueError):
            surface_integral(sphere12, np.ones(7))


class TestMeshDataclass:
    def test_arrays_read_only(self, sphere12):
        with pytest.raises(ValueError):
            sphere12.nodes[0, 0] = 99.0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("nodes", np.inf),
            ("normals", np.nan),
            ("weights", np.nan),
            ("tangent1", np.nan),
            ("tangent2", -np.inf),
        ],
    )
    def test_non_finite_arrays_rejected(self, sphere8, name, value):
        # NaN passes every range comparison, so each array needs its own check
        fields = {
            k: np.array(getattr(sphere8, k))
            for k in ("nodes", "normals", "weights", "tangent1", "tangent2")
        }
        fields[name].flat[0] = value
        with pytest.raises(GeometryError, match="finite"):
            SurfaceMesh(**fields, shape_info=sphere8.shape_info)


def _same(values, ref) -> bool:
    """Whether ``values`` equal ``ref`` to 1e-12 of the largest entry of ``ref``."""
    return bool(np.max(np.abs(values - ref)) <= 1e-12 * np.max(np.abs(ref)))


class TestRingContract:
    """The rings the builders record hold as the ring route assumes them."""

    @pytest.mark.parametrize(
        "shape, res, radius, shrink",
        [
            ("sphere", 8, 1e-100, 0.3),
            ("sphere", 9, 1.0, 0.9),
            ("sphere", 21, 1e100, 0.5),
            ("spheroid", 12, 1e100, 0.9),
            ("spheroid", 15, 1e-100, 0.7),
            ("spheroid", 24, 1.0, 0.3),
            # odd source ring counts n_t = 7 and 11 on even T
            ("spheroid", 10, 1.0, 0.5),
            ("sphere", 16, 1e-100, 0.7),
        ],
    )
    def test_rings_rotate_and_reflect(self, shape, res, radius, shrink):
        mesh = make_parametric_surface(shape, res, radius, a_axis=radius, c_axis=1.6 * radius)
        srcs = place_sources(mesh, shrink)
        assert mesh.rings == srcs.rings == res
        # the source grid has its own n_t = round(2T/3) rings in theta
        assert srcs.count == round(2 * res / 3) * res
        p, rot = res, _z_rotations(res)
        vectors = (mesh.nodes, mesh.normals, mesh.tangent1, mesh.tangent2, srcs.locations)
        # ring q (every P-th entry from q) is ring 0 rotated about z by 2 pi q / P
        for v in vectors:
            rings = v.reshape(-1, p, 3)
            assert _same(rings, np.einsum("qab,tb->tqa", rot, rings[:, 0]))
        w = mesh.weights.reshape(-1, p)
        assert _same(w, w[:, :1])
        # y -> -y maps ring-0 entry j onto itself, z -> -z onto entry T - 1 - j
        for which, order in ((0, slice(None)), (1, slice(None, None, -1))):
            signs = (1.0, *_FRAME[which], 1.0)
            for v, sign in zip(vectors, signs):
                assert _same(v[::p][order] * _XYZ[which] * sign, v[::p])
        assert _same(w[::-1, 0], w[:, 0])

    @pytest.mark.parametrize("res", [8, 10, 16])
    def test_odd_source_grid_splits_at_the_equator(self, res):
        # an odd n_t puts a source ring on the equator; the z mirror gives its
        # x and y strengths to the even half and its z strength to the odd half
        mesh = make_parametric_surface("sphere", res)
        srcs = place_sources(mesh, 0.5)
        n_t = srcs.count // res
        assert n_t % 2 == 1 and mesh.n_nodes // res == res
        assert srcs.locations[::res][n_t // 2, 2] == 0.0
        k = n_t // 2
        assert SlipSolver(mesh, srcs, 2.0)._cols.sizes == (3 * k + 2, 3 * k + 1)

    def test_rings_are_not_a_knob(self, sphere8):
        names = ("nodes", "normals", "weights", "tangent1", "tangent2")
        arrays = {k: getattr(sphere8, k) for k in names}
        with pytest.raises(TypeError):
            SurfaceMesh(**arrays, shape_info=sphere8.shape_info, rings=4)
        assert sphere8.rings == 8
        assert dataclasses.replace(sphere8).rings == 1
        assert SourceSet(place_sources(sphere8, 0.5).locations, 0.5).rings == 1


class TestTriangleMeshes:
    def test_icosphere_off(self, tmp_path):
        verts, faces = _icosphere(3)
        path = tmp_path / "ico.off"
        _write_off(path, verts, faces)
        mesh = load_triangle_mesh(path)
        assert mesh.n_nodes == len(faces) == 1280
        npt.assert_allclose(mesh.area, 4.0 * np.pi, rtol=5e-3)
        total = surface_integral(mesh, np.sum(mesh.normals * mesh.nodes, axis=1))
        npt.assert_allclose(total, -4.0 * np.pi, rtol=1e-2)
        # face centroids of a convex body see inward normals
        assert np.all(np.sum(mesh.normals * mesh.nodes, axis=1) < 0)

    def test_cube_off_exact(self, tmp_path):
        path = tmp_path / "cube.off"
        _write_off(path, _CUBE_VERTS, _CUBE_FACES)
        mesh = load_triangle_mesh(path)
        npt.assert_allclose(mesh.area, 24.0, rtol=1e-14)
        total = surface_integral(mesh, np.sum(mesh.normals * mesh.nodes, axis=1))
        npt.assert_allclose(total, -24.0, rtol=1e-14)

    def test_cube_obj_matches_off(self, tmp_path):
        off = tmp_path / "cube.off"
        obj = tmp_path / "cube.obj"
        _write_off(off, _CUBE_VERTS, _CUBE_FACES)
        _write_obj(obj, _CUBE_VERTS, _CUBE_FACES, with_normals=True)
        a = load_triangle_mesh(off)
        b = load_triangle_mesh(obj)
        npt.assert_allclose(a.nodes, b.nodes)
        npt.assert_allclose(a.normals, b.normals)
        npt.assert_allclose(a.weights, b.weights)

    def test_small_body_orients(self, tmp_path):
        # the zero-volume guard is relative to the body's size
        verts, faces = _icosphere(1)
        _write_off(tmp_path / "unit.off", verts, faces)
        _write_off(tmp_path / "small.off", 1e-5 * verts, faces)
        unit = load_triangle_mesh(tmp_path / "unit.off")
        small = load_triangle_mesh(tmp_path / "small.off")
        npt.assert_allclose(small.weights, 1e-10 * unit.weights, rtol=1e-12)
        npt.assert_allclose(small.normals, unit.normals, atol=1e-12)

    def test_zero_volume_rejected(self, tmp_path):
        # closed and consistently wound, but flat: one triangle, both ways round
        path = tmp_path / "flat.off"
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        _write_off(path, verts, [(0, 1, 2), (0, 2, 1)])
        with pytest.raises(GeometryError, match="encloses no volume"):
            load_triangle_mesh(path)

    def test_orientation_flip_is_corrected(self, tmp_path):
        flipped = [(f[0], f[2], f[1]) for f in _CUBE_FACES]
        path = tmp_path / "flipped.off"
        _write_off(path, _CUBE_VERTS, flipped)
        mesh = load_triangle_mesh(path)
        assert np.all(np.sum(mesh.normals * mesh.nodes, axis=1) < 0)

    def test_mixed_winding_rejected(self, tmp_path, capsys):
        import json

        from slipswim.cli import main

        verts = np.vstack([np.eye(3), -np.eye(3)])
        faces = [
            (0, 1, 2), (1, 3, 2), (3, 4, 2), (4, 0, 2),
            (1, 0, 5), (3, 1, 5), (4, 3, 5), (0, 4, 5),
        ]
        good = tmp_path / "octa.off"
        _write_off(good, verts, faces)
        mesh = load_triangle_mesh(good)
        assert np.all(np.sum(mesh.normals * mesh.nodes, axis=1) < 0)

        bad = tmp_path / "octa_flipped.off"
        _write_off(bad, verts, faces[:-1] + [(0, 5, 4)])
        with pytest.raises(GeometryError, match="winding"):
            load_triangle_mesh(bad)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"shape": {"kind": "mesh", "path": str(bad)}, "alpha": 1.0}))
        assert main(["mobility", "--config", str(cfg)]) == 2
        assert "winding" in capsys.readouterr().err

    def test_cup_is_not_star_shaped(self, tmp_path, capsys):
        import json

        from slipswim.cli import main

        # Thin-walled cup: outer radius 1, wall and floor 0.1 thick, open at
        # z = 1.  Its centroid lies in the cavity, outside the body, so every
        # shrink sends some sources out through the floor or the wall.
        wall = [(1.0, z) for z in np.linspace(-1.0, 1.0, 8)]
        floor = [(r, -1.0) for r in (0.3, 0.6)]
        profile = (
            [(0.0, -1.0)] + floor + wall + [(0.9, 1.0)]
            + [(0.9, z) for z in np.linspace(1.0, -0.9, 8)[1:]]
            + [(r, -0.9) for r in (0.6, 0.3)] + [(0.0, -0.9)]
        )
        path = tmp_path / "cup.off"
        _write_off(path, *_revolve(profile, 16))
        mesh = load_triangle_mesh(path)
        c = mesh.centroid
        assert np.hypot(c[0], c[1]) < 0.9 and -0.9 < c[2] < 1.0
        for shrink in (0.2, 0.5, 0.8, 0.95):
            with pytest.raises(PlacementError, match="star-shaped"):
                place_sources(mesh, shrink)

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"shape": {"kind": "mesh", "path": str(path)}, "alpha": 1.0}))
        assert main(["mobility", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "star-shaped" in err and len(err.strip().splitlines()) == 1

    def test_open_surface_rejected(self, tmp_path):
        path = tmp_path / "open.off"
        _write_off(path, _CUBE_VERTS, _CUBE_FACES[:-1])
        with pytest.raises(GeometryError):
            load_triangle_mesh(path)

    def test_degenerate_triangle_rejected(self, tmp_path):
        verts = np.vstack([_CUBE_VERTS, _CUBE_VERTS[0]])
        faces = _CUBE_FACES + [(0, 8, 1), (1, 8, 0)]
        path = tmp_path / "degen.off"
        _write_off(path, verts, faces)
        with pytest.raises(GeometryError):
            load_triangle_mesh(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("PLY\n3 1 0\n")
        with pytest.raises(MeshFormatError):
            load_triangle_mesh(path)

    @pytest.mark.parametrize(
        "suffix, line, bad",
        [
            (".off", -1, "3 3 7 x"),
            (".off", -1, "3 3 7"),
            (".off", -1, "3.0 3 7 5"),
            (".obj", 0, "v 1 1 y"),
            (".obj", 0, "v 1 1"),
            (".obj", -1, "f 4 8 z"),
        ],
        ids=["off-letter", "off-short-face", "off-float-size", "obj-letter",
             "obj-short-vertex", "obj-face-letter"],
    )
    def test_malformed_line_rejected(self, tmp_path, suffix, line, bad):
        path = tmp_path / f"cube{suffix}"
        (_write_off if suffix == ".off" else _write_obj)(path, _CUBE_VERTS, _CUBE_FACES)
        lines = path.read_text().splitlines()
        lines[line] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError, match=path.name):
            load_triangle_mesh(path)

    def test_two_coordinate_vertices_rejected(self, tmp_path):
        path = tmp_path / "flat.off"
        _write_off(path, _CUBE_VERTS, _CUBE_FACES)
        lines = path.read_text().splitlines()
        lines[2:10] = [" ".join(ln.split()[:2]) for ln in lines[2:10]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshFormatError, match="three coordinates"):
            load_triangle_mesh(path)

    def test_bad_index_rejected(self, tmp_path):
        path = tmp_path / "badidx.off"
        _write_off(path, _CUBE_VERTS, _CUBE_FACES[:-1] + [(3, 4, 99)])
        with pytest.raises(MeshFormatError):
            load_triangle_mesh(path)
