"""Quadrature meshes of closed body surfaces.

A :class:`SurfaceMesh` bundles collocation nodes, quadrature weights and an
orthonormal frame (normal plus two tangents) per node.  Normals point out of
the fluid, i.e. *into* the body: on the unit sphere the normal at x is -x.
With that orientation the divergence identity reads

    sum_k w_k (n_k . x_k) = -3 vol(B),

which equals -4*pi for the unit ball; ``test_geometry`` pins this sign.

Parametric meshes use a Gauss-Legendre grid in cos(theta) crossed with a
uniform (trapezoid) grid in phi, so the poles carry no nodes and smooth
surface integrals converge spectrally.  Node ordering is stable and
documented: theta-major, phi-minor (see :func:`make_parametric_surface`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GeometryError, MeshFormatError

__all__ = [
    "SurfaceMesh",
    "make_parametric_surface",
    "load_triangle_mesh",
    "elementary_rigid_motion",
    "tangential_part",
    "surface_integral",
]

_FRAME_TOL = 1e-12
# Largest semi-axis whose square is a finite float.
_MAX_SEMI_AXIS = float(np.sqrt(np.finfo(float).max))


@dataclass(frozen=True)
class SurfaceMesh:
    """Discretized closed surface with per-node quadrature and frames.

    Parameters
    ----------
    nodes : (N, 3) array
        Collocation/quadrature points on the surface.
    normals : (N, 3) array
        Unit normals pointing out of the fluid (into the body).
    weights : (N,) array
        Positive quadrature weights; their sum approximates the area.
    tangent1, tangent2 : (N, 3) arrays
        Orthonormal tangent pair completing the frame at each node.
    shape_info : tuple or None
        ("sphere", radius) or ("spheroid", a, c) for parametric meshes,
        None for loaded triangle meshes.  Volume quadrature in the
        validation layer needs it to find the surface along a ray.
    """

    nodes: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    tangent1: np.ndarray
    tangent2: np.ndarray
    shape_info: tuple | None = None

    def __post_init__(self):
        for name in ("nodes", "normals", "weights", "tangent1", "tangent2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            # NaN fails every comparison below, so it must be caught here.
            if not np.all(np.isfinite(arr)):
                raise GeometryError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
            # Shared read-only across workers; freeze the arrays.
            arr.setflags(write=False)
        n = len(self.nodes)
        if self.nodes.shape != (n, 3):
            raise GeometryError(f"nodes must be (N, 3), got {self.nodes.shape}")
        for name in ("normals", "tangent1", "tangent2"):
            if getattr(self, name).shape != (n, 3):
                raise GeometryError(f"{name} must match nodes shape (N, 3)")
        if self.weights.shape != (n,):
            raise GeometryError("weights must be a length-N vector")
        if not np.all(self.weights > 0):
            raise GeometryError("all quadrature weights must be positive")
        if np.max(np.abs(np.linalg.norm(self.normals, axis=1) - 1.0)) > _FRAME_TOL:
            raise GeometryError("normals must be unit vectors")
        frame_defect = max(
            np.max(np.abs(np.einsum("ij,ij->i", self.tangent1, self.normals))),
            np.max(np.abs(np.einsum("ij,ij->i", self.tangent2, self.normals))),
            np.max(np.abs(np.einsum("ij,ij->i", self.tangent1, self.tangent2))),
            np.max(np.abs(np.linalg.norm(self.tangent1, axis=1) - 1.0)),
            np.max(np.abs(np.linalg.norm(self.tangent2, axis=1) - 1.0)),
        )
        if frame_defect > _FRAME_TOL:
            raise GeometryError(f"tangent frame not orthonormal (defect {frame_defect:.2e})")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def area(self) -> float:
        return float(np.sum(self.weights))

    @property
    def centroid(self) -> np.ndarray:
        """Area-weighted barycenter of the surface nodes."""
        return self.weights @ self.nodes / self.area


def elementary_rigid_motion(i: int, x) -> np.ndarray:
    """The i-th elementary rigid motion a + b x x at x (a point or an (N, 3) batch).

    Unit translations (a = e_i) for i = 1..3, unit spins (b = e_(i-3)) for i = 4..6.
    """
    if not 1 <= i <= 6:
        raise ValueError(f"elementary motion index must be 1..6, got {i}")
    a, b = np.zeros(3), np.zeros(3)
    (a if i <= 3 else b)[(i - 1) % 3] = 1.0
    return a + np.cross(b, np.asarray(x, dtype=float))


def tangential_part(v, n):
    """Project (N, 3) vectors v onto the planes orthogonal to the unit normals n.

    Returns v - (v.n) n, which is idempotent and linear.
    """
    v = np.asarray(v, dtype=float)
    return v - np.einsum("ij,ij->i", v, n)[:, None] * n


def surface_integral(mesh: SurfaceMesh, values):
    """Quadrature sum over the surface: sum_k w_k values_k.

    ``values`` may be per-node scalars (N,) or vectors (N, d); the result is
    a float or a length-d array accordingly.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != mesh.n_nodes:
        raise ValueError(
            f"field has {len(values)} entries for a mesh with {mesh.n_nodes} nodes"
        )
    if values.ndim == 1:
        return float(mesh.weights @ values)
    return mesh.weights @ values


def _tangent_frame(normals: np.ndarray, axial_switch: bool = True):
    """Deterministic orthonormal tangent pair for each unit normal.

    The reference direction is ez; t1 is its normalized projection onto
    the tangent plane and t2 = n x t1.  With ``axial_switch`` the reference
    becomes ex where the normal is nearly axial (|n_z| > 0.9), which keeps
    the projection defined for any normal.  Parametric meshes pass False:
    they carry no pole nodes, and the pure ez frame is equivariant under
    rotations about z, which the ring factorization in
    :class:`slipswim.collocation.SlipSolver` relies on.
    """
    ref = np.tile(np.array([0.0, 0.0, 1.0]), (len(normals), 1))
    if axial_switch:
        ref[np.abs(normals[:, 2]) > 0.9] = np.array([1.0, 0.0, 0.0])
    t1 = ref - np.einsum("ij,ij->i", ref, normals)[:, None] * normals
    t1 /= np.linalg.norm(t1, axis=1)[:, None]
    t2 = np.cross(normals, t1)
    return t1, t2


def make_parametric_surface(
    shape: str,
    resolution: int,
    radius: float = 1.0,
    a_axis: float = 1.0,
    c_axis: float = 1.0,
) -> SurfaceMesh:
    """Build a sphere or spheroid quadrature mesh.

    Parameters
    ----------
    shape : {"sphere", "spheroid"}
        "sphere" uses ``radius``; "spheroid" has semi-axes (a_axis, a_axis,
        c_axis) with c_axis along z.
    resolution : int >= 8
        Number of Gauss-Legendre nodes in cos(theta) and of uniform phi
        samples; the mesh has resolution**2 nodes.  Ordering is theta-major:
        node index = i_theta * resolution + i_phi, with cos(theta) ascending
        (south to north) and phi = 2*pi*i_phi/resolution.
    radius, a_axis, c_axis : float
        Dimensions, all > 0 and below sqrt(float max), about 1.34e154.

    Returns
    -------
    SurfaceMesh
        Quadrature exact for smooth integrands up to the spectral truncation;
        the area of a sphere is reproduced to rounding.
    """
    if resolution < 8:
        raise GeometryError(f"resolution must be at least 8, got {resolution}")
    if shape == "sphere":
        if radius <= 0:
            raise GeometryError("sphere radius must be positive")
        a, c = radius, radius
        shape_info = ("sphere", float(radius))
    elif shape == "spheroid":
        if a_axis <= 0 or c_axis <= 0:
            raise GeometryError("spheroid semi-axes must be positive")
        a, c = a_axis, c_axis
        shape_info = ("spheroid", float(a_axis), float(c_axis))
    else:
        raise GeometryError(f"unknown shape {shape!r}")
    if max(a, c) >= _MAX_SEMI_AXIS:
        raise GeometryError(f"{shape} dimensions must be below {_MAX_SEMI_AXIS:.4g}")

    t, wt = leggauss(resolution)
    phi = 2.0 * np.pi * np.arange(resolution) / resolution
    w_phi = 2.0 * np.pi / resolution

    tt = np.repeat(t, resolution)
    ww = np.repeat(wt, resolution) * w_phi
    pp = np.tile(phi, resolution)
    s = np.sqrt(1.0 - tt**2)

    nodes = np.column_stack((a * s * np.cos(pp), a * s * np.sin(pp), c * tt))
    # Jacobian |x_t x x_phi| = a * sqrt(c^2 (1 - t^2) + a^2 t^2) for the polar map.
    weights = ww * a * np.sqrt(c**2 * (1.0 - tt**2) + a**2 * tt**2)

    # Inward normal of the ellipsoid x^2/a^2 + y^2/a^2 + z^2/c^2 = 1.
    grad = np.column_stack((nodes[:, 0] / a**2, nodes[:, 1] / a**2, nodes[:, 2] / c**2))
    normals = -grad / np.linalg.norm(grad, axis=1)[:, None]

    t1, t2 = _tangent_frame(normals, axial_switch=False)
    return SurfaceMesh(nodes, normals, weights, t1, t2, shape_info=shape_info)


def load_triangle_mesh(path) -> SurfaceMesh:
    """Load a closed triangle surface (OFF or Wavefront OBJ) as a centroid mesh.

    Each triangle contributes one node at its centroid with its area as the
    quadrature weight.  Normals are reoriented to point into the body using
    the signed-volume test, so the global winding does not matter; it must
    only be consistent across faces.

    Raises
    ------
    MeshFormatError
        Unreadable or malformed file, or non-triangle faces.
    GeometryError
        Surface not closed/manifold (an edge not shared by exactly two faces)
        or faces wound inconsistently (a directed edge used twice).
    """
    text = _read_text(path)
    ext = os.path.splitext(str(path))[1].lower()
    try:
        if ext == ".off" or text.lstrip().upper().startswith("OFF"):
            verts, faces = _parse_off(text)
        elif ext == ".obj":
            verts, faces = _parse_obj(text)
        else:
            raise MeshFormatError(f"unsupported mesh format for {path!r} (need .off or .obj)")
    except ValueError as exc:
        # bad numbers and ragged vertex or face lines
        raise MeshFormatError(f"malformed mesh file {path!r}: {exc}") from exc

    if faces.size == 0 or len(verts) == 0:
        raise MeshFormatError("mesh has no faces")
    if verts.shape[1:] != (3,):
        raise MeshFormatError(f"malformed mesh file {path!r}: vertices need three coordinates")
    if faces.min() < 0 or faces.max() >= len(verts):
        raise MeshFormatError("face references a vertex index out of range")

    directed = np.stack((faces, np.roll(faces, -1, axis=1)), axis=-1).reshape(-1, 2)
    _, counts = np.unique(np.sort(directed, axis=1), axis=0, return_counts=True)
    if np.any(counts != 2):
        raise GeometryError(
            f"surface is not closed/manifold: {np.count_nonzero(counts != 2)} edges "
            "not shared by exactly 2 faces"
        )
    # Consistently wound neighbours traverse their shared edge in opposite
    # directions; the global orientation below relies on that.
    _, counts = np.unique(directed, axis=0, return_counts=True)
    if np.any(counts != 1):
        raise GeometryError(
            f"inconsistent face winding: {np.count_nonzero(counts != 1)} directed edges "
            "are traversed by two faces"
        )

    v0 = verts[faces[:, 0]]
    v1 = verts[faces[:, 1]]
    v2 = verts[faces[:, 2]]
    area_vec = 0.5 * np.cross(v1 - v0, v2 - v0)
    areas = np.linalg.norm(area_vec, axis=1)
    if np.any(areas <= 0):
        raise GeometryError("mesh contains degenerate (zero-area) triangles")
    centroids = (v0 + v1 + v2) / 3.0

    # Signed volume with the file's winding; positive means outward-wound faces.
    signed_vol = float(np.sum(np.einsum("ij,ij->i", centroids, area_vec))) / 3.0
    if abs(signed_vol) < 1e-12:
        raise GeometryError("mesh encloses no volume; cannot orient normals")
    normals = -np.sign(signed_vol) * area_vec / areas[:, None]

    t1, t2 = _tangent_frame(normals)
    return SurfaceMesh(centroids, normals, areas, t1, t2)


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise MeshFormatError(f"cannot read mesh file {path!r}: {exc}") from exc


def _parse_off(text: str):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].upper().startswith("OFF"):
        raise MeshFormatError("missing OFF header")
    # Counts may share the header line ("OFF 8 12 18") or follow on their own.
    first = lines[0][3:].split()
    rest = lines[1:]
    if len(first) >= 2:
        counts = first
    else:
        if not rest:
            raise MeshFormatError("truncated OFF file")
        counts, rest = rest[0].split(), rest[1:]
    nv, nf = map(int, counts[:2])
    if len(rest) < nv + nf:
        raise MeshFormatError("truncated OFF file")
    verts = np.array([[float(x) for x in rest[i].split()[:3]] for i in range(nv)])
    faces = []
    for i in range(nv, nv + nf):
        parts = rest[i].split()
        if int(parts[0]) != 3:
            raise MeshFormatError("only triangle faces are supported")
        faces.append([int(p) for p in parts[1:4]])
    return verts, np.array(faces, dtype=int)


def _parse_obj(text: str):
    verts, faces = [], []
    for ln in text.splitlines():
        parts = ln.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "v":
            verts.append([float(x) for x in parts[1:4]])
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshFormatError("only triangle faces are supported")
            # "f v", "f v/vt", "f v/vt/vn" all start with the vertex index.
            faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    if not verts or not faces:
        raise MeshFormatError("OBJ file contains no triangles")
    return np.array(verts, dtype=float), np.array(faces, dtype=int)
