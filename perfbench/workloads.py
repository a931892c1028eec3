"""The benchmark's workloads: inputs from a seed, timed passes, output gates.

An operation is one body built from mesh to a ready grand matrix
(``factor``), one set of boundary data on a ready body (``stream``) or one
``slipswim`` CLI job (``cli``).  ``setup`` makes every input from the seed
and may be repeated; ``prepare`` and ``warm_up`` run before timing;
``run_pass`` runs one fixed batch of operations and returns their
latencies.  Every operation is checked, and ``Tally.record`` counts it as
failed when a check fails or it raises.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

from slipswim import cli, collocation, geometry, mobility, selfprop, validation

ALPHA = 2.0
SHRINK = 0.5
# The stream body's sources sit deeper: at res 24 and shrink 0.5 the route
# gap is 3e-7 to 2e-6 (discretization error), at shrink 0.3 it is below 1e-9.
STREAM_SHRINK = 0.3

# Tolerances of the acceptance criteria in tests/test_acceptance.py.
RESISTANCE_TOL = 2e-2  # criterion 3: slip-sphere K and R
SPEED_TOL = 2e-2  # criterion 4: squirmer speed
OMEGA_TOL = 1e-3  # criterion 4: squirmer rotation
SYMMETRY_TOL = 1e-3  # criterion 5: grand-matrix symmetry defect
ROUTE_GAP_TOL = 1e-8  # criterion 8: wrench route against lifting route
PHI_TOL = 1e-3  # criterion 9: boundary flux
# SwimProblem.solve warns above this force/torque residual (relative to beta).
RESIDUAL_TOL = 1e-6

SIZES = {
    "full": {
        "factor": (("sphere", 30), ("spheroid", 24)),
        "stream": 24,
        "stream_sets": 100,
        "stream_batch": 20,
        "validate": 16,
        "icosphere": 3,
        "certify": 20,
        "c16": 20,
    },
    "smoke": {
        "factor": (("sphere", 10), ("spheroid", 8)),
        "stream": 10,
        "stream_sets": 8,
        "stream_batch": 4,
        "validate": 8,
        "icosphere": 1,
        "certify": 8,
        "c16": 8,
    },
}


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op, label):
        """Run ``op() -> (latency_s, problem)``; an exception is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            latency, problem = op()
        except Exception as exc:  # a traceback is a failed operation, not a crash
            latency, problem = time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {problem}")
        return latency


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / abs(b))


def _sphere_problem(prob, radius, b1):
    """Slip-sphere K/R and squirmer speed against their closed forms."""
    gm = prob.grand_matrix
    k_ref, r_ref = validation.analytic_sphere_resistance(radius, 1.0 / ALPHA)
    k_err, r_err = _rel(np.diag(gm.K), k_ref), _rel(np.diag(gm.R), r_ref)
    if max(k_err, r_err) >= RESISTANCE_TOL:
        return f"K err {k_err:.2e}, R err {r_err:.2e} >= {RESISTANCE_TOL}"
    # Reciprocal theorem with the slip-sphere traction: slip length b = 1/alpha
    # divides the no-slip speed 2 b1 / 3 by 1 + 2 b / radius.
    speed_ref = validation.squirmer_oracle(b1) / (1.0 + 2.0 / (ALPHA * radius))
    xi, omega = prob.swim(collocation.squirmer_data(prob.mesh, b1))
    speed_err = abs(np.linalg.norm(xi) - speed_ref) / speed_ref
    if speed_err >= SPEED_TOL or np.linalg.norm(omega) >= OMEGA_TOL:
        return f"squirmer speed err {speed_err:.2e}, |omega| {np.linalg.norm(omega):.2e}"
    return None


def _structure_problem(prob):
    gm = prob.grand_matrix
    if not (gm.symmetry_defect < SYMMETRY_TOL and gm.min_eigenvalue > 0.0):
        return f"symmetry defect {gm.symmetry_defect:.2e}, min eigenvalue {gm.min_eigenvalue:.3g}"
    return None


def _build(tracer, kind, res, dims, mesh=None, shrink=SHRINK):
    """Mesh to a ready grand matrix, one public step at a time."""
    t0 = time.perf_counter()
    with tracer.span("build"):
        if mesh is None:
            mesh = geometry.make_parametric_surface(kind, res, **dims)
        prob = selfprop.SwimProblem(mesh, ALPHA, shrink=shrink)
        prob.sources
        prob.solver
        with tracer.span("mobility.aux"):
            prob.aux_fields
        with tracer.span("mobility.basis"):
            prob.basis
        with tracer.span("mobility.grand"):
            prob.grand_matrix
    return prob, time.perf_counter() - t0


class Factor:
    """New bodies, each from mesh to a ready grand matrix."""

    def __init__(self, sizes):
        self.res = dict(sizes["factor"])

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        radius = float(rng.uniform(0.8, 1.25))
        a = float(rng.uniform(0.8, 1.25))
        self.bodies = (
            ("sphere", {"radius": radius}),
            ("spheroid", {"a_axis": a, "c_axis": 1.2 * a}),
        )
        self.b1 = float(rng.uniform(0.5, 2.0))

    def prepare(self, tracer, tally):
        pass

    def warm_up(self, tracer, tally):
        kind, dims = self.bodies[1]
        tally.record(lambda: self._op(tracer, kind, dims), f"build {kind}")

    def _op(self, tracer, kind, dims):
        prob, latency = _build(tracer, kind, self.res[kind], dims)
        if kind == "sphere":
            return latency, _sphere_problem(prob, dims["radius"], self.b1)
        return latency, _structure_problem(prob)

    def run_pass(self, tracer, tally):
        return [
            tally.record(lambda: self._op(tracer, kind, dims), f"build {kind}")
            for kind, dims in self.bodies
        ]


class Stream:
    """Many sets of boundary data on one ready body."""

    KINDS = ("squirmer", "random", "random+flux", "uniform-flux")

    def __init__(self, sizes):
        self.res = sizes["stream"]
        self.n_sets = sizes["stream_sets"]
        self.batch = sizes["stream_batch"]
        self.next = 0

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.mesh = geometry.make_parametric_surface("sphere", self.res)
        self.b1 = float(rng.uniform(0.5, 2.0))
        self.sets = []
        for i in range(self.n_sets):
            kind = self.KINDS[i % 4]
            flux = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0))
            if kind == "squirmer":
                data = collocation.squirmer_data(self.mesh, float(rng.uniform(0.5, 2.0)))
            elif kind == "random":
                data = validation.random_boundary_data(self.mesh, rng)
            elif kind == "random+flux":
                data = validation.random_boundary_data(self.mesh, rng, flux=flux)
            else:
                data = collocation.uniform_flux_data(self.mesh, flux)
            self.sets.append((kind, data, float(rng.uniform(0.0, 1.0))))

    def prepare(self, tracer, tally):
        def op():
            self.prob, latency = _build(
                tracer, "sphere", self.res, {}, mesh=self.mesh, shrink=STREAM_SHRINK
            )
            return latency, _sphere_problem(self.prob, 1.0, self.b1)

        tally.record(op, "build sphere")
        if not hasattr(self, "prob"):
            raise RuntimeError("the stream body could not be built: " + tally.problems[-1])

    def warm_up(self, tracer, tally):
        for kind, data, re in self.sets[:4]:
            tally.record(lambda: self._op(tracer, data, re), f"data {kind}")

    def _op(self, tracer, data, re):
        prob = self.prob
        t0 = time.perf_counter()
        with tracer.span("data"):
            with tracer.span("selfprop.solve"):
                sol = prob.solve(data)
            with tracer.span("mobility.swim"):
                xi, omega = prob.swim(data)
            coeff, resid, _ = mobility.thrust_projection(data, prob.basis, prob.mesh)
            cert = prob.certificate(re, data)
        latency = time.perf_counter() - t0

        scale = max(1.0, float(np.max(np.abs(sol.coefficients))))
        gap = float(np.max(np.abs(np.concatenate([xi - sol.xi, omega - sol.omega])))) / scale
        if not gap < ROUTE_GAP_TOL:
            return latency, f"route gap {gap:.2e} >= {ROUTE_GAP_TOL}"
        beta = prob.grand_matrix.M @ sol.coefficients
        tol = RESIDUAL_TOL * max(1.0, float(np.max(np.abs(beta))))
        if not max(sol.force_residual, sol.torque_residual) <= tol:
            return latency, (
                f"force/torque residual {sol.force_residual:.2e}/"
                f"{sol.torque_residual:.2e} > {tol:.2e}"
            )
        numbers = [cert.phi, cert.beta_star_half_norm, resid, *coeff, *cert.xi_bracket]
        if not np.all(np.isfinite(numbers)):
            return latency, "non-finite projection or certificate"
        return latency, None

    def run_pass(self, tracer, tally):
        out = []
        for _ in range(self.batch):
            kind, data, re = self.sets[self.next % len(self.sets)]
            self.next += 1
            out.append(tally.record(lambda: self._op(tracer, data, re), f"data {kind}"))
        return out


def icosphere(level, radius, rotation):
    """Vertices and faces of a rotated, subdivided icosahedron on a sphere."""
    g = (1.0 + 5.0**0.5) / 2.0
    verts = [
        (-1, g, 0), (1, g, 0), (-1, -g, 0), (1, -g, 0),
        (0, -1, g), (0, 1, g), (0, -1, -g), (0, 1, -g),
        (g, 0, -1), (g, 0, 1), (-g, 0, -1), (-g, 0, 1),
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(level):
        mid = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in mid:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                mid[key] = len(verts) - 1
            return mid[key]

        refined = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            refined += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = refined
    return radius * np.array(verts) @ rotation.T, np.array(faces)


def _write_off(path, verts, faces):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{len(verts)} {len(faces)} 0\n")
        fh.writelines(f"{float(x)!r} {float(y)!r} {float(z)!r}\n" for x, y, z in verts)
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in faces)


def _write_nodal_csv(path, mesh, data):
    """Boundary data in the CLI's node frame: node_index,normal,t1,t2."""
    c1 = np.einsum("ij,ij->i", data.tangential_data, mesh.tangent1)
    c2 = np.einsum("ij,ij->i", data.tangential_data, mesh.tangent2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_index,normal,t1,t2\n")
        fh.writelines(
            f"{i},{float(n)!r},{float(a)!r},{float(b)!r}\n"
            for i, (n, a, b) in enumerate(zip(data.normal_data, c1, c2))
        )


def _reject_constant(name):
    raise ValueError(f"{name} in output JSON")


class Cli:
    """A batch of ``slipswim`` subcommands run through the CLI entry point."""

    def __init__(self, sizes):
        self.sizes = sizes

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        s = self.sizes
        self.workdir = workdir
        r_validate = float(rng.uniform(0.8, 1.25))
        r_ico = float(rng.uniform(0.8, 1.25))
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        _write_off(workdir / "body.off", *icosphere(s["icosphere"], r_ico, rotation))
        mesh = geometry.make_parametric_surface("sphere", s["certify"])
        self.flux = float(rng.uniform(-0.5, 0.5))
        data = validation.random_boundary_data(mesh, rng, flux=self.flux)
        _write_nodal_csv(workdir / "stroke.csv", mesh, data)
        configs = {
            "validate": {
                "shape": {"kind": "sphere", "radius": r_validate, "resolution": s["validate"]},
                "alpha": ALPHA,
                "shrink": SHRINK,
            },
            "mobility": {
                "shape": {"kind": "mesh", "path": str(workdir / "body.off")},
                "alpha": ALPHA,
                "stride": 2,
            },
            "certify": {
                "shape": {"kind": "sphere", "resolution": s["certify"]},
                "alpha": ALPHA,
                "shrink": SHRINK,
                "re": float(rng.uniform(0.0, 1.0)),
                "data": {"preset": "custom", "path": str(workdir / "stroke.csv")},
            },
            "swim": {
                "shape": {"kind": "spheroid", "a_axis": 1.0, "c_axis": 1.6, "resolution": s["c16"]},
                "alpha": ALPHA,
                "shrink": float(rng.choice((0.5, 0.7, 0.85, 0.9))),
                "data": {"preset": "squirmer", "b1": float(rng.uniform(0.5, 2.0))},
            },
        }
        for sub, cfg in configs.items():
            (workdir / f"{sub}.json").write_text(json.dumps(cfg), encoding="utf-8")
        self.checks = {
            "validate": self._validate_problem,
            "mobility": lambda rec: self._mobility_problem(rec, r_ico),
            "certify": self._certify_problem,
            "swim": lambda rec: None,
        }
        self.exit_codes = {}

    def prepare(self, tracer, tally):
        pass

    def warm_up(self, tracer, tally):
        pass

    @staticmethod
    def _validate_problem(rec):
        if not rec["all_passed"]:
            return "identity checks failed: " + ", ".join(
                f"{c['name']} {c['relative_error']:.2e}" for c in rec["checks"] if not c["passed"]
            )
        return None

    @staticmethod
    def _mobility_problem(rec, radius):
        gm = rec["grand_matrix"]
        k_ref, _ = validation.analytic_sphere_resistance(radius, 1.0 / ALPHA)
        k_err = _rel(np.diag(gm["K"]), k_ref)
        if not (gm["min_eigenvalue"] > 0 and gm["symmetry_defect"] < SYMMETRY_TOL):
            return f"grand matrix min eig {gm['min_eigenvalue']:.3g}, defect {gm['symmetry_defect']:.2e}"
        if k_err >= RESISTANCE_TOL:
            return f"icosphere K err {k_err:.2e} against the sphere >= {RESISTANCE_TOL}"
        return None

    def _certify_problem(self, rec):
        if rec["warnings"]:
            return "warnings: " + "; ".join(rec["warnings"])
        phi = rec["certificate"]["phi"]
        if abs(phi - self.flux) >= PHI_TOL:
            return f"certificate flux {phi:.6g}, data flux {self.flux:.6g}"
        return None

    def _op(self, tracer, sub):
        cfg = self.workdir / f"{sub}.json"
        out = self.workdir / f"{sub}.out.json"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        t0 = time.perf_counter()
        with tracer.span("cli." + sub), contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                try:
                    code = cli.main([sub, "--config", str(cfg), "--output", str(out)])
                except SystemExit as exc:
                    code = exc.code
        latency = time.perf_counter() - t0
        self.exit_codes[sub] = code
        message = err.getvalue().strip()
        if code == 0:
            rec = json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)
            return latency, self.checks[sub](rec)
        # The c = 1.6 spheroid may fail cleanly: exit 3 with one line on stderr.
        if sub == "swim" and code == 3 and len(message.splitlines()) == 1:
            return latency, None
        return latency, f"exit {code}: {message}"

    def run_pass(self, tracer, tally):
        return [
            tally.record(lambda: self._op(tracer, sub), f"cli {sub}")
            for sub in ("validate", "mobility", "certify", "swim")
        ]


WORKLOADS = {"factor": Factor, "stream": Stream, "cli": Cli}
