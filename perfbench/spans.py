"""In-memory span recorder and the layer wrappers of the traced run.

A span is (name, start, end, parent, pass) plus the counts recorded at the
same boundary.  Spans come from two places:

* the workloads in ``workloads.py``, around the public calls they make
  (``SwimProblem.aux_fields``, ``SwimProblem.solve``, one CLI job, ...);
* wrappers that ``patched`` installs on public functions at the module
  attribute where their caller looks them up, e.g.
  ``slipswim.validation.evaluate_strain``.  Nothing inside the package is
  edited; the originals are restored when the context exits.

``layer_metrics`` turns the spans into the per-layer numbers listed in
BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc


class Tracer:
    """Span recorder.  ``recording`` False makes every span a no-op."""

    def __init__(self, recording: bool):
        self.recording = recording
        self.pass_id = None
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **counts):
        if not self.recording:
            yield counts
            return
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield counts
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()


def svd_gflop(m: int, n: int) -> float:
    """Flops of a thin SVD with U1, S and V of an m x n matrix, in GFLOP.

    Golub & Van Loan, Matrix Computations, Table 5.4.1 (Golub-Reinsch):
    14 m n^2 + 8 n^3 for m >= n.
    """
    m, n = max(m, n), min(m, n)
    return (14.0 * m * n * n + 8.0 * n**3) / 1e9


def _timed(tracer, name, fn, counts_of=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name) as counts:
            out = fn(*args, **kwargs)
            if counts_of is not None:
                counts.update(counts_of(args, out))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


class _FactorProbe:
    """Wraps the SlipSolver class: span, peak traced memory, rank, pairs.

    The constructor arguments of every factorization are kept so that the
    single-thread reference can rebuild exactly the same factorizations.
    """

    def __init__(self, tracer, cls):
        self.tracer = tracer
        self.cls = cls
        self.builds = []

    def __call__(self, mesh, sources, *args, **kwargs):
        with self.tracer.span("collocation.factor") as counts:
            tracemalloc.start()
            try:
                solver = self.cls(mesh, sources, *args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            counts.update(
                pairs=mesh.n_nodes * sources.count,
                rank=solver.svd_rank,
                peak_mb=peak / 2**20,
            )
        self.builds.append((self.tracer.pass_id, (mesh, sources) + args, kwargs))
        return solver


@contextlib.contextmanager
def patched(tracer):
    """Install the layer wrappers for the duration of the block.

    Yields the factorization probe, whose ``builds`` list feeds the
    single-thread reference.
    """
    import numpy as np
    from slipswim import collocation, geometry, mobility, selfprop, validation

    def strain_evals(args, out):
        field, points = args[0], args[1]
        return {"evals": len(np.asarray(points).reshape(-1, 3)) * field.sources.count}

    def svd_counts(args, out):
        m, n = np.shape(args[0])
        return {"gflop": svd_gflop(m, n)}

    probe = _FactorProbe(tracer, selfprop.SlipSolver)
    table = [
        (geometry, "make_parametric_surface", "geometry.mesh", None),
        (geometry, "load_triangle_mesh", "geometry.load", None),
        (selfprop, "place_sources", "stokeslets.place", None),
        (collocation, "velocity_matrix", "stokeslets.assemble", None),
        (collocation, "traction_matrix", "stokeslets.assemble", None),
        (np.linalg, "svd", "collocation.svd", svd_counts),
        (selfprop, "solve_lifting", "collocation.lifting", None),
        (selfprop, "ns_certificate", "selfprop.certificate", None),
        (selfprop, "h_half_norm", "selfprop.h_half", None),
        (mobility, "thrust_projection", "mobility.projection", None),
        (validation, "reciprocal_check", "validation.reciprocal", None),
        (validation, "energy_identity_check", "validation.energy", None),
        (validation, "evaluate_strain", "stokeslets.strain", strain_evals),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in table]
    saved.append((selfprop, "SlipSolver", selfprop.SlipSolver))
    try:
        for mod, attr, name, counts_of in table:
            setattr(mod, attr, _timed(tracer, name, getattr(mod, attr), counts_of))
        selfprop.SlipSolver = probe
        yield probe
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


# Per-layer metrics: (name, unit, span, what, scale).  ``what`` is
#   "time"      summed duration per pass,
#   "call"      median duration per call,
#   a count key summed per pass ("peak_mb" takes the maximum instead).
# A per-pass value is the median over the passes in which the span occurs;
# a layer that no span of the run reached reads 0.
LAYER_METRICS = [
    ("geometry.mesh_ms", "ms", "geometry.mesh", "time", 1e3),
    ("geometry.load_ms", "ms", "geometry.load", "time", 1e3),
    ("stokeslets.place_ms", "ms", "stokeslets.place", "time", 1e3),
    ("stokeslets.assemble_s", "s", "stokeslets.assemble", "time", 1.0),
    ("stokeslets.pairs", "count", "collocation.factor", "pairs", 1.0),
    ("collocation.factor_s", "s", "collocation.factor", "time", 1.0),
    ("collocation.svd_s", "s", "collocation.svd", "time", 1.0),
    ("collocation.rank", "count", "collocation.factor", "rank", 1.0),
    ("collocation.svd_gflop", "GFLOP", "collocation.svd", "gflop", 1.0),
    ("collocation.factor_peak_mb", "MB", "collocation.factor", "peak_mb", 1.0),
    ("mobility.aux_s", "s", "mobility.aux", "time", 1.0),
    ("mobility.basis_ms", "ms", "mobility.basis", "time", 1e3),
    ("mobility.grand_ms", "ms", "mobility.grand", "time", 1e3),
    ("collocation.lifting_ms", "ms", "collocation.lifting", "call", 1e3),
    ("selfprop.solve_ms", "ms", "selfprop.solve", "call", 1e3),
    ("selfprop.certificate_ms", "ms", "selfprop.certificate", "call", 1e3),
    ("selfprop.h_half_ms", "ms", "selfprop.h_half", "call", 1e3),
    ("mobility.swim_ms", "ms", "mobility.swim", "call", 1e3),
    ("mobility.projection_ms", "ms", "mobility.projection", "call", 1e3),
    ("validation.reciprocal_s", "s", "validation.reciprocal", "time", 1.0),
    ("validation.energy_s", "s", "validation.energy", "time", 1.0),
    ("stokeslets.strain_s", "s", "stokeslets.strain", "time", 1.0),
    ("stokeslets.strain_evals", "count", "stokeslets.strain", "evals", 1.0),
    ("cli.validate_s", "s", "cli.validate", "time", 1.0),
    ("cli.mobility_s", "s", "cli.mobility", "time", 1.0),
    ("cli.certify_s", "s", "cli.certify", "time", 1.0),
    ("cli.swim_s", "s", "cli.swim", "time", 1.0),
]


def _per_pass(spans, name, what):
    groups = {}
    for s in spans:
        if s["name"] != name:
            continue
        g = groups.setdefault(s["pass"], [])
        g.append(s["end"] - s["start"] if what == "time" else s["counts"][what])
    if not groups:
        return 0.0
    agg = max if what == "peak_mb" else sum
    return statistics.median(agg(v) for v in groups.values())


def layer_metrics(spans) -> dict:
    """Per-layer values from the spans of the measured passes."""
    out = {}
    for name, unit, span, what, scale in LAYER_METRICS:
        if what == "call":
            durs = [s["end"] - s["start"] for s in spans if s["name"] == span]
            value = statistics.median(durs) if durs else 0.0
        else:
            value = _per_pass(spans, span, what)
        out[name] = (value * scale, unit)
    # GFLOP/s per pass, from the same passes as svd_s and svd_gflop.
    rates = []
    for p in {s["pass"] for s in spans if s["name"] == "collocation.svd"}:
        svd = [s for s in spans if s["name"] == "collocation.svd" and s["pass"] == p]
        busy = sum(s["end"] - s["start"] for s in svd)
        rates.append(sum(s["counts"]["gflop"] for s in svd) / busy)
    out["collocation.svd_gflop_per_s"] = (
        statistics.median(rates) if rates else 0.0,
        "GFLOP/s",
    )
    return out
