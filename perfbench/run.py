"""slipswim benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload {factor,stream,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a source tree; the package is imported from ``src/``
there and nowhere else.  Inputs come from ``--seed``.  After set-up and a
warm-up, passes over the workload's fixed batch of operations repeat until
``--seconds`` have passed.  Every operation's output is checked.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the environment.
A traced run also writes its spans to ``.bench_build/perfbench/``.
``--smoke`` runs every workload once at toy sizes, in both modes, and
checks the metric names and units against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Spans that should account for nearly all of a body build.
BUILD_PARTS = {"stokeslets.assemble", "collocation.svd", "mobility.aux", "mobility.basis", "mobility.grand"}


class Blas:
    """Thread count of the OpenBLAS bundled with numpy, read and set via ctypes."""

    # numpy 2 wheels ship scipy-openblas; older wheels a plain OpenBLAS.
    NAMES = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")

    def __init__(self):
        import ctypes

        import numpy

        self._get = self._set = None
        libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"))
        for path in libs:
            lib = ctypes.CDLL(str(path))
            for pattern in self.NAMES:
                if hasattr(lib, pattern.format("get")):
                    self._get = getattr(lib, pattern.format("get"))
                    self._get.restype = ctypes.c_int
                    self._get.argtypes = []
                    self._set = getattr(lib, pattern.format("set"))
                    self._set.restype = None
                    self._set.argtypes = [ctypes.c_int]
                    return

    def threads(self):
        return self._get() if self._get else None

    def set_threads(self, n):
        if self._set is None:
            raise RuntimeError("cannot set the BLAS thread count: numpy's OpenBLAS not found")
        self._set(n)


def git_commit():
    """Commit of the source tree from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, nproc, blas):
    import numpy

    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": nproc,
        "blas_threads": blas.threads(),
        "blas": cfg.get("name"),
        "blas_version": cfg.get("version"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def import_seconds(src):
    """Median time to import numpy and slipswim in fresh interpreters.

    An import can be timed only once per process, so set-up times it in
    SETUP_REPEATS child interpreters, one after another.
    """
    code = "import time; t = time.perf_counter(); import numpy, slipswim; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def _warm_blas():
    import numpy

    a = numpy.random.default_rng(0).standard_normal((800, 800))
    numpy.linalg.svd(a, full_matrices=False)


def run_one(name, seed, seconds, trace, sizes, import_s, blas, env):
    """Run one workload and return its result line as a dict."""
    import numpy
    import spans
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](workloads.SIZES[sizes])
        gen = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup(seed, workdir)
            gen.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen)

        tally = workloads.Tally()
        tracer = spans.Tracer(recording=False)
        builds = []

        def traced_block():
            """Wrappers on and spans recorded inside; a no-op without --trace."""
            if not trace:
                return contextlib.nullcontext()
            return _recording(spans, tracer, builds)

        _warm_blas()
        tracer.pass_id = "prepare"
        with traced_block():
            wl.prepare(tracer, tally)
        wl.warm_up(tracer, tally)
        # A traced run alternates traced and untraced passes, so that load
        # drifting during the run falls on both sides of the overhead estimate.
        passes, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(passes) < 1 + trace or time.perf_counter() < deadline:
            tracer.pass_id = len(passes)
            on = bool(trace) and len(passes) % 2 == 0
            with traced_block() if on else contextlib.nullcontext():
                passes.append(wl.run_pass(tracer, tally))
            traced.append(on)
        pass_s = [sum(p) for p in passes]

        if trace:
            metrics = spans.layer_metrics(tracer.spans)
            metrics["collocation.factor_s.t1"] = (
                _single_thread_factor(builds, blas, env["nproc"]), "s"
            )
            metrics["trace.pass_s"] = (
                statistics.median(t for t, on in zip(pass_s, traced) if on), "s"
            )
            metrics["trace.untraced_pass_s"] = (
                statistics.median(t for t, on in zip(pass_s, traced) if not on), "s"
            )
            _write_trace(name, env, tracer, metrics)
        else:
            lat = [t for p in passes for t in p]
            metrics = {
                "setup_s": (setup_s, "s"),
                "batch_s": (statistics.median(pass_s), "s"),
                "op_ms.p90": (1e3 * float(numpy.percentile(lat, 90)), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
            }
        for problem in tally.problems:
            print("failed: " + problem, file=sys.stderr)
        info = {"ops": sum(len(p) for p in passes), "pass_s": [round(t, 4) for t in pass_s]}
        if name == "cli":
            info["exit_codes"] = wl.exit_codes
        print("run " + json.dumps(info, sort_keys=True))
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, v, u in _flat(metrics)},
        }
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _flat(metrics):
    return [(k, float(v), u) for k, (v, u) in metrics.items()]


@contextlib.contextmanager
def _recording(spans, tracer, builds):
    with spans.patched(tracer) as probe:
        tracer.recording = True
        try:
            yield
        finally:
            tracer.recording = False
            builds.extend(probe.builds)


def _single_thread_factor(builds, blas, nproc):
    """Rebuild the first traced pass's factorizations with one BLAS thread."""
    from slipswim import collocation

    if not builds:
        return 0.0
    first = [(args, kw) for p, args, kw in builds if p == builds[0][0]]
    blas.set_threads(1)
    try:
        t0 = time.perf_counter()
        for args, kwargs in first:
            collocation.SlipSolver(*args, **kwargs)
        return time.perf_counter() - t0
    finally:
        blas.set_threads(nproc)


def _write_trace(name, env, tracer, metrics):
    """Spans, per-layer metrics, tracing overhead and build coverage to a file."""
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    spans_out = [
        {**s, "start": s["start"] - origin, "end": s["end"] - origin} for s in tracer.spans
    ]
    traced, untraced = metrics["trace.pass_s"][0], metrics["trace.untraced_pass_s"][0]
    covered = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] in BUILD_PARTS)
    built = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "build")
    report = {
        "workload": name,
        "env": env,
        "overhead": {
            "traced_pass_s": traced,
            "untraced_pass_s": untraced,
            "overhead_s": traced - untraced,
            "overhead_frac": (traced - untraced) / untraced,
        },
        "build_coverage": covered / built if built else None,
        "metrics": {k: {"value": v, "unit": u} for k, v, u in _flat(metrics)},
        "spans": spans_out,
    }
    path = OUT / f"trace-{name}-seed{env['seed']}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"trace {path.relative_to(ROOT)}: overhead {traced - untraced:+.3f} s per pass, "
          f"build coverage {report['build_coverage']}")


def smoke(import_s, blas, env):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = run_one(wl, env["seed"], 0, trace, "smoke", import_s, blas, env)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            same = got == want[trace]
            ok = ok and same
            print(f"smoke {wl} trace={trace}: {res['attempted']} ops, {res['failed']} failed "
                  f"(toy sizes miss some accuracy gates), metrics {'match' if same else 'DIFFER'}")
            if not same:
                print("  missing or wrong unit:", sorted(set(want[trace].items()) - set(got.items())))
                print("  unexpected:", sorted(set(got.items()) - set(want[trace].items())))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("factor", "stream", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")

    src = ROOT / "src"
    if not (src / "slipswim" / "__init__.py").is_file():
        print(f"no slipswim sources under {src}", file=sys.stderr)
        return 2
    # Pin BLAS threads to the usable cores before numpy is first imported.
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)

    sys.path.insert(0, str(src))
    import slipswim

    if Path(slipswim.__file__).resolve().parent != (src / "slipswim").resolve():
        print(f"slipswim was imported from {slipswim.__file__}, not {src}", file=sys.stderr)
        return 2
    blas = Blas()
    env = environment(args.seed, nproc, blas)
    import_s = import_seconds(src)

    if args.smoke:
        return smoke(import_s, blas, env)
    result = run_one(args.workload, args.seed, args.seconds, args.trace, "full", import_s, blas, env)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
