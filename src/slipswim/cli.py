"""Batch front door: JSON config in, JSON/CSV results out.

Subcommands
-----------
mobility   build the grand matrix and stop
swim       full self-propelled solve (rigid velocity, thrust projection)
certify    swim plus the small-Reynolds certificate
validate   run the identity checks (reciprocal, energy)
converge   resistance refinement study, written as CSV

Usage: ``slipswim <subcommand> --config cfg.json [--output out] [--threads n]``.

Exit codes: 0 success, 2 configuration/input error, 3 solver failure.
Warnings are not fatal: the output JSON lists them under ``warnings``, and
``converge``, whose output is CSV, prints each one to stderr.

Determinism: with a fixed thread count, rerunning a config byte-identically
reproduces the output JSON.  Wall-clock timings would break that, so they
are only included under ``--timing``.  ``--threads`` (or the
SLIPSWIM_THREADS environment variable) caps the BLAS thread pools.  That
works only before numpy is first imported, so neither this module nor the
package imports numpy at import time: the cap takes effect when
``slipswim`` starts the process (the console script or ``python -m
slipswim.cli``), not when :func:`main` runs in a process that has already
imported numpy.

Custom boundary data is a CSV with header ``node_index,normal,t1,t2``
giving, per node, the normal velocity component and the two tangential
components in the node's (tangent1, tangent2) frame.  Node ordering of
generated meshes is documented in :func:`slipswim.geometry.make_parametric_surface`.
On sphere and spheroid meshes tangent1 is the normalized projection of ez
at every node, including the polar rings (|n_z| > 0.9) where earlier
versions switched to ex; triangle meshes keep that switch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
import warnings

from .errors import ConfigError, GeometryError, SlipswimError

_TOP_KEYS = {
    "shape", "alpha", "data", "re", "shrink", "stride", "svd_tol",
    "r_t", "thresholds", "resolutions", "output",
}
_SHAPE_KEYS = {
    "sphere": {"kind", "radius", "resolution"},
    "spheroid": {"kind", "a_axis", "c_axis", "resolution"},
    "mesh": {"kind", "path"},
}
_DATA_KEYS = {
    "rigid-trace": {"preset", "index"},
    "squirmer": {"preset", "b1"},
    "source": {"preset", "phi"},
    "custom": {"preset", "path"},
}


def _check_keys(section, given, allowed):
    extra = set(given) - allowed
    if extra:
        raise ConfigError(f"unknown {section} keys: {sorted(extra)}")


def _reject_constant(name):
    raise ConfigError(f"non-finite number {name} in config")


def _number(value, name):
    """Pass ``value`` through if it is a finite JSON number (not a string or bool)."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (is_number and math.isfinite(value)):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def _integer(value, name):
    """Pass ``value`` through if it is a finite JSON number with no fractional part."""
    if _number(value, name) != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _object(value, name):
    """A copy of config section ``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def _list(value):
    if not isinstance(value, list):
        raise ConfigError(f"resolutions must be a JSON array, got {value!r}")
    return value


def _path(value, name):
    """Pass ``value`` through if it is a string; an int would reach open() as an fd."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def load_config(path) -> dict:
    """Read and validate a config file into a canonical dict with defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys("config", raw, _TOP_KEYS)

    if "shape" not in raw or "alpha" not in raw:
        raise ConfigError("config must define 'shape' and 'alpha'")

    shape = _object(raw["shape"], "shape")
    kind = shape.get("kind")
    if kind not in _SHAPE_KEYS:
        raise ConfigError(f"shape.kind must be one of {sorted(_SHAPE_KEYS)}, got {kind!r}")
    _check_keys("shape", shape, _SHAPE_KEYS[kind])
    if kind in ("sphere", "spheroid"):
        shape.setdefault("resolution", 20)
        if _integer(shape["resolution"], "shape.resolution") < 8:
            raise ConfigError("shape.resolution must be at least 8")
        if kind == "sphere":
            shape.setdefault("radius", 1.0)
            if _number(shape["radius"], "shape.radius") <= 0:
                raise ConfigError("shape.radius must be positive")
        else:
            shape.setdefault("a_axis", 1.0)
            shape.setdefault("c_axis", 1.0)
            if min(_number(shape[k], f"shape.{k}") for k in ("a_axis", "c_axis")) <= 0:
                raise ConfigError("spheroid semi-axes must be positive")
    elif "path" not in shape:
        raise ConfigError("shape.kind 'mesh' requires shape.path")
    else:
        _path(shape["path"], "shape.path")

    cfg = {
        "shape": shape,
        "alpha": float(_number(raw["alpha"], "alpha")),
        "re": float(_number(raw.get("re", 0.0), "re")),
        "shrink": float(_number(raw.get("shrink", 0.7), "shrink")),
        "stride": int(_integer(raw.get("stride", 1), "stride")),
        "svd_tol": float(_number(raw.get("svd_tol", 1e-12), "svd_tol")),
        "r_t": float(_number(raw.get("r_t", 20.0), "r_t")),
        "resolutions": [
            _integer(r, "resolutions") for r in _list(raw.get("resolutions", [10, 14, 20]))
        ],
        "output": None if raw.get("output") is None else _path(raw["output"], "output"),
    }
    if cfg["alpha"] <= 0:
        raise ConfigError("alpha must be positive")
    if cfg["re"] < 0:
        raise ConfigError("re must be nonnegative")
    if not 0.0 < cfg["shrink"] < 1.0:
        raise ConfigError("shrink must lie in (0, 1)")
    if cfg["stride"] < 1:
        raise ConfigError("stride must be a positive integer")
    if not 0.0 < cfg["svd_tol"] < 1.0:
        raise ConfigError("svd_tol must lie in (0, 1)")
    if cfg["r_t"] <= 0:
        raise ConfigError("r_t must be positive")
    if len(cfg["resolutions"]) < 3 or min(cfg["resolutions"]) < 8:
        raise ConfigError("resolutions must list at least three integers, each at least 8")

    thr = _object(raw.get("thresholds", {}), "thresholds")
    _check_keys("thresholds", thr, {"c1", "c2"})
    cfg["thresholds"] = {
        c: float(_number(thr.get(c, 1.0), f"thresholds.{c}")) for c in ("c1", "c2")
    }
    if cfg["thresholds"]["c1"] <= 0 or cfg["thresholds"]["c2"] <= 0:
        raise ConfigError("thresholds must be positive")

    if "data" in raw:
        data = _object(raw["data"], "data")
        preset = data.get("preset")
        if preset not in _DATA_KEYS:
            raise ConfigError(
                f"data.preset must be one of {sorted(_DATA_KEYS)}, got {preset!r}"
            )
        _check_keys("data", data, _DATA_KEYS[preset])
        if preset == "rigid-trace":
            data.setdefault("index", 1)
            if not 1 <= _integer(data["index"], "data.index") <= 6:
                raise ConfigError("data.index must lie in 1..6")
        elif preset == "squirmer":
            _number(data.setdefault("b1", 1.0), "data.b1")
        elif preset == "source":
            _number(data.setdefault("phi", 1.0), "data.phi")
        elif "path" not in data:
            raise ConfigError("data.preset 'custom' requires data.path")
        else:
            _path(data["path"], "data.path")
        cfg["data"] = data
    return cfg


def _dimensions(shape):
    """The :func:`make_parametric_surface` keywords of a sphere or spheroid section."""
    return {k: v for k, v in shape.items() if k not in ("kind", "resolution")}


def _build_mesh(cfg):
    from .geometry import load_triangle_mesh, make_parametric_surface

    shape = cfg["shape"]
    if shape["kind"] == "mesh":
        return load_triangle_mesh(shape["path"])
    return make_parametric_surface(
        shape["kind"], int(shape["resolution"]), **_dimensions(shape)
    )


def read_nodal_csv(path, mesh):
    """Read per-node boundary data (node_index, normal, t1, t2) for ``mesh``."""
    import csv

    import numpy as np

    from .collocation import BoundaryData

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path!r}: {exc}") from exc
    if not rows or [c.strip() for c in rows[0]] != ["node_index", "normal", "t1", "t2"]:
        raise ConfigError("nodal CSV must start with header node_index,normal,t1,t2")
    body = [r for r in rows[1:] if r]
    if len(body) != mesh.n_nodes:
        raise ConfigError(
            f"nodal CSV has {len(body)} rows for a mesh with {mesh.n_nodes} nodes"
        )
    seen = np.zeros(mesh.n_nodes, dtype=bool)
    normal = np.zeros(mesh.n_nodes)
    c1 = np.zeros(mesh.n_nodes)
    c2 = np.zeros(mesh.n_nodes)
    try:
        for r in body:
            idx = int(r[0])
            if not 0 <= idx < mesh.n_nodes or seen[idx]:
                raise ConfigError(f"bad or repeated node index {idx} in nodal CSV")
            seen[idx] = True
            normal[idx], c1[idx], c2[idx] = float(r[1]), float(r[2]), float(r[3])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed nodal CSV row: {exc}") from exc
    if not np.all(np.isfinite([normal, c1, c2])):
        raise ConfigError("nodal CSV contains non-finite values")
    tangential = c1[:, None] * mesh.tangent1 + c2[:, None] * mesh.tangent2
    return BoundaryData(normal, tangential)


def _build_data(cfg, mesh):
    from .collocation import rigid_trace_data, squirmer_data, uniform_flux_data

    if "data" not in cfg:
        raise ConfigError("this subcommand requires a 'data' section in the config")
    data = cfg["data"]
    preset = data["preset"]
    if preset == "rigid-trace":
        return rigid_trace_data(mesh, int(data["index"]))
    if preset == "squirmer":
        return squirmer_data(mesh, float(data["b1"]))
    if preset == "source":
        return uniform_flux_data(mesh, float(data["phi"]))
    return read_nodal_csv(data["path"], mesh)


def _jsonable(obj):
    """JSON form of the result dataclasses and numpy arrays in an output record."""
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else obj.tolist()


def _problem(cfg, mesh):
    from .selfprop import SwimProblem

    return SwimProblem(
        mesh,
        cfg["alpha"],
        shrink=cfg["shrink"],
        stride=cfg["stride"],
        svd_tol=cfg["svd_tol"],
    )


def _run_mobility(cfg, record):
    mesh = _build_mesh(cfg)
    prob = _problem(cfg, mesh)
    record["mesh"] = {"n_nodes": mesh.n_nodes, "area": mesh.area}
    record["grand_matrix"] = prob.grand_matrix
    record["aux_residual_worst"] = prob.worst_residual()


def _run_swim(cfg, record, with_certificate=False):
    from .mobility import thrust_projection

    mesh = _build_mesh(cfg)
    prob = _problem(cfg, mesh)
    v_star = _build_data(cfg, mesh)
    sol = prob.solve(v_star)
    coeff, resid, moving = thrust_projection(v_star, prob.basis, mesh)
    record["mesh"] = {"n_nodes": mesh.n_nodes, "area": mesh.area}
    record["grand_matrix"] = prob.grand_matrix
    record["wrench"] = prob.wrench(v_star)
    record["xi"] = sol.xi
    record["omega"] = sol.omega
    record["coefficients"] = sol.coefficients
    record["thrust_projection"] = {
        "coefficients": coeff,
        "residual_norm": resid,
        "is_nonzero": moving,
    }
    record["residuals"] = {
        "force": sol.force_residual,
        "torque": sol.torque_residual,
        "lifting_normal": sol.lifting_report.residual_normal,
        "lifting_tangential": sol.lifting_report.residual_tangential,
        "aux_worst": prob.worst_residual(),
    }
    if with_certificate:
        thr = cfg["thresholds"]
        record["certificate"] = prob.certificate(cfg["re"], v_star, (thr["c1"], thr["c2"]))


def _run_validate(cfg, record):
    from .validation import energy_identity_check, reciprocal_check

    mesh = _build_mesh(cfg)
    prob = _problem(cfg, mesh)
    basis = prob.basis
    m11 = float(prob.grand_matrix.M[0, 0])
    checks = [
        reciprocal_check(1, 1, basis, mesh, cfg["r_t"]),
        reciprocal_check(1, 2, basis, mesh, cfg["r_t"], scale=m11),
        energy_identity_check(1, 1, basis, mesh, cfg["alpha"], cfg["r_t"]),
    ]
    record["mesh"] = {"n_nodes": mesh.n_nodes, "area": mesh.area}
    record["checks"] = checks
    record["all_passed"] = all(c.passed for c in checks)


def _run_converge(cfg, record):
    from .validation import convergence_study

    shape = cfg["shape"]
    if shape["kind"] == "mesh":
        raise ConfigError("converge needs a parametric shape (sphere or spheroid)")
    record["study"] = convergence_study(
        shape["kind"],
        cfg["alpha"],
        [int(r) for r in cfg["resolutions"]],
        shrink=cfg["shrink"],
        svd_tol=cfg["svd_tol"],
        **_dimensions(shape),
    )


_COMMANDS = {
    "mobility": _run_mobility,
    "swim": _run_swim,
    "certify": functools.partial(_run_swim, with_certificate=True),
    "validate": _run_validate,
    "converge": _run_converge,
}


def _set_thread_env(n: int):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slipswim",
        description="Self-propelled rigid bodies in exterior Stokes flow with Navier slip.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--output", help="output path (JSON; CSV for converge)")
        p.add_argument("--threads", type=int, help="cap BLAS thread pools")
        p.add_argument(
            "--timing", action="store_true", help="include wall-clock timings in the output"
        )
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None and os.environ.get("SLIPSWIM_THREADS"):
        try:
            threads = int(os.environ["SLIPSWIM_THREADS"])
        except ValueError:
            print("ignoring non-integer SLIPSWIM_THREADS", file=sys.stderr)
    if threads is not None:
        if threads < 1:
            print("--threads must be a positive integer", file=sys.stderr)
            return 2
        _set_thread_env(threads)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        out_path = args.output or cfg.get("output")
        record = {"command": args.command, "config": cfg}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _COMMANDS[args.command](cfg, record)
    except (ConfigError, GeometryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SlipswimError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3

    if args.command == "converge":
        from .validation import write_convergence_csv

        # the study is written as CSV, so its warnings go to stderr
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        write_convergence_csv(record["study"], out_path or "convergence.csv")
        if args.timing:
            print(f"converge finished in {time.perf_counter() - t0:.2f}s")
        return 0

    record["warnings"] = sorted(str(w.message) for w in caught)
    if args.timing:
        record["timing"] = {"total_seconds": time.perf_counter() - t0}
    try:
        text = json.dumps(
            record, indent=2, sort_keys=True, allow_nan=False, default=_jsonable
        ) + "\n"
    except ValueError:
        print("solver error: the results contain NaN or infinite values", file=sys.stderr)
        return 3
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
