import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from slipswim import ConfigError, make_parametric_surface
from slipswim.cli import load_config, main, read_nodal_csv


def _write_config(path, **overrides):
    cfg = {
        "shape": {"kind": "sphere", "resolution": 10},
        "alpha": 2.0,
        "shrink": 0.5,
        "data": {"preset": "squirmer", "b1": 1.0},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(_write_config(tmp_path / "c.json"))
        assert cfg["re"] == 0.0
        assert cfg["stride"] == 1  # a sphere's grid takes no stride
        assert cfg["svd_tol"] == 1e-12
        assert cfg["thresholds"] == {"c1": 1.0, "c2": 1.0}
        # a triangle mesh leaves the stride to place_sources, which takes 2
        mesh = {"kind": "mesh", "path": "body.off"}
        assert load_config(_write_config(tmp_path / "c.json", shape=mesh))["stride"] is None

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(_write_config(tmp_path / "c.json", viscosity=1.0))

    def test_unknown_shape_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(
                _write_config(
                    tmp_path / "c.json",
                    shape={"kind": "sphere", "resolution": 10, "twist": 2},
                )
            )

    def test_unknown_data_key(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(
                _write_config(
                    tmp_path / "c.json", data={"preset": "squirmer", "b2": 1.0}
                )
            )

    def test_range_checks(self, tmp_path):
        for bad in (
            {"alpha": -1.0},
            {"shrink": 1.5},
            {"svd_tol": 0.0},
            {"stride": 0},
            {"re": -2.0},
        ):
            with pytest.raises(ConfigError):
                load_config(_write_config(tmp_path / "c.json", **bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{broken")
        with pytest.raises(ConfigError):
            load_config(p)


class TestNodalCsv:
    def test_round_trip(self, tmp_path, rng):
        mesh = make_parametric_surface("sphere", 8)
        dn = rng.normal(size=mesh.n_nodes)
        c1 = rng.normal(size=mesh.n_nodes)
        c2 = rng.normal(size=mesh.n_nodes)
        lines = ["node_index,normal,t1,t2"]
        for i in range(mesh.n_nodes):
            lines.append(f"{i},{float(dn[i])!r},{float(c1[i])!r},{float(c2[i])!r}")
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        data = read_nodal_csv(path, mesh)
        npt.assert_allclose(data.normal_data, dn)
        npt.assert_allclose(
            data.tangential_data,
            c1[:, None] * mesh.tangent1 + c2[:, None] * mesh.tangent2,
        )

    def test_row_count_mismatch(self, tmp_path):
        mesh = make_parametric_surface("sphere", 8)
        path = tmp_path / "data.csv"
        path.write_text("node_index,normal,t1,t2\n0,1.0,0.0,0.0\n")
        with pytest.raises(ConfigError):
            read_nodal_csv(path, mesh)

    def test_bad_header(self, tmp_path):
        mesh = make_parametric_surface("sphere", 8)
        path = tmp_path / "data.csv"
        path.write_text("idx,a,b,c\n")
        with pytest.raises(ConfigError):
            read_nodal_csv(path, mesh)


class TestSubcommands:
    def test_mobility_output(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "out.json"
        assert main(["mobility", "--config", str(cfg), "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["command"] == "mobility"
        m = np.array(record["grand_matrix"]["M"])
        assert m.shape == (6, 6)
        assert record["grand_matrix"]["min_eigenvalue"] > 0
        assert record["mesh"]["n_nodes"] == 100

    def test_swim_output(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "out.json"
        assert main(["swim", "--config", str(cfg), "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert abs(record["xi"][2]) > 0.1
        assert record["thrust_projection"]["is_nonzero"] is True
        assert record["residuals"]["force"] < 1e-8
        assert "certificate" not in record

    def test_rigid_trace_swim(self, tmp_path):
        # the trace of rotation about x (index 4) turns the body with it; at
        # the default shrink 0.7 (at 0.5 the K check rejects this coarse mesh)
        cfg = _write_config(
            tmp_path / "c.json",
            shape={"kind": "sphere", "resolution": 8},
            shrink=0.7,
            data={"preset": "rigid-trace", "index": 4},
        )
        out = tmp_path / "out.json"
        assert main(["swim", "--config", str(cfg), "--output", str(out)]) == 0
        omega = np.array(json.loads(out.read_text())["omega"])
        assert np.max(np.abs(omega - [-1.0, 0.0, 0.0])) <= 1e-12

    def test_certify_output(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", re=0.0)
        out = tmp_path / "out.json"
        assert main(["certify", "--config", str(cfg), "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["certificate"]["passes"] is True
        assert record["certificate"]["re"] == 0.0

    def test_validate_output(self, tmp_path):
        cfg = _write_config(
            tmp_path / "c.json",
            shape={"kind": "sphere", "resolution": 12},
            r_t=15.0,
        )
        out = tmp_path / "out.json"
        assert main(["validate", "--config", str(cfg), "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["all_passed"] is True
        assert len(record["checks"]) >= 2

    def test_converge_writes_csv(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", resolutions=[8, 10, 12], alpha=1.0)
        out = tmp_path / "study.csv"
        assert main(["converge", "--config", str(cfg), "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("N,")
        assert len(lines) == 4

    def test_converge_warnings_reach_stderr(self, tmp_path, capsys):
        # the errors grow as the resolutions fall; the output is CSV, so the
        # warnings can only go to stderr
        cfg = _write_config(tmp_path / "c.json", resolutions=[14, 10, 8])
        out = tmp_path / "study.csv"
        assert main(["converge", "--config", str(cfg), "--output", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("did not decrease" in line for line in err)
        assert len(out.read_text().splitlines()) == 4

    def test_converge_accepts_integral_floats(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json", resolutions=[8.0, 10, 12.0], alpha=1.0)
        out = tmp_path / "study.csv"
        assert main(["converge", "--config", str(cfg), "--output", str(out)]) == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == [
            "64", "100", "144"
        ]

    def test_custom_data_pipeline(self, tmp_path, rng):
        mesh = make_parametric_surface("sphere", 10)
        lines = ["node_index,normal,t1,t2"]
        for i in range(mesh.n_nodes):
            lines.append(f"{i},0.0,{float(rng.normal())!r},{float(rng.normal())!r}")
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        cfg = _write_config(
            tmp_path / "c.json", data={"preset": "custom", "path": str(csv_path)}
        )
        out = tmp_path / "out.json"
        assert main(["swim", "--config", str(cfg), "--output", str(out)]) == 0
        record = json.loads(out.read_text())
        assert len(record["coefficients"]) == 6

    def test_bad_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text('{"shape": {"kind": "cube"}, "alpha": 1}')
        assert main(["mobility", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        # an absurd truncation threshold guts the basis and trips the solver
        cfg = _write_config(tmp_path / "c.json", svd_tol=0.99)
        assert main(["mobility", "--config", str(cfg)]) == 3
        assert "solver error" in capsys.readouterr().err

    def test_large_flux_swim(self, tmp_path):
        # the carrier's rounding-level normal leak grows with phi; it is not
        # a tangential-data defect, and the force/torque residuals grow with
        # the sink's tractions, not with beta (which is ~0 for flux-only data)
        for phi in (1e7, 1e12):
            cfg = _write_config(
                tmp_path / "c.json",
                shape={"kind": "sphere", "resolution": 10},
                data={"preset": "source", "phi": phi},
            )
            out = tmp_path / "out.json"
            assert main(["swim", "--config", str(cfg), "--output", str(out)]) == 0
            record = json.loads(out.read_text())
            assert record["warnings"] == []
            assert np.all(np.isfinite(record["xi"] + record["omega"]))

    def test_missing_data_section(self, tmp_path):
        cfg_dict = {"shape": {"kind": "sphere", "resolution": 12}, "alpha": 1.0}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg_dict))
        assert main(["mobility", "--config", str(p)]) == 0
        assert main(["swim", "--config", str(p)]) == 2


# non-finite numbers, fractional integers, values outside their domain and
# malformed mesh files
@pytest.mark.parametrize(
    "command, override",
    [
        ("mobility", {"alpha": float("nan")}),
        ("swim", {"data": {"preset": "squirmer", "b1": float("inf")}}),
        ("certify", {"re": float("nan")}),
        ("swim", "csv"),
        ("mobility", {"alpha": "abc"}),
        ("swim", {"data": {"preset": "squirmer", "b1": "nan"}}),
        ("mobility", {"shape": {"kind": "sphere", "resolution": 8.7}}),
        ("mobility", {"stride": 2.9}),
        ("swim", {"data": {"preset": "rigid-trace", "index": 2.9}}),
        ("converge", {"resolutions": [8.5, 9, 10]}),
        ("converge", {"resolutions": []}),
        ("converge", {"resolutions": [6, 8, 10]}),
        ("validate", {"shape": {"kind": "sphere", "resolution": 8}, "r_t": 0.5}),
        ("mobility", "mesh"),
        ("mobility", {"shape": {"kind": "sphere", "radius": 1e155, "resolution": 8}}),
        ("mobility", {"shape": {"kind": "sphere", "radius": 1e-155, "resolution": 8}}),
        (
            "mobility",
            {"shape": {"kind": "spheroid", "a_axis": 1.0, "c_axis": 1e200, "resolution": 8}},
        ),
        # resolution**2 nodes past an array index (leggauss used to raise OverflowError)
        ("mobility", {"shape": {"kind": "sphere", "resolution": 1e19}}),
        ("mobility", {"shape": {"kind": "spheroid", "resolution": 1e30}}),
        ("converge", {"resolutions": [8, 10, 1e30]}),
    ],
    ids=[
        "alpha-nan", "b1-inf", "re-nan", "csv-nan", "alpha-string", "b1-string-nan",
        "resolution-fractional", "stride-fractional", "index-fractional",
        "resolutions-fractional", "resolutions-empty", "resolutions-below-8",
        "r_t-inside-body", "mesh-bad-face", "radius-overflow", "radius-underflow",
        "spheroid-axis-overflow", "resolution-1e19", "resolution-1e30", "resolutions-1e30",
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, command, override):
    if override == "csv":
        lines = ["node_index,normal,t1,t2"]
        lines += [f"{i},0.0,{'nan' if i == 7 else 0.5},0.0" for i in range(100)]
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        override = {"data": {"preset": "custom", "path": str(csv_path)}}
    elif override == "mesh":
        mesh_path = tmp_path / "tet.off"
        mesh_path.write_text(
            "OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
            "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 x\n"
        )
        override = {"shape": {"kind": "mesh", "path": str(mesh_path)}}
    cfg = _write_config(tmp_path / "c.json", **override)
    out = tmp_path / "out.json"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "override",
    [
        {"shape": "sphere"},
        {"data": ["squirmer"]},
        {"thresholds": 5},
        {"resolutions": 12},
    ],
    ids=["shape", "data", "thresholds", "resolutions"],
)
def test_section_of_wrong_type_exits_2(tmp_path, capsys, override):
    cfg = _write_config(tmp_path / "c.json", **override)
    assert main(["swim", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["shape", "data", "output"])
def test_integer_path_is_not_a_file_descriptor(tmp_path, capsys, where):
    # an int reaching open() would read (or write) and then close this fd
    held = tmp_path / "held.txt"
    held.write_text("mine\n")
    with open(held, "r", encoding="utf-8") as fh:
        fd = fh.fileno()
        override = {
            "shape": {"shape": {"kind": "mesh", "path": fd}},
            "data": {"data": {"preset": "custom", "path": fd}},
            "output": {"output": fd},
        }[where]
        cfg = _write_config(tmp_path / "c.json", **override)
        assert main(["swim", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        os.fstat(fd)  # still open
        assert fh.read() == "mine\n"


@pytest.mark.parametrize(
    "radius, alpha", [(1e-6, 2e6), (1e6, 2e-6), (1e-13, 2e13), (1e15, 2e-15), (1e-15, 2.0)]
)
def test_mobility_in_any_units(tmp_path, radius, alpha):
    # K, S and R are those of the unit sphere at alpha * radius times radius,
    # radius^2 and radius^3.  The last two bodies need the tangential rows
    # divided by max(1/radius, alpha): a fixed max(1, alpha) leaves them
    # ~1/radius out of balance with the normal rows, and the truncation
    # drops one family.
    blocks = []
    for a, al in ((1.0, alpha * radius), (radius, alpha)):
        cfg = _write_config(
            tmp_path / "c.json", shape={"kind": "sphere", "radius": a, "resolution": 12}, alpha=al
        )
        out = tmp_path / "out.json"
        assert main(["mobility", "--config", str(cfg), "--output", str(out)]) == 0
        m = np.array(json.loads(out.read_text())["grand_matrix"]["M"])
        s = np.array([1.0, 1.0, 1.0, a, a, a])
        blocks.append(m / (a * np.outer(s, s)))
    unit, scaled = blocks
    npt.assert_allclose(scaled, unit, rtol=1e-9, atol=1e-9 * np.max(np.abs(unit)))


def test_body_out_of_range_exits_2(tmp_path, capsys):
    # R grows as the radius cubed: at 1e103 it would overflow and at 1e-120
    # underflow, so the mesh is rejected where it is built, before any solve
    for radius in (1e103, 1e-120):
        cfg = _write_config(
            tmp_path / "c.json",
            shape={"kind": "sphere", "radius": radius, "resolution": 12},
            alpha=2.0 / radius,
        )
        out = tmp_path / "out.json"
        assert main(["mobility", "--config", str(cfg), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert f"body size {radius:g} is outside the accepted range 1e-101 to 1e+101" in err
        assert not out.exists()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_triangle_mesh_out_of_range_exits_2(tmp_path, capsys, scale):
    # the loader checks the vertices before their face areas over- or underflow
    from test_geometry import _icosphere, _write_off

    verts, faces = _icosphere(0)
    _write_off(tmp_path / "ico.off", scale * verts, faces)
    cfg = _write_config(tmp_path / "c.json", shape={"kind": "mesh", "path": str(tmp_path / "ico.off")})
    out = tmp_path / "out.json"
    assert main(["mobility", "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "outside the accepted range 1e-101 to 1e+101" in err and not out.exists()


def test_stride_on_a_parametric_body_exits_2(tmp_path, capsys):
    # a sphere or spheroid places its sources on a grid; stride is for triangle meshes
    for shape in ({"kind": "sphere", "resolution": 8}, {"kind": "spheroid", "resolution": 8}):
        cfg = _write_config(tmp_path / "c.json", shape=shape, stride=2)
        assert main(["mobility", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "triangle meshes only" in err
    assert load_config(_write_config(tmp_path / "c.json", stride=1))["stride"] == 1


_OCTAHEDRON = (
    "OFF\n6 8 0\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n3 0 2 4\n3 2 1 4\n"
    "3 1 3 4\n3 3 0 4\n3 2 0 5\n3 1 2 5\n3 3 1 5\n3 0 3 5\n"
)


def test_stride_1_on_a_mesh_exits_2(tmp_path, capsys):
    # a source on every node (K = N) interpolates: its residual checks nothing
    mesh_path = tmp_path / "octa.off"
    mesh_path.write_text(_OCTAHEDRON)
    shape = {"kind": "mesh", "path": str(mesh_path)}
    cfg = _write_config(tmp_path / "c.json", shape=shape, shrink=0.3, stride=1)
    out = tmp_path / "out.json"
    assert main(["mobility", "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "use stride 2" in err and not out.exists()


# diag K of the c = 1.6 spheroid at alpha 2: res 40 and res 48 at shrink 0.5 agree to 1e-9
_C16_K = (19.4135782, 19.4135782, 16.3388475)


@pytest.mark.parametrize("shrink", [0.5, 0.7, 0.85, 0.9])
def test_c16_spheroid_swims_or_fails_loudly(tmp_path, capsys, shrink):
    # the benchmark's c = 1.6 swim job at res 20, at each shrink it draws: the
    # grid resolves the body at shrink 0.5 and 0.7; at 0.85 and 0.9 it is too
    # shallow (K_xx would be 13% and 42% off) and the K estimate rejects it
    cfg = _write_config(
        tmp_path / "c.json",
        shape={"kind": "spheroid", "a_axis": 1.0, "c_axis": 1.6, "resolution": 20},
        shrink=shrink,
    )
    out = tmp_path / "out.json"
    code = main(["swim", "--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    if shrink > 0.8:
        assert code == 3 and not out.exists()
        assert err.startswith("solver error") and err.count("\n") == 1
        assert "finer surface rule" in err
        return
    assert code == 0 and err == ""
    # off by 3.4e-5 at shrink 0.5 and 5.2e-4 at 0.7
    record = json.loads(out.read_text())
    npt.assert_allclose(np.diag(record["grand_matrix"]["K"]), _C16_K, rtol=1e-3)
    assert record["k_error_estimate"] < 1e-3


def test_unresolved_sphere_fails_loudly_but_converge_reports_it(tmp_path, capsys):
    # the res-8 sphere at alpha 1e6 and shrink 0.7: K 51% off, estimate 1.1
    cfg = _write_config(
        tmp_path / "c.json",
        shape={"kind": "sphere", "resolution": 8},
        alpha=1e6,
        shrink=0.7,
        resolutions=[8, 10, 12],
    )
    for command in ("mobility", "swim", "certify"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver error") and err.count("\n") == 1
        assert "finer surface rule" in err and not out.exists()
    # a study reports every row, the rejected ones too
    out = tmp_path / "study.csv"
    assert main(["converge", "--config", str(cfg), "--output", str(out)]) == 0
    header, *rows = (line.split(",") for line in out.read_text().splitlines())
    assert header[-1] == "estimate" and len(rows) == 3
    estimates = [float(row[-1]) for row in rows]
    assert estimates[0] > 1.0 and estimates[0] > estimates[1] > estimates[2]


def test_triangle_mesh_has_no_k_estimate(tmp_path):
    # a triangle mesh has no finer rule: the estimate is null and nothing is gated
    mesh_path = tmp_path / "octa.off"
    mesh_path.write_text(_OCTAHEDRON)
    cfg = _write_config(
        tmp_path / "c.json", shape={"kind": "mesh", "path": str(mesh_path)}, shrink=0.3
    )
    out = tmp_path / "out.json"
    assert main(["mobility", "--config", str(cfg), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["k_error_estimate"] is None


def test_tiny_squirmer_swims_like_the_unit_sphere(tmp_path):
    # the stroke is a velocity and alpha * radius is 2 on both bodies, so
    # the swim velocity is the same
    xi = []
    for a in (1.0, 1e-20):
        cfg = _write_config(
            tmp_path / "c.json", shape={"kind": "sphere", "radius": a, "resolution": 12}, alpha=2.0 / a
        )
        out = tmp_path / "out.json"
        assert main(["swim", "--config", str(cfg), "--output", str(out)]) == 0
        xi.append(np.array(json.loads(out.read_text())["xi"]))
    unit, tiny = xi
    npt.assert_allclose(tiny, unit, rtol=1e-9, atol=1e-9 * np.max(np.abs(unit)))


def _dataclass_fields(cls):
    return sorted(f.name for f in dataclasses.fields(cls))


def test_output_objects_carry_the_dataclass_fields(tmp_path):
    from slipswim import CheckResult, GrandMatrix, NSCertificate

    shape = {"kind": "sphere", "resolution": 10}
    records = {}
    for command in ("certify", "validate"):
        cfg = _write_config(tmp_path / f"{command}.json", shape=shape, r_t=10.0)
        out = tmp_path / f"{command}.out.json"
        assert main([command, "--config", str(cfg), "--output", str(out)]) == 0
        records[command] = json.loads(out.read_text())
    assert sorted(records["certify"]["grand_matrix"]) == _dataclass_fields(GrandMatrix)
    assert sorted(records["certify"]["certificate"]) == _dataclass_fields(NSCertificate)
    assert len(records["validate"]["checks"]) == 3
    for check in records["validate"]["checks"]:
        assert sorted(check) == _dataclass_fields(CheckResult)


def test_non_finite_output_exits_3(tmp_path, capsys):
    # the certificate's norms square no value of the stroke's size, so a huge
    # stroke certifies; one at the end of the float range overflows the
    # right-hand side of the fit
    for b1, code in ((1e300, 0), (1.7e308, 3)):
        cfg = _write_config(
            tmp_path / "c.json",
            shape={"kind": "sphere", "resolution": 10},
            data={"preset": "squirmer", "b1": b1},
        )
        out = tmp_path / f"{code}.json"
        assert main(["certify", "--config", str(cfg), "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("solver error") and err.count("\n") == 1
    assert "NaN or infinite" in err and not out.exists()


def test_huge_squirmer_exits_cleanly(tmp_path, capsys):
    # a body whose R would overflow is rejected when its mesh is built
    cfg = _write_config(
        tmp_path / "c.json",
        shape={"kind": "sphere", "radius": 1e103, "resolution": 12},
        alpha=2e-103,
    )
    code = main(["swim", "--config", str(cfg), "--output", str(tmp_path / "out.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "outside the accepted range" in err


class TestLargeBody:
    """The grand-matrix guard reads K, S and R at unit diagonal, so it holds at any scale."""

    @staticmethod
    def _certify(tmp_path, radius):
        cfg = _write_config(
            tmp_path / f"c{radius:g}.json",
            shape={"kind": "sphere", "radius": radius, "resolution": 12},
            alpha=2.0 / radius,
        )
        out = tmp_path / f"o{radius:g}.json"
        return main(["certify", "--config", str(cfg), "--output", str(out)]), out

    def test_radius_1e8_matches_unit_sphere(self, tmp_path):
        (code1, out1), (code8, out8) = (self._certify(tmp_path, a) for a in (1.0, 1e8))
        assert code1 == 0 and code8 == 0
        unit, large = (json.loads(o.read_text())["grand_matrix"] for o in (out1, out8))
        for block, power in (("K", 1), ("R", 3)):
            want, got = np.array(unit[block]), np.array(large[block]) / 1e8**power
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)
        npt.assert_allclose(large["min_eigenvalue"], unit["min_eigenvalue"], rtol=1e-5)

    def test_radius_1e15_matches_unit_sphere(self, tmp_path):
        # the tangential rows are weighted by the body's length, so a body
        # 1e15 long resolves both row families as the unit sphere does
        (code1, out1), (code15, out15) = (self._certify(tmp_path, a) for a in (1.0, 1e15))
        assert code1 == 0 and code15 == 0
        unit, large = (json.loads(o.read_text())["grand_matrix"] for o in (out1, out15))
        for block, power in (("K", 1), ("R", 3)):
            want, got = np.array(unit[block]), np.array(large[block]) / 1e15**power
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
        npt.assert_allclose(large["min_eigenvalue"], unit["min_eigenvalue"], rtol=1e-9)


    def test_radius_1e100_mobility_matches_unit_sphere(self, tmp_path):
        # the residuals are relative to the data they fit, so the rotation
        # fits read as on the unit sphere (to rounding: 1e100 is no power of two)
        outs = []
        for radius in (1.0, 1e100):
            cfg = _write_config(
                tmp_path / f"m{radius:g}.json",
                shape={"kind": "sphere", "radius": radius, "resolution": 12},
                alpha=2.0 / radius,
            )
            out = tmp_path / f"mo{radius:g}.json"
            assert main(["mobility", "--config", str(cfg), "--output", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        unit, large = outs
        for block, power in (("K", 1), ("R", 3)):
            want = np.array(unit["grand_matrix"][block])
            got = np.array(large["grand_matrix"][block]) / 1e100**power
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
        npt.assert_allclose(large["aux_residual_worst"], unit["aux_residual_worst"], rtol=1e-12)

    @pytest.mark.parametrize("radius", [1e100, 1e-100])
    def test_swim_and_certify_at_the_ends_of_the_range(self, tmp_path, capsys, radius):
        # the force and torque residuals are relative to the lifting's tractions,
        # and scaled before their norms square them
        cfg = _write_config(
            tmp_path / "c.json",
            shape={"kind": "sphere", "radius": radius, "resolution": 12},
            alpha=2.0 / radius,
        )
        for command in ("swim", "certify"):
            out = tmp_path / f"{command}.json"
            assert main([command, "--config", str(cfg), "--output", str(out)]) == 0
            record = json.loads(out.read_text(), parse_constant=pytest.fail)
            assert record["warnings"] == []
            assert max(record["residuals"][k] for k in ("force", "torque")) < 1e-12
            npt.assert_allclose(record["xi"], [0.0, 0.0, 1.0 / 3.0], atol=1e-3)
        assert capsys.readouterr().err == ""

    def test_radius_1e60_squirmer_has_no_torque_warning(self, tmp_path, capsys):
        # a torque is a force times a length: its tolerance scales with the body
        xi = []
        for radius in (1.0, 1e60):
            cfg = _write_config(
                tmp_path / f"s{radius:g}.json",
                shape={"kind": "sphere", "radius": radius, "resolution": 12},
                alpha=2.0 / radius,
            )
            out = tmp_path / f"so{radius:g}.json"
            assert main(["swim", "--config", str(cfg), "--output", str(out)]) == 0
            record = json.loads(out.read_text())
            assert record["warnings"] == []
            xi.append(np.array(record["xi"]))
        assert capsys.readouterr().err == ""
        unit, large = xi
        assert np.max(np.abs(large - unit)) <= 1e-9 * np.max(np.abs(unit))


def test_far_volume_points_validate(tmp_path):
    # the volume rule's outer points at r_t 1e12 sit far from every source, and
    # the near ones are judged on their own scale
    rhs = {}
    for r_t in (1e11, 1e12, 1e50):
        cfg = _write_config(tmp_path / "v.json", shape={"kind": "sphere", "resolution": 12}, r_t=r_t)
        out = tmp_path / f"v{r_t:g}.json"
        assert main(["validate", "--config", str(cfg), "--output", str(out)]) == 0
        rhs[r_t] = [c["rhs"] for c in json.loads(out.read_text())["checks"]]
    npt.assert_allclose(rhs[1e12], rhs[1e11], rtol=1e-8, atol=1e-14)
    npt.assert_allclose(rhs[1e50], rhs[1e11], rtol=2e-5, atol=1e-14)


@pytest.mark.parametrize("command, suffix", [("mobility", "json"), ("converge", "csv")])
def test_unwritable_output_exits_2(tmp_path, capsys, command, suffix):
    cfg = _write_config(tmp_path / "c.json", resolutions=[8, 9, 10])
    out = tmp_path / "missing" / f"out.{suffix}"
    assert main([command, "--config", str(cfg), "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "cannot write output" in err[0]
    assert not out.parent.exists()


# numpy's message, and a bare MemoryError() that says nothing: no line ends in a colon
@pytest.mark.parametrize(
    "error",
    [MemoryError("Unable to allocate 74.5 GiB for an array"), MemoryError()],
    ids=["message", "bare"],
)
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, error):
    from slipswim import geometry

    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(geometry, "make_parametric_surface", no_memory)
    cfg = _write_config(tmp_path / "c.json")
    assert main(["mobility", "--config", str(cfg), "--output", str(tmp_path / "o.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "out of memory" in err[0]
    assert not any(line.rstrip().endswith(":") for line in err)
    assert not (tmp_path / "o.json").exists()


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["swim", "--config", str(cfg), "--output", str(a)]) == 0
        assert main(["swim", "--config", str(cfg), "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timing_is_opt_in(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "out.json"
        main(["swim", "--config", str(cfg), "--output", str(out)])
        assert "timing" not in json.loads(out.read_text())
        main(["swim", "--config", str(cfg), "--output", str(out), "--timing"])
        assert "timing" in json.loads(out.read_text())

    def test_thread_flag_sets_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "out.json"
        main(["mobility", "--config", str(cfg), "--output", str(out), "--threads", "2"])
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_nonpositive_thread_flag_exits_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "c.json")
        assert main(["mobility", "--config", str(cfg), "--threads", "0"]) == 2
        assert capsys.readouterr().err.strip() == "--threads must be a positive integer"

    def test_console_entry_point(self, tmp_path):
        cfg = _write_config(tmp_path / "c.json")
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "slipswim.cli",
                "mobility",
                "--config",
                str(cfg),
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
