"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv); one test exercises the
installed console script as a real subprocess.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from equimesh.benchmarks import blob_contour, cap_domain, cap_weights, ellipse_contour
from equimesh.cli import _parse_stages, main
from equimesh.harmonics import load_weights, save_weights
from equimesh.mesh import icosphere, load_mesh
from equimesh.contour2d import read_contours, write_contour_csv, write_contours


@pytest.fixture(scope="module")
def oblate_obj(tmp_path_factory):
    """A slightly oblate ellipsoid mesh on disk."""
    from equimesh.mesh import save_mesh

    mesh = icosphere(2).with_vertices(
        icosphere(2).vertices * np.array([1.2, 1.2, 0.8])
    )
    path = tmp_path_factory.mktemp("cli") / "ellipsoid.obj"
    save_mesh(mesh, path)
    return path


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory, oblate_obj):
    path = tmp_path_factory.mktemp("cli") / "weights.txt"
    rc = main(["decompose", "--in", str(oblate_obj), "--out", str(path),
               "--nmax", "6"])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# happy paths

def test_decompose_writes_weights(oblate_obj, tmp_path, capsys):
    out = tmp_path / "w.txt"
    rc = main(["decompose", "--in", str(oblate_obj), "--out", str(out),
               "--nmax", "6"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "kind=oblate" in captured.out
    assert "beta=49" in captured.out
    assert "residual_rms=" in captured.out
    w = load_weights(out)
    assert w.n_max == 6
    assert w.domain.kind == "oblate"


def test_remesh_from_weights(weights_file, tmp_path, capsys):
    out = tmp_path / "remeshed.obj"
    trace = tmp_path / "trace.csv"
    rc = main([
        "remesh", "--weights", str(weights_file), "--out", str(out),
        "--trace", str(trace), "--refine", "2", "--imax", "5",
        "--std-tol", "0", "--dt-scale", "2.0",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "iterations=" in captured.out
    assert "area_drift=" in captured.out
    assert "stop_reason=i_max" in captured.out
    mesh = load_mesh(out)
    assert mesh.n_v == 162
    assert mesh.boundary_loop() is None
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("stage,t,dt,std_u")
    assert len(lines) >= 2


def test_remesh_inline_decompose(oblate_obj, tmp_path):
    out = tmp_path / "m.obj"
    rc = main(["remesh", "--in", str(oblate_obj), "--nmax", "6",
               "--out", str(out), "--refine", "2", "--imax", "3"])
    assert rc == 0
    assert out.exists()


def test_remesh_inline_decompose_checks_three_meshes(oblate_obj, tmp_path, monkeypatch):
    # the loaded mesh, the sampler's icosphere and the engine's template;
    # the aligned mesh and the result reuse a checked connectivity
    import equimesh.mesh

    checked = []
    check = equimesh.mesh._single_boundary_loop

    def counting(*args):
        checked.append(args)
        return check(*args)

    monkeypatch.setattr(equimesh.mesh, "_single_boundary_loop", counting)
    rc = main(["remesh", "--in", str(oblate_obj), "--nmax", "6",
               "--out", str(tmp_path / "m.obj"), "--refine", "1", "--imax", "2"])
    assert rc == 0 and len(checked) == 3


def test_bumpy_obj_round_trip(tmp_path, capsys):
    """A bumpy closed surface read back from OBJ decomposes and remeshes:
    its two faces around the poles are not mistaken for folds."""
    from equimesh.benchmarks import bumpy_weights, oblate_domain
    from equimesh.harmonics import reconstruct_fast
    from equimesh.mesh import TriangleMesh, save_mesh
    from equimesh.spheroidal import sample_icosphere

    domain = oblate_domain()
    coords, faces = sample_icosphere(domain, 3)
    bumpy = tmp_path / "bumpy.obj"
    save_mesh(TriangleMesh(reconstruct_fast(bumpy_weights(domain), coords), faces),
              bumpy)
    weights = tmp_path / "w.txt"
    assert main(["decompose", "--in", str(bumpy), "--out", str(weights),
                 "--nmax", "12"]) == 0
    assert load_weights(weights).domain.kind == "oblate"
    out = tmp_path / "m.obj"
    assert main(["remesh", "--in", str(bumpy), "--nmax", "12", "--imax", "3",
                 "--out", str(out)]) == 0
    assert load_mesh(out).n_v == 2562
    capsys.readouterr()


def test_remesh_staged_schedule(weights_file, tmp_path):
    out = tmp_path / "m.obj"
    trace = tmp_path / "t.csv"
    rc = main(["remesh", "--weights", str(weights_file), "--out", str(out),
               "--trace", str(trace), "--refine", "2",
               "--stages", "4:3,6:2", "--std-tol", "0"])
    assert rc == 0
    stages = [int(line.split(",")[0])
              for line in trace.read_text().splitlines()[1:]]
    assert set(stages) == {0, 1}


def test_remesh_open_cap(tmp_path):
    w = cap_weights(cap_domain(), n_max=10, rings=20, sectors=32)
    wpath = tmp_path / "cap.txt"
    save_weights(w, wpath)
    out = tmp_path / "cap.obj"
    rc = main(["remesh", "--weights", str(wpath), "--out", str(out),
               "--refine", "1", "--imax", "3", "--std-tol", "0"])
    assert rc == 0
    mesh = load_mesh(out)
    assert mesh.boundary_loop() is not None


def test_remesh_summary_counts_rejections_and_flipped_faces(tmp_path, capsys):
    from equimesh.benchmarks import bumpy_weights, oblate_domain

    # steps this large get candidates rejected for flipped faces
    w = bumpy_weights(oblate_domain(), n_max=15, band=6, amplitude=0.8, seed=3)
    wpath, trace = tmp_path / "bumpy.txt", tmp_path / "trace.csv"
    save_weights(w, wpath)
    rc = main(["remesh", "--weights", str(wpath), "--out", str(tmp_path / "b.obj"),
               "--trace", str(trace), "--refine", "2", "--imax", "5",
               "--dt-scale", "60", "--std-tol", "0"])
    assert rc == 0
    header, *rows = [line.split(",") for line in trace.read_text().splitlines()]
    column = {name: [int(row[header.index(name)]) for row in rows]
              for name in ("halvings", "flip_count")}
    assert sum(column["flip_count"]) > 0
    summary = capsys.readouterr().out.split()
    assert f"rejected={sum(column['halvings'])}" in summary
    assert f"flipped_faces={sum(column['flip_count'])}" in summary


def test_remesh_open_cap_inline_no_align(tmp_path):
    from equimesh.mesh import TriangleMesh, save_mesh
    from equimesh.spheroidal import forward_coords, sample_cap_grid

    domain = cap_domain()
    coords, faces = sample_cap_grid(domain, rings=8, sectors=16)
    cap = tmp_path / "cap_in.obj"
    save_mesh(TriangleMesh(forward_coords(domain, coords.eta, coords.phi),
                           faces), cap)
    out = tmp_path / "cap.obj"
    rc = main(["remesh", "--in", str(cap), "--nmax", "4",
               "--kind", "hemispheroid", "--no-align", "--out", str(out),
               "--refine", "1", "--imax", "3", "--std-tol", "0"])
    assert rc == 0
    assert load_mesh(out).boundary_loop() is not None


def test_metrics_report(oblate_obj, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["metrics", "--in", str(oblate_obj), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,index,area,rho_hat,area_density"
    mesh = load_mesh(oblate_obj)
    assert len(lines) == 1 + mesh.n_f + mesh.n_v


def test_remesh2d_document(tmp_path, capsys):
    doc = tmp_path / "grains.txt"
    write_contours(
        [("small", ellipse_contour(a=1.0, b=0.6, n_points=48)),
         ("large", ellipse_contour(a=3.0, b=1.8, n_points=48))],
        doc,
    )
    out = tmp_path / "remeshed.txt"
    rc = main(["remesh2d", "--in", str(doc), "--out", str(out),
               "--max-segments", "30", "--nmax", "8", "--imax", "300"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "particle length budget" in captured.out
    back = read_contours(out)
    assert [pid for pid, _ in back] == ["small", "large"]
    assert back[1][1].points.shape[0] == 30


def test_remesh2d_single_csv_fallback(tmp_path):
    csv = tmp_path / "blob.csv"
    write_contour_csv(blob_contour(n_points=64), csv)
    out = tmp_path / "out.txt"
    rc = main(["remesh2d", "--in", str(csv), "--out", str(out),
               "--max-segments", "40", "--nmax", "8", "--imax", "300"])
    assert rc == 0
    back = read_contours(out)
    assert [pid for pid, _ in back] == ["0"]


def test_remesh2d_truncated_document_exits_2(tmp_path, capsys):
    doc = tmp_path / "grains.txt"
    write_contours([("a", blob_contour(16)), ("b", blob_contour(16))], doc)
    doc.write_text("".join(doc.read_text().splitlines(True)[:-2]))
    rc = main(["remesh2d", "--in", str(doc), "--out", str(tmp_path / "out.txt"),
               "--max-segments", "30", "--nmax", "8"])
    assert rc == 2
    assert "contour b is truncated" in capsys.readouterr().err


def test_remesh2d_config_rejects_workers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    rc = main(["remesh2d", "--in", str(tmp_path / "none.txt"), "--out",
               str(tmp_path / "out.txt"), "--max-segments", "30",
               "--nmax", "8", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config, pair", [
    (["--in", "missing.obj", "--nmax", "99"], {}, "--weights and --in"),
    (["--nmax", "99"], {"input": "missing.obj"}, "--weights and --in"),
    (["--stages", "6:2", "--imax", "7"], {}, "--stages and --imax"),
    (["--stages", "6:2"], {"imax": 7}, "--stages and --imax"),
    (["--nmax", "99"], {}, "--weights and --nmax"),
    ([], {"nmax": 99}, "--weights and --nmax"),
    (["--kind", "prolate"], {}, "--weights and --kind"),
    ([], {"kind": "prolate"}, "--weights and --kind"),
    (["--no-align"], {}, "--weights and --no-align"),
    ([], {"no_align": True}, "--weights and --no-align"),
])
def test_remesh_conflicting_options_exit_2(weights_file, tmp_path, capsys, flags,
                                           config, pair):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["remesh", "--weights", str(weights_file), "--out", str(tmp_path / "o.obj"),
               "--refine", "1", "--config", str(cfg), *flags])
    assert rc == 2
    assert pair in capsys.readouterr().err


def test_remesh_is_reproducible(weights_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.obj"
        trace = tmp_path / f"{tag}.csv"
        rc = main(["remesh", "--weights", str(weights_file), "--out",
                   str(out), "--trace", str(trace), "--refine", "2",
                   "--imax", "4", "--std-tol", "0"])
        assert rc == 0
        outs.append((out.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


def test_remesh_defaults_are_the_library_defaults(weights_file, tmp_path):
    from equimesh.diffusion import DiffusionConfig, diffuse_remesh
    from equimesh.spheroidal import sample_icosphere

    cli_trace = tmp_path / "cli.csv"
    rc = main(["remesh", "--weights", str(weights_file), "--out",
               str(tmp_path / "m.obj"), "--trace", str(cli_trace),
               "--refine", "2", "--imax", "4"])
    assert rc == 0
    weights = load_weights(weights_file)
    coords, faces = sample_icosphere(weights.domain, 2)
    config = DiffusionConfig(stages=((weights.n_max, 4),))
    *_, trace = diffuse_remesh(weights, coords, faces, config)
    lib_trace = tmp_path / "lib.csv"
    trace.to_csv(lib_trace)
    assert cli_trace.read_bytes() == lib_trace.read_bytes()


# ---------------------------------------------------------------------------
# config file merging

def test_config_fills_missing_flags(oblate_obj, tmp_path):
    out = tmp_path / "w.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 6, "out": str(out)}))
    rc = main(["decompose", "--in", str(oblate_obj), "--config", str(cfg)])
    assert rc == 0
    assert load_weights(out).n_max == 6


def test_flags_override_config(oblate_obj, tmp_path):
    out = tmp_path / "w.txt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 8, "out": str(out)}))
    rc = main(["decompose", "--in", str(oblate_obj), "--config", str(cfg),
               "--nmax", "4"])
    assert rc == 0
    assert load_weights(out).n_max == 4


def test_config_dashed_keys(weights_file, tmp_path):
    out = tmp_path / "m.obj"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt-scale": 2.0, "imax": 3, "std-tol": 0.0,
                               "refine": 2}))
    rc = main(["remesh", "--weights", str(weights_file), "--out", str(out),
               "--config", str(cfg)])
    assert rc == 0


@pytest.mark.parametrize(
    "payload",
    ["{not json", json.dumps(["a", "list"]), json.dumps({"bogus_key": 1})],
)
def test_bad_config_is_a_parse_error(oblate_obj, tmp_path, payload, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    rc = main(["decompose", "--in", str(oblate_obj), "--out",
               str(tmp_path / "w.txt"), "--nmax", "4",
               "--config", str(cfg)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_config_value_goes_through_flag_type(weights_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": "0.5", "imax": "2", "refine": 1}))
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(tmp_path / "m.obj"), "--config", str(cfg)])
    assert rc == 0


def test_config_value_the_type_refuses_exits_2(weights_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"std_tol": [1]}))
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(tmp_path / "m.obj"), "--config", str(cfg)])
    assert rc == 2
    assert "std_tol" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tilted_obj(tmp_path_factory):
    """An oblate ellipsoid mesh whose symmetry axis lies along y."""
    from equimesh.mesh import save_mesh

    mesh = icosphere(2)
    path = tmp_path_factory.mktemp("cli") / "tilted.obj"
    save_mesh(mesh.with_vertices(mesh.vertices * np.array([1.2, 0.8, 1.2])), path)
    return path


def _decompose_report(mesh_path, tmp_path, capsys, *extra):
    rc = main(["decompose", "--in", str(mesh_path), "--out",
               str(tmp_path / "w.txt"), "--nmax", "4", *extra])
    assert rc == 0
    return capsys.readouterr().out.splitlines()[0]


def test_config_switch_takes_json_false(tilted_obj, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_align": False}))
    aligned = _decompose_report(tilted_obj, tmp_path, capsys)
    unaligned = _decompose_report(tilted_obj, tmp_path, capsys, "--no-align")
    assert aligned != unaligned
    configured = _decompose_report(tilted_obj, tmp_path, capsys, "--config", str(cfg))
    assert configured == aligned


@pytest.mark.parametrize("value", ["false", 0, None])
def test_config_switch_rejects_non_bool(tilted_obj, tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_align": value}))
    rc = main(["decompose", "--in", str(tilted_obj), "--out",
               str(tmp_path / "w.txt"), "--nmax", "4", "--config", str(cfg)])
    assert rc == 2
    assert "no_align" in capsys.readouterr().err


@pytest.mark.parametrize("value", [3, ["4:3"]])
@pytest.mark.parametrize("key", ["stages", "out", "trace"])
def test_config_text_flag_takes_only_a_string(weights_file, tmp_path, capsys,
                                               key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(tmp_path / "m.obj"), key: value}))
    rc = main(["remesh", "--weights", str(weights_file), "--refine", "1",
               "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: config value for {key!r} must be a string\n"


# ---------------------------------------------------------------------------
# exit codes

def test_missing_input_file_exits_2(tmp_path, capsys):
    rc = main(["decompose", "--in", str(tmp_path / "absent.obj"),
               "--out", str(tmp_path / "w.txt"), "--nmax", "4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_2(oblate_obj, capsys):
    rc = main(["decompose", "--in", str(oblate_obj), "--nmax", "4"])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_garbage_mesh_exits_2(tmp_path, capsys):
    bad = tmp_path / "junk.obj"
    bad.write_text("this is not a mesh\n")
    rc = main(["metrics", "--in", str(bad), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    capsys.readouterr()


def test_inconsistent_weights_file_exits_2(tmp_path, capsys):
    # 0.05 added to row (3, -2), line 17, of a bumpy n_max-12 file: the row
    # is no longer the conjugate of row (3, 2)
    from equimesh.benchmarks import bumpy_weights, oblate_domain

    path = tmp_path / "w.txt"
    save_weights(bumpy_weights(oblate_domain(), n_max=12), path)
    lines = path.read_text().splitlines()
    tokens = lines[16].split()
    assert tokens[:2] == ["3", "-2"]
    tokens[2] = repr(float(tokens[2]) + 0.05)
    lines[16] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    rc = main(["remesh", "--weights", str(path), "--out", str(tmp_path / "o.obj"),
               "--imax", "1"])
    assert rc == 2
    assert f"{path}:17: weights row (3, -2)" in capsys.readouterr().err
    assert not (tmp_path / "o.obj").exists()


def test_malformed_ply_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "no_count.ply"
    bad.write_text(
        "ply\nformat ascii 1.0\nelement vertex\nproperty float x\n"
        "property float y\nproperty float z\nend_header\n0 0 0\n"
    )
    rc = main(["metrics", "--in", str(bad), "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "element" in capsys.readouterr().err


def test_contradicting_kind_hint_exits_2(tmp_path, capsys):
    from equimesh.mesh import save_mesh

    prolate = tmp_path / "prolate.obj"
    save_mesh(icosphere(2).with_vertices(icosphere(2).vertices * [0.7, 0.7, 1.4]),
              prolate)
    out = tmp_path / "w.txt"
    rc = main(["decompose", "--in", str(prolate), "--out", str(out),
               "--nmax", "4", "--kind", "oblate"])
    assert rc == 2
    assert "inconsistent" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_mesh_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.obj"
    bad.write_text(
        "v nan 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
        "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"
    )
    out = tmp_path / "w.txt"
    rc = main(["decompose", "--in", str(bad), "--out", str(out), "--nmax", "1"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_remesh2d_non_finite_csv_exits_2(tmp_path, capsys):
    csv = tmp_path / "nan.csv"
    csv.write_text("x,y\n0,0\n1,0\nnan,1\n0,1\n")
    rc = main(["remesh2d", "--in", str(csv), "--out", str(tmp_path / "o.txt"),
               "--max-segments", "30", "--nmax", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "budget" not in captured.out


def test_collapsed_face_mesh_exits_2(tmp_path, capsys):
    from equimesh.mesh import save_mesh

    # icosphere(2) with the three corners of face 0 moved onto one point
    mesh = icosphere(2)
    v = mesh.vertices.copy()
    v[mesh.faces[0]] = v[mesh.faces[0, 0]]
    path = tmp_path / "collapsed.obj"
    save_mesh(mesh.with_vertices(v), path)
    rc = main(["metrics", "--in", str(path), "--out", str(tmp_path / "r.csv")])
    assert rc == 2  # bad input, not an engine failure (4)
    assert "collapsed face" in capsys.readouterr().err


def test_nonmanifold_mesh_exits_3(tmp_path, capsys):
    bad = tmp_path / "pinch.obj"
    bad.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nv 0 -1 0\n"
        "f 1 2 3\nf 1 2 4\nf 1 2 5\n"
    )
    rc = main(["metrics", "--in", str(bad), "--out", str(tmp_path / "r.csv")])
    assert rc == 3
    capsys.readouterr()


def test_guard_violation_exits_5(oblate_obj, tmp_path, capsys):
    rc = main(["decompose", "--in", str(oblate_obj),
               "--out", str(tmp_path / "w.txt"), "--nmax", "99"])
    assert rc == 5
    capsys.readouterr()


def test_fit_memory_guard_exits_5(oblate_obj, tmp_path, monkeypatch, capsys):
    from equimesh import harmonics

    # every fit takes the SVD fallback, whose dense basis of 162 samples x
    # 49 columns takes 63504 bytes
    monkeypatch.setattr(harmonics, "_MAX_NORMAL_COND", 0.0)
    monkeypatch.setattr(harmonics, "_MAX_FIT_BYTES", 63504 - 1)
    out = tmp_path / "w.txt"
    rc = main(["decompose", "--in", str(oblate_obj), "--out", str(out),
               "--nmax", "6"])
    assert rc == 5
    assert ("dense fit basis of 162 samples x 49 columns needs 0.1 MiB"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cap_refinement_guard_exits_5(tmp_path, capsys):
    # a cap is sampled on a polar grid, but --refine keeps the icosphere cap
    wpath = tmp_path / "cap.txt"
    save_weights(cap_weights(cap_domain(), n_max=6, rings=12, sectors=24), wpath)
    rc = main(["remesh", "--weights", str(wpath), "--out", str(tmp_path / "c.obj"),
               "--refine", "9"])
    assert rc == 5
    assert "refinement 9" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--refine", "-1"],
    ["--refine", "-3"],
    ["--refine", "9"],
    ["--rings", "3000", "--sectors", "3000"],
])
def test_cap_sampling_size_exits_5_before_sampling(flags, tmp_path, monkeypatch, capsys):
    import equimesh.spheroidal as spheroidal

    wpath = tmp_path / "cap.txt"
    save_weights(cap_weights(cap_domain(), n_max=6, rings=12, sectors=24), wpath)

    def refused(*args):
        raise AssertionError("the cap grid was sampled")

    monkeypatch.setattr(spheroidal, "forward_coords", refused)
    rc = main(["remesh", "--weights", str(wpath), "--out", str(tmp_path / "c.obj"),
               *flags])
    assert rc == 5
    assert "error:" in capsys.readouterr().err


def test_remesh2d_degree_above_cap_exits_5(tmp_path, capsys):
    # the 64-point contours would lower any degree to 31 per particle
    doc = tmp_path / "grains.txt"
    write_contours([("ellipse", ellipse_contour()), ("blob", blob_contour())], doc)
    rc = main(["remesh2d", "--in", str(doc), "--out", str(tmp_path / "o.txt"),
               "--max-segments", "48", "--nmax", "99"])
    assert rc == 5
    assert "n_max must be an integer" in capsys.readouterr().err


def test_engine_failure_exits_4(tmp_path, capsys):
    from equimesh.mesh import save_mesh

    tiny = tmp_path / "tiny.obj"
    save_mesh(icosphere(0), tiny)  # 12 vertices
    rc = main(["decompose", "--in", str(tiny),
               "--out", str(tmp_path / "w.txt"), "--nmax", "5"])
    assert rc == 4  # underdetermined fit
    capsys.readouterr()


@pytest.fixture
def collapsed_sampling(monkeypatch):
    """`remesh` samples a mesh whose first face has collapsed to an edge."""
    import equimesh.cli as cli
    from equimesh.spheroidal import CurvilinearCoords

    sample = cli.sample_icosphere

    def collapsed(domain, refinements):
        coords, faces = sample(domain, refinements)
        a, b = faces[0][:2]
        eta, phi = coords.eta.copy(), coords.phi.copy()
        eta[b], phi[b] = eta[a], phi[a]
        return CurvilinearCoords(eta, phi, domain), faces

    monkeypatch.setattr(cli, "sample_icosphere", collapsed)


def test_collapsed_sampling_exits_4_with_partial_trace(
    weights_file, tmp_path, collapsed_sampling, capsys
):
    trace = tmp_path / "partial.csv"
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(tmp_path / "m.obj"), "--trace", str(trace),
               "--refine", "2"])
    assert rc == 4
    assert "wrote partial trace" in capsys.readouterr().err
    assert trace.read_text().startswith("stage,t,dt,std_u")


def test_collapsed_sampling_without_trace_exits_4_and_writes_no_file(
    weights_file, tmp_path, collapsed_sampling, capsys
):
    out = tmp_path / "run"
    out.mkdir()
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(out / "m.obj"), "--refine", "2"])
    assert rc == 4
    assert "partial trace" not in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_bad_value_exits_2(weights_file, tmp_path, capsys):
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(tmp_path / "m.obj"), "--dt-scale", "0"])
    assert rc == 2
    capsys.readouterr()


def test_nan_dt_scale_exits_2(weights_file, tmp_path, capsys):
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(tmp_path / "m.obj"), "--dt-scale", "nan"])
    assert rc == 2
    assert "dt_scale" in capsys.readouterr().err


def test_bad_stage_syntax_exits_2(weights_file, tmp_path, capsys):
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(tmp_path / "m.obj"), "--stages", "5-10"])
    assert rc == 2
    capsys.readouterr()


def test_empty_stage_schedule_exits_2(weights_file, tmp_path, capsys):
    rc = main(["remesh", "--weights", str(weights_file),
               "--out", str(tmp_path / "m.obj"), "--stages", ","])
    assert rc == 2
    assert "empty stage schedule" in capsys.readouterr().err


def test_stage_schedule_skips_empty_parts():
    assert _parse_stages("30:5,") == [(30, 5)]


def test_unknown_subcommand_is_argparse_error():
    with pytest.raises(SystemExit):
        main(["polish"])


# ---------------------------------------------------------------------------
# console script

def test_console_script_runs(oblate_obj, tmp_path):
    out = tmp_path / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "equimesh.cli", "metrics",
         "--in", str(oblate_obj), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
