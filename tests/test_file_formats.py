"""Malformed-file properties shared by every text reader.

Each format starts from a valid saved file. Every variant made by cutting
the file after a line, dropping a line, or spoiling a line's last token
either loads or raises a FormatError that names the file.
"""

import re

import numpy as np
import pytest

from equimesh.benchmarks import blob_contour, bumpy_weights, ellipse_contour, oblate_domain
from equimesh.cli import main
from equimesh.contour2d import read_contours, write_contour_csv, write_contours
from equimesh.errors import FormatError, TopologyError
from equimesh.harmonics import load_weights, save_weights
from equimesh.mesh import icosphere, load_mesh, save_mesh

_NAMED = [("a", ellipse_contour(n_points=6)), ("b", blob_contour(n_points=7))]

# file name -> (writer of a valid file, reader)
_FORMATS = {
    "mesh.obj": (lambda p: save_mesh(icosphere(0), p), load_mesh),
    "mesh.off": (lambda p: save_mesh(icosphere(0), p), load_mesh),
    "mesh.ply": (lambda p: save_mesh(icosphere(0), p), load_mesh),
    "weights.txt": (
        lambda p: save_weights(bumpy_weights(oblate_domain(), n_max=2, band=2), p),
        load_weights,
    ),
    "grains.txt": (lambda p: write_contours(_NAMED, p), read_contours),
    "grain.csv": (lambda p: write_contour_csv(_NAMED[1][1], p), read_contours),
}


def _variants(lines):
    for i, line in enumerate(lines):
        yield f"cut after line {i + 1}", lines[: i + 1]
        yield f"drop line {i + 1}", lines[:i] + lines[i + 1 :]
        spoiled = re.sub(r"[^\s,]+$", "x1", line)
        yield f"x1 on line {i + 1}", lines[:i] + [spoiled] + lines[i + 1 :]


@pytest.mark.parametrize("name", list(_FORMATS))
def test_malformed_variants_load_or_name_the_file(tmp_path, name):
    write, read = _FORMATS[name]
    valid = tmp_path / f"valid_{name}"
    write(valid)
    path = tmp_path / name
    for label, lines in _variants(valid.read_text().splitlines()):
        path.write_text("".join(line + "\n" for line in lines))
        try:
            read(path)
        except FormatError as exc:
            assert str(path) in str(exc), (label, str(exc))
        except TopologyError as exc:
            # an OBJ declares no counts, so a cut OBJ is a whole file of a
            # smaller surface, which may be non-manifold (exit 3)
            assert name == "mesh.obj" and label.startswith("cut"), label
            assert str(path) in str(exc), (label, str(exc))
        except Exception as exc:
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")


def _commented(text):
    """`text` with comment lines between its lines and a comment after each."""
    return "# written by hand\n" + "".join(
        f"{line}  # note {i}\n# between\n\n" for i, line in enumerate(text.splitlines())
    )


@pytest.mark.parametrize("name", ["weights.txt", "grains.txt", "grain.csv"])
def test_comments_load_equal_to_the_original(tmp_path, name):
    write, read = _FORMATS[name]
    plain = tmp_path / f"plain_{name}"
    write(plain)
    commented = tmp_path / name
    commented.write_text(_commented(plain.read_text()))
    want, got = read(plain), read(commented)
    if name == "weights.txt":
        assert np.array_equal(got.q, want.q) and got.domain == want.domain
    else:
        assert [pid for pid, _ in got] == [pid for pid, _ in want]
        for (_, g), (_, w) in zip(got, want):
            assert np.array_equal(g.points, w.points)


def test_content_faults_name_the_file(tmp_path, capsys):
    # the rows parse, but the mesh or contour they make is invalid: the
    # constructor's error keeps its class and exit code and names the file
    mesh = tmp_path / "cut.obj"
    save_mesh(icosphere(0), mesh)
    mesh.write_text("".join(mesh.read_text().splitlines(True)[:23]))
    with pytest.raises(TopologyError, match=re.escape(f"{mesh}: non-manifold")):
        load_mesh(mesh)
    assert main(["metrics", "--in", str(mesh), "--out", str(tmp_path / "r.csv")]) == 3
    assert f"{mesh}: non-manifold" in capsys.readouterr().err

    doc = tmp_path / "grains.txt"
    doc.write_text("contours v1\ncount 1\ncontour a 2\n0 0\n1 0\n")
    message = f"{doc}:3: contour a: closed contour needs at least 3 points"
    with pytest.raises(ValueError, match=re.escape(message)):
        read_contours(doc)
    assert main(["remesh2d", "--in", str(doc), "--out", str(tmp_path / "o.txt"),
                 "--max-segments", "30", "--nmax", "8"]) == 2
    assert message in capsys.readouterr().err

    csv = tmp_path / "grain.csv"
    csv.write_text("x,y\n0,0\n0,0\n1,0\n0,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{csv}: repeated consecutive point")):
        read_contours(csv)
