"""End-to-end command runs: exit codes, outputs, determinism, caching."""

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qdiff
from qdiff import (
    HarmonicCoefficients,
    LaplacianEigenbasis,
    build_eigenbasis,
    load_coefficients,
    load_eigenbasis,
    load_matrix,
    load_mesh,
    save_coefficients,
    save_eigenbasis,
    save_grid,
    synthesize,
)
from qdiff import cli
from qdiff.cli import _parser, main
from qdiff.render import BACKGROUND


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    head = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return head, rows


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as ex:
        run([])
    assert ex.value.code == 2


@pytest.mark.parametrize("n", [1, 257, "nan", "2.5"])
def test_n_out_of_range(n, tmp_path):
    with pytest.raises(SystemExit) as ex:
        run(["basis-check", "--n", n, "--out", tmp_path])
    assert ex.value.code == 2


def test_basis_check_passes_and_reports(tmp_path, capsys):
    assert run(["basis-check", "--n", "16", "--out", tmp_path]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "PASS casimir" in text
    assert "l=3 eigenvalue=-12 multiplicity=7" in text
    report = (tmp_path / "basis_check.txt").read_text()
    assert report == text
    cfg = json.loads((tmp_path / "manifest.json").read_text())
    assert cfg["n"] == 16
    assert "basis_check.txt" in cfg["outputs"]
    assert cfg["numpy"] == np.__version__
    assert cfg["python"] == platform.python_version()
    assert "version" in cfg


def test_manifest_records_peak_memory(tmp_path):
    assert run(["simulate", "--n", "8", "--t-final", "0.1", "--dt", "0.05", "--out", tmp_path]) == 0
    peak = json.loads((tmp_path / "manifest.json").read_text())["peak_rss_mb"]
    assert isinstance(peak, float) and np.isfinite(peak) and peak > 0.0


def test_eigenbasis_cache_roundtrip(tmp_path):
    cache = tmp_path / "basis.qeig"
    assert run(["basis-check", "--n", "8", "--out", tmp_path / "a",
                "--cache-eigenbasis", cache]) == 0
    assert load_eigenbasis(cache).N == 8
    # a second run must consume the cache without complaint
    assert run(["basis-check", "--n", "8", "--out", tmp_path / "b",
                "--cache-eigenbasis", cache]) == 0
    # a mismatched cache is rebuilt, not trusted
    assert run(["basis-check", "--n", "10", "--out", tmp_path / "c",
                "--cache-eigenbasis", cache]) == 0
    assert load_eigenbasis(cache).N == 10


def test_replaced_eigenbasis_cache_is_reported(tmp_path):
    cache = tmp_path / "basis.qeig"
    assert run(["basis-check", "--n", "8", "--out", tmp_path / "a",
                "--cache-eigenbasis", cache]) == 0
    assert json.loads((tmp_path / "a" / "manifest.json").read_text())["warnings"] == []
    assert run(["simulate", "--n", "10", "--t-final", "0.1", "--dt", "0.05",
                "--out", tmp_path / "b", "--cache-eigenbasis", cache]) == 0
    warnings = json.loads((tmp_path / "b" / "manifest.json").read_text())["warnings"]
    assert len(warnings) == 1
    assert "N=8" in warnings[0] and "N=10" in warnings[0]
    assert load_eigenbasis(cache).N == 10


def test_simulate_diagnostics_and_outputs(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--n", "8", "--t-final", "0.2", "--dt", "0.05",
                "--out", out]) == 0
    head, rows = read_csv(out / "diagnostics.csv")
    assert head == ["step", "time", "trace_re", "trace_im", "trW2_re", "trW2_im", "eig_drift"]
    assert len(rows) == 5
    assert max(abs(float(r[2])) for r in rows) < 1e-12
    assert max(float(r[6]) for r in rows) < 1e-10
    W = load_matrix(out / "final_vorticity.qmat")
    assert W.shape == (8, 8)
    assert np.linalg.norm(W + W.conj().T) < 1e-10


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "--n", "8", "--t-final", "0.1", "--dt", "0.05",
                    "--out", out]) == 0
    for name in ("diagnostics.csv", "final_vorticity.qmat", "final_vorticity.qcoef"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_save_states_and_init(tmp_path):
    init = tmp_path / "w0.qcoef"
    c = HarmonicCoefficients.zeros(2)
    c[2, 0] = 1.0
    save_coefficients(init, c)
    out = tmp_path / "sim"
    assert run(["simulate", "--n", "8", "--t-final", "0.1", "--dt", "0.05",
                "--init", init, "--save-states", "--out", out]) == 0
    for k in range(3):
        assert (out / f"state_{k:05d}.qmat").exists()
    assert not (out / "state_00003.qmat").exists()
    final = load_matrix(out / "final_vorticity.qmat")
    assert np.array_equal(load_matrix(out / "state_00002.qmat"), final)
    assert not np.array_equal(load_matrix(out / "state_00001.qmat"), final)
    with pytest.raises(SystemExit):
        run(["simulate", "--n", "8", "--dt", "0", "--out", out])


def test_simulate_refuses_negative_lmax_init(tmp_path, capsys):
    # lmax=-2 implies one coefficient, so the payload length alone passed
    # and the run evolved zero vorticity with exit 0
    init = tmp_path / "w0.qcoef"
    init.write_bytes(b"qcoef-v1 lmax=-2 order=l-major-m-fastest precision=binary64\n" + b"\0" * 16)
    assert run(["simulate", "--n", "8", "--t-final", "0.1", "--dt", "0.05",
                "--init", init, "--out", tmp_path / "sim"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ValueError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("t_final, dt", [("1.0", "0.3"), ("1.0", "3"), ("0", "inf"),
                                        ("1e300", "1e-300")])
def test_simulate_rejects_span_not_whole_steps(tmp_path, t_final, dt):
    # rounding the step count stopped at t = 0.9, or ran no step at all,
    # while the manifest recorded the requested span; zero steps of an
    # infinite dt wrote time = nan, and an overflowing step count is no count
    with pytest.raises(SystemExit) as ex:
        run(["simulate", "--n", "8", "--t-final", t_final, "--dt", dt,
             "--out", tmp_path])
    assert ex.value.code == 2
    assert not (tmp_path / "manifest.json").exists()


def test_simulate_qcoef_output_feeds_back_in(tmp_path):
    # written coefficients use the same convention --init reads: a run over
    # t=0 must hand back (a truncation of) what went in, and the file must
    # describe a real field so render shows something
    init = tmp_path / "w0.qcoef"
    c = HarmonicCoefficients.zeros(2)
    c[1, 0] = 0.7
    c[2, 1] = 0.2 + 0.1j
    c[2, -1] = -np.conj(c[2, 1])
    save_coefficients(init, c)
    out = tmp_path / "sim"
    assert run(["simulate", "--n", "8", "--t-final", "0.0", "--dt", "0.05",
                "--init", init, "--out", out]) == 0
    back = load_coefficients(out / "final_vorticity.qcoef")
    assert np.allclose(back.values[: c.values.size], c.values, atol=1e-10)
    assert np.max(np.abs(back.values[c.values.size :])) < 1e-10
    rend = tmp_path / "rend"
    assert run(["render", "--input", out / "final_vorticity.qcoef",
                "--out", rend]) == 0
    img = np.frombuffer((rend / "render.ppm").read_bytes().split(b"\n", 3)[3],
                        dtype=np.uint8)
    assert img.max() > 200 and img.min() < 60  # a live field, not a flat frame


def test_blob_density_tracks_exact_flow(tmp_path):
    out = tmp_path / "blob"
    assert run(["blob", "--n", "12", "--mode", "density", "--t", "0.5",
                "--width", "64", "--out", out]) == 0
    head, rows = read_csv(out / "track.csv")
    assert head == ["step", "t", "x", "y", "z"]
    assert len(rows) == 21
    final = np.array([float(v) for v in rows[-1][2:]])
    # the conjugated blob center rides the closed-form trajectory
    assert np.max(np.abs(final - [-0.77825679, 0.42516362, 0.46211716])) < 1e-6
    assert (out / "blob.ppm").exists()
    assert (out / "blob.ppm.range").exists()
    assert load_matrix(out / "final_blob.qmat").shape == (12, 12)


def test_blob_center_mode_climbs(tmp_path):
    out = tmp_path / "blobc"
    assert run(["blob", "--n", "12", "--mode", "center", "--steps", "30",
                "--h", "0.1", "--width", "64", "--out", out]) == 0
    _, rows = read_csv(out / "track.csv")
    assert len(rows) == 31
    z = [float(r[4]) for r in rows]
    assert z[-1] > z[0] + 0.5
    _, arows = read_csv(out / "a_history.csv")
    assert len(arows) == 30
    assert max(abs(float(r[3])) for r in arows) < 1e-10


def test_blob_point_validation(tmp_path):
    for bad in ("1,2", "0,0,0", "a,b,c", "nan,0,0", "inf,0,0", "1,nan,0", "1e300,1e300,0"):
        with pytest.raises(SystemExit) as ex:
            run(["blob", "--n", "8", "--point", bad, "--out", tmp_path])
        assert ex.value.code == 2


_BAD_OPTIONS = [
    ["simulate", "--n", "8", "--t-final", "0", "--dt", "inf"],
    ["simulate", "--n", "8", "--dt", "nan"],
    ["simulate", "--n", "8", "--t-final", "-1"],
    ["blob", "--n", "8", "--h", "nan"],
    ["blob", "--n", "8", "--h", "0"],
    ["blob", "--n", "8", "--t", "nan"],
    ["blob", "--n", "8", "--steps", "0"],
    *[[*cmd, "--width", w]
      for cmd in (["blob", "--n", "8"], ["deform", "--n", "8"], ["render", "--input", "c.qcoef"])
      for w in ("15", "8193")],
    ["deform", "--n", "8", "--t", "inf"],
    ["deform", "--n", "8", "--refinements", "9"],
    # render builds no eigenbasis, so it has no cache to read or write
    ["render", "--input", "c.qcoef", "--cache-eigenbasis", "never.qeig"],
]


@pytest.mark.parametrize("argv", _BAD_OPTIONS, ids=" ".join)
def test_bad_option_exits_2_before_any_output(tmp_path, capsys, argv):
    # these ran and exited 0 with nan in the outputs, or exited 1 midway
    # and left files behind, or ran the whole transport before failing
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as ex:
        run([*argv, "--out", out])
    assert ex.value.code == 2
    # one usage error, and it names the offending option
    err = capsys.readouterr().err
    assert err.count(": error: ") == 1
    assert f": error: argument {argv[-2]}" in err or f": error: unrecognized arguments: {argv[-2]}" in err
    assert not out.exists()


def test_no_option_is_parsed_by_bare_int_or_float():
    # every numeric option goes through a bounded converter
    parser = _parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subs.choices.items():
        for action in sub._actions:
            assert action.type not in (int, float), (name, action.option_strings)


def test_manifest_is_strict_json_with_resolved_point(tmp_path):
    out = tmp_path / "blob"
    assert run(["blob", "--n", "8", "--t", "0.1", "--point=0,3,4", "--width", "16",
                "--out", out]) == 0

    def refuse(name):
        raise ValueError(f"manifest holds the non-JSON constant {name}")

    cfg = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    assert cfg["point"] == [0.0, 0.6, 0.8]
    assert "point_vec" not in cfg


def test_deform_summary(tmp_path):
    out = tmp_path / "def"
    assert run(["deform", "--n", "8", "--refinements", "1", "--t", "0.5",
                "--width", "64", "--out", out]) == 0
    summary = json.loads((out / "deform_summary.json").read_text())
    assert summary["south_ratio_min"] > 1.0
    assert summary["north_ratio_max"] < 1.0
    mesh = load_mesh(out / "deformed_mesh.qmesh")
    assert mesh.face_scalars is not None and mesh.face_scalars.size == mesh.n_faces
    assert load_matrix(out / "ffdag.qmat").shape == (8, 8)


def test_identity_deform_renders_flat_midgray(tmp_path):
    # t = 0 is the identity flow: the density is uniform, and its range
    # (1.5957691216057261 to ...313, 3e-15 relative) used to be stretched
    # over 23 gray levels
    out = tmp_path / "def"
    assert run(["deform", "--n", "32", "--t", "0", "--refinements", "1",
                "--width", "64", "--out", out]) == 0
    pixels = _ppm_pixels(out / "ffdag.ppm").reshape(-1, 3)
    assert set(map(tuple, pixels)) == {(128, 128, 128), BACKGROUND}
    lines = (out / "ffdag.ppm.range").read_text().splitlines()
    vmin, vmax = (float(ln.split()[1]) for ln in lines)
    assert vmin < vmax <= vmin * (1.0 + 1e-12)


def test_render_roundtrip_and_bad_input(tmp_path, capsys):
    c = HarmonicCoefficients.zeros(2)
    c[1, 0] = 1.0
    src = tmp_path / "c.qcoef"
    save_coefficients(src, c)
    out = tmp_path / "r"
    assert run(["render", "--input", src, "--width", "64", "--out", out]) == 0
    data = (out / "render.ppm").read_bytes()
    assert data.startswith(b"P6\n64 32\n255\n")

    # a qeig container is not renderable: runtime failure, exit 1
    cache = tmp_path / "e.qeig"
    assert run(["basis-check", "--n", "4", "--out", tmp_path / "bc",
                "--cache-eigenbasis", cache]) == 0
    capsys.readouterr()
    assert run(["render", "--input", cache, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ")
    assert err.count("\n") == 1


def test_render_refuses_trailing_bytes(tmp_path, capsys):
    c = HarmonicCoefficients.zeros(2)
    c[1, 0] = 1.0
    src = tmp_path / "c.qcoef"
    save_coefficients(src, c)
    with open(src, "ab") as fh:
        fh.write(b"\0" * 8)
    assert run(["render", "--input", src, "--width", "64", "--out", tmp_path / "r"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ValueError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("content", [b"", b"\n"])
def test_render_refuses_empty_or_headerless_file(tmp_path, capsys, content):
    src = tmp_path / "empty"
    src.write_bytes(content)
    assert run(["render", "--input", src, "--out", tmp_path / "r"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ValueError: ")
    assert "qcoef-v1" in err and "qgrid-v1" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def _ppm_pixels(path):
    return np.frombuffer(path.read_bytes().split(b"\n", 3)[3], dtype=np.uint8)


def test_render_of_gauss_grid_matches_its_coefficients(tmp_path):
    c = HarmonicCoefficients.zeros(2)
    c[1, 1], c[1, -1], c[2, 0] = 0.6, -0.6, 0.3
    save_coefficients(tmp_path / "c.qcoef", c)
    save_grid(tmp_path / "g.qgrid", synthesize(c, 3, 5))
    for name in ("c.qcoef", "g.qgrid"):
        assert run(["render", "--input", tmp_path / name, "--width", "64", "--out", tmp_path / name[0]]) == 0
    want, got = _ppm_pixels(tmp_path / "c" / "render.ppm"), _ppm_pixels(tmp_path / "g" / "render.ppm")
    # the grid is analyzed first, so a gray level may round the other way
    assert np.max(np.abs(want.astype(int) - got.astype(int))) <= 1


@pytest.mark.parametrize("edit", ["lon", "weights"])
def test_render_refuses_grid_that_is_not_gauss(tmp_path, capsys, edit):
    # both files used to render with exit 0: the first as if its samples
    # sat at the Gauss longitudes, the second with a range of +-3.45
    # instead of +-0.69
    c = HarmonicCoefficients.zeros(1)
    c[1, 1], c[1, -1] = 1.0, -1.0
    g = synthesize(c, 2, 3)
    g = replace(g, lon=g.lon + 0.5) if edit == "lon" else replace(g, weights=np.full_like(g.weights, 5.0))
    save_grid(tmp_path / "g.qgrid", g)
    out = tmp_path / "r"
    assert run(["render", "--input", tmp_path / "g.qgrid", "--width", "32", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ValueError: ") and edit in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_render_of_infinite_coefficients_prints_one_line(tmp_path):
    # in a fresh interpreter, where RuntimeWarnings print rather than raise:
    # this run used to print four warning lines before its qdiff-error line
    c = HarmonicCoefficients.zeros(2)
    c[1, 0] = np.inf
    save_coefficients(tmp_path / "inf.qcoef", c)
    out = tmp_path / "r"
    proc = subprocess.run(
        [sys.executable, "-m", "qdiff", "render", "--input", str(tmp_path / "inf.qcoef"),
         "--width", "16", "--out", str(out)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("qdiff-error ValueError: ") and "not finite" in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Work in tmp_path, which holds a good qcoef, a truncated one, one
    holding a nan, and an empty file."""
    monkeypatch.chdir(tmp_path)
    c = HarmonicCoefficients.zeros(2)
    c[1, 0] = 1.0
    save_coefficients("c.qcoef", c)
    (tmp_path / "trunc.qcoef").write_bytes((tmp_path / "c.qcoef").read_bytes()[:-8])
    c[2, 0] = np.nan
    save_coefficients("nan.qcoef", c)
    (tmp_path / "empty").write_bytes(b"")
    return tmp_path


_FAILING_RUNS = [
    ["render", "--input", "empty"],
    ["simulate", "--n", "8", "--init", "trunc.qcoef"],
    ["deform", "--n", "8", "--refinements", "1", "--t", "1000", "--width", "16"],
    # F is finite but F F^H overflows: these wrote nan outputs and exited 0
    ["deform", "--n", "32", "--refinements", "1", "--t", "30", "--width", "16"],
    ["deform", "--n", "8", "--refinements", "1", "--t", "103", "--width", "16"],
    ["render", "--input", "nan.qcoef", "--width", "16"],
    ["blob", "--n", "8", "--mode", "density", "--t", "2400", "--width", "16"],
]


@pytest.mark.parametrize("argv", _FAILING_RUNS, ids=" ".join)
def test_failed_run_writes_nothing(inputs, capsys, argv):
    assert run([*argv, "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ")
    assert err.count("\n") == 1
    assert not (inputs / "out").exists()


def test_failed_run_leaves_existing_out_byte_identical(tmp_path, capsys):
    out = tmp_path / "def"
    argv = ["deform", "--n", "8", "--refinements", "1", "--width", "16", "--out", out]
    assert run([*argv, "--t", "1.0"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # this run used to replace deformed_mesh.qmesh before failing, under a
    # manifest that still said t = 1.0
    assert run([*argv, "--t", "1000"]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_RUNS = {
    "basis-check": ["basis-check", "--n", "4"],
    "simulate": ["simulate", "--n", "4", "--t-final", "0.1", "--dt", "0.05", "--save-states"],
    "blob-density": ["blob", "--n", "4", "--t", "0.1", "--width", "16"],
    "blob-center": ["blob", "--n", "4", "--mode", "center", "--steps", "3", "--width", "16"],
    "deform": ["deform", "--n", "4", "--refinements", "1", "--width", "16"],
    "render": ["render", "--input", "c.qcoef", "--width", "16"],
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_out_holds_manifest_and_its_outputs(inputs, name):
    assert run([*_RUNS[name], "--out", "out"]) == 0
    outputs = json.loads((inputs / "out" / "manifest.json").read_text())["outputs"]
    assert len(set(outputs)) == len(outputs)
    assert sorted(p.name for p in (inputs / "out").iterdir()) == sorted(["manifest.json", *outputs])


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_commands_compute_without_touching_out(inputs, name):
    # main writes every output after the command returns; no cmd_* may
    # create --out or write into it
    args = _parser().parse_args([*_RUNS[name], "--out", "out"])
    args.warnings = []
    command = getattr(cli, "cmd_" + args.command.replace("-", "_"))
    code, entries = command(args)
    assert code == 0 and entries
    assert not (inputs / "out").exists()


def _corrupt(bands, kind):
    if kind == "flip band 5 column":
        bands[5][:, 1] *= -1.0
    elif kind == "flip band 0 column":
        bands[0][:, 3] *= -1.0
    elif kind == "swap two band 2 columns":
        bands[2][:, [1, 2]] = bands[2][:, [2, 1]]
    elif kind == "zero band 3":
        bands[3][:] = 0.0
    elif kind == "move one entry by 1e-6":
        bands[1][2, 2] += 1e-6


@pytest.mark.parametrize("kind", ["flip band 5 column", "flip band 0 column", "swap two band 2 columns",
                                  "zero band 3", "move one entry by 1e-6"])
def test_corrupt_eigenbasis_cache_exits_1(tmp_path, capsys, kind):
    # a well-formed cache of the right size used to be trusted as it stood
    bands = [band.copy() for band in build_eigenbasis(8).bands]
    _corrupt(bands, kind)
    cache = tmp_path / "e.qeig"
    save_eigenbasis(cache, LaplacianEigenbasis(N=8, bands=tuple(bands)))
    out = tmp_path / "sim"
    assert run(["simulate", "--n", "8", "--t-final", "0.1", "--dt", "0.05",
                "--cache-eigenbasis", cache, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ValueError: eigenbasis fails its probe")
    assert err.count("\n") == 1
    assert not out.exists()


def _child_env():
    """This environment with the package's source directory first on PYTHONPATH,
    so a child `python -m qdiff` imports the qdiff under test."""
    src = str(Path(qdiff.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_eigenbasis_cache_of_the_old_signs_exits_1(tmp_path, capsys):
    # qeig-v1 caches may hold multiplets of the opposite sign that the probe
    # cannot see (its relations hold for either sign of a whole multiplet)
    cache = tmp_path / "e.qeig"
    save_eigenbasis(cache, build_eigenbasis(8))
    data = cache.read_bytes()
    cache.write_bytes(data.replace(b"qeig-v2", b"qeig-v1", 1))
    out = tmp_path / "sim"
    assert run(["simulate", "--n", "8", "--t-final", "0.1", "--dt", "0.05",
                "--cache-eigenbasis", cache, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qdiff-error ValueError: ") and "expected a qeig-v2 container" in err
    assert err.count("\n") == 1
    assert not out.exists()
    assert cache.read_bytes()[:7] == b"qeig-v1"


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qdiff", "--version"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("qdiff ")
