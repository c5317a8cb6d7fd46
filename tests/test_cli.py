"""End-to-end command runs: exit codes, outputs, determinism, caching."""

import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from qdiff import (
    HarmonicCoefficients,
    load_coefficients,
    load_eigenbasis,
    load_matrix,
    load_mesh,
    save_coefficients,
)
from qdiff.cli import main


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


@pytest.mark.parametrize("n", [1, 257])
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


@pytest.mark.parametrize("t_final, dt", [("1.0", "0.3"), ("1.0", "3")])
def test_simulate_rejects_span_not_whole_steps(tmp_path, t_final, dt):
    # rounding the step count stopped at t = 0.9, or ran no step at all,
    # while the manifest recorded the requested span
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
    for bad in ("1,2", "0,0,0", "a,b,c"):
        with pytest.raises(SystemExit) as ex:
            run(["blob", "--n", "8", "--point", bad, "--out", tmp_path])
        assert ex.value.code == 2


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


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qdiff", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("qdiff ")
