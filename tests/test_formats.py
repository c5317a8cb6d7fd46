"""Bit-exact container round trips and header validation."""

import numpy as np
import pytest

from qdiff import (
    HarmonicCoefficients,
    build_eigenbasis,
    gauss_grid,
    icosasphere,
    load_coefficients,
    load_eigenbasis,
    load_grid,
    load_matrix,
    load_mesh,
    random_coefficients,
    render_field,
    save_coefficients,
    save_eigenbasis,
    save_grid,
    save_matrix,
    save_mesh,
    write_ppm,
    write_raster_with_sidecar,
)


def test_matrix_roundtrip(tmp_path, rng):
    M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    p = tmp_path / "m.qmat"
    save_matrix(p, M)
    back = load_matrix(p)
    assert back.dtype == np.complex128
    assert np.array_equal(back, M)  # bit exact, not just close


def test_matrix_rejects_nonsquare(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "m.qmat", np.zeros((3, 4)))


def test_coefficients_roundtrip(tmp_path, rng):
    c = random_coefficients(7, rng, real=False)
    p = tmp_path / "c.qcoef"
    save_coefficients(p, c)
    back = load_coefficients(p)
    assert back.lmax == 7
    assert np.array_equal(back.values, c.values)


def test_grid_roundtrip(tmp_path, rng):
    g = gauss_grid(10, 13)
    f = g.with_values(rng.standard_normal((10, 13)) + 1j * rng.standard_normal((10, 13)))
    p = tmp_path / "f.qgrid"
    save_grid(p, f)
    back = load_grid(p)
    assert np.array_equal(back.colat, f.colat)
    assert np.array_equal(back.weights, f.weights)
    assert np.array_equal(back.lon, f.lon)
    assert np.array_equal(back.values, f.values)


def test_mesh_roundtrip_with_and_without_scalars(tmp_path, rng):
    m = icosasphere(1)
    p = tmp_path / "m.qmesh"
    save_mesh(p, m)
    back = load_mesh(p)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.faces, m.faces)
    assert back.face_scalars is None

    m.face_scalars = rng.standard_normal(m.n_faces)
    save_mesh(p, m)
    back = load_mesh(p)
    assert np.array_equal(back.face_scalars, m.face_scalars)


def test_eigenbasis_roundtrip(tmp_path):
    eig = build_eigenbasis(12)
    p = tmp_path / "e.qeig"
    save_eigenbasis(p, eig)
    back = load_eigenbasis(p)
    assert back.N == 12
    assert len(back.bands) == 12
    for a, b in zip(back.bands, eig.bands):
        assert np.array_equal(a, b)


def test_wrong_tag_is_refused(tmp_path, rng):
    p = tmp_path / "m.qmat"
    save_matrix(p, np.eye(4, dtype=np.complex128))
    for loader in (load_coefficients, load_grid, load_mesh, load_eigenbasis):
        with pytest.raises(ValueError):
            loader(p)


def test_truncated_file_is_refused(tmp_path):
    p = tmp_path / "t.qcoef"
    save_coefficients(p, HarmonicCoefficients.zeros(3))
    data = p.read_bytes()
    p.write_bytes(data[: len(data) - 16])
    with pytest.raises(ValueError):
        load_coefficients(p)


@pytest.mark.parametrize("load, header, payload_bytes", [
    # lmax = -2 implies (lmax + 1)^2 = 1 value, so the length check passed
    (load_coefficients, "qcoef-v1 lmax=-2", 16),
    (load_coefficients, "qcoef-v1 lmax=-1", 0),
    (load_coefficients, "qcoef-v1 lmax=two", 16),
    (load_matrix, "qmat-v1 n=0", 0),
    (load_matrix, "qmat-v1 n=-1", 16),
    (load_matrix, "qmat-v1 layout=row-major", 16),
    (load_grid, "qgrid-v1 nlat=0 nlon=3", 24),
    (load_grid, "qgrid-v1 nlat=2 nlon=-1", 32),
    (load_mesh, "qmesh-v1 nv=-1 nf=0", 0),
    (load_mesh, "qmesh-v1 nv=3 nf=-1", 72),
    (load_eigenbasis, "qeig-v1 n=0", 0),
], ids=["lmax-2", "lmax-1", "lmax-text", "n0", "n-1", "n-missing", "nlat0", "nlon-1",
        "nv-1", "nf-1", "eig-n0"])
def test_header_integers_are_range_checked(tmp_path, load, header, payload_bytes):
    p = tmp_path / "bad"
    p.write_bytes(header.encode("ascii") + b"\n" + b"\0" * payload_bytes)
    with pytest.raises(ValueError):
        load(p)


def test_empty_mesh_is_legal(tmp_path):
    p = tmp_path / "empty.qmesh"
    p.write_bytes(b"qmesh-v1 nv=0 nf=0 scalars=0\n")
    mesh = load_mesh(p)
    assert mesh.n_vertices == 0 and mesh.n_faces == 0


@pytest.mark.parametrize("name, save, load, obj", [
    ("m.qmat", save_matrix, load_matrix, lambda: np.eye(4, dtype=np.complex128)),
    ("c.qcoef", save_coefficients, load_coefficients, lambda: HarmonicCoefficients.zeros(3)),
    ("f.qgrid", save_grid, load_grid, lambda: gauss_grid(4, 7)),
    ("m.qmesh", save_mesh, load_mesh, lambda: icosasphere(0)),
    ("e.qeig", save_eigenbasis, load_eigenbasis, lambda: build_eigenbasis(4)),
], ids=["qmat", "qcoef", "qgrid", "qmesh", "qeig"])
def test_trailing_bytes_are_refused(tmp_path, name, save, load, obj):
    p = tmp_path / name
    save(p, obj())
    load(p)
    with open(p, "ab") as fh:
        fh.write(b"\0" * 16)
    with pytest.raises(ValueError):
        load(p)


def test_ppm_layout(tmp_path):
    c = HarmonicCoefficients.zeros(1)
    c[1, 0] = 1.0
    img = render_field(c, width=64)
    p = tmp_path / "y.ppm"
    write_ppm(p, img)
    data = p.read_bytes()
    head, rest = data.split(b"\n", 1)
    assert head == b"P6"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"64 32"
    maxval, rest = rest.split(b"\n", 1)
    assert maxval == b"255"
    assert len(rest) == 64 * 32 * 3
    assert rest == img.rgb.tobytes()


def test_raster_sidecar_records_exact_range(tmp_path):
    c = HarmonicCoefficients.zeros(2)
    c[2, 0] = 0.7
    img = render_field(c, width=48)
    p = tmp_path / "f.ppm"
    write_raster_with_sidecar(p, img)
    lines = (tmp_path / "f.ppm.range").read_text().splitlines()
    assert lines[0].startswith("min ") and lines[1].startswith("max ")
    assert float(lines[0].split()[1]) == img.vmin  # repr round trip
    assert float(lines[1].split()[1]) == img.vmax
