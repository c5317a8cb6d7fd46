"""Bit-exact container round trips and header validation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff import (
    GridField,
    HarmonicCoefficients,
    RasterImage,
    TriMesh,
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


def test_grid_with_real_samples_is_saved_as_complex(tmp_path):
    f = GridField(np.array([0.5]), np.array([0.0, 3.0]), np.array([2.0]), np.array([[1.0, -2.0]]))
    p = tmp_path / "f.qgrid"
    save_grid(p, f)
    back = load_grid(p)
    assert back.values.dtype == np.complex128
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


def _traced_peak(load, path):
    """(outcome, peak bytes traced while `load(path)` ran); outcome is the
    loaded object or the exception raised."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        try:
            outcome = load(path)
        except Exception as exc:  # the caller checks the type
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eigenbasis_load_allocates_the_payload_once(tmp_path, eig64):
    p = tmp_path / "e.qeig"
    save_eigenbasis(p, eig64)
    payload = sum(band.nbytes for band in eig64.bands)
    back, peak = _traced_peak(load_eigenbasis, p)
    assert back.N == 64
    assert peak <= 1.1 * payload


def test_loaded_bands_are_read_only_views_of_one_buffer(tmp_path):
    eig = build_eigenbasis(7)
    p = tmp_path / "e.qeig"
    save_eigenbasis(p, eig)
    back = load_eigenbasis(p)
    base = back.bands[0].base
    assert base.nbytes == sum(band.nbytes for band in eig.bands)
    for band in back.bands:
        assert band.base is base
        assert not band.flags.writeable
        with pytest.raises(ValueError):
            band[0, 0] = 1.0
        with pytest.raises(ValueError):
            band.flags.writeable = True


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
    (load_eigenbasis, "qeig-v2 n=0", 0),
], ids=["lmax-2", "lmax-1", "lmax-text", "n0", "n-1", "n-missing", "nlat0", "nlon-1",
        "nv-1", "nf-1", "eig-n0"])
def test_header_integers_are_range_checked(tmp_path, load, header, payload_bytes):
    p = tmp_path / "bad"
    p.write_bytes(header.encode("ascii") + b"\n" + b"\0" * payload_bytes)
    with pytest.raises(ValueError):
        load(p)


LOADERS = {
    "qmat-v1": (load_matrix, ("n",)),
    "qcoef-v1": (load_coefficients, ("lmax",)),
    "qgrid-v1": (load_grid, ("nlat", "nlon")),
    "qmesh-v1": (load_mesh, ("nv", "nf", "scalars")),
    "qeig-v2": (load_eigenbasis, ("n",)),
}
# a load may allocate the file's bytes plus this much for the reader's
# own buffer and the returned objects, never what a header integer asks
LOAD_SLACK = 64 * 1024
HUGE = 2**40


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f"


def _assert_refused_or_loaded(load, path, file_size):
    outcome, peak = _traced_peak(load, path)
    if isinstance(outcome, Exception):
        assert isinstance(outcome, ValueError), repr(outcome)
    assert peak <= file_size + LOAD_SLACK


header_value = st.one_of(
    st.integers(-2, 6).map(str),
    st.integers(HUGE, 2**70).map(str),
    st.sampled_from(["", "x", "1e3", "0x10", "-0", "+3", "1_0", "=", "\xff"]),
)


@st.composite
def random_container(draw):
    tag = draw(st.sampled_from(sorted(LOADERS)))
    load, keys = LOADERS[tag]
    tokens = [draw(st.sampled_from([tag, tag, tag, "", "qmat-v2", tag.upper()]))]
    for key in keys:
        if draw(st.integers(0, 9)):  # mostly present
            tokens.append(f"{key}={draw(header_value)}")
    tokens += draw(st.lists(st.sampled_from(["layout=row-major", "x", "=", "n=1"]), max_size=2))
    head = " ".join(tokens).encode("latin-1")
    if draw(st.integers(0, 9)):
        head += b"\n"
    words = draw(st.integers(0, 64))
    payload = draw(st.binary(min_size=8 * words, max_size=8 * words))
    payload += draw(st.binary(max_size=draw(st.sampled_from([0, 0, 7]))))
    return load, head + payload


@settings(deadline=None, max_examples=300)
@given(random_container())
def test_random_headers_load_or_raise_value_error(fuzz_file, container):
    load, data = container
    fuzz_file.write_bytes(data)
    _assert_refused_or_loaded(load, fuzz_file, len(data))


@st.composite
def valid_container(draw):
    small = st.integers(1, 5)
    kind = draw(st.sampled_from(sorted(LOADERS)))
    if kind == "qmat-v1":
        return save_matrix, load_matrix, np.zeros((draw(small),) * 2)
    if kind == "qcoef-v1":
        return save_coefficients, load_coefficients, HarmonicCoefficients.zeros(draw(small))
    if kind == "qgrid-v1":
        nlat, nlon = draw(small), draw(small)
        return save_grid, load_grid, GridField(
            np.zeros(nlat), np.zeros(nlon), np.zeros(nlat), np.zeros((nlat, nlon)))
    if kind == "qmesh-v1":
        nv, nf = draw(small), draw(st.integers(0, 5))
        scalars = np.zeros(nf) if draw(st.booleans()) else None
        return save_mesh, load_mesh, TriMesh(np.zeros((nv, 3)), np.zeros((nf, 3), int), scalars)
    # the loader probes the bands, so an intact qeig-v2 file holds a real basis
    return save_eigenbasis, load_eigenbasis, build_eigenbasis(draw(small))


@settings(deadline=None, max_examples=200)
@given(valid_container(), st.integers(1, 40), st.binary(min_size=1, max_size=40), st.booleans())
def test_truncated_or_extended_payloads_raise_value_error(fuzz_file, container, cut, extra, truncate):
    save, load, obj = container
    save(fuzz_file, obj)
    load(fuzz_file)  # the intact file loads
    data = fuzz_file.read_bytes()
    payload_size = len(data) - data.index(b"\n") - 1
    if truncate:
        data = data[: len(data) - min(cut, payload_size)]
    else:
        data += extra
    fuzz_file.write_bytes(data)
    outcome, peak = _traced_peak(load, fuzz_file)
    assert isinstance(outcome, ValueError), repr(outcome)
    assert peak <= len(data) + LOAD_SLACK


def test_header_integers_never_size_an_allocation(tmp_path):
    # each header implies terabytes against a payload of 64 bytes
    for header in (f"qmat-v1 n={HUGE}", f"qcoef-v1 lmax={HUGE}", f"qgrid-v1 nlat={HUGE} nlon=2",
                   f"qmesh-v1 nv={HUGE} nf=1 scalars=1", f"qeig-v2 n={HUGE}"):
        p = tmp_path / "big"
        data = header.encode("ascii") + b"\n" + b"\0" * 64
        p.write_bytes(data)
        load = LOADERS[header.split()[0]][0]
        outcome, peak = _traced_peak(load, p)
        assert isinstance(outcome, ValueError), repr(outcome)
        assert peak <= len(data) + LOAD_SLACK


@pytest.mark.parametrize("bad", [-1, 3])
def test_mesh_face_index_out_of_range_is_refused(tmp_path, bad):
    # -1 used to wrap to the last vertex, and nv to fail as an IndexError
    p = tmp_path / "bad.qmesh"
    save_mesh(p, TriMesh(np.eye(3), np.array([[0, 1, bad]]), None))
    with pytest.raises(ValueError, match=r"face indices must lie in \[0, 3\)"):
        load_mesh(p)


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


def test_ppm_writes_the_rgb_buffer_itself(tmp_path):
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, size=(512, 1024, 3), dtype=np.uint8)
    img = RasterImage(width=1024, height=512, rgb=rgb, vmin=0.0, vmax=1.0)
    tracemalloc.start()
    try:
        write_ppm(tmp_path / "a.ppm", img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rgb.nbytes // 10  # no tobytes() copy of the 1.5 MB payload
    assert (tmp_path / "a.ppm").read_bytes() == b"P6\n1024 512\n255\n" + rgb.tobytes()
    # a non-contiguous view is written in raster order too
    view = RasterImage(width=512, height=512, rgb=rgb[:, ::2], vmin=0.0, vmax=1.0)
    write_ppm(tmp_path / "b.ppm", view)
    assert (tmp_path / "b.ppm").read_bytes() == b"P6\n512 512\n255\n" + rgb[:, ::2].tobytes()


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
