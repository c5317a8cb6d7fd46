"""File containers: one-line text header, then raw binary64 payload.

All multi-byte values are little-endian float64; complex data is stored
as interleaved real/imaginary pairs (the native complex128 layout),
matrices row-major.  Headers are a single ASCII line of
space-separated key=value tokens starting with the format tag, so every
container is parseable with a line read plus frombuffer.

Formats: qmat-v1 (square complex matrix), qcoef-v1 (harmonic
coefficients), qgrid-v1 (Gauss grid samples with nodes and weights),
qmesh-v1 (triangle mesh with optional per-face scalars), qeig-v1
(Laplacian eigenbasis band cache), plus binary PPM rasters.
"""

import numpy as np

from .laplacian import LaplacianEigenbasis
from .quantization import GridField, HarmonicCoefficients
from .reference_flows import TriMesh


def _write(path, tag, fields, chunks):
    head = " ".join([tag] + [f"{k}={v}" for k, v in fields]) + "\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for arr in chunks:
            fh.write(np.ascontiguousarray(arr).tobytes())


def _read(path, tag):
    with open(path, "rb") as fh:
        head = fh.readline().decode("ascii").strip()
        payload = fh.read()
    parts = head.split()
    if not parts or parts[0] != tag:
        raise ValueError(f"{path}: expected a {tag} container")
    fields = {}
    for tok in parts[1:]:
        k, _, v = tok.partition("=")
        fields[k] = v
    return fields, payload


def _header_int(path, fields, key, minimum):
    """Integer header field `key`, refused unless it is at least `minimum`."""
    try:
        value = int(fields[key])
    except (KeyError, ValueError):
        raise ValueError(f"{path}: header needs an integer {key}=") from None
    if value < minimum:
        raise ValueError(f"{path}: header {key}={value} is below {minimum}")
    return value


def _take(payload, offset, dtype, count):
    arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    return arr, offset + count * arr.itemsize


def _end(path, payload, offset):
    if offset != len(payload):
        raise ValueError(f"{path}: payload is {len(payload)} bytes, header implies {offset}")


def save_matrix(path, M):
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    _write(
        path,
        "qmat-v1",
        [("n", M.shape[0]), ("layout", "row-major"), ("precision", "binary64")],
        [M],
    )


def load_matrix(path):
    fields, payload = _read(path, "qmat-v1")
    n = _header_int(path, fields, "n", 1)
    arr, off = _take(payload, 0, np.complex128, n * n)
    _end(path, payload, off)
    return arr.reshape(n, n).copy()


def save_coefficients(path, coeffs):
    _write(
        path,
        "qcoef-v1",
        [("lmax", coeffs.lmax), ("order", "l-major-m-fastest"), ("precision", "binary64")],
        [coeffs.values],
    )


def load_coefficients(path):
    fields, payload = _read(path, "qcoef-v1")
    lmax = _header_int(path, fields, "lmax", 0)
    arr, off = _take(payload, 0, np.complex128, (lmax + 1) ** 2)
    _end(path, payload, off)
    return HarmonicCoefficients(lmax, arr.copy())


def save_grid(path, field):
    _write(
        path,
        "qgrid-v1",
        [("nlat", field.nlat), ("nlon", field.nlon), ("precision", "binary64")],
        [field.colat, field.weights, field.lon, field.values],
    )


def load_grid(path):
    fields, payload = _read(path, "qgrid-v1")
    nlat, nlon = _header_int(path, fields, "nlat", 1), _header_int(path, fields, "nlon", 1)
    off = 0
    colat, off = _take(payload, off, np.float64, nlat)
    weights, off = _take(payload, off, np.float64, nlat)
    lon, off = _take(payload, off, np.float64, nlon)
    values, off = _take(payload, off, np.complex128, nlat * nlon)
    _end(path, payload, off)
    return GridField(colat.copy(), lon.copy(), weights.copy(), values.reshape(nlat, nlon).copy())


def save_mesh(path, mesh):
    has_scalars = mesh.face_scalars is not None
    chunks = [mesh.vertices.astype(np.float64), mesh.faces.astype(np.int64)]
    if has_scalars:
        chunks.append(np.asarray(mesh.face_scalars, dtype=np.float64))
    _write(
        path,
        "qmesh-v1",
        [("nv", mesh.n_vertices), ("nf", mesh.n_faces), ("scalars", int(has_scalars))],
        chunks,
    )


def load_mesh(path):
    fields, payload = _read(path, "qmesh-v1")
    nv, nf = _header_int(path, fields, "nv", 0), _header_int(path, fields, "nf", 0)
    off = 0
    verts, off = _take(payload, off, np.float64, 3 * nv)
    faces, off = _take(payload, off, np.int64, 3 * nf)
    scalars = None
    if int(fields.get("scalars", "0")):
        scalars, off = _take(payload, off, np.float64, nf)
        scalars = scalars.copy()
    _end(path, payload, off)
    return TriMesh(verts.reshape(nv, 3).copy(), faces.reshape(nf, 3).copy(), scalars)


def save_eigenbasis(path, eig):
    chunks = [band for band in eig.bands]
    _write(path, "qeig-v1", [("n", eig.N), ("precision", "binary64")], chunks)


def load_eigenbasis(path):
    fields, payload = _read(path, "qeig-v1")
    N = _header_int(path, fields, "n", 1)
    off = 0
    bands = []
    for m in range(N):
        size = N - m
        band, off = _take(payload, off, np.float64, size * size)
        bands.append(band.reshape(size, size).copy())
    _end(path, payload, off)
    return LaplacianEigenbasis(N=N, bands=tuple(bands))


def write_ppm(path, image):
    """Binary PPM (P6) with the raster's rgb payload."""
    with open(path, "wb") as fh:
        fh.write(f"P6\n{image.width} {image.height}\n255\n".encode("ascii"))
        fh.write(image.rgb.tobytes())


def write_raster_with_sidecar(path, image):
    """PPM plus a '<path>.range' text sidecar recording min and max."""
    write_ppm(path, image)
    with open(str(path) + ".range", "w", encoding="ascii") as fh:
        fh.write(f"min {image.vmin!r}\nmax {image.vmax!r}\n")
