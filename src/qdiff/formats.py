"""File containers: one-line text header, then raw binary64 payload.

All multi-byte values are little-endian float64; complex data is stored
as interleaved real/imaginary pairs (the native complex128 layout),
matrices row-major.  Headers are a single ASCII line of
space-separated key=value tokens starting with the format tag, so every
container is parseable with a line read plus one readinto.

Formats: qmat-v1 (square complex matrix), qcoef-v1 (harmonic
coefficients), qgrid-v1 (Gauss grid samples with nodes and weights),
qmesh-v1 (triangle mesh with optional per-face scalars), qeig-v2
(Laplacian eigenbasis band cache), plus binary PPM rasters.
"""

import os

import numpy as np

from .laplacian import LaplacianEigenbasis, check_eigenbasis
from .quantization import GridField, HarmonicCoefficients
from .reference_flows import TriMesh

# longest header line accepted; real headers are well under 100 bytes
_HEADER_MAX = 4096


def _write(path, tag, fields, chunks):
    head = " ".join([tag] + [f"{k}={v}" for k, v in fields]) + "\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for arr in chunks:
            fh.write(np.ascontiguousarray(arr).tobytes())


def _read(path, tag):
    """Header fields and the payload, a private uint8 array filled by one readinto.

    The payload buffer is sized from the file's length, never from header
    integers, so no header can make a load allocate more than the file
    holds.  Loaders return views into it rather than copies.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_MAX)
        if len(line) == _HEADER_MAX and not line.endswith(b"\n"):
            raise ValueError(f"{path}: header line is longer than {_HEADER_MAX} bytes")
        parts = line.decode("ascii").split()
        if not parts or parts[0] != tag:
            raise ValueError(f"{path}: expected a {tag} container")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        payload = np.empty(size, dtype=np.uint8)
        if fh.readinto(payload) != payload.size or fh.read(1):
            raise ValueError(f"{path}: payload does not match the file size")
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


def _expect(path, payload, nbytes):
    if nbytes != payload.size:
        raise ValueError(f"{path}: payload is {payload.size} bytes, header implies {nbytes}")


def _split(path, payload, layout):
    """Consecutive views of `payload` as the arrays that (dtype, count) pairs describe.

    The length the layout implies is checked against the payload before
    any view is made.
    """
    sizes = [np.dtype(dtype).itemsize * count for dtype, count in layout]
    _expect(path, payload, sum(sizes))
    views, off = [], 0
    for (dtype, _), nbytes in zip(layout, sizes):
        views.append(payload[off : off + nbytes].view(dtype))
        off += nbytes
    return views


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
    (arr,) = _split(path, payload, [(np.complex128, n * n)])
    return arr.reshape(n, n)


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
    (arr,) = _split(path, payload, [(np.complex128, (lmax + 1) ** 2)])
    return HarmonicCoefficients(lmax, arr)


def save_grid(path, field):
    _write(
        path,
        "qgrid-v1",
        [("nlat", field.nlat), ("nlon", field.nlon), ("precision", "binary64")],
        [np.asarray(field.colat, dtype=np.float64), np.asarray(field.weights, dtype=np.float64),
         np.asarray(field.lon, dtype=np.float64), np.asarray(field.values, dtype=np.complex128)],
    )


def load_grid(path):
    fields, payload = _read(path, "qgrid-v1")
    nlat, nlon = _header_int(path, fields, "nlat", 1), _header_int(path, fields, "nlon", 1)
    colat, weights, lon, values = _split(path, payload, [
        (np.float64, nlat), (np.float64, nlat), (np.float64, nlon), (np.complex128, nlat * nlon),
    ])
    return GridField(colat, lon, weights, values.reshape(nlat, nlon))


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
    layout = [(np.float64, 3 * nv), (np.int64, 3 * nf)]
    if int(fields.get("scalars", "0")):
        layout.append((np.float64, nf))
    verts, faces, *scalars = _split(path, payload, layout)
    if faces.size and not (faces.min() >= 0 and faces.max() < nv):
        raise ValueError(f"{path}: face indices must lie in [0, {nv})")
    return TriMesh(verts.reshape(nv, 3), faces.reshape(nf, 3), scalars[0] if scalars else None)


def save_eigenbasis(path, eig):
    chunks = [np.asarray(band, dtype=np.float64) for band in eig.bands]
    _write(path, "qeig-v2", [("n", eig.N), ("precision", "binary64")], chunks)


def load_eigenbasis(path):
    """The cached basis; its bands are read-only views into one buffer.

    The bands are probed (laplacian.check_eigenbasis) before they are
    trusted, so a well-formed cache holding another basis raises ValueError.
    """
    fields, payload = _read(path, "qeig-v2")
    N = _header_int(path, fields, "n", 1)
    # band m holds (N - m)^2 values: N (N + 1) (2N + 1) / 6 in all
    _expect(path, payload, 8 * (N * (N + 1) * (2 * N + 1) // 6))
    payload.flags.writeable = False
    bands = _split(path, payload, [(np.float64, (N - m) ** 2) for m in range(N)])
    eig = LaplacianEigenbasis(N=N, bands=tuple(b.reshape(N - m, N - m) for m, b in enumerate(bands)))
    check_eigenbasis(eig)
    return eig


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
