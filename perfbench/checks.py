"""Readers for the CLI's output files and the invariants each workload must meet.

The readers parse the containers independently of the package under test
and insist on exact payload sizes, so a truncated file is a failure rather
than a short array.  Every check returns a list of failure messages; an
empty list means the outputs are correct.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np


def _container(path, tag):
    raw = Path(path).read_bytes()
    head, sep, payload = raw.partition(b"\n")
    parts = head.decode("ascii").split()
    if not sep or not parts or parts[0] != tag:
        raise ValueError(f"{Path(path).name}: not a {tag} container")
    fields = dict(tok.partition("=")[::2] for tok in parts[1:])
    return fields, payload


def _exact(payload, nbytes, what):
    if len(payload) != nbytes:
        raise ValueError(f"{what}: payload is {len(payload)} bytes, expected {nbytes}")


def read_qmat(path):
    fields, payload = _container(path, "qmat-v1")
    n = int(fields["n"])
    _exact(payload, 16 * n * n, Path(path).name)
    return np.frombuffer(payload, dtype="<c16").reshape(n, n)


def read_qmesh(path):
    fields, payload = _container(path, "qmesh-v1")
    nv, nf, has = int(fields["nv"]), int(fields["nf"]), int(fields.get("scalars", "0"))
    _exact(payload, 24 * nv + 24 * nf + 8 * nf * has, Path(path).name)
    verts = np.frombuffer(payload, dtype="<f8", count=3 * nv).reshape(nv, 3)
    faces = np.frombuffer(payload, dtype="<i8", count=3 * nf, offset=24 * nv).reshape(nf, 3)
    return verts, faces


def read_ppm_size(path):
    raw = Path(path).read_bytes()
    magic, dims, depth, payload = raw.split(b"\n", 3)
    width, height = (int(x) for x in dims.split())
    if magic != b"P6" or depth != b"255":
        raise ValueError(f"{Path(path).name}: not a binary 8-bit PPM")
    _exact(payload, 3 * width * height, Path(path).name)
    return width, height


def read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(header)}


def _require(failures, ok, message):
    if not ok:
        failures.append(message)


def check_vorticity(out, oracle):
    """Isospectral invariants of a simulate run (oracle: n, steps, w0_norm)."""
    out = Path(out)
    failures = []
    w0 = oracle["w0_norm"]
    diag = read_csv(out / "diagnostics.csv")
    _require(failures, diag["step"].size == oracle["steps"] + 1,
             f"diagnostics.csv has {diag['step'].size} rows, expected {oracle['steps'] + 1}")
    drift = float(np.max(diag["eig_drift"]))
    _require(failures, drift <= 1e-10 * w0, f"eig_drift {drift:.3e} > 1e-10*|W0|")
    ens = diag["trW2_re"] + 1j * diag["trW2_im"]
    ens_drift = float(np.max(np.abs(ens - ens[0])))
    _require(failures, ens_drift <= 1e-8 * w0 * w0, f"enstrophy drift {ens_drift:.3e} > 1e-8*|W0|^2")
    W = read_qmat(out / "final_vorticity.qmat")
    _require(failures, W.shape == (oracle["n"], oracle["n"]), f"final qmat is {W.shape}")
    wn = float(np.linalg.norm(W))
    skew = float(np.linalg.norm(W + W.conj().T))
    _require(failures, skew <= 1e-10 * wn, f"final state not skew-Hermitian: {skew:.3e}")
    _require(failures, abs(wn - w0) <= 1e-8 * w0, f"final |W| {wn!r} differs from |W0| {w0!r}")
    return failures


def check_blob(out, oracle):
    """Conjugation invariants of a center-mode blob run (oracle: n, steps, width, z0)."""
    out = Path(out)
    failures = []
    B = read_qmat(out / "final_blob.qmat")
    n = oracle["n"]
    _require(failures, B.shape == (n, n), f"final blob is {B.shape}")
    ev = np.linalg.eigvals(B)
    ev = ev[np.argsort(ev.imag)]
    want = np.zeros(n, dtype=complex)
    want[-1] = 1j
    spec = float(np.max(np.abs(ev - want)))
    _require(failures, spec <= 1e-10, f"blob spectrum moved by {spec:.3e}")
    tr = complex(np.trace(B))
    _require(failures, abs(tr - 1j) <= 1e-10, f"Tr B = {tr!r}, expected i")
    track = read_csv(out / "track.csv")
    _require(failures, track["z"].size == oracle["steps"] + 1, "track.csv has the wrong length")
    _require(failures, abs(track["z"][0] - oracle["z0"]) <= 1e-8, "track starts off the seeded point")
    _require(failures, track["z"][-1] > track["z"][0], "blob center did not climb")
    hist = read_csv(out / "a_history.csv")
    _require(failures, hist["step"].size == oracle["steps"], "a_history.csv has the wrong length")
    w, h = read_ppm_size(out / "blob.ppm")
    _require(failures, (w, h) == (oracle["width"], oracle["width"] // 2), f"blob.ppm is {w}x{h}")
    return failures


def _signed_areas(verts, faces):
    # Van Oosterom-Strackee solid angle of each spherical triangle
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    num = np.einsum("ij,ij->i", a, np.cross(b, c))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(num, den)


def check_deform(out, oracle):
    """Deformation and density-pattern checks of a deform run (oracle: n, width)."""
    out = Path(out)
    failures = []
    summary = json.loads((out / "deform_summary.json").read_text(encoding="ascii"))
    south, north = summary["south_ratio_min"], summary["north_ratio_max"]
    _require(failures, south is not None and south > 1.0, f"south min ratio {south} not > 1")
    _require(failures, north is not None and north < 1.0, f"north max ratio {north} not < 1")
    verts, faces = read_qmesh(out / "deformed_mesh.qmesh")
    area = abs(float(np.sum(_signed_areas(verts, faces))))
    _require(failures, abs(area - 4.0 * math.pi) <= 1e-6, f"deformed area {area!r} != 4 pi")
    F = read_qmat(out / "ffdag.qmat")
    _require(failures, F.shape == (oracle["n"], oracle["n"]), f"ffdag is {F.shape}")
    fn = float(np.linalg.norm(F))
    herm = float(np.linalg.norm(F - F.conj().T))
    _require(failures, herm <= 1e-12 * fn, f"ffdag not Hermitian: {herm:.3e}")
    lo = float(np.linalg.eigvalsh(0.5 * (F + F.conj().T))[0])
    _require(failures, lo >= -1e-12 * fn, f"ffdag smallest eigenvalue {lo:.3e}")
    w, h = read_ppm_size(out / "ffdag.ppm")
    _require(failures, (w, h) == (oracle["width"], oracle["width"] // 2), f"ffdag.ppm is {w}x{h}")
    return failures
