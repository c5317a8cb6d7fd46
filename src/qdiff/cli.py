"""Command-line front end: diagnostics, simulations, experiments, rendering.

Every run writes its outputs plus a manifest.json echoing the fully
resolved configuration (--point as its unit vector) into --out, and is
deterministic (there is no randomness anywhere in the pipeline).  Each
numeric option declares its finite bound where it is parsed (README.md
tabulates them), so a value out of bounds, or a --t-final that is not
whole --dt steps, is a usage error raised before --out is created.
Each cmd_* only computes: it returns its exit code and its outputs as
(file name, writer, value...) entries.  Only then does main create
--out, write the entries in order and write manifest.json last, listing
them, so a run that fails leaves --out as it was.  A --cache-eigenbasis
file that is read is probed first (laplacian.check_eigenbasis).
Exit codes: 0 success, 1 runtime or numerical failure, 2 usage error.
Runtime failures print a single line "qdiff-error <kind>: <message>".
"""

import argparse
import csv
import json
import math
import os
import platform
import resource
import sys

import numpy as np

from . import __version__
from .blob_transport import transport_blob
from .dynamics import act_density, evolve_vorticity, flow_of_stream, step_count
from .formats import (
    load_coefficients,
    load_eigenbasis,
    load_grid,
    save_coefficients,
    save_eigenbasis,
    save_matrix,
    save_mesh,
    write_raster_with_sidecar,
)
from .laplacian import apply_laplacian_band, build_eigenbasis
from .quantization import (
    HarmonicCoefficients,
    blob_at,
    blob_center,
    dequantize,
    quantize,
    quantize_generator,
)
from .reference_flows import (
    example_generator,
    face_area_ratios,
    face_centroids,
    icosasphere,
    transport_mesh,
)
from .render import render_field
from .spin_basis import SpinBasis


def _bounded(kind, lo=-math.inf, hi=math.inf, open_lo=False):
    """argparse type: a finite `kind` value in [lo, hi], or in (lo, hi] if open_lo."""
    left = "(" if open_lo or lo == -math.inf else "["
    right = "]" if hi < math.inf else ")"
    want = f"a finite {kind.__name__} in {left}{lo}, {hi}{right}"

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        above = lo < value if open_lo else lo <= value
        # the outer pair refuses nan and +-inf; ints compare exactly however large
        if not (-math.inf < value < math.inf and above and value <= hi):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value

    return convert


def _point(text):
    """argparse type: "x,y,z" as the unit vector along it, a tuple of three floats."""
    try:
        v = np.array([float(x) for x in text.split(",")], dtype=np.float64)
    except ValueError:
        v = np.zeros(0)
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)  # nan or inf unless v is finite and not huge
    if v.shape != (3,) or not 1e-12 <= nrm < math.inf:
        raise argparse.ArgumentTypeError(f'must be "x,y,z", finite and nonzero, got {text!r}')
    return tuple(float(x) for x in v / nrm)


def _sized_command(subs, name, help):
    """A command run at one matrix size: --n, and a cache of its eigenbasis."""
    s = subs.add_parser(name, help=help)
    s.add_argument("--n", type=_bounded(int, 2, 256), required=True)
    s.add_argument("--cache-eigenbasis", default=None, metavar="PATH",
                   help="qeig-v2 cache file; loaded if present, else written")
    return s


def _parser():
    p = argparse.ArgumentParser(prog="qdiff", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"qdiff {__version__}")
    subs = p.add_subparsers(dest="command", required=True)

    _sized_command(subs, "basis-check", "generator and Laplacian invariant suite")

    s = _sized_command(subs, "simulate", "evolve quantized vorticity")
    s.add_argument("--model", choices=["euler", "epdiff"], default="euler")
    s.add_argument("--t-final", type=_bounded(float, 0.0), default=1.0)
    s.add_argument("--dt", type=_bounded(float, 0.0, open_lo=True), default=0.02)
    s.add_argument("--integrator", choices=["isomp", "rk4"], default="isomp")
    s.add_argument("--init", default=None, metavar="QCOEF",
                   help="initial vorticity coefficients (default: built-in l=1,2 mix)")
    s.add_argument("--save-states", action="store_true", help="write every state matrix")

    s = _sized_command(subs, "blob", "transport a blob two ways")
    s.add_argument("--mode", choices=["density", "center"], default="density")
    s.add_argument("--point", type=_point, default="-1,0,0",
                   help='initial center "x,y,z", normalized to unit length')
    s.add_argument("--t", type=_bounded(float), default=0.5, help="density-mode transport time")
    s.add_argument("--steps", type=_bounded(int, 1), default=200, help="center-mode step count")
    s.add_argument("--h", type=_bounded(float, 0.0, open_lo=True), default=1.0,
                   help="center-mode step size")
    s.add_argument("--width", type=_bounded(int, 16, 8192), default=400, help="raster width")

    s = _sized_command(subs, "deform", "mesh deformation and quantized density pattern")
    s.add_argument("--refinements", type=_bounded(int, 0, 8), default=4)
    s.add_argument("--t", type=_bounded(float), default=1.0)
    s.add_argument("--width", type=_bounded(int, 16, 8192), default=400)

    # render builds no eigenbasis, so it takes no --n and no cache
    s = subs.add_parser("render", help="render a qcoef or qgrid file")
    s.add_argument("--input", required=True, metavar="FILE")
    s.add_argument("--width", type=_bounded(int, 16, 8192), default=512)
    for s in subs.choices.values():
        s.add_argument("--out", default="qdiff-out", help="output directory")
    return p


def _peak_rss_mb():
    """Peak resident memory of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024.0  # bytes on macOS, KiB elsewhere


def _write_text(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _write_json(path, value):
    _write_text(path, json.dumps(value, indent=2) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_outputs(args, entries):
    """Create --out, write each (name, writer, value...) entry in order, then manifest.json.

    The manifest's outputs are the names written, a raster's .range
    sidecar right after its .ppm.
    """
    os.makedirs(args.out, exist_ok=True)
    names = []
    for name, write, *values in entries:
        write(os.path.join(args.out, name), *values)
        names += [name, name + ".range"] if write is write_raster_with_sidecar else [name]
    cfg = dict(vars(args), version=__version__, numpy=np.__version__,
               python=platform.python_version(), outputs=names, peak_rss_mb=_peak_rss_mb())
    _write_json(os.path.join(args.out, "manifest.json"), dict(sorted(cfg.items())))


def _eigenbasis(args):
    """The eigenbasis for --n, read from --cache-eigenbasis when it fits.

    A cache of another size is rebuilt and overwritten, and the manifest's
    warnings say so.
    """
    n, cache_path = args.n, args.cache_eigenbasis
    if cache_path and os.path.exists(cache_path):
        eig = load_eigenbasis(cache_path)
        if eig.N == n:
            return eig
        args.warnings.append(f"eigenbasis cache {cache_path} held N={eig.N}; replaced with N={n}")
    eig = build_eigenbasis(n)
    if cache_path:
        save_eigenbasis(cache_path, eig)
    return eig


def cmd_basis_check(args):
    n = args.n
    basis = SpinBasis(n)
    x1, x2, x3 = basis.x
    rows = []

    def check(name, residual, tol):
        rows.append((name, residual, tol, residual <= tol))

    pairs = [("[X1,X2]-(1/N)X3", x1, x2, x3), ("[X2,X3]-(1/N)X1", x2, x3, x1), ("[X3,X1]-(1/N)X2", x3, x1, x2)]
    for name, a, b, c in pairs:
        check(name, np.linalg.norm(a @ b - b @ a - c / n), 1e-13 * n)
    cas = n * n * (x1 @ x1 + x2 @ x2 + x3 @ x3) + (n * n - 1) / 4.0 * np.eye(n)
    check("casimir", np.linalg.norm(cas), 1e-11 * n * n)
    check("trace-free", max(abs(np.trace(x)) for x in basis.x), 1e-12)
    eig = _eigenbasis(args)
    ortho = max(
        np.max(np.abs(eig.bands[m].T @ eig.bands[m] - np.eye(n - m))) for m in range(n)
    )
    check("band-orthonormality", ortho, 1e-11)
    worst = 0.0
    for m in range(n):
        ls = np.arange(m, n)
        res = apply_laplacian_band(n, m, eig.bands[m]) + eig.bands[m] * (ls * (ls + 1.0))
        worst = max(worst, float(np.max(np.abs(res))))
    check("laplacian-eigen-residual", worst, 1e-9)
    ok = all(r[3] for r in rows)
    lines = [f"basis-check N={n}"]
    for name, res, tol, good in rows:
        lines.append(f"{'PASS' if good else 'FAIL'} {name} residual={res:.3e} tol={tol:.3e}")
    lines += [f"l={l} eigenvalue={-l * (l + 1)} multiplicity={2 * l + 1}" for l in range(n)]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    return (0 if ok else 1), [("basis_check.txt", _write_text, report)]


def _default_vorticity(n):
    a = HarmonicCoefficients.zeros(min(2, n - 1))
    a[1, 0] = 0.8
    if a.lmax >= 2:
        a[2, 1] = 0.5 + 0.25j
        a[2, -1] = -np.conj(a[2, 1])
    return a


def cmd_simulate(args):
    eig = _eigenbasis(args)
    coeffs = load_coefficients(args.init) if args.init else _default_vorticity(args.n)
    values = coeffs.values.copy()
    values[0] = 0.0  # constants do not move anything; keep W trace-free
    W0 = quantize(HarmonicCoefficients(coeffs.lmax, 1j * values), eig)
    traj = evolve_vorticity(W0, args.t_final, args.dt, args.integrator, args.model,
                            keep_states=args.save_states)
    header = ["step", "time", "trace_re", "trace_im", "trW2_re", "trW2_im", "eig_drift"]
    entries = [
        ("diagnostics.csv", _write_csv, header, traj.diagnostics_rows()),
        ("final_vorticity.qmat", save_matrix, traj.states[-1]),
        # same convention --init reads: feeds straight back in or into render
        ("final_vorticity.qcoef", save_coefficients, _real_coeffs(traj.states[-1], eig)),
    ]
    if args.save_states:
        entries += [(f"state_{k:05d}.qmat", save_matrix, Wk) for k, Wk in enumerate(traj.states)]
    return 0, entries


def _real_coeffs(M, eig):
    """a with M = quantize(i a): undo the i that puts real fields in u(N)."""
    c = dequantize(M, eig)
    return HarmonicCoefficients(c.lmax, -1j * c.values)


def cmd_blob(args):
    basis = SpinBasis(args.n)
    eig = _eigenbasis(args)
    P = quantize_generator(example_generator(), eig)
    B0 = blob_at(basis, args.point)
    if args.mode == "density":
        samples = 20
        times = [args.t * k / samples for k in range(samples)] + [args.t]
        centers = []
        for t in times:
            B_final = act_density(flow_of_stream(P, t), B0)
            centers.append(blob_center(basis, B_final))
    else:
        traj = transport_blob(basis, P, B0, n_steps=args.steps, h=args.h)
        times = [args.h * k for k in range(len(traj.vectors))]
        centers = traj.centers(basis)
        B_final = traj.blob(-1)
    img = render_field(_real_coeffs(B_final, eig), width=args.width)
    entries = [
        ("track.csv", _write_csv, ["step", "t", "x", "y", "z"],
         [[k, t, *c] for k, (t, c) in enumerate(zip(times, centers))]),
        ("final_blob.qmat", save_matrix, B_final),
        ("blob.ppm", write_raster_with_sidecar, img),
    ]
    if args.mode == "center":
        entries.append(("a_history.csv", _write_csv, ["step", "a1", "a2", "a3"],
                        [[k, *a] for k, a in enumerate(traj.a_history)]))
    return 0, entries


def cmd_deform(args):
    eig = _eigenbasis(args)
    mesh0 = icosasphere(args.refinements)
    mesh1 = transport_mesh(mesh0, args.t)
    ratios = face_area_ratios(mesh0, mesh1)
    mesh1.face_scalars = ratios
    # the published density pattern comes from the generator variant with
    # the opposite gradient sign; its flow is not the mesh's flow map
    P = quantize_generator(example_generator(gradient_sign=-1), eig)
    F = flow_of_stream(P, args.t)
    FFdag = act_density(F, np.eye(args.n, dtype=np.complex128))
    img = render_field(dequantize(FFdag, eig), width=args.width)
    z = face_centroids(mesh1)[:, 2]
    south, north = z < -0.5, z > 0.5
    summary = {
        "south_faces": int(south.sum()),
        "south_ratio_min": float(ratios[south].min()) if south.any() else None,
        "north_faces": int(north.sum()),
        "north_ratio_max": float(ratios[north].max()) if north.any() else None,
    }
    return 0, [
        ("deformed_mesh.qmesh", save_mesh, mesh1),
        ("ffdag.qmat", save_matrix, FFdag),
        ("ffdag.ppm", write_raster_with_sidecar, img),
        ("deform_summary.json", _write_json, summary),
    ]


def cmd_render(args):
    with open(args.input, "rb") as fh:
        head = fh.readline().split()
    tag = head[0].decode("ascii", errors="replace") if head else ""
    if tag == "qcoef-v1":
        field = load_coefficients(args.input)
    elif tag == "qgrid-v1":
        field = load_grid(args.input)
    else:
        raise ValueError(f"cannot render container {tag!r} (need qcoef-v1 or qgrid-v1)")
    return 0, [("render.ppm", write_raster_with_sidecar, render_field(field, width=args.width))]


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    args.warnings = []
    if args.command == "simulate":
        try:
            step_count(args.t_final, args.dt)
        except ValueError:
            parser.error("--t-final must be 0 or a whole positive number of --dt steps")
    handlers = {
        "basis-check": cmd_basis_check,
        "simulate": cmd_simulate,
        "blob": cmd_blob,
        "deform": cmd_deform,
        "render": cmd_render,
    }
    try:
        code, entries = handlers[args.command](args)
        _write_outputs(args, entries)
        return code
    except Exception as exc:  # single-line machine-parsable failure
        kind = type(exc).__name__
        sys.stderr.write(f"qdiff-error {kind}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
