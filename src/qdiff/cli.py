"""Command-line front end: diagnostics, simulations, experiments, rendering.

Every run validates its parameters, writes its outputs plus a
manifest.json echoing the fully resolved configuration into --out, and
is deterministic (there is no randomness anywhere in the pipeline).
Exit codes: 0 success, 1 runtime or numerical failure, 2 usage error.
Runtime failures print a single line "qdiff-error <kind>: <message>".
"""

import argparse
import csv
import json
import os
import platform
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


def _add_common(sub):
    sub.add_argument("--out", default="qdiff-out", help="output directory")
    sub.add_argument("--cache-eigenbasis", default=None, metavar="PATH",
                     help="qeig-v1 cache file; loaded if present, else written")


def _parser():
    p = argparse.ArgumentParser(prog="qdiff", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"qdiff {__version__}")
    subs = p.add_subparsers(dest="command", required=True)

    s = subs.add_parser("basis-check", help="generator and Laplacian invariant suite")
    s.add_argument("--n", type=int, required=True)
    _add_common(s)

    s = subs.add_parser("simulate", help="evolve quantized vorticity")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--model", choices=["euler", "epdiff"], default="euler")
    s.add_argument("--t-final", type=float, default=1.0)
    s.add_argument("--dt", type=float, default=0.02)
    s.add_argument("--integrator", choices=["isomp", "rk4"], default="isomp")
    s.add_argument("--init", default=None, metavar="QCOEF",
                   help="initial vorticity coefficients (default: built-in l=1,2 mix)")
    s.add_argument("--save-states", action="store_true", help="write every state matrix")
    _add_common(s)

    s = subs.add_parser("blob", help="transport a blob two ways")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mode", choices=["density", "center"], default="density")
    s.add_argument("--point", default="-1,0,0", help='initial center "x,y,z"')
    s.add_argument("--t", type=float, default=0.5, help="density-mode transport time")
    s.add_argument("--steps", type=int, default=200, help="center-mode step count")
    s.add_argument("--h", type=float, default=1.0, help="center-mode step size")
    s.add_argument("--width", type=int, default=400, help="raster width")
    _add_common(s)

    s = subs.add_parser("deform", help="mesh deformation and quantized density pattern")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--refinements", type=int, default=4)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--width", type=int, default=400)
    _add_common(s)

    s = subs.add_parser("render", help="render a qcoef or qgrid file")
    s.add_argument("--input", required=True, metavar="FILE")
    s.add_argument("--width", type=int, default=512)
    _add_common(s)
    return p


def _check_n(parser, n):
    if not 2 <= n <= 256:
        parser.error(f"--n must be in [2, 256], got {n}")


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _manifest(args, outputs):
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    cfg["numpy"] = np.__version__
    cfg["python"] = platform.python_version()
    cfg["outputs"] = outputs
    path = os.path.join(args.out, "manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


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


def _parse_point(parser, text):
    try:
        v = np.array([float(x) for x in text.split(",")], dtype=np.float64)
    except ValueError:
        v = np.zeros(2)
    if v.shape != (3,):
        parser.error(f'--point must be "x,y,z", got {text!r}')
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        parser.error("--point must be a nonzero vector")
    return v / nrm


def cmd_basis_check(args):
    n = args.n
    out = _ensure_out(args)
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
    spec_lines = []
    worst = 0.0
    for m in range(n):
        ls = np.arange(m, n)
        res = apply_laplacian_band(n, m, eig.bands[m]) + eig.bands[m] * (ls * (ls + 1.0))
        worst = max(worst, float(np.max(np.abs(res))))
    check("laplacian-eigen-residual", worst, 1e-9)
    for l in range(n):
        spec_lines.append(f"l={l} eigenvalue={-l * (l + 1)} multiplicity={2 * l + 1}")
    ok = all(r[3] for r in rows)
    lines = [f"basis-check N={n}"]
    for name, res, tol, good in rows:
        lines.append(f"{'PASS' if good else 'FAIL'} {name} residual={res:.3e} tol={tol:.3e}")
    lines += spec_lines
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    with open(os.path.join(out, "basis_check.txt"), "w", encoding="ascii") as fh:
        fh.write(report)
    _manifest(args, ["basis_check.txt"])
    return 0 if ok else 1


def _default_vorticity(eig):
    a = HarmonicCoefficients.zeros(min(2, eig.N - 1))
    a[1, 0] = 0.8
    if a.lmax >= 2:
        a[2, 1] = 0.5 + 0.25j
        a[2, -1] = -np.conj(a[2, 1])
    return a


def cmd_simulate(args):
    out = _ensure_out(args)
    eig = _eigenbasis(args)
    coeffs = load_coefficients(args.init) if args.init else _default_vorticity(eig)
    values = coeffs.values.copy()
    values[0] = 0.0  # constants do not move anything; keep W trace-free
    W0 = quantize(HarmonicCoefficients(coeffs.lmax, 1j * values), eig)
    traj = evolve_vorticity(W0, eig, args.t_final, args.dt, args.integrator, args.model,
                            keep_states=args.save_states)
    outputs = ["diagnostics.csv", "final_vorticity.qmat", "final_vorticity.qcoef"]
    with open(os.path.join(out, "diagnostics.csv"), "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "time", "trace_re", "trace_im", "trW2_re", "trW2_im", "eig_drift"])
        w.writerows(traj.diagnostics_rows())
    save_matrix(os.path.join(out, "final_vorticity.qmat"), traj.states[-1])
    # same convention --init reads: feeds straight back in or into render
    save_coefficients(os.path.join(out, "final_vorticity.qcoef"),
                      _real_coeffs(traj.states[-1], eig))
    if args.save_states:
        for k, Wk in enumerate(traj.states):
            name = f"state_{k:05d}.qmat"
            save_matrix(os.path.join(out, name), Wk)
            outputs.append(name)
    _manifest(args, outputs)
    return 0


def _real_coeffs(M, eig):
    """a with M = quantize(i a): undo the i that puts real fields in u(N)."""
    c = dequantize(M, eig)
    return HarmonicCoefficients(c.lmax, -1j * c.values)


def _write_track(path, times, centers):
    with open(path, "w", newline="", encoding="ascii") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "t", "x", "y", "z"])
        for k, (t, c) in enumerate(zip(times, centers)):
            w.writerow([k, t, c[0], c[1], c[2]])


def cmd_blob(args):
    out = _ensure_out(args)
    parser_point = args.point_vec
    basis = SpinBasis(args.n)
    eig = _eigenbasis(args)
    P = quantize_generator(example_generator(), eig)
    B0 = blob_at(basis, parser_point)
    if args.mode == "density":
        samples = 20
        times = [args.t * k / samples for k in range(samples + 1)]
        centers = []
        for t in times:
            F = flow_of_stream(P, t)
            centers.append(blob_center(basis, act_density(F, B0)))
        B_final = act_density(flow_of_stream(P, args.t), B0)
    else:
        traj = transport_blob(basis, P, B0, n_steps=args.steps, h=args.h)
        times = [args.h * k for k in range(len(traj.vectors))]
        centers = traj.centers(basis)
        B_final = traj.blob(-1)
        with open(os.path.join(out, "a_history.csv"), "w", newline="", encoding="ascii") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "a1", "a2", "a3"])
            for k, a in enumerate(traj.a_history):
                w.writerow([k, a[0], a[1], a[2]])
    _write_track(os.path.join(out, "track.csv"), times, centers)
    save_matrix(os.path.join(out, "final_blob.qmat"), B_final)
    img = render_field(_real_coeffs(B_final, eig), width=args.width)
    write_raster_with_sidecar(os.path.join(out, "blob.ppm"), img)
    outputs = ["track.csv", "final_blob.qmat", "blob.ppm", "blob.ppm.range"]
    if args.mode == "center":
        outputs.append("a_history.csv")
    _manifest(args, outputs)
    return 0


def cmd_deform(args):
    out = _ensure_out(args)
    eig = _eigenbasis(args)
    mesh0 = icosasphere(args.refinements)
    mesh1 = transport_mesh(mesh0, args.t)
    ratios = face_area_ratios(mesh0, mesh1)
    mesh1.face_scalars = ratios
    save_mesh(os.path.join(out, "deformed_mesh.qmesh"), mesh1)
    # the published density pattern comes from the generator variant with
    # the opposite gradient sign; its flow is not the mesh's flow map
    P = quantize_generator(example_generator(gradient_sign=-1), eig)
    F = flow_of_stream(P, args.t)
    FFdag = act_density(F, np.eye(args.n, dtype=np.complex128))
    save_matrix(os.path.join(out, "ffdag.qmat"), FFdag)
    img = render_field(dequantize(FFdag, eig), width=args.width)
    write_raster_with_sidecar(os.path.join(out, "ffdag.ppm"), img)
    south = face_centroids(mesh1)[:, 2] < -0.5
    north = face_centroids(mesh1)[:, 2] > 0.5
    summary = {
        "south_faces": int(south.sum()),
        "south_ratio_min": float(ratios[south].min()) if south.any() else None,
        "north_faces": int(north.sum()),
        "north_ratio_max": float(ratios[north].max()) if north.any() else None,
    }
    with open(os.path.join(out, "deform_summary.json"), "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    _manifest(args, ["deformed_mesh.qmesh", "ffdag.qmat", "ffdag.ppm", "ffdag.ppm.range",
                     "deform_summary.json"])
    return 0


def cmd_render(args):
    out = _ensure_out(args)
    with open(args.input, "rb") as fh:
        tag = fh.readline().split()[0].decode("ascii", errors="replace")
    if tag == "qcoef-v1":
        field = load_coefficients(args.input)
    elif tag == "qgrid-v1":
        field = load_grid(args.input)
    else:
        raise ValueError(f"cannot render container {tag!r} (need qcoef-v1 or qgrid-v1)")
    img = render_field(field, width=args.width)
    write_raster_with_sidecar(os.path.join(out, "render.ppm"), img)
    _manifest(args, ["render.ppm", "render.ppm.range"])
    return 0


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    args.warnings = []
    if hasattr(args, "n"):
        _check_n(parser, args.n)
    if args.command == "blob":
        args.point_vec = _parse_point(parser, args.point)
    if args.command == "simulate":
        if args.t_final < 0 or args.dt <= 0:
            parser.error("need --t-final >= 0 and --dt > 0")
        try:
            step_count(args.t_final, args.dt)
        except ValueError:
            parser.error("--t-final must be 0 or a whole positive number of --dt steps")
    if args.command == "blob" and (args.steps < 1 or args.h <= 0):
        parser.error("need --steps >= 1 and --h > 0")
    if args.command == "deform" and not 0 <= args.refinements <= 8:
        parser.error("--refinements must be in [0, 8]")
    handlers = {
        "basis-check": cmd_basis_check,
        "simulate": cmd_simulate,
        "blob": cmd_blob,
        "deform": cmd_deform,
        "render": cmd_render,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:  # single-line machine-parsable failure
        kind = type(exc).__name__
        sys.stderr.write(f"qdiff-error {kind}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
