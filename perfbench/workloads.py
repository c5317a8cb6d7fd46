"""The benchmark's workloads: seeded inputs, CLI arguments, set-up and checks.

Each workload stresses a different layer (see README.md for why each one
was chosen).  Inputs are drawn from the seed by this module alone, so they
stay identical across versions of the package under test; only the
eigenbasis cache is produced by the package, because its format is the
package's own.

Sizes come in two profiles: "full" is what the benchmark measures,
"smoke" runs every code path at N = 8 for the benchmark's own tests.
"""

import hashlib
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("vorticity-n128", "vorticity-n256-cache", "blob-n128", "deform-render")

SIZES = {
    "full": {
        "vorticity-n128": {"n": 128, "t_final": 1.0, "dt": 0.025},
        "vorticity-n256-cache": {"n": 256, "t_final": 0.2, "dt": 0.025},
        "blob-n128": {"n": 128, "steps": 200, "width": 64},
        "deform-render": {"n": 32, "refinements": 5, "width": 400},
    },
    "smoke": {
        "vorticity-n128": {"n": 8, "t_final": 0.1, "dt": 0.025},
        "vorticity-n256-cache": {"n": 8, "t_final": 0.05, "dt": 0.025},
        "blob-n128": {"n": 8, "steps": 5, "width": 32},
        "deform-render": {"n": 8, "refinements": 2, "width": 32},
    },
}

VORTICITY_LMAX = 12
VORTICITY_NORM = 3.0


def seeded_vorticity(seed, lmax=VORTICITY_LMAX, norm=VORTICITY_NORM):
    """Real-field coefficients drawn as qdiff.random_coefficients(lmax, rng) draws
    them, with l = 0 zeroed and the coefficient norm scaled to `norm`."""
    rng = np.random.default_rng(seed)
    count = (lmax + 1) ** 2
    values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    for l in range(lmax + 1):
        centre = l * l + l
        values[centre] = values[centre].real
        for m in range(1, l + 1):
            values[centre - m] = (-1.0) ** m * np.conj(values[centre + m])
    values[0] = 0.0
    return values * (norm / np.linalg.norm(values))


def write_qcoef(path, values, lmax):
    head = f"qcoef-v1 lmax={lmax} order=l-major-m-fastest precision=binary64\n"
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        fh.write(np.ascontiguousarray(values, dtype="<c16").tobytes())


def seeded_point(seed):
    """Unit vector with z uniform in [-0.8, 0.6] and uniform longitude.

    The band keeps the start clear of the south pole, a fixed point of the
    flow where the center cannot climb, and leaves room to climb north.
    """
    rng = np.random.default_rng(seed)
    z = rng.uniform(-0.8, 0.6)
    lon = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sqrt(1.0 - z * z)
    return np.array([r * np.cos(lon), r * np.sin(lon), z])


def prepare(name, work, seed, profile="full"):
    """Write the workload's input files into `work` and describe the run.

    Returns a dict with the CLI argv (without --out), the set-up job, an
    optional eigenbasis cache to prepare before timing, the oracle values
    the checks need, and a record of the inputs for the results file.
    """
    size = SIZES[profile][name]
    work = Path(work)
    n = size["n"]
    spec = {"n": n, "cache": None, "spin": False, "record": {"seed": seed, **size}}
    if name.startswith("vorticity-"):
        values = seeded_vorticity(seed)
        init = work / "init.qcoef"
        write_qcoef(init, values, VORTICITY_LMAX)
        kept = values[: n * n]
        steps = int(round(size["t_final"] / size["dt"]))
        model = "euler" if name == "vorticity-n128" else "epdiff"
        argv = ["simulate", "--n", str(n), "--model", model, "--integrator", "isomp",
                "--t-final", repr(size["t_final"]), "--dt", repr(size["dt"]), "--init", str(init)]
        if name == "vorticity-n256-cache":
            spec["cache"] = str(work / f"eig{n}.qeig")
            argv += ["--cache-eigenbasis", spec["cache"]]
        spec["oracle"] = {"n": n, "steps": steps, "w0_norm": float(np.linalg.norm(kept))}
        spec["check"] = checks.check_vorticity
        spec["record"]["init_coefficients_sha"] = _digest(values)
    elif name == "blob-n128":
        point = seeded_point(seed)
        argv = ["blob", "--mode", "center", "--n", str(n), "--steps", str(size["steps"]),
                "--h", "1.0", "--width", str(size["width"]),
                "--point=" + ",".join(repr(float(x)) for x in point)]
        spec["spin"] = True
        spec["oracle"] = {"n": n, "steps": size["steps"], "width": size["width"], "z0": float(point[2])}
        spec["check"] = checks.check_blob
        spec["record"]["point"] = point.tolist()
    elif name == "deform-render":
        argv = ["deform", "--n", str(n), "--refinements", str(size["refinements"]),
                "--t", "1.0", "--width", str(size["width"])]
        spec["oracle"] = {"n": n, "width": size["width"]}
        spec["check"] = checks.check_deform
    else:
        raise ValueError(f"unknown workload {name!r}")
    spec["argv"] = argv
    return spec


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<c16").tobytes()).hexdigest()[:16]
