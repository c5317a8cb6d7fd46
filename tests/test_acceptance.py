"""End-to-end acceptance gate.

Each test prints exactly one "PASS criterion k: ..." or "FAIL criterion
k: ..." line before asserting, so a red criterion shows its line in the
captured output; run with -s to stream all eleven lines.

Criterion 7's final clause checks that center transport does not
inflate the blob: at every step each entry stays within the initial
spectral norm, and the spectral norm itself never grows from one step
to the next (both to 1e-12 relative).  Every step is a unitary
conjugation, which pins the spectrum and so the spectral norm, and no
entry of a matrix can exceed its spectral norm.  Individual entries do
grow, though: as the blob climbs it localizes at the north pole, where
in the J3 eigenbasis it tends to i e_1 e_1^*, whose largest entry equals
the spectral norm.  Further invariants are covered in
test_blob_transport.py.
"""

import time

import numpy as np

from qdiff import (
    HarmonicCoefficients,
    SpinBasis,
    act_density,
    blob_at,
    blob_center,
    bracket_scale,
    classical_bracket,
    dequantize,
    evaluate,
    evolve_vorticity,
    exact_flow,
    example_generator,
    face_area_ratios,
    flow_of_stream,
    gauss_grid,
    icosasphere,
    quantize,
    quantize_generator,
    random_coefficients,
    rk4_flow,
    spherical_face_areas,
    synthesize,
    transport_blob,
    transport_mesh,
)
from qdiff.reference_flows import face_centroids
from qdiff.spin_basis import generator_matrices, spin_matrices
from conftest import eigenbasis


def _report(num, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def _skew_vorticity(N, lmax, seed):
    rng = np.random.default_rng(seed)
    c = random_coefficients(lmax, rng, real=True)
    c.values[0] = 0.0
    flat = np.zeros(N * N, dtype=np.complex128)
    flat[: c.values.size] = c.values
    return eigenbasis(N).compose(1j * flat)


def test_criterion_01_commutation_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for N in (2, 4, 8, 16, 32, 64):
        x1, x2, x3 = generator_matrices(N)
        for a, b, c in ((x1, x2, x3), (x2, x3, x1), (x3, x1, x2)):
            dev = np.linalg.norm(a @ b - b @ a - c / N)
            worst = max(worst, dev / (1e-13 * N))
    dt = time.perf_counter() - t0
    ok = worst <= 1.0 and dt < 1.0
    assert _report(1, "commutation relations at N=2..64",
                   ok, f"worst residual at {worst:.2e} of budget, {dt:.2f}s")


def test_criterion_02_laplacian_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for N in range(2, 33):
        j_ops = spin_matrices(N)
        S = np.zeros((N * N, N * N), dtype=np.complex128)
        eye = np.eye(N)
        for J in j_ops:
            K = np.kron(J, eye) - np.kron(eye, J.T)
            S -= K @ K
        vals = np.sort(np.linalg.eigvalsh(S))
        want = np.sort(
            np.concatenate([[-l * (l + 1.0)] * (2 * l + 1) for l in range(N)])
        )
        worst = max(worst, float(np.max(np.abs(vals - want))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 10.0
    assert _report(2, "full spectrum -l(l+1) x (2l+1) for N<=32",
                   ok, f"max deviation {worst:.2e}, {dt:.1f}s")


def test_criterion_03_roundtrip():
    rng = np.random.default_rng(3)
    eig = eigenbasis(16)
    c = random_coefficients(15, rng, real=False)
    back = dequantize(quantize(c, eig), eig)
    err = np.linalg.norm(back.values - c.values) / np.linalg.norm(c.values)
    assert _report(3, "quantize/dequantize round trip at lmax=N-1",
                   err <= 1e-10, f"relative error {err:.2e}")


def test_criterion_04_poisson_correspondence():
    rng = np.random.default_rng(20240817)
    pairs = [
        (random_coefficients(4, rng, real=True), random_coefficients(4, rng, real=True))
        for _ in range(10)
    ]
    nlat, nlon = 24, 49
    g = gauss_grid(nlat, nlon)
    w2d = np.repeat(g.weights[:, None], nlon, axis=1) * (2.0 * np.pi / nlon)

    def l2(v):
        return float(np.sqrt(np.sum(w2d * np.abs(v) ** 2)))

    errs = {}
    for N in (16, 32, 64):
        eig = eigenbasis(N)
        worst = 0.0
        for cf, cg in pairs:
            classical = classical_bracket(
                synthesize(cf, nlat, nlon), synthesize(cg, nlat, nlon)
            ).values
            Wf = quantize(HarmonicCoefficients(4, 1j * cf.values), eig)
            Wg = quantize(HarmonicCoefficients(4, 1j * cg.values), eig)
            comm = bracket_scale(N) * (Wf @ Wg - Wg @ Wf)
            c = dequantize(comm, eig, lmax=8)
            back = synthesize(HarmonicCoefficients(8, -1j * c.values), nlat, nlon).values
            worst = max(worst, l2(back - classical) / l2(classical))
        errs[N] = worst
    ok = errs[16] > errs[32] > errs[64] and errs[64] <= 0.15
    assert _report(4, "commutator converges to the Poisson bracket",
                   ok, f"max errors {errs[16]:.3f}/{errs[32]:.3f}/{errs[64]:.4f}")


def test_criterion_05_exact_flow_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    p = rng.standard_normal((300, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    p = p[p[:, 2] > -0.99][:100]
    assert p.shape[0] == 100
    err = float(np.max(np.linalg.norm(exact_flow(p, 1.0) - rk4_flow(p, 1.0, 1e-3), axis=1)))
    dt = time.perf_counter() - t0
    ok = err <= 1e-7 and dt < 5.0
    assert _report(5, "closed-form flow matches RK4",
                   ok, f"max distance {err:.2e}, {dt:.1f}s")


def test_criterion_06_blob_density_transport():
    t0 = time.perf_counter()
    y0 = np.array([-1.0, 0.0, 0.0])
    # five-digit published reference for the flow endpoint; both centers
    # land on the machine-precision endpoint, so their angles to this
    # target differ only in how each resolution rounds
    target = np.array([-0.77825, 0.42518, 0.46212])
    target /= np.linalg.norm(target)
    dist = {}
    for N in (32, 64):
        basis = SpinBasis(N)
        P = quantize_generator(example_generator(), eigenbasis(N))
        B = act_density(flow_of_stream(P, 0.5), blob_at(basis, y0))
        center = blob_center(basis, B)
        dist[N] = float(np.arccos(np.clip(center @ target, -1.0, 1.0)))
    dt = time.perf_counter() - t0
    ok = dist[32] <= 0.15 and dist[64] < dist[32] and dt < 30.0
    assert _report(6, "transported blob center rides the flow",
                   ok, f"angles {dist[32]!r}/{dist[64]!r} rad, {dt:.1f}s")


def test_criterion_07_blob_center_transport():
    basis = SpinBasis(32)
    P = quantize_generator(example_generator(), eigenbasis(32))
    B0 = blob_at(basis, (-1.0, 0.0, 0.0))
    traj = transport_blob(basis, P, B0, n_steps=200, h=1.0)
    z0 = blob_center(basis, traj.blobs[0])[2]
    zT = blob_center(basis, traj.blobs[-1])[2]
    spec0 = np.sort(np.linalg.eigvals(traj.blobs[0]).imag)
    specT = np.sort(np.linalg.eigvals(traj.blobs[-1]).imag)
    drift = float(np.max(np.abs(spec0 - specT)))
    peaks = np.array([np.max(np.abs(B)) for B in traj.blobs])
    norms = np.array([np.linalg.norm(B, 2) for B in traj.blobs])
    over = float(np.max(peaks) / norms[0] - 1.0)
    grew = float(np.max(np.diff(norms)))
    ok = (
        zT > z0
        and drift <= 1e-10
        and over <= 1e-12
        and grew <= 1e-12 * norms[0]
    )
    assert _report(
        7,
        "center recursion: climbs, isospectral, "
        "entries within the initial spectral norm",
        ok,
        f"z {z0:.2f}->{zT:.2f}, drift {drift:.1e}, "
        f"peak {peaks[0]:.3f}->{peaks[-1]:.3f} of norm {norms[0]:.3f} "
        f"(excess {over:.1e}, largest norm step {grew:+.1e})",
    )


def test_criterion_08_grid_deformation():
    mesh0 = icosasphere(4)
    mesh1 = transport_mesh(mesh0, 1.0)
    ratios = face_area_ratios(mesh0, mesh1)
    cz = face_centroids(mesh0)[:, 2]
    south_min = float(np.min(ratios[cz < -0.5]))
    north_max = float(np.max(ratios[cz > 0.5]))
    area_dev = abs(float(spherical_face_areas(mesh1).sum()) - 4.0 * np.pi)
    ok = south_min > 1.0 and north_max < 1.0 and area_dev <= 1e-6
    assert _report(8, "mesh faces expand at the source, shrink at the sink",
                   ok, f"south min {south_min:.2f}, north max {north_max:.2f}, "
                       f"area dev {area_dev:.1e}")


def test_criterion_09_density_pattern_south_heavy():
    eig = eigenbasis(32)
    P = quantize_generator(example_generator(gradient_sign=-1), eig)
    F = flow_of_stream(P, 1.0)
    c = dequantize(act_density(F, np.eye(32, dtype=np.complex128)), eig)
    south = float(evaluate(c, np.pi, 0.0).real)
    north = float(evaluate(c, 0.0, 0.0).real)
    assert _report(9, "flow density concentrates at the south pole",
                   south > north, f"south {south:.3e} vs north {north:.3e}")


def test_criterion_10_structure_preservation():
    W0 = _skew_vorticity(16, 10, seed=10)
    nrm = np.linalg.norm(W0)
    runs = {}
    for integ in ("isomp", "rk4"):
        traj = evolve_vorticity(W0, 10.0, 0.1, integ, "euler")
        ens_drift = float(np.max(np.abs(traj.enstrophy - traj.enstrophy[0])))
        runs[integ] = (float(np.max(traj.eig_drift)), ens_drift)
    ok = (
        runs["isomp"][0] <= 1e-8 * nrm
        and runs["isomp"][1] <= 1e-8 * nrm**2
        and runs["rk4"][0] > runs["isomp"][0]
    )
    assert _report(10, "midpoint rule keeps spectrum and enstrophy over 100 steps",
                   ok, f"drift isomp {runs['isomp'][0]:.1e} vs rk4 {runs['rk4'][0]:.1e}")


def test_criterion_11_flow_ode_residual():
    W = _skew_vorticity(16, 8, seed=11)
    from qdiff import solve_stream

    P = solve_stream(W)
    t, eps = 0.4, 1e-6
    F1 = flow_of_stream(P, t)
    F2 = flow_of_stream(P, t + eps)
    resid = np.linalg.norm((F2 - F1) / eps - P @ F1) / np.linalg.norm(P @ F1)
    assert _report(11, "finite-difference derivative of F matches P F",
                   resid <= 1e-5, f"residual {resid:.2e}")
