"""Time integration, bracket oracles, and the two fluid models.

The solution-trend test integrates a classical pseudo-spectral
reference in coefficient space and compares the matrix evolution
against it after undoing the bracket time scale.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from qdiff import (
    HarmonicCoefficients,
    analyze,
    apply_laplacian,
    bracket_scale,
    classical_bracket,
    complex_bracket,
    dequantize,
    evolve_vorticity,
    flow_of_stream,
    gauss_grid,
    matrix_exponential,
    quantize,
    random_coefficients,
    solve_stream,
    step_isospectral_midpoint,
    step_rk4,
    synthesize,
    vorticity_rhs,
)
from qdiff import dynamics
from qdiff.dynamics import (
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_TOL,
    _sorted_eigs,
    _sorted_eigs_skew,
    _spectrum_for,
    act_density,
)
from qdiff.laplacian import LaplacianEigenbasis
from conftest import eigenbasis


def random_vorticity(N, lmax, rng):
    c = random_coefficients(lmax, rng, real=True)
    c.values[0] = 0.0
    flat = np.zeros(N * N, dtype=np.complex128)
    flat[: c.values.size] = c.values
    return eigenbasis(N).compose(1j * flat)


# ------------------------------------------------------------- brackets


def coord_fields(nlat=14, nlon=15):
    g = gauss_grid(nlat, nlon)
    CL, LO = np.meshgrid(g.colat, g.lon, indexing="ij")
    x1 = g.with_values((np.sin(CL) * np.cos(LO)).astype(np.complex128))
    x2 = g.with_values((np.sin(CL) * np.sin(LO)).astype(np.complex128))
    x3 = g.with_values(np.cos(CL).astype(np.complex128))
    return x1, x2, x3


def test_classical_bracket_coordinates():
    x1, x2, x3 = coord_fields()
    assert np.max(np.abs(classical_bracket(x1, x2).values - x3.values)) < 1e-10
    assert np.max(np.abs(classical_bracket(x2, x3).values - x1.values)) < 1e-10
    assert np.max(np.abs(classical_bracket(x3, x1).values - x2.values)) < 1e-10


def test_classical_bracket_antisymmetry(rng):
    lmax = 5
    f = synthesize(random_coefficients(lmax, rng, real=True), 16, 25)
    g = synthesize(random_coefficients(lmax, rng, real=True), 16, 25)
    fg = classical_bracket(f, g)
    gf = classical_bracket(g, f)
    assert np.max(np.abs(fg.values + gf.values)) < 1e-10


def test_classical_bracket_needs_room():
    # two degree-6 factors need a grid resolving degree 12
    c = HarmonicCoefficients.zeros(6)
    c[6, 3] = 1.0
    f = synthesize(c, 7, 13)
    with pytest.raises(ValueError):
        classical_bracket(f, f)


def test_classical_bracket_jacobi(rng):
    nlat, nlon = 24, 31
    fs = [
        synthesize(random_coefficients(3, rng, real=True), nlat, nlon) for _ in range(3)
    ]
    f, g, h = fs

    def br(a, b):
        return classical_bracket(a, b)

    s = br(f, br(g, h)).values + br(g, br(h, f)).values + br(h, br(f, g)).values
    scale = max(np.max(np.abs(x.values)) for x in fs) ** 3
    assert np.max(np.abs(s)) < 1e-8 * max(1.0, scale)


def test_laplacian_as_double_bracket(rng):
    # Delta f = sum_k {x_k, {x_k, f}} pointwise on the grid
    x1, x2, x3 = coord_fields(20, 27)
    f = synthesize(random_coefficients(4, rng, real=True), 20, 27)
    total = np.zeros_like(f.values)
    for xk in (x1, x2, x3):
        total += classical_bracket(xk, classical_bracket(xk, f)).values
    lap = np.zeros_like(f.values)
    c = analyze(f, 4)
    for l in range(5):
        for m in range(-l, l + 1):
            c2 = HarmonicCoefficients.zeros(4)
            c2[l, m] = c[l, m] * (-l * (l + 1.0))
            lap += synthesize(c2, 20, 27).values
    assert np.max(np.abs(total - lap)) < 1e-8


def test_complex_bracket_cross_terms():
    x1, x2, x3 = coord_fields()
    psi = x1.with_values(x1.values + 1j * x2.values)
    got = complex_bracket(psi, x3)
    # {x1, x3} = -x2 and {x2, x3} = x1 enter as real and imaginary parts
    want = -x2.values + 1j * x1.values
    assert np.max(np.abs(got.values - want)) < 1e-10


def test_complex_bracket_reduces_to_real(rng):
    f = synthesize(random_coefficients(4, rng, real=True), 16, 25)
    g = synthesize(random_coefficients(4, rng, real=True), 16, 25)
    a = complex_bracket(f, g)
    b = classical_bracket(f, g)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


# ------------------------------------------------------------ stepping


def test_isospectral_step_preserves_spectrum(eig16, rng):
    W = random_vorticity(16, 10, rng)
    # skew-Hermitian spectrum lives on the imaginary axis; pair by it
    e0 = np.sort(np.linalg.eigvals(W).imag)
    for _ in range(20):
        W = step_isospectral_midpoint(W, eig16, 0.1)
    eT = np.sort(np.linalg.eigvals(W).imag)
    assert np.max(np.abs(e0 - eT)) < 1e-12


def test_isospectral_step_keeps_skew(eig16, rng):
    W = random_vorticity(16, 8, rng)
    for _ in range(10):
        W = step_isospectral_midpoint(W, eig16, 0.2)
    assert np.linalg.norm(W + W.conj().T) < 1e-10


def _lu_midpoint_step(W, eig, h, model):
    """Reference midpoint step whose fixed point solves for every iterate.

    Each iterate is the exact Wt = (I - A)^-1 W (I + A)^-1 for the current
    A = (h/2) Pt, by two LU solves.  Returns the new state and the number
    of solve_stream calls made.
    """
    ident = np.eye(W.shape[0], dtype=np.complex128)
    Pt = solve_stream(W, eig, model)
    solves = 1
    for _ in range(FIXED_POINT_MAX_ITER):
        A = (0.5 * h) * Pt
        Wt = np.linalg.solve(ident - A, W)
        Wt = np.linalg.solve((ident + A).T, Wt.T).T
        Pn = solve_stream(Wt, eig, model)
        solves += 1
        delta = np.linalg.norm(Pn - Pt)
        Pt = Pn
        if delta <= FIXED_POINT_TOL * max(1.0, np.linalg.norm(Pn)):
            A = (0.5 * h) * Pt
            Wt = np.linalg.solve(ident - A, W)
            Wt = np.linalg.solve((ident + A).T, Wt.T).T
            return (ident + A) @ Wt @ (ident - A), solves
    raise RuntimeError("reference fixed point did not converge")


def _count_stream_solves(monkeypatch, log):
    inner = dynamics.solve_stream

    def counted(*args, **kwargs):
        log.append("stream")
        return inner(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_stream", counted)


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("model", ["euler", "epdiff"])
@pytest.mark.parametrize("h", [0.025, 0.1, 0.3])
def test_matmul_fixed_point_matches_lu_form(N, model, h, rng, monkeypatch):
    # norm 3 is the benchmark workloads' coefficient norm; the iteration
    # counts may differ by one where the last iterate lands near the
    # tolerance, since the two forms contract at different rates
    eig = eigenbasis(N)
    W = random_vorticity(N, 10, rng)
    W *= 3.0 / np.linalg.norm(W)
    ref = got = W
    log = []
    _count_stream_solves(monkeypatch, log)
    for _ in range(3):
        ref, want = _lu_midpoint_step(ref, eig, h, model)
        log.clear()
        got = step_isospectral_midpoint(got, eig, h, model)
        assert abs(len(log) - want) <= 1
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_midpoint_step_solves_only_in_final_cayley(eig16, rng, monkeypatch):
    W = random_vorticity(16, 6, rng)
    log = []
    _count_stream_solves(monkeypatch, log)
    inner = np.linalg.solve

    def counted(*args, **kwargs):
        log.append("solve")
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for _ in range(3):
        log.clear()
        W = step_isospectral_midpoint(W, eig16, 0.1)
        assert log.count("solve") == 2
        assert log[-2:] == ["solve", "solve"]  # after the last stream solve
        assert log.count("stream") >= 3


@pytest.mark.parametrize("N", [16, 64])
def test_diverging_fixed_point_raises_without_warnings(N):
    # the iterates overflow to inf, where an unguarded convergence test
    # reads inf <= inf as converged and returns a zero state
    rng = np.random.default_rng(10)
    c = random_coefficients(10, rng, real=True)
    c.values[0] = 0.0
    c.values *= 300.0 / np.linalg.norm(c.values)
    flat = np.zeros(N * N, dtype=np.complex128)
    flat[: c.values.size] = c.values
    W = eigenbasis(N).compose(1j * flat)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError):
            step_isospectral_midpoint(W, eigenbasis(N), 8.0)
    assert caught == []


def test_steppers_agree_to_second_order(eig16, rng):
    W = random_vorticity(16, 6, rng)
    d = []
    for h in (0.02, 0.01):
        a = evolve_vorticity(W, eig16, 0.2, h, "isomp", "euler").states[-1]
        b = evolve_vorticity(W, eig16, 0.2, h, "rk4", "euler").states[-1]
        d.append(np.linalg.norm(a - b))
    assert 2.5 < d[0] / d[1] < 6.0  # halving h shrinks the gap ~4x


def test_rhs_is_commutator(eig16, rng):
    W = random_vorticity(16, 6, rng)
    P = solve_stream(W, eig16, model="euler")
    assert np.linalg.norm(vorticity_rhs(W, eig16) - (P @ W - W @ P)) < 1e-12


def test_evolve_records_diagnostics(eig16, rng):
    W = random_vorticity(16, 6, rng)
    tr = evolve_vorticity(W, eig16, 0.3, 0.1, "isomp", "euler")
    assert len(tr.states) == 4 and len(tr.times) == 4
    rows = tr.diagnostics_rows()
    assert len(rows) == 4 and rows[0][0] == 0
    assert abs(tr.enstrophy[-1] - tr.enstrophy[0]) < 1e-10


@pytest.mark.parametrize("skew", [True, False])
def test_enstrophy_equals_trace_of_square(eig16, rng, skew):
    W = random_vorticity(16, 6, rng)
    if not skew:
        W = W + 1j * random_vorticity(16, 6, rng)
    tr = evolve_vorticity(W, eig16, 0.2, 0.05, "isomp", "euler")
    want = np.array([np.trace(S @ S) for S in tr.states])
    assert np.max(np.abs(tr.enstrophy - want)) <= 1e-12 * np.max(np.abs(want))


def test_evolve_without_states_keeps_memory_flat(eig64, rng):
    # 300 kept states at N = 64 would take 300 * 64^2 * 16 B ~ 20 MB
    W = random_vorticity(64, 6, rng)
    W *= 3.0 / np.linalg.norm(W)
    full = evolve_vorticity(W, eig64, 0.1, 0.01, "isomp", "euler")
    tracemalloc.start()
    try:
        tr = evolve_vorticity(W, eig64, 3.0, 0.01, "isomp", "euler", keep_states=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(tr.states) == 1 and len(tr.times) == len(tr.eig_drift) == 301
    assert len(tr.enstrophy) == len(tr.trace) == 301
    short = evolve_vorticity(W, eig64, 0.1, 0.01, "isomp", "euler", keep_states=False)
    assert len(short.states) == 1
    assert np.array_equal(short.states[0], full.states[-1])
    assert np.array_equal(short.enstrophy, full.enstrophy)


def test_evolve_rejects_traceful(eig8):
    W = np.eye(8, dtype=np.complex128)
    with pytest.raises(ValueError):
        evolve_vorticity(W, eig8, 0.1, 0.1)


@pytest.mark.parametrize("t_final, h", [(1.0, 0.3), (1.0, 3.0)])
def test_evolve_rejects_span_not_whole_steps(eig8, rng, t_final, h):
    # rounding the step count ran to t = 0.9, or ran no step at all
    W = random_vorticity(8, 4, rng)
    with pytest.raises(ValueError):
        evolve_vorticity(W, eig8, t_final, h)


def test_evolve_accepts_roundoff_step_counts(eig8, rng):
    W = random_vorticity(8, 4, rng)
    for t_final, h, n in ((0.3, 0.1, 3), (0.2, 0.025, 8), (0.0, 0.5, 0)):
        assert len(evolve_vorticity(W, eig8, t_final, h).states) == n + 1


def test_epdiff_differs_from_euler(eig16, rng):
    W = random_vorticity(16, 5, rng)
    a = evolve_vorticity(W, eig16, 0.5, 0.05, "isomp", "euler").states[-1]
    b = evolve_vorticity(W, eig16, 0.5, 0.05, "isomp", "epdiff").states[-1]
    assert np.linalg.norm(a - b) > 1e-6
    # both stay skew and isospectral
    for X in (a, b):
        assert np.linalg.norm(X + X.conj().T) < 1e-10


def test_step_loop_skips_eigenbasis(eig16, rng, monkeypatch):
    W = random_vorticity(16, 5, rng)
    calls = {"decompose": 0, "compose": 0}
    for name in calls:
        inner = getattr(LaplacianEigenbasis, name)

        def counted(self, arg, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(self, arg)

        monkeypatch.setattr(LaplacianEigenbasis, name, counted)
    for integrator in ("isomp", "rk4"):
        for model in ("euler", "epdiff"):
            evolve_vorticity(W, eig16, 0.1, 0.05, integrator, model)
    assert calls == {"decompose": 0, "compose": 0}


def test_drift_paths_agree_on_skew_vorticity(eig16, rng):
    W = random_vorticity(16, 6, rng)
    assert _spectrum_for(W) is _sorted_eigs_skew
    tr = evolve_vorticity(W, eig16, 0.5, 0.05, "isomp", "euler")
    e0 = _sorted_eigs(W)
    general = [np.max(np.abs(_sorted_eigs(Wk) - e0)) for Wk in tr.states]
    assert np.max(np.abs(tr.eig_drift - general)) <= 1e-12


def test_drift_of_complex_field_uses_general_eigensolver(eig16, rng):
    # a complex vorticity field quantizes to a matrix that is not skew
    A = random_vorticity(16, 4, rng)
    W = A + 1j * random_vorticity(16, 4, rng)
    assert _spectrum_for(W) is _sorted_eigs
    tr = evolve_vorticity(W, eig16, 0.2, 0.05, "isomp", "euler")
    assert np.max(tr.eig_drift) < 1e-10


# --------------------------------------------------------- flow and F


def test_matrix_exponential_vs_series(rng):
    A = 0.01 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    S = np.eye(6, dtype=np.complex128)
    term = np.eye(6, dtype=np.complex128)
    for k in range(1, 20):
        term = term @ A / k
        S += term
    assert np.linalg.norm(matrix_exponential(A) - S) < 1e-13


def test_matrix_exponential_rejects_nonfinite():
    A = np.array([[np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises((ValueError, OverflowError)):
        matrix_exponential(A)


def test_matrix_exponential_overflow():
    A = np.array([[2000.0, 0.0], [0.0, 0.0]])
    with pytest.raises(OverflowError):
        matrix_exponential(A)


def test_flow_of_stream_ode(eig16, rng):
    W = random_vorticity(16, 6, rng)
    P = solve_stream(W, eig16)
    t, eps = 0.4, 1e-6
    F1, F2 = flow_of_stream(P, t), flow_of_stream(P, t + eps)
    resid = np.linalg.norm((F2 - F1) / eps - P @ F1) / np.linalg.norm(P @ F1)
    assert resid < 1e-5


def test_flow_of_stream_rejects_trace():
    P = np.eye(4, dtype=np.complex128)
    with pytest.raises(ValueError):
        flow_of_stream(P, 1.0)


def test_act_density_conjugates(rng):
    F = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.allclose(act_density(F, B), F @ B @ F.conj().T)


# ----------------------------------------------------- solution trend


def _classical_reference(w0, t_final, lref, nsteps):
    nlat, nlon = 2 * lref + 2, 4 * lref + 3
    ls = np.concatenate([[l] * (2 * l + 1) for l in range(lref + 1)])
    inv = np.zeros(ls.size)
    inv[ls > 0] = -1.0 / (ls[ls > 0] * (ls[ls > 0] + 1.0))

    def rhs(a):
        om = synthesize(HarmonicCoefficients(lref, a), nlat, nlon)
        ps = synthesize(HarmonicCoefficients(lref, a * inv), nlat, nlon)
        return analyze(classical_bracket(ps, om), lref).values

    a = np.zeros((lref + 1) ** 2, dtype=np.complex128)
    a[: w0.values.size] = w0.values
    dt = t_final / nsteps
    for _ in range(nsteps):
        k1 = rhs(a)
        k2 = rhs(a + dt / 2 * k1)
        k3 = rhs(a + dt / 2 * k2)
        k4 = rhs(a + dt * k3)
        a += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return a


def test_solution_trend_toward_classical():
    # nonlinear l=2+3 data; the l=1-only interactions would be exact at
    # every N and show no trend
    w0 = HarmonicCoefficients.zeros(3)
    w0[2, 0] = 0.6
    w0[2, 1] = 0.3 + 0.2j
    w0[2, -1] = -np.conj(w0[2, 1])
    w0[3, 2] = 0.4 - 0.1j
    w0[3, -2] = np.conj(w0[3, 2])
    t_final = 0.4
    ref = _classical_reference(w0, t_final, lref=8, nsteps=60)

    lcmp = 5
    ncmp = (lcmp + 1) ** 2
    errs = []
    for N in (16, 32):
        eig = eigenbasis(N)
        flat = np.zeros(N * N, dtype=np.complex128)
        flat[: w0.values.size] = w0.values
        W0 = eig.compose(1j * flat)
        # the matrix equation runs at the bracket-scaled time; evolving
        # -W forward is the time-reversed trajectory
        tau = abs(bracket_scale(N)) * t_final
        h = tau / max(300, int(np.ceil(tau / 0.02)))
        tr = evolve_vorticity(-W0, eig, tau, h, "isomp", "euler")
        out = dequantize(-tr.states[-1], eig, lmax=lcmp)
        errs.append(
            np.linalg.norm(-1j * out.values - ref[:ncmp]) / np.linalg.norm(ref[:ncmp])
        )
    assert errs[0] < 0.05
    assert errs[1] < errs[0]
