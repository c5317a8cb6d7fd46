"""Quantized vorticity dynamics, flows of stream matrices, and the
classical Poisson bracket used as a test oracle.

The vorticity matrix evolves by W' = [P, W] with P = solve_stream(W)
(Laplacian inverse for the Euler model, additionally (1 - Laplacian)^-1
for EPDiff).  The primary integrator is the isospectral midpoint rule.
Its midpoint stage Wt = (I - A)^-1 W (I + A)^-1 with A = (h/2) Pt,
Pt = solve_stream(Wt), is found by iterating the equivalent

    Wt <- W + [A, Wt] + A Wt A

which needs matrix products only (Modin & Viviani, JFM 884 A22, 2020),
until successive Pt agree.  The step then applies the exact Cayley
similarity W <- (I + A) (I - A)^-1 W (I + A)^-1 (I - A) with the
converged A, two LU solves per step.  The update is a similarity
transform, so the spectrum (and trace) of W is preserved to solver
accuracy regardless of step size; for skew-Hermitian W it is a
congruence and preserves skewness exactly.  Classical RK4 is provided
as a non-structure-preserving baseline.

solve_stream works band by band on tridiagonal systems, so the step
loop never touches the Laplacian eigenbasis; that basis serves only
quantize/dequantize at the ends of a run.
"""

from dataclasses import dataclass

import numpy as np

from ._expm import expm
from .laplacian import solve_stream
from .quantization import analyze, synthesize, synthesize_dtheta

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 100


def matrix_exponential(M):
    """exp(M) via scaling-and-squaring Pade; rejects non-finite input."""
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix exponential of non-finite input")
    with np.errstate(over="ignore", invalid="ignore"):
        out = expm(M)
    if not np.all(np.isfinite(out)):
        raise OverflowError("matrix exponential overflowed")
    return out


def flow_of_stream(P, t):
    """F(t) = exp(P t), the quantized flow generated by a trace-free P."""
    P = np.asarray(P)
    if abs(np.trace(P)) > 1e-10 * max(1.0, np.linalg.norm(P)):
        raise ValueError("stream matrix must be trace-free")
    return matrix_exponential(P * t)


def act_density(F, B):
    """F.B = F B F^dagger (congruence action on quantized densities)."""
    return F @ B @ F.conj().T


def vorticity_rhs(W, eig, model="euler"):
    """[P, W] with P = solve_stream(W)."""
    P = solve_stream(W, eig, model)
    return P @ W - W @ P


def step_isospectral_midpoint(W, eig, h, model="euler"):
    """One isospectral midpoint step.

    Raises RuntimeError when the fixed point does not converge or an
    iterate stops being finite.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    Pt = solve_stream(W, eig, model)
    Wt = W
    # a diverging iterate overflows; the finiteness test below reports it,
    # so the warnings it would raise on the way carry nothing more
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(FIXED_POINT_MAX_ITER):
            # Wt <- W + [A, Wt] + A Wt A, written with two products
            A = (0.5 * h) * Pt
            X = Wt @ A
            Wt = W - X + A @ (Wt + X)
            Pn = solve_stream(Wt, eig, model)
            delta = np.linalg.norm(Pn - Pt)
            scale = np.linalg.norm(Pn)
            if not (np.isfinite(delta) and np.isfinite(scale)):
                raise RuntimeError("isospectral midpoint fixed point diverged")
            Pt = Pn
            if delta <= FIXED_POINT_TOL * max(1.0, scale):
                break
        else:
            raise RuntimeError(
                "isospectral midpoint fixed point did not converge in "
                f"{FIXED_POINT_MAX_ITER} iterations"
            )
    # the exact Cayley similarity with the converged stream
    ident = np.eye(W.shape[0], dtype=np.complex128)
    A = (0.5 * h) * Pt
    Wt = np.linalg.solve(ident - A, W)
    Wt = np.linalg.solve((ident + A).T, Wt.T).T
    return (ident + A) @ Wt @ (ident - A)


def step_rk4(W, eig, h, model="euler"):
    """One classical RK4 step of W' = [P, W] (baseline, not structure-preserving)."""
    k1 = vorticity_rhs(W, eig, model)
    k2 = vorticity_rhs(W + 0.5 * h * k1, eig, model)
    k3 = vorticity_rhs(W + 0.5 * h * k2, eig, model)
    k4 = vorticity_rhs(W + h * k3, eig, model)
    return W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class VorticityTrajectory:
    """Times t = 0, h, 2h, ... with per-state conservation diagnostics.

    states holds every state, or only the final one when the run was
    made with keep_states false.
    """

    times: np.ndarray
    states: list
    model: str
    integrator: str
    trace: np.ndarray
    enstrophy: np.ndarray  # Tr(W^2) per state
    eig_drift: np.ndarray  # max sorted-eigenvalue deviation from t = 0

    def diagnostics_rows(self):
        """(step, time, Re Tr W, Im Tr W, Re Tr W^2, Im Tr W^2, drift) rows."""
        rows = []
        for k, t in enumerate(self.times):
            rows.append(
                (
                    k,
                    float(t),
                    self.trace[k].real,
                    self.trace[k].imag,
                    self.enstrophy[k].real,
                    self.enstrophy[k].imag,
                    float(self.eig_drift[k]),
                )
            )
        return rows


def _sorted_eigs(W):
    # primary key imaginary part: skew-Hermitian spectra differ there,
    # while the real parts are roundoff noise that must not lead the sort
    e = np.linalg.eigvals(W)
    return e[np.lexsort((e.real, e.imag))]


def _sorted_eigs_skew(W):
    # W's eigenvalues are i mu with mu real, so i W is Hermitian with
    # eigenvalues -mu, returned ascending: this is _sorted_eigs(W) with
    # the roundoff real parts dropped
    return -1j * np.linalg.eigvalsh(1j * W)[::-1]


def _spectrum_for(W0):
    """The sorted-spectrum function for a run, chosen once from W0.

    Skew-Hermitian W0 (every real field, quantized) keeps that property
    along the flow, so its spectrum comes from the cheaper Hermitian
    eigensolver; any other W0 takes the general one.
    """
    skew = np.linalg.norm(W0 + W0.conj().T) <= 1e-12 * np.linalg.norm(W0)
    return _sorted_eigs_skew if skew else _sorted_eigs


def step_count(t_final, h):
    """Steps of size h spanning t_final; raises unless that is a whole number."""
    ratio = t_final / h
    n = int(round(ratio)) if np.isfinite(ratio) else 0
    if not abs(ratio - n) <= 1e-9 * ratio or (t_final > 0 and n < 1):
        raise ValueError(f"t_final={t_final!r} is not a whole positive number of steps h={h!r}")
    return n


def evolve_vorticity(W0, eig, t_final, h, integrator="isomp", model="euler", keep_states=True):
    """Evolve W0 to t_final in steps of h, recording diagnostics per state.

    With keep_states false the trajectory holds only the final state, so
    memory stays flat however many steps run; times and diagnostics
    still cover every step.
    """
    if t_final < 0.0:
        raise ValueError("t_final must be >= 0")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if integrator not in ("isomp", "rk4"):
        raise ValueError("integrator must be 'isomp' or 'rk4'")
    W = np.asarray(W0, dtype=np.complex128)
    if abs(np.trace(W)) > 1e-9 * max(1.0, np.linalg.norm(W)):
        raise ValueError("initial vorticity must be trace-free")
    n = step_count(t_final, h)
    step = step_isospectral_midpoint if integrator == "isomp" else step_rk4
    states = [W.copy()]
    sorted_eigs = _spectrum_for(W)
    e0 = sorted_eigs(W)
    trace = [np.trace(W)]
    # Tr(W^2) = sum_ij W_ij W_ji, in O(N^2) rather than a matrix product
    enstrophy = [np.sum(W * W.T)]
    drift = [0.0]
    for _ in range(n):
        W = step(W, eig, h, model)  # a new array: the stored states never alias
        if keep_states:
            states.append(W)
        else:
            states[0] = W
        trace.append(np.trace(W))
        enstrophy.append(np.sum(W * W.T))
        drift.append(float(np.max(np.abs(sorted_eigs(W) - e0))))
    return VorticityTrajectory(
        times=h * np.arange(n + 1),
        states=states,
        model=model,
        integrator=integrator,
        trace=np.array(trace),
        enstrophy=np.array(enstrophy),
        eig_drift=np.array(drift),
    )


def _effective_degree(coeffs, tol=1e-12):
    nrm = np.linalg.norm(coeffs.values)
    if nrm == 0.0:
        return 0
    deg = 0
    for l in range(coeffs.lmax + 1):
        block = coeffs.values[l * l : (l + 1) * (l + 1)]
        if np.linalg.norm(block) > tol * nrm:
            deg = l
    return deg


def classical_bracket(f, g):
    """Poisson bracket {f, g} = (1/sin th)(df/dth dg/dlon - df/dlon dg/dth).

    Both fields must live on the same grid; derivatives are taken in
    coefficient space, the product pointwise on the grid.  The grid must
    resolve the inputs and the product bandwidth.
    """
    if f.nlat != g.nlat or f.nlon != g.nlon:
        raise ValueError("fields must share a grid")
    lmax = min(f.nlat - 1, (f.nlon - 1) // 2)
    cf = analyze(f, lmax)
    cg = analyze(g, lmax)
    need = _effective_degree(cf) + _effective_degree(cg)
    if f.nlat < need + 1 or f.nlon < 2 * need + 1:
        raise ValueError("grid too coarse for the bracket's product bandwidth")

    def dlon(c, grid):
        d = c.copy()
        for l in range(c.lmax + 1):
            for m in range(-l, l + 1):
                d.values[l * l + l + m] *= 1j * m
        return synthesize(d, grid.nlat, grid.nlon).values

    ft = synthesize_dtheta(cf, f).values
    gt = synthesize_dtheta(cg, g).values
    fp = dlon(cf, f)
    gp = dlon(cg, g)
    sin_th = np.sin(f.colat)[:, None]
    return f.with_values((ft * gp - fp * gt) / sin_th)


def complex_bracket(psi1, psi2):
    """{psi1, psi2}_C = {Re1,Re2} - {Im1,Im2} + i({Re1,Im2} + {Im1,Re2})."""
    r1 = psi1.with_values(psi1.values.real)
    i1 = psi1.with_values(psi1.values.imag)
    r2 = psi2.with_values(psi2.values.real)
    i2 = psi2.with_values(psi2.values.imag)
    s1 = max(np.max(np.abs(psi1.values)), 1e-300)
    s2 = max(np.max(np.abs(psi2.values)), 1e-300)

    def part(a, sa, b, sb):
        # a roundoff-level factor contributes nothing; skipping it keeps
        # the bandwidth check from reading noise as full-degree content
        if np.max(np.abs(a.values)) < 1e-13 * sa:
            return 0.0
        if np.max(np.abs(b.values)) < 1e-13 * sb:
            return 0.0
        return classical_bracket(a, b).values

    out = np.zeros(psi1.values.shape, dtype=np.complex128)
    out += part(r1, s1, r2, s2) - part(i1, s1, i2, s2)
    out += 1j * (part(r1, s1, i2, s2) + part(i1, s1, r2, s2))
    return psi1.with_values(out)
