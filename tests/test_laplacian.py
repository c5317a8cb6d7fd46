"""Quantized Laplacian, its eigen-matrix basis, and the elliptic solvers."""

import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qdiff
from qdiff import (
    SpinBasis,
    apply_laplacian,
    apply_laplacian_band,
    build_eigenbasis,
    quantized_gradient,
    random_coefficients,
    sh_index,
    solve_stream,
)
from qdiff.laplacian import (
    LaplacianEigenbasis,
    _band_tridiagonal,
    band_ladder_up,
    check_eigenbasis,
    flat_from_pairs,
    m_pairs,
    sh_lm,
)
from conftest import eigenbasis


def test_sh_index_layout():
    assert sh_index(0, 0) == 0
    assert sh_index(1, -1) == 1
    assert sh_index(1, 0) == 2
    assert sh_index(1, 1) == 3
    assert sh_index(2, -2) == 4
    # l-major, m ascending inside each degree
    assert sh_index(3, 3) + 1 == sh_index(4, -4)


@pytest.mark.parametrize("lmax", [0, 1, 5])
def test_sh_lm_inverts_sh_index(lmax):
    l, m = sh_lm(lmax)
    pairs = [(d, k) for d in range(lmax + 1) for k in range(-d, d + 1)]
    assert list(zip(l.tolist(), m.tolist())) == pairs
    assert np.array_equal(sh_index(l, m), np.arange((lmax + 1) ** 2))


@pytest.mark.parametrize("lmax", [0, 1, 5, 40])
@pytest.mark.parametrize("real", [True, False])
def test_flat_from_pairs_inverts_m_pairs(lmax, real, rng):
    v = random_coefficients(lmax, rng, real=real).values
    pairs = m_pairs(v, lmax)
    assert [p.shape for p in pairs] == [(lmax + 1 - m, 2) for m in range(lmax + 1)]
    # row l - m of pairs[m] is [a_lm, (-1)^m a_l,-m]
    l, m = sh_lm(lmax)
    got = np.array([pairs[abs(k)][j - abs(k), int(k < 0)] for j, k in zip(l, m)])
    assert np.array_equal(got, np.where(m < 0, (-1.0) ** m, 1.0) * v)
    assert not pairs[0][:, 1].any()
    assert flat_from_pairs(pairs, lmax).tobytes() == v.tobytes()


def test_only_sh_index_forms_a_flat_index():
    # the (l, m) layout has one owner: sh_index, and sh_lm, m_pairs and
    # flat_from_pairs built on it; no module spells out l*l + l or an
    # l*l:(l+1)**2 degree slice by hand
    pattern = re.compile(r"\b(\w+) \* \1 \+ \1\b|\[\s*(\w+) \* \2\s*:")
    hits = [f"{path.name}: {line.strip()}"
            for path in sorted(Path(qdiff.__file__).parent.glob("*.py"))
            for line in path.read_text().splitlines() if pattern.search(line)]
    assert hits == ["laplacian.py: return l * l + l + m"]


def test_spectrum_small_superoperator():
    # independent check: the dense commutator superoperator
    # K(J) = kron(J, I) - kron(I, J^T) satisfies
    # vec(apply_laplacian(M)) = -sum_k K(J_k)^2 vec(M)
    N = 8
    b = SpinBasis(N)
    I = np.eye(N)
    S = np.zeros((N * N, N * N), dtype=np.complex128)
    for Jk in b.j:
        K = np.kron(Jk, I) - np.kron(I, Jk.T)
        S -= K @ K
    vals = np.sort(np.linalg.eigvalsh(S))
    expect = np.sort(np.concatenate([[-l * (l + 1.0)] * (2 * l + 1) for l in range(N)]))
    assert np.max(np.abs(vals - expect)) < 1e-10


@pytest.mark.parametrize("N", [2, 5, 16, 17, 33, 64, 256])
def test_band_orthonormality(N):
    eig = eigenbasis(N)
    for m in range(N):
        V = eig.bands[m]
        assert np.max(np.abs(V.T @ V - np.eye(N - m))) <= 1e-13, m


@pytest.mark.parametrize("N", [2, 5, 16, 33, 64])
def test_eigen_residual_all_bands(N):
    eig = eigenbasis(N)
    for m in range(N):
        V = eig.bands[m]
        ls = np.arange(m, N)
        res = apply_laplacian_band(N, m, V) + V * (ls * (ls + 1.0))
        assert np.max(np.abs(res)) < 1e-10


def _dense_band(N, m):
    """-Delta on band m as a dense matrix, formed from the ladder."""
    n = N - m
    Um = band_ladder_up(N, m, np.eye(n))
    if m == 0:
        return Um.T @ Um
    Up = band_ladder_up(N, m - 1, np.eye(n + 1))
    return m * m * np.eye(n) + 0.5 * (Um.T @ Um + Up @ Up.T)


def _band0_recurrence(N):
    """Exact u[l][k] for every band-0 column l: u_(k+1) = (d_k - lam) u_k - e2_k u_(k-1),
    u_0 = 1, lam = l(l+1), with _band_tridiagonal's coefficients as Fractions.

    The eigenvector is v_k = u_k / (g_1...g_k) with every coupling g > 0,
    so sign(v_k) = sign(u_k) and v_k^2 = u_k^2 / (e2_1...e2_k), exactly.
    """
    diag, e2 = _band_tridiagonal(N, 0, np.arange(N))
    d, e = [Fraction(x) for x in diag], [Fraction(x) for x in e2]
    cols = []
    for l in range(N):
        lam, u = l * (l + 1), [Fraction(1)]
        for k in range(N):
            u.append((d[k] - lam) * u[k] - (e[k] * u[k - 1] if k else 0))
        assert u.pop() == 0  # l(l+1) is an exact eigenvalue
        cols.append(u)
    return cols, e


def _band0_oracle(N):
    """Band 0 from the exact recurrence, normalized, each last entry positive."""
    cols, e2 = _band0_recurrence(N)
    V = np.empty((N, N))
    for l, u in enumerate(cols):
        w, scale = [], Fraction(1)
        for k, uk in enumerate(u):
            scale *= e2[k] if k else 1
            w.append(uk * uk / scale)
        total = sum(w)
        north = 1 if u[-1] > 0 else -1
        V[:, l] = [north * (1 if uk > 0 else -1) * np.sqrt(float(wk / total)) for uk, wk in zip(u, w)]
    return V


@pytest.mark.parametrize("N", [*range(2, 21), *range(59, 71)])
def test_band0_matches_exact_oracle(N):
    # from N = 59 on, the last entry of some T_l0 is too small for a dense
    # eigensolver to carry its sign; the twisted vector carries it exactly
    V = build_eigenbasis(N).bands[0]
    assert np.all(V[-1] > 0.0)
    assert np.max(np.abs(V - _band0_oracle(N))) <= 1e-13


def test_every_band_signed_by_its_last_entry():
    # the last entry of band b is the stretched Clebsch-Gordan coefficient
    # <s, s-b; l, b | s, s>: Condon-Shortley sign (-1)^b, never zero
    for N in [*range(2, 65), 256]:
        for m, V in enumerate(eigenbasis(N).bands):
            assert np.all((-1.0) ** m * V[-1] > 0.0), (N, m)


def _eigh_eigenbasis(N):
    """Reference: every band diagonalized densely by eigh; band 0 signed as
    the exact recurrence signs its largest entry, band m by the ladder."""
    cols = _band0_recurrence(N)[0]
    bands = []
    for m in range(N):
        vals, V = np.linalg.eigh(_dense_band(N, m))
        V = V[:, np.argsort(vals)]
        if m == 0:
            k = np.argmax(np.abs(V), axis=0)
            exact = [(u[kl] > 0) == (u[-1] > 0) for u, kl in zip(cols, k)]
            sgn = np.where((V[k, np.arange(N)] > 0.0) == exact, 1.0, -1.0)
        else:
            W = band_ladder_up(N, m - 1, bands[m - 1][:, 1:])
            sgn = np.where(np.sum(V * W, axis=0) < 0.0, -1.0, 1.0)
        bands.append(V * sgn)
    return bands


@pytest.mark.parametrize("N", [1, 2, 17, 64])
def test_band_tridiagonal_is_exact_closed_form(N):
    # 8 diag and 16 e2 are integers: compare with integer arithmetic
    def x4(k):  # 4 a_k^2, a_k the ladder amplitude
        return (N - 1) * (N + 1) - (2 * k - N + 1) * (2 * k - N + 3) if 0 <= k < N - 1 else 0

    for m in range(N):
        j = np.arange(N - m)
        diag, e2 = _band_tridiagonal(N, m, j)
        want_diag = [8 * m * m + x4(m + i) + x4(i - 1) + x4(m + i - 1) + x4(i) for i in range(N - m)]
        want_e2 = [x4(i - 1) * x4(m + i - 1) for i in range(N - m)]
        assert np.array_equal(8 * diag, want_diag)
        assert np.array_equal(16 * e2, want_e2)
        T = _dense_band(N, m)
        assert np.allclose(np.diag(T), diag, rtol=1e-14, atol=0)
        assert np.allclose(np.diag(T, -1), -np.sqrt(e2[1:]), rtol=1e-14, atol=0)


@pytest.mark.parametrize("N", [2, 17, 64, 256])
def test_band_residual_against_closed_form(N):
    eig = eigenbasis(N)
    for m in range(N):
        V = eig.bands[m]
        lam = np.arange(m, N) * (np.arange(m, N) + 1.0)
        diag, e2 = _band_tridiagonal(N, m, np.arange(N - m))
        off = -np.sqrt(e2[1:, None])
        TV = diag[:, None] * V
        TV[1:] += off * V[:-1]
        TV[:-1] += off * V[1:]
        assert np.linalg.norm(TV - V * lam) <= 1e-13 * np.linalg.norm(lam), m


@pytest.mark.parametrize("N", [1, 2, 3, 17, 64, 128])
def test_eigenbasis_matches_dense_eigh(N):
    # every twisted band agrees with eigh's to roundoff, signs included
    got, ref = eigenbasis(N).bands, _eigh_eigenbasis(N)
    for m in range(N):
        assert np.max(np.abs(got[m] - ref[m])) <= 1e-13, m


def test_eigenbasis_finite_through_zero_pivots():
    # exact shifts hit exactly zero pivots for almost every N >= 3 here
    for N in range(1, 41):
        bands = build_eigenbasis(N).bands
        assert all(np.isfinite(V).all() for V in bands), N
        assert abs(bands[N - 1][0, 0]) == 1.0


@pytest.mark.parametrize("N", [1, 2, 7, 70])
def test_built_eigenbasis_passes_its_probe(N):
    # at N = 70 band 0's last row falls to 6.3e-19 at l = 67, where a dense
    # eigh returned an exact zero, and to 6.5e-21 at l = 69: all positive
    check_eigenbasis(build_eigenbasis(N))


def test_probe_refuses_nonfinite_band():
    # tests/test_cli.py runs the probe on corrupted but finite caches
    bands = [band.copy() for band in eigenbasis(16).bands]
    bands[9][0, 0] = np.nan
    with pytest.raises(ValueError, match="band 9 ladder relation misfit nan"):
        check_eigenbasis(LaplacianEigenbasis(N=16, bands=tuple(bands)))


def test_eigenbasis_build_memory():
    build_eigenbasis(8)
    tracemalloc.start()
    try:
        eig = build_eigenbasis(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sum(V.nbytes for V in eig.bands) + 4 * 2**20


def test_band_apply_matches_dense(rng):
    N = 9
    for m in range(N):
        t = rng.standard_normal(N - m)
        M = np.diag(t.astype(np.complex128), -m)
        dense = apply_laplacian(M)
        band = apply_laplacian_band(N, m, t)
        assert np.allclose(np.diagonal(dense, -m), band, atol=1e-12)
        # the Laplacian never leaks into other bands
        M2 = dense - np.diag(np.diagonal(dense, -m), -m)
        assert np.linalg.norm(M2) < 1e-12


def test_matrix_eigenproperty_dense(eig16):
    for l, m in [(0, 0), (1, 0), (1, 1), (2, -1), (7, 4), (15, -15), (15, 0)]:
        T = eig16.matrix(l, m)
        assert np.linalg.norm(apply_laplacian(T) + l * (l + 1.0) * T) < 1e-11


def test_canonical_low_matrices(eig8):
    b = SpinBasis(8)
    assert np.allclose(eig8.matrix(0, 0), np.eye(8) / np.sqrt(8))
    assert np.allclose(eig8.matrix(1, 0), b.j3 / np.linalg.norm(b.j3))
    assert np.allclose(eig8.matrix(1, 1), -b.jp / np.linalg.norm(b.jp))


def test_conjugation_symmetry(eig16):
    for l in range(16):
        for m in range(l + 1):
            lhs = eig16.matrix(l, -m)
            rhs = (-1.0) ** m * eig16.matrix(l, m).conj().T
            assert np.max(np.abs(lhs - rhs)) == 0.0


def test_frobenius_orthonormality(eig8):
    # cross-degree and cross-band inner products all vanish
    picks = [(0, 0), (1, 0), (1, -1), (2, 2), (3, 1), (5, -4), (7, 0)]
    mats = {p: eig8.matrix(*p) for p in picks}
    for i, p in enumerate(picks):
        for q in picks[i:]:
            ip = np.trace(mats[p].conj().T @ mats[q])
            want = 1.0 if p == q else 0.0
            assert abs(ip - want) < 1e-12


def test_decompose_compose_roundtrip(eig16, rng):
    M = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    c = eig16.decompose(M)
    assert c.shape == (256,)
    assert np.max(np.abs(eig16.compose(c) - M)) < 1e-12


def test_decompose_picks_out_basis_vectors(eig8):
    for l, m in [(0, 0), (2, 1), (3, -3), (7, 5)]:
        c = eig8.decompose(eig8.matrix(l, m))
        e = np.zeros(64)
        e[sh_index(l, m)] = 1.0
        assert np.max(np.abs(c - e)) < 1e-12


def _decompose_complex(eig, M):
    """decompose in complex arithmetic, each band promoted to complex."""
    N = eig.N
    out = np.empty(N * N, dtype=np.complex128)
    for m in range(N):
        Vm = eig.bands[m].astype(np.complex128)
        ls = np.arange(m, N)
        out[ls * ls + ls + m] = Vm.T @ np.diagonal(M, -m)
        out[ls * ls + ls - m] = (-1.0) ** m * (Vm.T @ np.diagonal(M, m))
    return out


def _compose_every_band(eig, coeffs):
    """compose with a real product for every half-band, zero or not."""
    N = eig.N
    M = np.zeros((N, N), dtype=np.complex128)

    def product(Vm, c):
        return (Vm @ np.stack([c.real, c.imag], axis=1)).view(np.complex128)[:, 0]

    for m in range(N):
        Vm = eig.bands[m]
        ls = np.arange(m, N)
        i = np.arange(N - m)
        M[i + m, i] = product(Vm, coeffs[ls * ls + ls + m])
        if m > 0:
            M[i, i + m] = product(Vm, (-1.0) ** m * coeffs[ls * ls + ls - m])
    return M


def _compose_complex(eig, coeffs):
    """compose in complex arithmetic, each band promoted to complex."""
    N = eig.N
    M = np.zeros((N, N), dtype=np.complex128)
    for m in range(N):
        Vm = eig.bands[m].astype(np.complex128)
        ls = np.arange(m, N)
        i = np.arange(N - m)
        M[i + m, i] = Vm @ coeffs[ls * ls + ls + m]
        M[i, i + m] = (-1.0) ** m * (Vm @ coeffs[ls * ls + ls - m])
    return M


def _decompose_scattered(eig, M):
    """decompose with its flat indices and (-1)^m written out: one real
    product per band scattered into the (re, im) rows of the result."""
    N = eig.N
    out = np.empty(N * N, dtype=np.complex128)
    out_ri = out.view(np.float64).reshape(N * N, 2)
    for m in range(N):
        ls = np.arange(m, N)
        flat = ls * ls + ls
        lo, up = np.diagonal(M, -m), np.diagonal(M, m)
        if m == 0:
            out_ri[flat] = eig.bands[0].T @ np.stack([lo.real, lo.imag], axis=1)
            continue
        r = eig.bands[m].T @ np.stack([lo.real, lo.imag, up.real, up.imag], axis=1)
        out_ri[flat + m] = r[:, :2]
        out_ri[flat - m] = (-1.0) ** m * r[:, 2:]
    return out


@pytest.mark.parametrize("N", [1, 2, 17, 64, 128])
def test_decompose_matches_scattered_form_bit_for_bit(N, rng):
    eig = eigenbasis(N)
    A = rng.standard_normal((N, N))
    for M in (A + 1j * rng.standard_normal((N, N)), A - A.T, np.diag(np.diag(A))):
        assert eig.decompose(M).tobytes() == _decompose_scattered(eig, M).tobytes()


@pytest.mark.parametrize("N", [1, 2, 17, 64])
def test_decompose_matches_complex_arithmetic(N, rng):
    eig = eigenbasis(N)
    M = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    want = _decompose_complex(eig, M)
    assert np.linalg.norm(eig.decompose(M) - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [1, 2, 17, 64])
def test_compose_matches_complex_arithmetic(N, rng):
    eig = eigenbasis(N)
    c = rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N)
    want = _compose_complex(eig, c)
    assert np.linalg.norm(eig.compose(c) - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("lmax", [0, 3, 12, 63])
@pytest.mark.parametrize("real", [True, False])
def test_compose_skipping_empty_bands_is_exact(lmax, real, eig64, rng):
    # lmax 63 fills every band; below it the bands |m| > lmax are empty;
    # keeping odd m empties band 0, keeping m <= 0 every lower half-band
    flat = np.zeros(64 * 64, dtype=np.complex128)
    flat[: (lmax + 1) ** 2] = random_coefficients(lmax, rng, real=real).values
    k = np.arange(flat.size)
    l = np.floor(np.sqrt(k)).astype(int)
    m = k - l * l - l
    for c in (flat, np.where(m % 2 == 1, flat, 0.0), np.where(m <= 0, flat, 0.0)):
        assert np.array_equal(eig64.compose(c), _compose_every_band(eig64, c))


def test_rotation_equivariance_of_eigenspaces(eig16, rng):
    # each degree-l subspace is invariant under conjugation by rotations
    b = SpinBasis(16)
    axis = rng.standard_normal(3)
    T = eig16.matrix(3, 1)
    R = b.rotate(T, axis, 0.8)
    c = eig16.decompose(R)
    mask = np.ones(256, dtype=bool)
    mask[sh_index(3, -3) : sh_index(3, 3) + 1] = False
    assert np.max(np.abs(c[mask])) < 1e-12
    assert abs(np.linalg.norm(c) - 1.0) < 1e-12


def test_integration_by_parts(eig8, rng):
    # Tr((Delta F) G) = -N^2 sum_k Tr([X_k, F][X_k, G])
    N = 8
    b = SpinBasis(N)
    F = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    G = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    lhs = np.trace(apply_laplacian(F) @ G)
    rhs = 0.0
    for x in b.x:
        rhs -= np.trace((x @ F - F @ x) @ (x @ G - G @ x))
    rhs *= N * N
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_laplacian_of_commutator_with_j3(eig8):
    # Delta commutes with the rotation action: Delta [J3, T] = [J3, Delta T]
    T = eig8.matrix(4, 2)
    b = SpinBasis(8)
    lhs = apply_laplacian(b.j3 @ T - T @ b.j3)
    rhs = -4 * 5.0 * (b.j3 @ T - T @ b.j3)
    assert np.linalg.norm(lhs - rhs) < 1e-11


def test_solve_stream_inverts_laplacian(eig16, rng):
    c = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    c[0] = 0.0  # no mean
    W = eig16.compose(c)
    P = solve_stream(W)
    assert np.linalg.norm(apply_laplacian(P) - W) < 1e-9
    assert abs(np.trace(P)) < 1e-10


def test_solve_stream_drops_mean():
    W = np.eye(8, dtype=np.complex128)
    assert np.linalg.norm(solve_stream(W)) < 1e-13


def test_solve_stream_models(eig8):
    T = eig8.matrix(1, 0)
    euler = solve_stream(T, model="euler")
    ep = solve_stream(T, model="epdiff")
    assert abs(np.trace(euler.conj().T @ T).real + 0.5) < 1e-12
    assert abs(np.trace(ep.conj().T @ T).real + 1.0 / 6.0) < 1e-12
    with pytest.raises(ValueError):
        solve_stream(T, model="navier")


def test_epdiff_factor_general_degree(eig16):
    # degree l: euler -1/(l(l+1)), extra helmholtz factor 1/(1 + l(l+1))
    for l in (2, 5):
        T = eig16.matrix(l, 1)
        got = np.trace(solve_stream(T, model="epdiff").conj().T @ T).real
        lam = l * (l + 1.0)
        assert abs(got + 1.0 / (lam * (1.0 + lam))) < 1e-12


def test_solve_stream_matches_per_degree_loop(rng):
    # reference: the per-degree factor applied in the eigenbasis; the band
    # solve reaches the same stream matrix by different arithmetic
    for N in (1, 2, 3, 16, 64):
        eig = eigenbasis(N)
        W = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        c = eig.decompose(W)
        for model in ("euler", "epdiff"):
            scale = np.zeros(N * N)
            for l in range(1, N):
                lam = l * (l + 1.0)
                scale[l * l : (l + 1) ** 2] = -1.0 / lam if model == "euler" else -1.0 / (lam * (1.0 + lam))
            ref = eig.compose(c * scale)
            err = np.linalg.norm(solve_stream(W, model) - ref)
            assert err <= 1e-12 * np.linalg.norm(ref), (N, model)


@pytest.mark.parametrize("N", [128, 256])
def test_solve_stream_residual_large(N, rng):
    W = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    spin = SpinBasis(N)
    scale = np.linalg.norm(W)
    target = W - np.trace(W) / N * np.eye(N)
    P = solve_stream(W)
    assert np.linalg.norm(apply_laplacian(P, spin) - target) <= 1e-12 * scale
    assert abs(np.trace(P)) <= 1e-12 * scale
    # EPDiff: (1 - Delta) Delta Q = W on the mean-free part.  Evaluating
    # the residual scales the rounding of Q by ||(1 - Delta) Delta|| ~ N^4,
    # so it is bounded relative to that norm (a backward error; on random
    # W the eigenbasis path gives 2e-16 to 4e-16, the band solve 2e-17)
    Q = solve_stream(W, "epdiff")
    LQ = apply_laplacian(Q, spin)
    lam = (N - 1.0) * N
    res = np.linalg.norm(LQ - apply_laplacian(LQ, spin) - target)
    assert res <= 1e-14 * lam * (1.0 + lam) * np.linalg.norm(Q)
    assert abs(np.trace(Q)) <= 1e-12 * scale
    # one Laplacian away from the Euler stream: (1 - Delta) Q = P
    assert np.linalg.norm(Q - LQ - P) <= 1e-12 * scale


def test_solve_stream_keeps_skew_hermitian(rng):
    A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    W = A - A.conj().T
    for model in ("euler", "epdiff"):
        P = solve_stream(W, model)
        assert np.linalg.norm(P + P.conj().T) <= 1e-14 * np.linalg.norm(P)


@pytest.mark.parametrize("shape", [(8, 9), (8,), (2, 8, 8), (0, 0)], ids=["8x9", "vector", "stack", "empty"])
def test_solve_stream_rejects_non_square(shape):
    with pytest.raises(ValueError):
        solve_stream(np.zeros(shape))


def test_quantized_gradient_of_x3_generator():
    # P = X3 has quantized gradient (-X2, X1, 0)
    N = 10
    b = SpinBasis(N)
    x1, x2, x3 = b.x
    g1, g2, g3 = quantized_gradient(x3)
    assert np.linalg.norm(g1 + x2) < 1e-13
    assert np.linalg.norm(g2 - x1) < 1e-13
    assert np.linalg.norm(g3) < 1e-13
