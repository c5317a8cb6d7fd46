"""Discrete Laplacian on N x N matrices and its eigenmatrix basis.

The Laplacian is Delta M = N^2 sum_k [X_k, [X_k, M]], equivalently
-sum_k [J_k, [J_k, M]].  Its spectrum is -l(l+1) with multiplicity 2l+1
for l = 0..N-1, mirroring the spherical harmonics truncated at degree
N-1.

Because [J3, .] scales the m-th diagonal band of a matrix by m, the
Laplacian acts within bands.  The eigenmatrices T_lm are therefore
single-band matrices: T_lm for m > 0 lives on the m-th subdiagonal, and
T_l,-m = (-1)^m T_lm^dagger on the m-th superdiagonal.  The basis is
orthonormal under <A, B> = Tr(A^dagger B) and is generated from the
diagonal band by the raising ladder T_l,m+1 = [J+, T_lm]/sqrt(l(l+1) -
m(m+1)), after fixing each diagonal T_l0 to be real with a positive
last entry (the north end of the axis).  Under this phase convention
rotation acts on the (l, m) coefficients exactly as it does on degree-l
spherical harmonics, and T_00 = I/sqrt(N), T_10 = J3/||J3||.

Coefficient arrays are flat complex vectors indexed by
sh_index(l, m) = l*l + l + m, matching the indexing used for classical
spherical harmonic coefficients.

The Laplacian restricted to one band is a symmetric tridiagonal matrix
whose entries follow in closed form from the ladder amplitudes, so
solve_stream(W, model) inverts it band by band with cached LDL^T factors
in O(N^2) per call, N read from W (Modin & Viviani, JFM 884, 2020;
Cifani, Viviani & Modin, JCP 473, 2023).  It takes no eigenbasis: that
is needed only to move between matrices and harmonic coefficients
(quantize/dequantize).

build_eigenbasis costs O(N^3): its eigenvalues l(l+1) are known exactly,
so every band is solved by a twisted factorization of the same
closed-form tridiagonal, O(N) per eigenvector.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_basis import SpinBasis, ladder_amplitudes, ladder_amplitudes_squared


def sh_index(l, m):
    """Flat index of the (l, m) coefficient; degree l occupies l*l .. l*l+2l."""
    return l * l + l + m


def sh_lm(lmax):
    """Integer arrays l, m of every flat index 0..(lmax+1)^2-1: sh_index inverted."""
    l = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
    return l, np.arange(l.size) - sh_index(l, 0)


def m_pairs(values, lmax):
    """Per m = 0..lmax, the (lmax + 1 - m, 2) complex array whose row l - m is
    [a_lm, (-1)^m a_l,-m] ([a_l0, 0] at m = 0).  Every transform works in
    this split: T_lm and T_l,-m share band m as Y_lm and Y_l,-m share order m."""
    pairs = []
    for m in range(lmax + 1):
        at = sh_index(np.arange(m, lmax + 1), 0)
        pair = np.zeros((at.shape[0], 2), dtype=np.complex128)
        pair[:, 0] = values[at + m]
        if m:
            pair[:, 1] = -values[at - m] if m % 2 else values[at - m]
        pairs.append(pair)
    return pairs


def flat_from_pairs(pairs, lmax):
    """Inverse of m_pairs as a flat complex vector; an m = 0 second column is ignored."""
    out = np.zeros((lmax + 1) ** 2, dtype=np.complex128)
    for m, pair in enumerate(pairs):
        at = sh_index(np.arange(m, lmax + 1), 0)
        out[at + m] = pair[:, 0]
        if m:
            out[at - m] = -pair[:, 1] if m % 2 else pair[:, 1]
    return out


def apply_laplacian(M, spin=None):
    """Delta M = -sum_k [J_k, [J_k, M]], computed densely."""
    M = np.asarray(M)
    sb = spin if spin is not None else SpinBasis(M.shape[0])
    acc = np.zeros_like(M, dtype=np.complex128)
    for Jk in sb.j:
        inner = Jk @ M - M @ Jk
        acc += Jk @ inner - inner @ Jk
    return -acc


@dataclass(frozen=True)
class LaplacianEigenbasis:
    """Orthonormal eigenmatrices of the Laplacian for one matrix size.

    bands[m] is a real (N-m) x (N-m) matrix whose column l-m holds the
    values of T_lm along the m-th subdiagonal, for l = m..N-1.
    """

    N: int
    bands: tuple

    def band_vector(self, l, m):
        m = abs(m)
        if not (0 <= m <= l < self.N):
            raise ValueError("need 0 <= |m| <= l < N")
        return self.bands[m][:, l - m]

    def matrix(self, l, m):
        """Dense T_lm as a complex array."""
        v = self.band_vector(l, m)
        if m >= 0:
            return np.diag(v.astype(np.complex128), -m)
        return (-1.0) ** (-m) * np.diag(v.astype(np.complex128), -m)

    def decompose(self, M):
        """Coefficients c_lm = Tr(T_lm^dagger M) as a flat complex vector."""
        M = np.asarray(M)
        if M.shape != (self.N, self.N):
            raise ValueError("matrix size does not match the basis")
        pairs = []
        for m, Vm in enumerate(self.bands):
            # one real product per band: the real band never becomes complex
            lo = np.diagonal(M, -m)
            cols = [lo.real, lo.imag]
            if m:
                up = np.diagonal(M, m)
                cols += [up.real, up.imag]
            pairs.append((Vm.T @ np.stack(cols, axis=1)).view(np.complex128))
        return flat_from_pairs(pairs, self.N - 1)

    def compose(self, coeffs):
        """Dense matrix sum_lm c_lm T_lm from a flat coefficient vector."""
        N = self.N
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (N * N,):
            raise ValueError("coefficient vector has wrong length")
        M = np.zeros((N, N), dtype=np.complex128)
        for m, pair in enumerate(m_pairs(coeffs, N - 1)):
            i = np.arange(N - m)
            ri = pair.view(np.float64)  # columns re, im of each half-band
            # one real product per half-band: the real band never becomes
            # complex.  An all-zero half-band stays zero; skipping it leaves
            # every other entry's product bit for bit as it was
            if pair[:, 0].any():
                M[i + m, i] = (self.bands[m] @ ri[:, :2]).view(np.complex128)[:, 0]
            if pair[:, 1].any():
                M[i, i + m] = (self.bands[m] @ ri[:, 2:]).view(np.complex128)[:, 0]
        return M


def build_eigenbasis(N):
    """Construct the orthonormal eigenmatrix basis for size N, in O(N^3).

    Minus the Laplacian restricted to band m is a symmetric tridiagonal
    (_band_tridiagonal) with simple spectrum l(l+1), l = m..N-1, known
    exactly.  Every band is solved by a twisted factorization shifted by
    those eigenvalues, O(N) per eigenvector (_twisted_bands).  Each column
    of band b is signed by its own last entry, (-1)^b V[-1] > 0, so no
    band reads another while it is built.  That entry is the stretched
    Clebsch-Gordan coefficient <s, s-b; l, b | s, s>, whose Condon-Shortley
    sign is (-1)^b and which never vanishes; the twisted vector carries
    it to full relative accuracy however small it is (9e-77 for l = 255
    at N = 256).  The signs so fixed are the ones the raising ladder
    carries from band 0, so the phase convention holds across bands.
    """
    if N < 1:
        raise ValueError("matrix size must be at least 1")
    bands = []
    m = 0
    while m < N:
        n0 = N - m
        c = min(n0, max(1, _TWIST_CHUNK // (n0 * n0)))
        z = _twisted_bands(N, m, c)
        for i in range(c):
            V = z[: n0 - i, i, i:]
            s = -V[-1] if (m + i) % 2 else V[-1]  # (-1)^b V[-1] > 0 on band b
            bands.append(V * np.where(s < 0.0, -1.0, 1.0))
        m += c
    return LaplacianEigenbasis(N=N, bands=tuple(bands))


def check_eigenbasis(eig):
    """Probe a basis read from outside with one fixed vector x.

    Band 0 must satisfy its eigen relation Delta V0 x = -V0 (lambda x)
    with lambda_l = l(l+1), keep the norm of x, and have a positive last
    row; each band m >= 1 must be the raising ladder of band m - 1,
    [J+, V_(m-1)[:, 1:] x] = V_m (s x) with
    s_l = sqrt(l(l+1) - (m-1)m).  Together these pin every band of
    build_eigenbasis's basis, signs included.  Raises ValueError when a
    relative misfit exceeds 1e-12 (clean bases read <= 1.7e-15 up to
    N = 256) or is nan.
    """
    N, V = eig.N, eig.bands
    x = np.cos(np.arange(1.0, N + 1.0))
    lam = np.arange(N) * np.arange(1.0, N + 1.0)

    def check(what, residual, reference):
        res, ref = np.linalg.norm(residual), np.linalg.norm(reference)
        if not res <= 1e-12 * ref:
            raise ValueError(f"eigenbasis fails its probe: {what} misfit {res / ref:.1e}")

    with np.errstate(all="ignore"):  # a corrupt basis may hold anything
        if not np.all(V[0][-1] > 0.0):
            raise ValueError("eigenbasis fails its probe: band 0 has a last row not all positive")
        y = V[0] @ x
        check("band 0 eigen relation", apply_laplacian_band(N, 0, y) + V[0] @ (lam * x), lam * x)
        check("band 0 norm", np.linalg.norm(y) - np.linalg.norm(x), x)
        for m in range(1, N):
            sx = np.sqrt(lam[m:] - (m - 1.0) * m) * x[: N - m]
            up = band_ladder_up(N, m - 1, V[m - 1][:, 1:] @ x[: N - m])[:, 0]
            check(f"band {m} ladder relation", up - V[m] @ sx, sx)


# Bands are solved a chunk at a time: c bands of n0 columns, with c n0^2
# at most this many float64 entries (0.5 MiB) once n0 <= 256.  The working
# arrays hold three times that, so a build needs ~3 MiB beyond its bands.
_TWIST_CHUNK = 1 << 16
# An exact shift can make a pivot exactly zero.  Subtracting _PIVMIN from
# every pivot moves it to -_PIVMIN, as LAPACK's dlar1v does, so the
# recurrences stay finite; pivots above 1e-264 in size are left unchanged.
_PIVMIN = 1e-280


def _band_tridiagonal(N, b, j):
    """Diagonal and squared coupling of -Delta on band b at position j.

    Entry j of a band-b vector couples to j - 1 and j + 1 only; e2 is the
    square of the coupling of (j - 1, j), zero at j = 0, and the coupling
    itself is -sqrt(e2).  Both follow in closed form from the squared
    ladder amplitudes and are exact in floating point (multiples of 1/16
    below 2^53).  b and j broadcast.
    """
    x = np.zeros(N + 1)
    x[1:N] = ladder_amplitudes_squared(N)  # x[k + 1] = a[k]^2, zero out of range
    diag = b * b + 0.5 * (x[b + j + 1] + x[j] + x[b + j] + x[j + 1])
    return diag, x[j] * x[b + j]


def _twisted_bands(N, m0, c):
    """Unit eigenvectors of bands m0..m0+c-1 by twisted factorization.

    Returns z of shape (n0, c, n0), n0 = N - m0: z[:n0 - i, i, j] is the
    eigenvector of band m0 + i for l = m0 + j, j >= i (Dhillon & Parlett,
    SIMAX 25, 858, 2004).  Shorter bands are padded with decoupled rows
    below their end, columns j < i repeat the shift of column i, and
    neither is read.

    For a shift lam the stationary pivots D+ (top down) and progressive
    pivots D- (bottom up) factor T - lam from both ends.  The twist r
    minimizes |gamma| = |D+ + D- - (T - lam)|, and the vector with entry r
    set to 1 follows from D+ above r and from D- below it.  The
    coefficients and the shifts are exact, so the pivots carry only the
    rounding of their own recurrences; with rounded coefficients the
    vectors lose up to an order of magnitude in orthogonality at N = 256.
    """
    n0 = N - m0
    k = np.arange(n0)[:, None, None]
    b = m0 + np.arange(c)[:, None]
    l = m0 + np.arange(n0)
    lam = np.where(l >= b, l * (l + 1.0), b * (b + 1.0))
    inside = k < N - b
    diag, e2 = _band_tridiagonal(N, b, np.minimum(k, N - b - 1))
    # padding rows are decoupled, with a diagonal below every shift
    diag = np.where(inside, diag, -1.0)
    e2 = np.where(inside, e2, 0.0)
    # D[:, 0] holds the sweep down the rows and D[:, 1] the sweep up the
    # reversed rows, so one loop makes both; each starts as T - lam
    D = np.empty((n0, 2, c, n0))
    np.subtract(diag, lam, out=D[:, 0])
    np.subtract(diag[::-1], lam, out=D[:, 1])
    E = np.zeros((n0, 2, c, 1))
    E[:, 0] = e2
    E[1:, 1] = e2[:0:-1]
    D[0] -= _PIVMIN
    t = np.empty((2, c, n0))
    for i in range(1, n0):
        np.divide(E[i], D[i - 1], out=t)
        D[i] -= t
        D[i] -= _PIVMIN
    fwd, bwd = D[:, 0], D[::-1, 1]
    gamma = fwd + bwd
    gamma -= diag
    gamma += lam
    r = np.argmin(np.abs(gamma, out=gamma), axis=0)
    del gamma
    # the couplings are -g: above r, z[k] = z[k + 1] g[k + 1] / D+[k], and
    # below it z[k] = z[k - 1] g[k] / D-[k].  Both ratios overwrite their
    # pivots and are multiplied out down D[::-1], from the bottom for
    # z = D[:, 0] and from the top for lower = D[::-1, 1]
    g = np.sqrt(e2)
    up = np.zeros_like(g)
    up[:-1] = g[1:]
    z, lower = fwd, bwd
    np.divide(up, z, out=z)
    np.copyto(z, 1.0, where=k >= r)
    np.divide(g, lower, out=lower)
    np.copyto(lower, 1.0, where=k <= r)
    chains = D[::-1]
    for i in range(1, n0):
        np.multiply(chains[i - 1], chains[i], out=chains[i])
    z *= lower
    z /= np.sqrt(np.einsum("kbc,kbc->bc", z, z))
    return z


def band_ladder_up(N, m, t):
    """[J+, .] on band-m vectors (columns of t): band m -> m+1."""
    a = ladder_amplitudes(N)
    t = np.atleast_2d(t.T).T if t.ndim == 1 else t
    n = t.shape[0]
    return a[m : m + n - 1, None] * t[:-1] - a[: n - 1, None] * t[1:]


def apply_laplacian_band(N, m, t):
    """Delta restricted to band-m vectors, O(N) per vector.

    Minus the closed-form tridiagonal of _band_tridiagonal; equals
    extracting the m-th subdiagonal of apply_laplacian of the
    corresponding single-band matrix.
    """
    t = np.asarray(t, dtype=np.float64)
    squeeze = t.ndim == 1
    if squeeze:
        t = t[:, None]
    diag, e2 = _band_tridiagonal(N, m, np.arange(N - m))
    g = np.sqrt(e2[1:, None])  # minus the coupling of (j - 1, j)
    out = -diag[:, None] * t
    out[1:] += g * t[:-1]
    out[:-1] += g * t[1:]
    return out[:, 0] if squeeze else out


@lru_cache(maxsize=8)
def _skew_index(N):
    """Flat indices gathering W into T[i, m] = W[(i + m) % N, i].

    Column m holds band m (rows 0..N-m-1) followed by superdiagonal band
    N-m (the last m rows), so one tridiagonal sweep down the rows solves
    every band at once.
    """
    i = np.arange(N)[:, None]
    return ((i + np.arange(N)) % N) * N + i


@lru_cache(maxsize=8)
def _band_factors(N, shift):
    """LDL^T factors of shift*I - Delta on every column of the skewed layout.

    Band b's entry j couples to j-1 and j+1 only, with the closed-form
    coefficients of _band_tridiagonal (the matrices build_eigenbasis
    solves), and the superdiagonal band b obeys the same operator as the
    subdiagonal one.  With shift = 0, band 0 is singular (its null
    vector is the constant, the l = 0 mode), so its last entry is pinned
    to zero.  Returns (lower, dinv): lower[r] multiplies row r-1 in the
    elimination of row r, dinv holds the reciprocal pivots.
    """
    m = np.arange(N)
    lower = np.zeros((N, N))
    dinv = np.empty((N, N))
    # 32 rows at a time, so no N x N temporaries: at N = 256 they left the
    # heap fragmented enough to raise a whole EPDiff run's peak RSS
    for r0 in range(0, N, 32):
        i = np.arange(r0, min(N, r0 + 32))[:, None]
        b = np.where(i < N - m, m, N - m)  # band held by entry (i, m)
        j = np.where(i < N - m, i, i - (N - m))  # position along that band
        diag, e2 = _band_tridiagonal(N, b, j)
        diag += shift
        off = -np.sqrt(e2)  # coupling of (i - 1, i); zero where j = 0
        if shift == 0.0 and i[-1, 0] == N - 1:
            diag[-1, 0] = 1.0
            off[-1, 0] = 0.0
        for k in range(len(i)):
            if r0 + k > 0:
                lower[r0 + k] = off[k] / pivot
                diag[k] -= lower[r0 + k] * off[k]
            pivot = diag[k]
        dinv[r0 : r0 + len(i)] = 1.0 / diag
    return lower, dinv


def _band_solve(T, shift):
    """Solve (shift*I - Delta) X = T column by column, in place.

    With shift = 0 the right-hand side of band 0 must be mean-free; the
    solution then has a zero last entry and is exact up to the constant.
    """
    N = T.shape[0]
    lower, dinv = _band_factors(N, shift)
    if shift == 0.0:
        T[N - 1, 0] = 0.0
    for r in range(1, N):
        T[r] -= lower[r] * T[r - 1]
    T *= dinv
    for r in range(N - 2, -1, -1):
        T[r] -= lower[r + 1] * T[r + 1]
    return T


def solve_stream(W, model="euler"):
    """Stream matrix P generating the flow for an N x N vorticity-like W.

    model "euler" solves Delta P = W; model "epdiff" additionally
    applies (1 - Delta)^{-1}, the inertia operator of the EPDiff system.
    The l = 0 mode is dropped in both cases.  Each band is solved
    directly as a tridiagonal system, O(N^2) in all.
    """
    if model not in ("euler", "epdiff"):
        raise ValueError("model must be 'euler' or 'epdiff'")
    W = np.asarray(W)
    if W.ndim != 2 or not 0 < W.shape[0] == W.shape[1]:
        raise ValueError("vorticity must be a non-empty square matrix")
    N = W.shape[0]
    idx = _skew_index(N)
    T = np.take(W.astype(np.complex128, copy=False), idx)
    T[:, 0] -= T[:, 0].mean()  # column 0 is the diagonal: drop the l = 0 mode
    if model == "epdiff":
        _band_solve(T, 1.0)
    _band_solve(T, 0.0)
    T[:, 0] -= T[:, 0].mean()
    T *= -1.0  # the factors are of -Delta
    P = np.empty((N, N), dtype=np.complex128)
    np.put(P, idx, T)
    return P


def quantized_gradient(P, spin=None):
    """(N [X_1, P], N [X_2, P], N [X_3, P]) = (-i [J_k, P])_k."""
    P = np.asarray(P)
    sb = spin if spin is not None else SpinBasis(P.shape[0])
    return tuple(-1j * (Jk @ P - P @ Jk) for Jk in sb.j)
