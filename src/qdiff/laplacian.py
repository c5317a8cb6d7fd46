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
solve_stream inverts it band by band with cached LDL^T factors in O(N^2)
per call (Modin & Viviani, JFM 884, 2020; Cifani, Viviani & Modin, JCP
473, 2023).  The eigenbasis is needed only to move between matrices and
harmonic coefficients (quantize/dequantize), not to solve.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin_basis import SpinBasis, ladder_amplitudes


def sh_index(l, m):
    """Flat index of the (l, m) coefficient; degree l occupies l*l .. l*l+2l."""
    return l * l + l + m


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

    def eigenvalue(self, l):
        return -float(l * (l + 1))

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
        N = self.N
        out = np.empty(N * N, dtype=np.complex128)
        out_ri = out.view(np.float64).reshape(N * N, 2)  # (re, im) rows of out
        for m in range(N):
            Vm = self.bands[m]
            ls = np.arange(m, N)
            flat = ls * ls + ls
            # one real product per band: the real band never becomes complex
            lo = np.diagonal(M, -m)
            if m == 0:
                out_ri[flat] = Vm.T @ np.stack([lo.real, lo.imag], axis=1)
                continue
            up = np.diagonal(M, m)
            r = Vm.T @ np.stack([lo.real, lo.imag, up.real, up.imag], axis=1)
            out_ri[flat + m] = r[:, :2]
            out_ri[flat - m] = (-1.0) ** m * r[:, 2:]
        return out

    def compose(self, coeffs):
        """Dense matrix sum_lm c_lm T_lm from a flat coefficient vector."""
        N = self.N
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (N * N,):
            raise ValueError("coefficient vector has wrong length")
        M = np.zeros((N, N), dtype=np.complex128)
        for m in range(N):
            Vm = self.bands[m]
            ls = np.arange(m, N)
            flat = ls * ls + ls
            i = np.arange(N - m)
            # an all-zero half-band stays zero; skipping it leaves every
            # other entry's product bit for bit as it was
            lower = coeffs[flat + m]
            if lower.any():
                M[i + m, i] = Vm @ lower
            upper = coeffs[flat - m]
            if m > 0 and upper.any():
                M[i, i + m] = (-1.0) ** m * (Vm @ upper)
        return M


def build_eigenbasis(N):
    """Construct the orthonormal eigenmatrix basis for size N.

    Each band is diagonalized directly (minus the Laplacian restricted to
    a band is a small symmetric matrix with simple spectrum l(l+1),
    l = m..N-1), which stays accurate at large N where a pure ladder
    recursion drifts. The raising ladder is still used to pin each
    column's sign so the phase convention propagates across bands.
    """
    if N < 1:
        raise ValueError("matrix size must be at least 1")
    bands = []
    for m in range(N):
        n = N - m
        Um = band_ladder_up(N, m, np.eye(n))
        if m == 0:
            L = Um.T @ Um
        else:
            Up = band_ladder_up(N, m - 1, np.eye(n + 1))
            L = m * m * np.eye(n) + 0.5 * (Um.T @ Um + Up @ Up.T)
        vals, V = np.linalg.eigh(L)
        V = V[:, np.argsort(vals)]
        if m == 0:
            # the band-0 tridiagonal is unreduced, so no eigenvector
            # endpoint vanishes; make the north (last) entry positive
            sgn = np.where(V[-1, :] < 0.0, -1.0, 1.0)
        else:
            W = band_ladder_up(N, m - 1, bands[m - 1][:, 1:])
            sgn = np.where(np.sum(V * W, axis=0) < 0.0, -1.0, 1.0)
        bands.append(V * sgn)
    return LaplacianEigenbasis(N=N, bands=tuple(bands))


def band_ladder_up(N, m, t):
    """[J+, .] on band-m vectors (columns of t): band m -> m+1."""
    a = ladder_amplitudes(N)
    t = np.atleast_2d(t.T).T if t.ndim == 1 else t
    n = t.shape[0]
    return a[m : m + n - 1, None] * t[:-1] - a[: n - 1, None] * t[1:]


def band_ladder_down(N, m, t):
    """[J-, .] on band-m vectors: band m -> m-1 (m >= 1)."""
    a = ladder_amplitudes(N)
    t = np.atleast_2d(t.T).T if t.ndim == 1 else t
    n = t.shape[0]
    out = np.zeros((n + 1, t.shape[1]), dtype=t.dtype)
    out[:n] += a[m - 1 : m - 1 + n, None] * t
    out[1:] -= a[:n, None] * t
    return out


def apply_laplacian_band(N, m, t):
    """Delta restricted to band-m vectors, O(N) per vector.

    Equals extracting the m-th subdiagonal of apply_laplacian of the
    corresponding single-band matrix.
    """
    t = np.asarray(t, dtype=np.float64)
    squeeze = t.ndim == 1
    if squeeze:
        t = t[:, None]
    if m == 0:
        out = -band_ladder_down(N, 1, band_ladder_up(N, 0, t))
    else:
        mixed = band_ladder_down(N, m + 1, band_ladder_up(N, m, t)) + band_ladder_up(
            N, m - 1, band_ladder_down(N, m, t)
        )
        out = -(m * m * t + 0.5 * mixed)
    return out[:, 0] if squeeze else out


def solve_poisson(W, eig):
    """P with Delta P = W on the mean-free part; the l = 0 mode is dropped."""
    return solve_stream(W, eig, "euler")


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

    Band b's entry j couples to j-1 and j+1 only; the coefficients come in
    closed form from the ladder amplitudes (the matrix build_eigenbasis
    diagonalizes), and the superdiagonal band b obeys the same operator
    as the subdiagonal one.  With shift = 0, band 0 is singular (its null
    vector is the constant, the l = 0 mode), so its last entry is pinned
    to zero.  Returns (lower, dinv): lower[r] multiplies row r-1 in the
    elimination of row r, dinv holds the reciprocal pivots.
    """
    amp = np.zeros(N + 1)
    amp[1:N] = ladder_amplitudes(N)  # amp[k + 1] = a[k], zero out of range
    i = np.arange(N)[:, None]
    m = np.arange(N)
    b = np.where(i < N - m, m, N - m)  # band held by entry (i, m)
    j = np.where(i < N - m, i, i - (N - m))  # position along that band
    diag = shift + b * b + 0.5 * (amp[b + j + 1] ** 2 + amp[j] ** 2 + amp[b + j] ** 2 + amp[j + 1] ** 2)
    off = -amp[j] * amp[b + j]  # coupling of (i - 1, i); zero where j = 0
    if shift == 0.0:
        diag[N - 1, 0] = 1.0
        off[N - 1, 0] = 0.0
    lower = np.zeros((N, N))
    for r in range(1, N):
        lower[r] = off[r] / diag[r - 1]
        diag[r] -= lower[r] * off[r]
    return lower, 1.0 / diag


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


def solve_stream(W, eig, model="euler"):
    """Stream matrix generating the flow for a vorticity-like matrix W.

    model "euler" inverts the Laplacian; model "epdiff" additionally
    applies (1 - Delta)^{-1}, the inertia operator of the EPDiff system.
    The l = 0 mode is dropped in both cases.  Each band is solved
    directly as a tridiagonal system, O(N^2) in all; the eigenbasis is
    not used.
    """
    if model not in ("euler", "epdiff"):
        raise ValueError("model must be 'euler' or 'epdiff'")
    W = np.asarray(W)
    N = eig.N
    if W.shape != (N, N):
        raise ValueError("matrix size does not match the basis")
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
