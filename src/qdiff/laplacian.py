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
"""

from dataclasses import dataclass

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
        for m in range(N):
            Vm = self.bands[m]
            ls = np.arange(m, N)
            flat = ls * ls + ls
            out[flat + m] = Vm.T @ np.diagonal(M, -m)
            if m > 0:
                out[flat - m] = (-1.0) ** m * (Vm.T @ np.diagonal(M, m))
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
            M[i + m, i] = Vm @ coeffs[flat + m]
            if m > 0:
                M[i, i + m] = (-1.0) ** m * (Vm @ coeffs[flat - m])
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


def solve_stream(W, eig, model="euler"):
    """Stream matrix generating the flow for a vorticity-like matrix W.

    model "euler" inverts the Laplacian; model "epdiff" additionally
    applies (1 - Delta)^{-1}, the inertia operator of the EPDiff system.
    The l = 0 mode is dropped in both cases.
    """
    if model not in ("euler", "epdiff"):
        raise ValueError("model must be 'euler' or 'epdiff'")
    c = eig.decompose(W)
    l = np.arange(1, eig.N)
    lam = l * (l + 1.0)
    per_degree = -1.0 / lam if model == "euler" else -1.0 / (lam * (1.0 + lam))
    c *= np.repeat(np.concatenate(([0.0], per_degree)), 2 * np.arange(eig.N) + 1)
    return eig.compose(c)


def quantized_gradient(P, spin=None):
    """(N [X_1, P], N [X_2, P], N [X_3, P]) = (-i [J_k, P])_k."""
    P = np.asarray(P)
    sb = spin if spin is not None else SpinBasis(P.shape[0])
    return tuple(-1j * (Jk @ P - P @ Jk) for Jk in sb.j)
