"""Spin-s angular momentum matrices and the scaled generators built on them.

Conventions, fixed once here and relied on everywhere else:

* basis states are ordered by ascending J3 eigenvalue, so index 0 carries
  m = -s and index N-1 carries m = +s (the north end of the axis);
* J+ therefore sits on the first subdiagonal and J- on the first
  superdiagonal;
* the antihermitian generators are X_k = -(i/N) J_k, which satisfy
  [X1, X2] = (1/N) X3 and cyclic permutations, and
  N^2 (X1^2 + X2^2 + X3^2) = -((N^2 - 1)/4) I;
* rotation_operator(axis, angle) conjugates a matrix through the rotation
  by +angle about axis, in the right-hand sense.
"""

from dataclasses import dataclass, field

import numpy as np

from ._expm import expm


def ladder_amplitudes(N):
    """a_i = sqrt(s(s+1) - m_i (m_i + 1)) for m_i = -s + i, i = 0..N-2."""
    return np.sqrt(ladder_amplitudes_squared(N))


def ladder_amplitudes_squared(N):
    """a_i^2 = s(s+1) - m_i (m_i + 1), exact in floating point (multiples of 1/4)."""
    s = (N - 1) / 2.0
    m = -s + np.arange(N - 1)
    return s * (s + 1) - m * (m + 1)


@dataclass(frozen=True)
class SpinBasis:
    """The spin matrices for one matrix size N (spin s = (N-1)/2)."""

    N: int
    s: float = field(init=False)
    j1: np.ndarray = field(init=False)
    j2: np.ndarray = field(init=False)
    j3: np.ndarray = field(init=False)
    jp: np.ndarray = field(init=False)
    jm: np.ndarray = field(init=False)

    def __post_init__(self):
        N = self.N
        if N < 1:
            raise ValueError("matrix size must be at least 1")
        s = (N - 1) / 2.0
        a = ladder_amplitudes(N)
        jp = np.diag(a, -1).astype(np.complex128)
        jm = jp.conj().T
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "jp", jp)
        object.__setattr__(self, "jm", jm)
        object.__setattr__(self, "j1", (jp + jm) / 2.0)
        object.__setattr__(self, "j2", (jp - jm) / 2.0j)
        object.__setattr__(self, "j3", np.diag((-s + np.arange(N)).astype(np.complex128)))

    @property
    def j(self):
        return (self.j1, self.j2, self.j3)

    @property
    def x(self):
        """X_k = -(i/N) J_k, the antihermitian su(2) generators."""
        c = -1j / self.N
        return (c * self.j1, c * self.j2, c * self.j3)

    def axis_j(self, axis):
        """axis . J for a 3-vector axis (not necessarily normalized)."""
        ax = np.asarray(axis, dtype=np.float64)
        return ax[0] * self.j1 + ax[1] * self.j2 + ax[2] * self.j3

    def rotation_operator(self, axis, angle):
        """Unitary R with R M R^dagger = M rotated by +angle about axis.

        axis is normalized here; a zero axis is rejected.
        """
        ax = np.asarray(axis, dtype=np.float64)
        nrm = np.linalg.norm(ax)
        if nrm == 0.0:
            raise ValueError("rotation axis must be nonzero")
        return expm(-1j * angle / nrm * self.axis_j(ax))

    def rotate(self, matrix, axis, angle):
        R = self.rotation_operator(axis, angle)
        return R @ matrix @ R.conj().T

    def coordinate_matrices(self):
        """C_k = (2/sqrt(N^2-1)) J_k; these satisfy sum_k C_k^2 = I."""
        if self.N < 2:
            raise ValueError("coordinate matrices need N >= 2")
        c = 2.0 / np.sqrt(self.N**2 - 1.0)
        return (c * self.j1, c * self.j2, c * self.j3)


def build_spin_basis(N):
    """SpinBasis for N >= 2; sizes below 2 carry no sphere geometry."""
    if N < 2:
        raise ValueError(f"matrix size must be at least 2, got {N}")
    return SpinBasis(N)


def spin_matrices(N):
    """(J1, J2, J3) for matrix size N."""
    return SpinBasis(N).j


def generator_matrices(N):
    """(X1, X2, X3) with X_k = -(i/N) J_k."""
    return SpinBasis(N).x
