"""Center-based blob transport: the Lie-Poisson recursion on blob vectors.

A blob is a rank-one skew-Hermitian point mass B = i v v* with unit v,
carried as v.  Each step extracts the components a_k = Re Tr(V_k B) =
Re(i v* V_k v) of the quantized vector field of the stream matrix P and
applies the unitary exp(h sum_k a_k X_k) to v, which conjugates B: its
spectrum, trace and norms stay invariant, so entries stay within ||v||^2.

The generator split: P = P_ham + i P_grad with P_ham = (P - P*)/2 the
quantization of the real part of the generator.  V_k = N [X_k, P_ham]
reproduces the classical transport direction of the example field (the
center moves along minus the gradient of the real generator part).  The
bracketed [N[X_k, P_grad], B] is trace-orthogonal to B, so it never
feeds a_k and is not formed.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import matrix_exponential
from .laplacian import quantized_gradient


def quantized_vector_field(basis, P):
    """V_k = N [X_k, P_ham] for k = 1..3; independent of the blob."""
    P = np.asarray(P)
    if P.shape != (basis.N, basis.N):
        raise ValueError("matrix size does not match the basis")
    return quantized_gradient(0.5 * (P - P.conj().T), basis)


def blob_components(V, v):
    """a_k = Re(i v* V_k v) = Re Tr(V_k B); the imaginary residue must be negligible."""
    a = np.empty(3)
    nb = np.vdot(v, v).real  # ||B||_F for B = i v v*
    for k, Vk in enumerate(V):
        t = 1j * np.vdot(v, Vk @ v)
        if abs(t.imag) > 1e-8 * max(1e-300, np.linalg.norm(Vk) * nb):
            raise ValueError(f"component {k + 1} has non-negligible imaginary part {t.imag:g}")
        a[k] = t.real
    return a


def blob_step(basis, v, a, h):
    """exp(h sum a_k X_k) v (a unitary for real a)."""
    x1, x2, x3 = basis.x
    return matrix_exponential(h * (a[0] * x1 + a[1] * x2 + a[2] * x3)) @ v


@dataclass
class BlobTrajectory:
    """Blob vectors at steps 0..n (rows) plus the extracted component history."""

    vectors: np.ndarray
    h: float
    a_history: np.ndarray

    def blob(self, k):
        """Dense blob i v v* at step k."""
        v = self.vectors[k]
        return 1j * np.outer(v, v.conj())

    @property
    def blobs(self):
        return [self.blob(k) for k in range(len(self.vectors))]

    def centers(self, basis):
        """Unit centers of every state, as rows.

        The center of B = i v v* is c_k = Re(v* C_k v) / ||v||^2, then
        normalized: quantization.blob_center of each dense blob, found
        with one (states x N) product per coordinate matrix C_k and no
        dense blob.  Raises the same ValueError for a state without a
        usable center.
        """
        V = self.vectors
        re, im = V.real, V.imag

        def real_vdots(Y):  # Re(v* y) for each row pair
            return np.einsum("sn,sn->s", re, Y.real) + np.einsum("sn,sn->s", im, Y.imag)

        w = real_vdots(V)
        if not w.all():
            raise ValueError("degenerate blob: trace too small to normalize")
        c = np.stack([real_vdots(V @ Ck.T) for Ck in basis.coordinate_matrices()], axis=1)
        c /= w[:, None]
        n = np.linalg.norm(c, axis=1)
        if np.any(n < 1e-8):
            raise ValueError("degenerate blob: center vector vanishes")
        return c / n[:, None]


def transport_blob(basis, P, B0, n_steps=200, h=1.0):
    """Iterate component extraction and the unitary step for n_steps."""
    if n_steps < 1:
        raise ValueError("need at least one step")
    B0 = np.asarray(B0, dtype=np.complex128)
    w, U = np.linalg.eigh(-1j * B0)
    v = U[:, -1]
    if abs(w[-1] - 1.0) > 1e-10 or np.linalg.norm(B0 - 1j * np.outer(v, v.conj())) > 1e-10:
        raise ValueError("initial state is not a unit blob i v v*")
    V = quantized_vector_field(basis, P)
    vectors = [v]
    a_hist = []
    for _ in range(n_steps):
        a = blob_components(V, v)
        a_hist.append(a)
        v = blob_step(basis, v, a, h)
        vectors.append(v)
    return BlobTrajectory(vectors=np.array(vectors), h=h, a_history=np.array(a_hist))
