"""Center-based blob transport: component extraction and conjugation steps.

The long-run oracle: for the built-in generator the center height obeys
dz/dt = (s/N)(1 - z^2), so the discrete path must track tanh((s/N) t).
"""

import numpy as np
import pytest

from qdiff import (
    BlobTrajectory,
    SpinBasis,
    blob_at,
    blob_center,
    blob_components,
    blob_step,
    example_generator,
    matrix_exponential,
    quantize_generator,
    quantized_vector_field,
    transport_blob,
)
from conftest import eigenbasis

_CACHE = {}


def unit_vector(B):
    """Unit v with B = i v v*, up to phase."""
    return np.linalg.eigh(-1j * B)[1][:, -1]


def example_run(N=32, n_steps=60, h=0.05):
    key = (N, n_steps, h)
    if key not in _CACHE:
        basis = SpinBasis(N)
        P = quantize_generator(example_generator(), eigenbasis(N))
        B0 = blob_at(basis, (-1.0, 0.0, 0.0))
        _CACHE[key] = (basis, transport_blob(basis, P, B0, n_steps=n_steps, h=h))
    return _CACHE[key]


def test_initial_components_are_tangent_rotation():
    basis, tr = example_run()
    # at (-1, 0, 0) the extracted generator is s times the y axis
    assert np.allclose(tr.a_history[0], [0.0, basis.s, 0.0], atol=1e-11)


def test_vertical_component_stays_zero():
    _, tr = example_run()
    assert np.max(np.abs(tr.a_history[:, 2])) < 1e-11


def test_center_climbs_north_like_tanh():
    basis, tr = example_run()
    z = tr.centers(basis)[:, 2]
    assert abs(z[0]) < 1e-12
    assert np.all(np.diff(z) > 0.0)
    assert z[-1] > 0.85
    t = tr.h * np.arange(z.size)
    assert np.max(np.abs(z - np.tanh(basis.s / basis.N * t))) < 0.01


def test_conjugation_invariants_along_run():
    _, tr = example_run()
    B0, BT = tr.blobs[0], tr.blobs[-1]
    e0 = np.sort(np.linalg.eigvals(B0).imag)
    eT = np.sort(np.linalg.eigvals(BT).imag)
    assert np.max(np.abs(e0 - eT)) < 1e-12
    assert abs(np.linalg.norm(BT) - np.linalg.norm(B0)) < 1e-12
    # spectral norm of a rank-one unit blob is 1 and stays there, even
    # though individual entries grow as the state localizes
    assert abs(np.linalg.norm(BT, 2) - 1.0) < 1e-10


def test_bracketed_component_is_trace_orthogonal(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = np.trace((G @ B - B @ G) @ B)
        assert abs(t) < 1e-12 * np.linalg.norm(G) * np.linalg.norm(B) ** 2


def test_hermitian_stream_moves_nothing():
    # a Hermitian P has no rotation part; its bracketed terms never feed
    # the components (see test_matches_dense_recursion_with_bracket_term)
    basis = SpinBasis(12)
    H = np.diag(np.linspace(-1.0, 1.0, 12)).astype(np.complex128)
    B = blob_at(basis, (0.3, -0.4, np.sqrt(1 - 0.25)))
    V = quantized_vector_field(basis, H)
    a = blob_components(V, unit_vector(B))
    assert np.max(np.abs(a)) < 1e-13


def test_components_reject_imaginary_residue():
    basis = SpinBasis(8)
    B = blob_at(basis, (0.0, 0.0, 1.0))
    eye = np.eye(8, dtype=np.complex128)
    # Tr(I B) = i for a unit blob: purely imaginary, must be refused
    with pytest.raises(ValueError):
        blob_components((eye, eye, eye), unit_vector(B))


def test_vector_field_checks_shapes():
    basis = SpinBasis(8)
    with pytest.raises(ValueError):
        quantized_vector_field(basis, np.eye(7))


def test_blob_step_is_unitary_conjugation(rng):
    basis = SpinBasis(10)
    B = blob_at(basis, (0.0, 1.0, 0.0))
    a = rng.standard_normal(3) * 3.0
    v1 = blob_step(basis, unit_vector(B), a, 0.7)
    B1 = 1j * np.outer(v1, v1.conj())
    assert np.linalg.norm(B1 + B1.conj().T) < 1e-13
    assert abs(np.trace(B1) - np.trace(B)) < 1e-13
    assert abs(np.linalg.norm(B1) - np.linalg.norm(B)) < 1e-13


def test_transport_rejects_zero_steps():
    basis = SpinBasis(6)
    B = blob_at(basis, (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        transport_blob(basis, np.zeros((6, 6)), B, n_steps=0)


def test_centers_shape_and_normalization():
    basis, tr = example_run()
    c = tr.centers(basis)
    assert c.shape == (len(tr.blobs), 3)
    assert np.max(np.abs(np.linalg.norm(c, axis=1) - 1.0)) < 1e-9


@pytest.mark.parametrize("N", [16, 64])
def test_centers_match_blob_center(N):
    basis = SpinBasis(N)
    P = quantize_generator(example_generator(), eigenbasis(N))
    y = np.array([0.6, -0.48, -0.64])
    tr = transport_blob(basis, P, blob_at(basis, y / np.linalg.norm(y)), n_steps=30, h=1.0)
    want = np.array([blob_center(basis, B) for B in tr.blobs])
    assert np.max(np.abs(tr.centers(basis) - want)) <= 1e-14


def test_centers_reject_vanishing_center():
    # the m = 0 state of N = 3 has <J> = 0
    basis = SpinBasis(3)
    tr = BlobTrajectory(vectors=np.eye(3, dtype=np.complex128)[[1]], h=1.0, a_history=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="center vector vanishes"):
        blob_center(basis, tr.blob(0))
    with pytest.raises(ValueError, match="center vector vanishes"):
        tr.centers(basis)


def test_small_n_consistency():
    # same northward drift at a coarser resolution
    basis, tr = example_run(N=16, n_steps=40, h=0.08)
    z = tr.centers(basis)[:, 2]
    t = tr.h * np.arange(z.size)
    assert z[-1] > 0.8
    assert np.max(np.abs(z - np.tanh(basis.s / basis.N * t))) < 0.02


def test_matches_dense_recursion_with_bracket_term():
    # the dense recursion on B itself, bracketed term included:
    # a_k = Re Tr(V_k B), B <- G B G* with G = exp(h a.X)
    N, n_steps, h = 16, 20, 0.5
    basis = SpinBasis(N)
    P = quantize_generator(example_generator(), eigenbasis(N))
    B = blob_at(basis, (0.6, 0.0, -0.8))
    tr = transport_blob(basis, P, B, n_steps=n_steps, h=h)
    p_ham = 0.5 * (P - P.conj().T)
    p_grad = -0.5j * (P + P.conj().T)
    x1, x2, x3 = basis.x
    blobs, a_hist = [B], []
    for _ in range(n_steps):
        a = np.empty(3)
        for k, Jk in enumerate(basis.j):
            grad = -1j * (Jk @ p_grad - p_grad @ Jk)
            Vk = -1j * (Jk @ p_ham - p_ham @ Jk) + (grad @ B - B @ grad)
            a[k] = np.trace(Vk @ B).real
        a_hist.append(a)
        G = matrix_exponential(h * (a[0] * x1 + a[1] * x2 + a[2] * x3))
        B = G @ B @ G.conj().T
        blobs.append(B)
    assert np.max(np.abs(tr.a_history - np.array(a_hist))) < 1e-12
    assert max(np.max(np.abs(x - y)) for x, y in zip(tr.blobs, blobs)) < 1e-12


@pytest.mark.parametrize("scale, other", [(2.0, None), (1.0, (0.0, 0.0, 1.0))])
def test_transport_rejects_non_blob(scale, other):
    basis = SpinBasis(8)
    B = scale * blob_at(basis, (0.0, 1.0, 0.0))
    if other is not None:
        B = B + blob_at(basis, other)
    with pytest.raises(ValueError):
        transport_blob(basis, np.zeros((8, 8)), B, n_steps=3)


def test_trajectory_stores_vectors():
    n_steps = 60
    basis, tr = example_run(n_steps=n_steps)
    assert tr.vectors.shape == (n_steps + 1, basis.N)
    assert np.max(np.abs(np.linalg.norm(tr.vectors, axis=1) - 1.0)) < 1e-12
    assert np.array_equal(tr.blob(-1), tr.blobs[-1])
