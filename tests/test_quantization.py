"""Transforms, coefficient containers, and the classical <-> matrix maps."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qdiff import (
    HarmonicCoefficients,
    SpinBasis,
    analyze,
    blob_at,
    blob_center,
    blob_north,
    bracket_scale,
    dequantize,
    evaluate,
    gauss_grid,
    harmonic,
    quantize,
    quantize_generator,
    random_coefficients,
    synthesize,
)
from qdiff.quantization import synthesize_dtheta
from conftest import eigenbasis, random_points

ALPHA = np.sqrt(4.0 * np.pi / 3.0)


# ---------------------------------------------------------------- grid


def test_gauss_grid_layout():
    g = gauss_grid(6, 7)
    assert g.colat[0] < g.colat[-1]  # north first
    assert abs(np.sum(g.weights) - 2.0) < 1e-14
    assert np.allclose(g.lon, 2 * np.pi * np.arange(7) / 7)


def test_grid_integral_of_one():
    g = gauss_grid(4, 9, values=np.ones((4, 9), dtype=np.complex128))
    assert abs(g.integral() - 4 * np.pi) < 1e-12


def test_coefficient_indexing():
    c = HarmonicCoefficients.zeros(3)
    c[2, -1] = 3.0 + 1.0j
    assert c.values[2 * 2 + 2 - 1] == 3.0 + 1.0j
    with pytest.raises(IndexError):
        c[4, 0]
    with pytest.raises(IndexError):
        c[2, 3]


@pytest.mark.parametrize("lmax", [-1, -2])
def test_coefficients_refuse_negative_lmax(lmax):
    # lmax = -2 implies (lmax + 1)^2 = 1 value, so the length check passed
    with pytest.raises(ValueError):
        HarmonicCoefficients(lmax, np.zeros((lmax + 1) ** 2))


# ----------------------------------------------------------- transforms


def test_synthesize_analyze_roundtrip(rng):
    lmax = 12
    c = random_coefficients(lmax, rng, real=False)
    f = synthesize(c, lmax + 2, 2 * lmax + 2)
    c2 = analyze(f, lmax)
    assert np.max(np.abs(c2.values - c.values)) < 1e-12


def test_synthesize_analyze_roundtrip_high_degree(rng):
    lmax = 127
    c = random_coefficients(lmax, rng, real=False)
    c2 = analyze(synthesize(c, lmax + 1, 2 * lmax + 1), lmax)
    assert np.linalg.norm(c2.values - c.values) < 1e-12 * np.linalg.norm(c.values)


def _random_coefficients_loop(lmax, rng, real):
    """random_coefficients as the per-(l, m) loop it replaced."""
    n = (lmax + 1) ** 2
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if real:
        for l in range(lmax + 1):
            values[l * l + l] = values[l * l + l].real
            for m in range(1, l + 1):
                values[l * l + l - m] = (-1.0) ** m * np.conj(values[l * l + l + m])
    return values


@pytest.mark.parametrize("lmax", [0, 1, 5, 12])
@pytest.mark.parametrize("real", [True, False])
def test_random_coefficients_match_loop_bit_for_bit(lmax, real):
    # perfbench's seeded_vorticity mirrors this draw, so it may not move
    for seed in range(3):
        c = random_coefficients(lmax, np.random.default_rng(seed), real=real)
        ref = _random_coefficients_loop(lmax, np.random.default_rng(seed), real)
        assert c.values.tobytes() == ref.tobytes()


def test_is_real_function_finds_one_broken_pair(rng):
    c = random_coefficients(4, rng, real=True)
    assert c.is_real_function()
    for l, m in ((3, -2), (3, 2), (2, 0)):
        bad = c.copy()
        bad[l, m] += 1e-6j
        assert not bad.is_real_function()


def test_real_coefficients_give_real_fields(rng):
    c = random_coefficients(9, rng, real=True)
    assert c.is_real_function()
    f = synthesize(c, 11, 20)
    assert np.max(np.abs(f.values.imag)) < 1e-13


def test_analyze_needs_enough_longitudes():
    g = gauss_grid(8, 9)
    with pytest.raises(ValueError):
        analyze(g.with_values(np.zeros((8, 9), dtype=np.complex128)), 8)


@pytest.mark.parametrize("edit", [
    {"lon": 0.5},  # analyze never read lon: the field came back rotated
    {"weights": None},  # every weight 5: the field came back scaled
    {"colat": 1e-9},
], ids=["lon+0.5", "weights=5", "colat+1e-9"])
def test_analyze_refuses_grid_that_is_not_gauss(edit, rng):
    c = random_coefficients(3, rng)
    f = synthesize(c, 4, 7)
    ((name, shift),) = edit.items()
    bad = np.full_like(f.weights, 5.0) if shift is None else getattr(f, name) + shift
    with pytest.raises(ValueError, match=f"not on gauss_grid.*{name}"):
        analyze(replace(f, **{name: bad}), 3)
    # a difference at roundoff is still the Gauss grid
    assert np.allclose(analyze(replace(f, lon=f.lon + 1e-14), 3).values, c.values, atol=1e-13)


def test_harmonic_values_low_degree():
    th = np.linspace(0.1, 3.0, 7)
    ph = np.linspace(0.0, 6.0, 7)
    y00 = harmonic(0, 0, th, ph)
    assert np.allclose(y00, 1.0 / np.sqrt(4 * np.pi))
    y10 = harmonic(1, 0, th, ph)
    assert np.allclose(y10, np.sqrt(3 / (4 * np.pi)) * np.cos(th))
    y11 = harmonic(1, 1, th, ph)
    assert np.allclose(y11, -np.sqrt(3 / (8 * np.pi)) * np.sin(th) * np.exp(1j * ph))


def test_harmonic_conjugation():
    th, ph = 1.1, 2.3
    for l, m in [(1, 1), (3, 2), (6, 5)]:
        a = harmonic(l, -m, th, ph)
        b = (-1.0) ** m * np.conj(harmonic(l, m, th, ph))
        assert abs(a - b) < 1e-13


def test_harmonic_matches_synthesize(rng):
    lmax = 9
    g = gauss_grid(lmax + 2, 2 * lmax + 2)
    CL, LO = np.meshgrid(g.colat, g.lon, indexing="ij")
    for l, m in [(2, 0), (4, -3), (9, 9)]:
        c = HarmonicCoefficients.zeros(lmax)
        c[l, m] = 1.0
        direct = harmonic(l, m, CL, LO)
        assert np.max(np.abs(direct - synthesize(c, lmax + 2, 2 * lmax + 2).values)) < 1e-13


def test_quadrature_orthonormality():
    lmax = 8
    n = (lmax + 2, 2 * lmax + 2)
    picks = [(0, 0), (1, 1), (3, -2), (8, 5)]
    fields = {}
    for p in picks:
        c = HarmonicCoefficients.zeros(lmax)
        c[p] = 1.0
        fields[p] = synthesize(c, *n)
    for i, p in enumerate(picks):
        for q in picks[i:]:
            g = fields[p]
            ip = g.with_values(np.conj(g.values) * fields[q].values).integral()
            assert abs(ip - (1.0 if p == q else 0.0)) < 1e-12


def test_evaluate_scattered_points(rng):
    c = random_coefficients(7, rng, real=False)
    pts = random_points(rng, 20)
    colat = np.arccos(pts[:, 2])
    lon = np.arctan2(pts[:, 1], pts[:, 0])
    got = evaluate(c, colat, lon)
    want = np.zeros(20, dtype=np.complex128)
    for l in range(8):
        for m in range(-l, l + 1):
            want += c[l, m] * harmonic(l, m, colat, lon)
    assert np.max(np.abs(got - want)) < 1e-12


def test_evaluate_matches_synthesize_high_degree(rng):
    # Gauss-grid nodes (nearest the poles included) and the poles themselves
    lmax = 127
    c = random_coefficients(lmax, rng, real=False)
    f = synthesize(c, lmax + 1, 2 * lmax + 1)
    scale = np.max(np.abs(f.values))
    rows = [0, 1, 40, lmax // 2, lmax - 1, lmax]
    CL, LO = np.meshgrid(f.colat[rows], f.lon, indexing="ij")
    assert np.max(np.abs(evaluate(c, CL, LO) - f.values[rows])) < 1e-12 * scale
    # only m = 0 survives at a pole: Y_l0 = sqrt((2l+1)/(4 pi)) (+-1)^l
    l = np.arange(lmax + 1)
    y0 = c.values[l * l + l] * np.sqrt((2 * l + 1) / (4 * np.pi))
    want = [np.sum(y0), np.sum(y0), np.sum(y0 * (-1.0) ** l), np.sum(y0 * (-1.0) ** l)]
    got = evaluate(c, np.array([0.0, 0.0, np.pi, np.pi]), np.array([0.0, 2.0, 0.5, 4.0]))
    assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_evaluate_memory_is_bounded(rng):
    # a full point x (l, m) table here would be 2000 * 32896 * 8 B = 526 MB
    c = random_coefficients(255, rng, real=False)
    pts = random_points(rng, 2000)
    colat, lon = np.arccos(pts[:, 2]), np.arctan2(pts[:, 1], pts[:, 0])
    tracemalloc.start()
    try:
        evaluate(c, colat, lon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_synthesize_dtheta(rng):
    # colatitude derivative against a central difference of evaluate; the
    # O(eps^2) truncation error grows like lmax^3, hence the wider tolerance
    # at high degree
    eps = 1e-6
    for lmax, tol in [(6, 1e-7), (63, 1e-5)]:
        c = random_coefficients(lmax, rng, real=False)
        g = gauss_grid(lmax + 4, 2 * lmax + 4)
        d = synthesize_dtheta(c, g)
        for i in (2, g.nlat // 2, g.nlat - 2):
            up = evaluate(c, np.full(3, g.colat[i] + eps), g.lon[:3])
            dn = evaluate(c, np.full(3, g.colat[i] - eps), g.lon[:3])
            fd = (up - dn) / (2 * eps)
            assert np.max(np.abs(d.values[i, :3] - fd)) < tol


# --------------------------------------------------------- quantization


@pytest.mark.parametrize("N", [8, 16])
def test_quantize_dequantize_roundtrip(N, rng):
    eig = eigenbasis(N)
    c = random_coefficients(N - 1, rng, real=False)
    W = quantize(c, eig)
    back = dequantize(W, eig)
    rel = np.linalg.norm(back.values - c.values) / np.linalg.norm(c.values)
    assert rel < 1e-12


def test_quantize_truncates_high_degrees(eig8, rng):
    c = random_coefficients(12, rng, real=False)
    W = quantize(c, eig8)
    kept = dequantize(W, eig8)
    assert kept.lmax == 7
    assert np.max(np.abs(kept.values - c.values[:64])) < 1e-12


def test_quantize_real_function_gives_skew(eig16, rng):
    c = random_coefficients(10, rng, real=True)
    W = quantize(HarmonicCoefficients(10, 1j * c.values), eig16)
    assert np.linalg.norm(W + W.conj().T) < 1e-12


def test_rotation_equivariance(eig16, rng):
    # quantize(f o R^-1) == R quantize(f) R^dagger
    lmax = 6
    b = SpinBasis(16)
    c = random_coefficients(lmax, rng, real=True)
    axis = rng.standard_normal(3)
    angle = 0.7
    W_rot = b.rotate(quantize(c, eig16), axis, angle)

    ax = axis / np.linalg.norm(axis)
    K = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
    R = np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K
    g = gauss_grid(lmax + 2, 2 * lmax + 2)
    CL, LO = np.meshgrid(g.colat, g.lon, indexing="ij")
    pts = np.stack([np.sin(CL) * np.cos(LO), np.sin(CL) * np.sin(LO), np.cos(CL)], -1)
    back = pts @ R  # rows become R^-1 p
    vals = evaluate(
        c, np.arccos(np.clip(back[..., 2], -1, 1)), np.arctan2(back[..., 1], back[..., 0])
    ).reshape(CL.shape)
    W2 = quantize(analyze(g.with_values(vals), lmax), eig16)
    assert np.linalg.norm(W_rot - W2) < 1e-12 * np.linalg.norm(W_rot)


def test_bracket_scale_value():
    N = 16
    want = -np.sqrt(N * (N * N - 1) / (16 * np.pi))
    assert abs(bracket_scale(N) - want) < 1e-13
    assert bracket_scale(N) < 0


def test_quantize_generator_drops_mean(eig8):
    c = HarmonicCoefficients.zeros(2)
    c[0, 0] = 5.0
    assert np.linalg.norm(quantize_generator(c, eig8)) < 1e-13


def test_quantize_generator_rigid_rotation(eig16):
    # the x3 stream must generate the exact rotation about z at every N:
    # this pins the generator scale
    b = SpinBasis(16)
    c = HarmonicCoefficients.zeros(1)
    c[1, 0] = ALPHA  # coefficients of the coordinate function x3
    P = quantize_generator(c, eig16)
    assert np.linalg.norm(P - (-1j) * b.j3) < 1e-11


def test_poisson_bracket_exact_on_degree_one(eig16):
    # lambda_N [W_x1, W_x2] equals W_x3 exactly
    def coord_coeffs(k):
        c = HarmonicCoefficients.zeros(1)
        if k == 1:
            c[1, 1] = -ALPHA / np.sqrt(2)
            c[1, -1] = ALPHA / np.sqrt(2)
        elif k == 2:
            c[1, 1] = 1j * ALPHA / np.sqrt(2)
            c[1, -1] = 1j * ALPHA / np.sqrt(2)
        else:
            c[1, 0] = ALPHA
        return HarmonicCoefficients(1, 1j * c.values)

    W1, W2, W3 = (quantize(coord_coeffs(k), eig16) for k in (1, 2, 3))
    lam = bracket_scale(16)
    assert np.linalg.norm(lam * (W1 @ W2 - W2 @ W1) - W3) < 1e-12


# ---------------------------------------------------------------- blobs


def test_blob_north_shape():
    B = blob_north(5)
    assert B[4, 4] == 1j and np.count_nonzero(B) == 1
    with pytest.raises(ValueError):
        blob_north(1)


def test_blob_center_roundtrip(basis16, rng):
    for y in random_points(rng, 10):
        c = blob_center(basis16, blob_at(basis16, y))
        assert np.linalg.norm(c - y) < 1e-12


def test_blob_at_antipode(basis16):
    B = blob_at(basis16, np.array([0.0, 0.0, -1.0]))
    c = blob_center(basis16, B)
    assert np.linalg.norm(c - [0, 0, -1]) < 1e-12


def test_blob_at_rejects_off_sphere(basis16):
    with pytest.raises(ValueError):
        blob_at(basis16, np.array([0.0, 0.0, 0.5]))


def test_blob_center_degenerate(basis16):
    with pytest.raises(ValueError):
        blob_center(basis16, np.zeros((16, 16), dtype=np.complex128))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_blob_center_refuses_nonfinite_blob(basis16, bad):
    # used to return [nan, nan, nan]
    B = blob_at(basis16, np.array([0.0, 0.6, 0.8]))
    B[3, 5] = bad
    with pytest.raises(ValueError, match="not finite"):
        blob_center(basis16, B)


def test_blob_is_rank_one_projector_times_i(basis16, rng):
    y = random_points(rng, 1)[0]
    B = blob_at(basis16, y)
    assert abs(np.trace(B) - 1j) < 1e-12
    P = -1j * B
    assert np.linalg.norm(P @ P - P) < 1e-12  # idempotent


def test_blob_dequantized_peaks_at_center(basis16, rng):
    eig = eigenbasis(16)
    y = np.array([0.6, -0.64, 0.48])
    y /= np.linalg.norm(y)
    B = blob_at(basis16, y)
    dens = dequantize(B, eig)
    real_dens = HarmonicCoefficients(dens.lmax, -1j * dens.values)
    pts = random_points(np.random.default_rng(4), 40)
    vals = evaluate(
        real_dens, np.arccos(pts[:, 2]), np.arctan2(pts[:, 1], pts[:, 0])
    ).real
    at_center = evaluate(
        real_dens, np.array([np.arccos(y[2])]), np.array([np.arctan2(y[1], y[0])])
    ).real[0]
    assert at_center > np.max(vals) - 1e-9
