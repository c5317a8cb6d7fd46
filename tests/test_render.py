"""Hammer-projection rasters: geometry, grayscale mapping, background."""

import tracemalloc

import numpy as np
import pytest

from qdiff import (
    HarmonicCoefficients,
    SpinBasis,
    blob_at,
    dequantize,
    evaluate,
    render_field,
    synthesize,
)
from qdiff.quantization import _CHUNK
from qdiff.render import BACKGROUND
from conftest import eigenbasis


def test_axial_field_bright_top_dark_bottom():
    c = HarmonicCoefficients.zeros(1)
    c[1, 0] = 1.0  # positive multiple of cos(colat)
    img = render_field(c, width=64)
    assert img.height == 32
    top = img.rgb[1, 32, 0]
    bottom = img.rgb[30, 32, 0]
    assert top > 240
    assert bottom < 15
    assert img.vmax > 0 > img.vmin


def test_constant_field_uniform_midgray():
    c = HarmonicCoefficients.zeros(0)
    c[0, 0] = 2.5
    img = render_field(c, width=48)
    inside = ~np.all(img.rgb == np.array(BACKGROUND, dtype=np.uint8), axis=-1)
    assert np.all(img.rgb[inside] == 128)
    assert img.vmin == img.vmax


def test_background_outside_ellipse():
    c = HarmonicCoefficients.zeros(0)
    c[0, 0] = 1.0
    img = render_field(c, width=64)
    bg = np.array(BACKGROUND, dtype=np.uint8)
    for i, j in ((0, 0), (0, 63), (31, 0), (31, 63)):
        assert np.array_equal(img.rgb[i, j], bg)
    # the ellipse center is interior
    assert not np.array_equal(img.rgb[16, 32], bg)


def test_grid_field_input_matches_coefficients(rng):
    c = HarmonicCoefficients.zeros(3)
    c[2, 1] = 0.4 + 0.2j
    c[2, -1] = -np.conj(c[2, 1])
    c[3, 0] = 0.8
    f = synthesize(c, 16, 33)
    a = render_field(c, width=64)
    b = render_field(f, width=64)
    assert np.array_equal(a.rgb, b.rgb)


def test_blob_renders_bright_at_center():
    basis = SpinBasis(16)
    B = blob_at(basis, (1.0, 0.0, 0.0))  # maps to the raster center
    c = dequantize(B, eigenbasis(16))
    c = HarmonicCoefficients(c.lmax, -1j * c.values)  # skew matrix carries i x density
    img = render_field(c, width=96)
    i, j = np.unravel_index(np.argmax(img.rgb[:, :, 0]), img.rgb.shape[:2])
    assert abs(i - img.height // 2) <= 3
    assert abs(j - img.width // 2) <= 3


def test_nonfinite_field_is_refused():
    # used to render a raster with "min nan max nan"
    c = HarmonicCoefficients.zeros(2)
    c[1, 0] = 1.0
    c[2, 1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        render_field(c, width=32)


@pytest.mark.parametrize("where", ["coefficients", "grid"])
def test_infinite_field_is_refused_before_any_transform(where):
    # an inf used to reach evaluate/analyze, whose products warned before
    # the raster check refused it; tests turn those warnings into errors
    c = HarmonicCoefficients.zeros(2)
    c[1, 0] = 1.0
    field = c
    if where == "grid":
        field = synthesize(c, 3, 5)
        field.values[1, 2] = np.inf
    else:
        c[1, 0] = np.inf
    with pytest.raises(ValueError, match="not finite"):
        render_field(field, width=32)


def test_width_validation():
    c = HarmonicCoefficients.zeros(0)
    c[0, 0] = 1.0
    with pytest.raises(ValueError):
        render_field(c, width=8)
    with pytest.raises(TypeError):
        render_field(np.zeros(4))


def test_raster_shape_scales_with_width():
    c = HarmonicCoefficients.zeros(1)
    c[1, -1] = 0.3
    c[1, 1] = -0.3
    img = render_field(c, width=128)
    assert img.rgb.shape == (64, 128, 3)
    assert img.rgb.dtype == np.uint8


def _one_shot_render(coeffs, width):
    """The full-raster formulas render_field walks in chunks: every
    coordinate and mask array is formed for the whole raster at once."""
    height = width // 2
    jj, ii = np.meshgrid(np.arange(width), np.arange(height))
    X = (jj + 0.5) / width * (4.0 * np.sqrt(2.0)) - 2.0 * np.sqrt(2.0)
    Y = np.sqrt(2.0) - (ii + 0.5) / height * (2.0 * np.sqrt(2.0))
    r2 = (X / 4.0) ** 2 + (Y / 2.0) ** 2
    inside = r2 <= 0.5
    z = np.sqrt(np.clip(1.0 - r2, 0.0, None))
    lat = np.arcsin(np.clip(Y * z, -1.0, 1.0))
    lon = 2.0 * np.arctan2(X * z, 2.0 * (2.0 * z * z - 1.0))
    colat = 0.5 * np.pi - lat
    vals = np.zeros((height, width))
    vals[inside] = evaluate(coeffs, colat[inside], lon[inside]).real
    vmin, vmax = float(vals[inside].min()), float(vals[inside].max())
    ramp = (vals - vmin) / (vmax - vmin)
    gray = np.clip(np.round(ramp * 255.0), 0, 255).astype(np.uint8)
    rgb = np.empty((height, width, 3), dtype=np.uint8)
    for c in range(3):
        rgb[:, :, c] = np.where(inside, gray, BACKGROUND[c])
    return rgb, vmin, vmax, inside


@pytest.mark.parametrize("lmax, width", [(8, 1000), (31, 400), (3, 517)])
def test_chunk_walk_matches_one_shot_raster(lmax, width):
    rng = np.random.default_rng(lmax * 10007 + width)
    size = (lmax + 1) ** 2
    c = HarmonicCoefficients(lmax, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    rgb, vmin, vmax, inside = _one_shot_render(c, width)
    # the walk is tested across seams: several chunk boundaries fall mid-row
    starts = np.concatenate(([0], np.cumsum(np.count_nonzero(inside, axis=1))))
    seams = np.arange(_CHUNK, starts[-1], _CHUNK)
    assert np.count_nonzero(~np.isin(seams, starts)) >= 3
    img = render_field(c, width=width)
    assert np.array_equal(img.rgb, rgb)
    assert (img.vmin, img.vmax) == (vmin, vmax)


def test_render_memory_stays_within_per_pixel_budget():
    # the full-raster version traced ~119 B per pixel here
    c = HarmonicCoefficients.zeros(4)
    c[1, 0] = 1.0
    c[4, 2] = 0.3 - 0.2j
    c[4, -2] = np.conj(c[4, 2])
    width = 2048
    pixels = width * (width // 2)
    tracemalloc.start()
    try:
        render_field(c, width=width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * pixels + 8 * 2**20, f"{peak / pixels:.1f} B per pixel"


def test_range_within_roundoff_renders_midgray():
    # a constant plus a 1e-15 relative ripple: the ramp would only draw roundoff
    c = HarmonicCoefficients.zeros(1)
    c[0, 0] = 2.0
    c[1, 0] = 2e-15
    img = render_field(c, width=48)
    inside = ~np.all(img.rgb == np.array(BACKGROUND, dtype=np.uint8), axis=-1)
    assert np.all(img.rgb[inside] == 128)
    assert img.vmin < img.vmax  # the range is still recorded as it is
    # a ripple 1e-10 of the field is drawn as a ramp
    c[1, 0] = 2e-10
    img = render_field(c, width=48)
    assert img.rgb[0, 24, 0] == 255 and img.rgb[-1, 24, 0] == 0
