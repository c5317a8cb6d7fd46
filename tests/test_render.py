"""Hammer-projection rasters: geometry, grayscale mapping, background."""

import numpy as np
import pytest

from qdiff import (
    HarmonicCoefficients,
    SpinBasis,
    blob_at,
    dequantize,
    render_field,
    synthesize,
)
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
