"""Raster rendering of sphere fields through the Hammer projection.

The Hammer projection maps the sphere onto the ellipse
(X/(2 sqrt2))^2 + (Y/sqrt2)^2 <= 1.  Pixels are inverted to
latitude/longitude, the field is evaluated there from its harmonic
coefficients, and the real part is mapped to a linear grayscale ramp
between the field's min and max.  Pixels outside the ellipse get a
fixed background color.
"""

from dataclasses import dataclass

import numpy as np

from .quantization import GridField, HarmonicCoefficients, analyze, evaluate

BACKGROUND = (36, 36, 56)


@dataclass
class RasterImage:
    width: int
    height: int
    rgb: np.ndarray  # (height, width, 3) uint8
    vmin: float
    vmax: float


def render_field(field, width=512):
    """Render coefficients (or a GridField, analyzed first) to a raster."""
    if not isinstance(field, (GridField, HarmonicCoefficients)):
        raise TypeError("expected HarmonicCoefficients or GridField")
    # checked before any transform: evaluate's products warn on an inf
    if not np.all(np.isfinite(field.values)):
        raise ValueError("field is not finite: it holds a nan or an inf")
    coeffs = field
    if isinstance(field, GridField):
        coeffs = analyze(field, min(field.nlat - 1, (field.nlon - 1) // 2))
    if width < 16:
        raise ValueError("width must be at least 16 pixels")
    if coeffs.values.size == 0:
        raise ValueError("empty field")
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
    vmin = float(vals[inside].min()) if np.any(inside) else 0.0
    vmax = float(vals[inside].max()) if np.any(inside) else 0.0
    if not np.isfinite(vmax - vmin):  # a nan or inf inside, or a range that overflows
        raise ValueError(f"field is not finite on the raster (min {vmin!r}, max {vmax!r})")
    if vmax - vmin < 1e-300:
        gray = np.full((height, width), 128, dtype=np.uint8)
    else:
        ramp = (vals - vmin) / (vmax - vmin)
        gray = np.clip(np.round(ramp * 255.0), 0, 255).astype(np.uint8)
    rgb = np.empty((height, width, 3), dtype=np.uint8)
    for c in range(3):
        rgb[:, :, c] = np.where(inside, gray, BACKGROUND[c])
    return RasterImage(width=width, height=height, rgb=rgb, vmin=vmin, vmax=vmax)
