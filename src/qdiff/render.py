"""Raster rendering of sphere fields through the Hammer projection.

The Hammer projection maps the sphere onto the ellipse
(X/(2 sqrt2))^2 + (Y/sqrt2)^2 <= 1.  Pixels are inverted to
latitude/longitude, the field is evaluated there from its harmonic
coefficients, and the real part is mapped to a linear grayscale ramp
between the field's min and max.  A field whose range is at most 1e-12
of its largest magnitude is drawn mid-gray, since any ramp would only
show roundoff.  Pixels outside the ellipse get a fixed background color.

No full-raster array of coordinates is formed.  The inside mask and the
gray ramp are built one strip of rows at a time, each strip about
_CHUNK pixels.  The inside pixels are walked in raster order, _CHUNK at
a time: each chunk's colatitude and longitude come from the few rows
that hold it, and `evaluate` is called on just those points.  Since
`evaluate` cuts its points into _CHUNK blocks in the same order, every
Legendre block sees the points it would see if the whole raster were
evaluated at once, so the pixels do not depend on the walk.  What is
held is the mask, the values at inside pixels and the rgb buffer
(~10 B per pixel) plus O(_CHUNK * lmax).
"""

from dataclasses import dataclass

import numpy as np

from .quantization import _CHUNK, GridField, HarmonicCoefficients, analyze, evaluate

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
    X = (np.arange(width) + 0.5) / width * (4.0 * np.sqrt(2.0)) - 2.0 * np.sqrt(2.0)
    Y = np.sqrt(2.0) - (np.arange(height) + 0.5) / height * (2.0 * np.sqrt(2.0))
    rows = max(1, _CHUNK // width)  # rows per strip
    inside = np.empty((height, width), dtype=bool)
    for r in range(0, height, rows):
        inside[r : r + rows] = (X / 4.0) ** 2 + (Y[r : r + rows, None] / 2.0) ** 2 <= 0.5
    # the inside pixels of row i, in raster order, are vals[offsets[i]:offsets[i + 1]]
    offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(inside, axis=1))))
    vals = np.empty(offsets[-1])
    for start in range(0, vals.shape[0], _CHUNK):
        stop = min(start + _CHUNK, vals.shape[0])
        r0 = np.searchsorted(offsets, start, side="right") - 1
        r1 = np.searchsorted(offsets, stop)
        ii, jj = np.nonzero(inside[r0:r1])
        k = slice(start - offsets[r0], stop - offsets[r0])
        x, y = X[jj[k]], Y[r0 + ii[k]]
        z = np.sqrt(np.clip(1.0 - ((x / 4.0) ** 2 + (y / 2.0) ** 2), 0.0, None))
        lat = np.arcsin(np.clip(y * z, -1.0, 1.0))
        lon = 2.0 * np.arctan2(x * z, 2.0 * (2.0 * z * z - 1.0))
        vals[start:stop] = evaluate(coeffs, 0.5 * np.pi - lat, lon).real
    # width >= 16 puts the raster's center, hence some pixels, inside
    vmin, vmax = float(vals.min()), float(vals.max())
    if not np.isfinite(vmax - vmin):  # a nan or inf inside, or a range that overflows
        raise ValueError(f"field is not finite on the raster (min {vmin!r}, max {vmax!r})")
    flat = vmax - vmin <= 1e-12 * max(abs(vmin), abs(vmax))
    rgb = np.empty((height, width, 3), dtype=np.uint8)
    rgb[...] = BACKGROUND
    for r in range(0, height, rows):
        gray = 128
        if not flat:
            ramp = (vals[offsets[r] : offsets[min(r + rows, height)]] - vmin) / (vmax - vmin)
            gray = np.clip(np.round(ramp * 255.0), 0, 255).astype(np.uint8)[:, None]
        rgb[r : r + rows][inside[r : r + rows]] = gray
    return RasterImage(width=width, height=height, rgb=rgb, vmin=vmin, vmax=vmax)
