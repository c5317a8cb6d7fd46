"""Maps between functions on the sphere and N x N matrices, plus blobs.

Function-side representations:

* HarmonicCoefficients: complex coefficients a_lm of an expansion in
  L2-orthonormal spherical harmonics with the Condon-Shortley phase,
  packed flat by sh_index(l, m) = l*l + l + m.  A real-valued function
  has a_{l,-m} = (-1)^m conj(a_lm).
* GridField: samples on a Gauss-Legendre (colatitude) x uniform
  (longitude) grid; this quadrature integrates band-limited functions
  exactly when nlat >= lmax+1 and nlon >= 2*lmax+1.

Matrix-side conventions:

* quantize sends a_lm to sum a_lm T_lm; it is C-linear, so a real
  function lands in u(N) only after multiplying its coefficients by i
  (quantize(1j * a)), which is the convention used for vorticity.
* quantize_generator builds the stream matrix P of a complex generator
  psi.  Its scale bracket_scale(N) is calibrated so that the generator
  whose classical flow is unit-speed rotation about the z-axis yields
  exp(P t) = rotation by t exactly; equivalently lambda_N [W_f, W_g]
  matches the quantized Poisson bracket {f, g} exactly on degree-1
  functions.
* blobs are rank-one skew-Hermitian point masses with Tr(B) = i.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .laplacian import flat_from_pairs, m_pairs, sh_index, sh_lm


@dataclass
class HarmonicCoefficients:
    """Flat complex coefficient vector of length (lmax+1)^2."""

    lmax: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.lmax < 0:
            raise ValueError("lmax must be >= 0")
        if self.values.shape != ((self.lmax + 1) ** 2,):
            raise ValueError("coefficient vector length does not match lmax")

    @classmethod
    def zeros(cls, lmax):
        return cls(lmax, np.zeros((lmax + 1) ** 2, dtype=np.complex128))

    def copy(self):
        return HarmonicCoefficients(self.lmax, self.values.copy())

    def __getitem__(self, lm):
        l, m = lm
        if not (0 <= l <= self.lmax and abs(m) <= l):
            raise IndexError("harmonic index out of range")
        return self.values[sh_index(l, m)]

    def __setitem__(self, lm, v):
        l, m = lm
        if not (0 <= l <= self.lmax and abs(m) <= l):
            raise IndexError("harmonic index out of range")
        self.values[sh_index(l, m)] = v

    def is_real_function(self, tol=1e-12):
        """Whether a_{l,-m} = (-1)^m conj(a_lm) holds within tol."""
        scale = max(1.0, float(np.linalg.norm(self.values)))
        l, m = sh_lm(self.lmax)
        rhs = (-1.0) ** m * np.conj(self.values)
        return not np.any(np.abs(self.values[sh_index(l, -m)] - rhs) > tol * scale)


def random_coefficients(lmax, rng, real=True):
    """Seeded random band-limited coefficients; real=True makes them the
    coefficients of a real-valued function."""
    n = (lmax + 1) ** 2
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if real:
        l, m = sh_lm(lmax)
        values[m == 0] = values[m == 0].real
        neg = m < 0
        values[neg] = (-1.0) ** m[neg] * np.conj(values[sh_index(l[neg], -m[neg])])
    return HarmonicCoefficients(lmax, values)


@dataclass
class GridField:
    """Samples on a Gauss-Legendre x uniform-longitude grid.

    colat is ordered north to south; weights are the Gauss-Legendre
    quadrature weights (summing to 2) so that integral() is exact for
    resolved band-limited integrands.
    """

    colat: np.ndarray
    lon: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    @property
    def nlat(self):
        return self.colat.shape[0]

    @property
    def nlon(self):
        return self.lon.shape[0]

    def with_values(self, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (self.nlat, self.nlon):
            raise ValueError("value array does not match the grid")
        return GridField(self.colat, self.lon, self.weights, values)

    def integral(self):
        """Integral over the sphere (solid-angle measure)."""
        return (2.0 * np.pi / self.nlon) * np.sum(self.weights @ self.values)

    def norm(self):
        """L2 norm over the sphere."""
        dens = np.abs(self.values) ** 2
        return float(np.sqrt((2.0 * np.pi / self.nlon) * np.sum(self.weights @ dens)))


def gauss_grid(nlat, nlon, values=None):
    """Empty (or filled) GridField with Gauss-Legendre colatitudes."""
    if nlat < 1 or nlon < 1:
        raise ValueError("grid must have at least one node per direction")
    x, w = leggauss(nlat)
    # leggauss orders x ascending, i.e. south to north; flip to north first
    colat = np.arccos(x[::-1]).copy()
    weights = w[::-1].copy()
    lon = 2.0 * np.pi * np.arange(nlon) / nlon
    if values is None:
        values = np.zeros((nlat, nlon), dtype=np.complex128)
    return GridField(colat, lon, weights, np.asarray(values, dtype=np.complex128))


# Points per Legendre block.  Transforms hold one (lmax + 1) x _CHUNK float64
# block at a time, so their working memory is O(_CHUNK * lmax) whatever the
# number of points.
_CHUNK = 4096


def _legendre_blocks(x, lmax, dtheta=False):
    """Normalized associated Legendre functions, one m and one chunk at a time.

    For each chunk x[sl] of at most _CHUNK points and each m = 0..lmax in
    turn, yields (sl, m, P) with P[l - m, i] = P_lm(x[sl][i]) for l = m..lmax,
    fully normalized with the Condon-Shortley sign, so that
    Y_lm = P[l - m] * exp(i m lon) has unit L2 norm on the sphere.  With
    dtheta, P holds d/dtheta of those functions at theta = arccos(x) instead,
    valid away from the poles.  P is overwritten at the next step.

    The diagonal P_mm is carried from one m to the next, and the three-term
    recurrence in l fills contiguous rows of one reused buffer.
    """
    x = np.asarray(x, dtype=np.float64)
    steps = []
    for m in range(lmax + 1):
        # coefficients of rows l = m+2..lmax as length-1 arrays, which ufuncs
        # take without converting a Python scalar on every call
        l = np.arange(m + 2, lmax + 1, dtype=np.float64)[:, None]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        steps.append((list(a), list(b)))
    for start in range(0, x.shape[0], _CHUNK):
        sl = slice(start, start + _CHUNK)
        xc = x[sl]
        sx = np.sqrt(np.maximum(0.0, 1.0 - xc * xc))
        buf = np.empty((lmax + 1, xc.shape[0]))
        rows = list(buf)
        tmp = np.empty(xc.shape[0])
        pmm = np.full(xc.shape[0], 1.0 / np.sqrt(4.0 * np.pi))
        for m in range(lmax + 1):
            if m:
                pmm = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sx * pmm
            P = buf[: lmax + 1 - m]
            P[0] = pmm
            if m < lmax:
                P[1] = np.sqrt(2.0 * m + 3.0) * xc * pmm
            a, b = steps[m]
            for k in range(2, lmax + 1 - m):
                # P_lm = a (x P_{l-1,m} - b P_{l-2,m})
                np.multiply(xc, rows[k - 1], out=rows[k])
                np.multiply(b[k - 2], rows[k - 2], out=tmp)
                np.subtract(rows[k], tmp, out=rows[k])
                np.multiply(a[k - 2], rows[k], out=rows[k])
            yield sl, m, (_dtheta_block(P, xc, m) if dtheta else P)


def _dtheta_block(P, x, m):
    """d/dtheta of the block P of _legendre_blocks (rows l = m.., points x)."""
    l = np.arange(m, m + P.shape[0], dtype=np.float64)
    e = np.sqrt((2.0 * l[1:] + 1.0) * (l[1:] ** 2 - m * m) / (2.0 * l[1:] - 1.0))
    out = np.multiply.outer(l, x) * P
    out[1:] -= e[:, None] * P[:-1]
    return out / np.sqrt(np.maximum(1e-300, 1.0 - x * x))


def harmonic(l, m, colat, lon):
    """Y_lm at the given colatitude/longitude (scalars or arrays)."""
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    colat, lon = np.broadcast_arrays(
        np.asarray(colat, dtype=np.float64), np.asarray(lon, dtype=np.float64)
    )
    shape = colat.shape
    colat = np.ravel(colat)
    if colat.size and (colat.min() < -1e-12 or colat.max() > np.pi + 1e-12):
        raise ValueError("colatitude outside [0, pi]")
    p = np.empty(colat.shape)
    for sl, k, P in _legendre_blocks(np.cos(colat), l):
        if k == abs(m):
            p[sl] = P[l - k]
    val = p * np.exp(1j * m * np.ravel(lon))
    if m < 0:
        val = val * (-1.0) ** m
    val = val.reshape(shape)
    return complex(val) if val.shape == () else val


def _fourier_slots(lmax, nlon):
    if nlon < 2 * lmax + 1:
        raise ValueError("nlon too small for lmax (need nlon >= 2*lmax+1)")


def _synthesize_on(coeffs, grid, dtheta):
    lmax = coeffs.lmax
    _fourier_slots(lmax, grid.nlon)
    pairs = m_pairs(coeffs.values, lmax)
    modes = np.zeros((grid.nlat, grid.nlon), dtype=np.complex128)
    for sl, m, P in _legendre_blocks(np.cos(grid.colat), lmax, dtheta):
        # one real matmul gives the +m and -m sums as a (points, 2) complex array
        pm = (P.T @ pairs[m].view(np.float64)).view(np.complex128)
        modes[sl, m] += pm[:, 0]
        if m:
            modes[sl, -m % grid.nlon] += pm[:, 1]
    values = np.fft.ifft(modes, axis=1) * grid.nlon
    return grid.with_values(values)


def synthesize(coeffs, nlat, nlon):
    """GridField of sum a_lm Y_lm on an (nlat, nlon) Gauss grid."""
    return _synthesize_on(coeffs, gauss_grid(nlat, nlon), dtheta=False)


def analyze(field, lmax):
    """Coefficients a_lm = integral of f * conj(Y_lm); exact for resolved input.

    Raises ValueError unless the field lies on gauss_grid(nlat, nlon), whose
    nodes and weights the quadrature assumes.
    """
    if field.nlat < lmax + 1:
        raise ValueError("nlat too small for lmax (need nlat >= lmax+1)")
    _fourier_slots(lmax, field.nlon)
    ref = gauss_grid(field.nlat, field.nlon)
    for name in ("colat", "weights", "lon"):
        got, want = np.asarray(getattr(field, name)), getattr(ref, name)
        if got.shape != want.shape or not np.all(np.abs(got - want) <= 1e-12):
            raise ValueError(f"field is not on gauss_grid({field.nlat}, {field.nlon}): its {name} differ")
    fhat = np.fft.fft(field.values, axis=1) * (2.0 * np.pi / field.nlon)
    weighted = field.weights[:, None] * fhat
    pairs = [np.zeros((lmax + 1 - m, 2), dtype=np.complex128) for m in range(lmax + 1)]
    for sl, m, P in _legendre_blocks(np.cos(field.colat), lmax):
        wm = np.ascontiguousarray(weighted[sl][:, [m, -m % field.nlon]])
        pairs[m].view(np.float64)[...] += P @ wm.view(np.float64)
    return HarmonicCoefficients(lmax, flat_from_pairs(pairs, lmax))


# Applied to (Re a_lm, Im a_lm, Re b_lm, Im b_lm) with b_lm = (-1)^m a_l,-m,
# the rows give the cos(m lon) and sin(m lon) weights of the real part, then
# of the imaginary part, of a_lm Y_lm + a_l,-m Y_l,-m = P_lm (a_lm e^{i m lon}
# + b_lm e^{-i m lon}).
_EVAL_MIX = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0],
                      [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, -1.0, 0.0]])


def evaluate(coeffs, colat, lon):
    """Pointwise values of sum a_lm Y_lm at arbitrary points."""
    colat = np.asarray(colat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    if colat.shape != lon.shape:
        raise ValueError("colat and lon must have matching shapes")
    flat_lon = lon.ravel()
    mixed = [_EVAL_MIX @ pair.view(np.float64).T for pair in m_pairs(coeffs.values, coeffs.lmax)]
    re = np.zeros(flat_lon.shape)
    im = np.zeros(flat_lon.shape)
    for sl, m, P in _legendre_blocks(np.cos(colat.ravel()), coeffs.lmax):
        r = mixed[m] @ P
        mlon = m * flat_lon[sl]
        c, s = np.cos(mlon), np.sin(mlon)
        re[sl] += c * r[0] + s * r[1]
        im[sl] += c * r[2] + s * r[3]
    flat = re + 1j * im
    if colat.shape == ():
        return complex(flat[0])
    return flat.reshape(colat.shape)


def synthesize_dtheta(coeffs, grid):
    """Samples of the colatitude derivative of sum a_lm Y_lm on a grid."""
    return _synthesize_on(coeffs, grid, dtheta=True)


def _flat_for_size(coeffs, N):
    """Coefficient vector truncated/padded to the first N^2 entries."""
    src = coeffs.values if isinstance(coeffs, HarmonicCoefficients) else np.asarray(coeffs)
    out = np.zeros(N * N, dtype=np.complex128)
    n = min(out.shape[0], src.shape[0])
    out[:n] = src[:n]
    return out


def quantize(coeffs, eig):
    """sum a_lm T_lm; degrees above N-1 are silently truncated.

    C-linear: pass 1j * a to land real functions in u(N).
    """
    return eig.compose(_flat_for_size(coeffs, eig.N))


def dequantize(M, eig, lmax=None):
    """a_lm = Tr(T_lm^dagger M); exact left inverse of quantize."""
    lmax = eig.N - 1 if lmax is None else lmax
    return HarmonicCoefficients(lmax, _flat_for_size(eig.decompose(M), lmax + 1))


def bracket_scale(N):
    """lambda_N with {f,g} -> lambda_N [W_f, W_g], exact on degree 1.

    lambda_N = -sqrt(N(N^2-1)/(16 pi)); the sign and magnitude are fixed
    by the rigid-rotation calibration (see quantize_generator).
    """
    return -np.sqrt(N * (N * N - 1.0) / (16.0 * np.pi))


def quantize_generator(coeffs, eig):
    """Stream matrix P of a complex generator psi, trace-free.

    P = bracket_scale(N) * quantize(i * a) with the constant component
    dropped.  Calibration: psi whose classical flow is unit-speed
    rotation about the z-axis gives exp(P t) = rotation_operator(z, t)
    exactly, so quantized flows run at classical speed.  The real part
    of psi lands in the skew-Hermitian part of P (Hamiltonian
    component), the imaginary part in the Hermitian part (gradient
    component).
    """
    flat = _flat_for_size(coeffs, eig.N) * 1j
    flat[0] = 0.0
    return bracket_scale(eig.N) * eig.compose(flat)


def blob_north(N):
    """Skew-Hermitian point mass at the north pole: i at entry (N, N)."""
    if N < 2:
        raise ValueError("blobs need N >= 2")
    B = np.zeros((N, N), dtype=np.complex128)
    B[N - 1, N - 1] = 1j
    return B


def blob_at(basis, y0):
    """Blob centered at the unit vector y0 (rotated north blob)."""
    y0 = np.asarray(y0, dtype=np.float64)
    if abs(np.linalg.norm(y0) - 1.0) > 1e-6:
        raise ValueError("blob center must be a unit vector")
    z0 = np.clip(y0[2], -1.0, 1.0)
    axis = np.array([-y0[1], y0[0], 0.0])  # z-hat cross y0
    nrm = np.linalg.norm(axis)
    if nrm < 1e-15:
        axis = np.array([1.0, 0.0, 0.0])  # antipodal/aligned: any axis works
    else:
        axis = axis / nrm
    R = basis.rotation_operator(axis, np.arccos(z0))
    B = blob_north(basis.N)
    return R @ B @ R.conj().T


def blob_center(basis, B):
    """Center of mass of a blob via the coordinate matrices, unit length.

    c_k = Tr(C_k (B / Tr B)), real up to roundoff for any rotated blob,
    then normalized.  Raises for matrices without a usable center (for
    example multiples of the identity, or matrices that are not finite).
    """
    t = np.trace(B)
    nrm = np.linalg.norm(B)
    if not (np.isfinite(t) and np.isfinite(nrm)):
        raise ValueError("blob is not finite")
    if nrm == 0.0 or abs(t) < 1e-12 * nrm:
        raise ValueError("degenerate blob: trace too small to normalize")
    D = B / t
    c = np.array([np.trace(Ck @ D).real for Ck in basis.coordinate_matrices()])
    n = np.linalg.norm(c)
    if n < 1e-8:
        raise ValueError("degenerate blob: center vector vanishes")
    return c / n
