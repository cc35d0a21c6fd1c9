"""Real even-order spherical-harmonic basis and spherical kernel geometry.

Conventions used throughout the package:

* Only even degrees l appear (diffusion signals are antipodally symmetric),
  so an expansion of maximum degree L has R = (L+1)(L+2)/2 coefficients.
* Coefficient j for degree l and order m (-l <= m <= l) is j = l(l+1)/2 + m.
* The real basis is the modified symmetric one common in diffusion MRI:
  sqrt(2)*Re(Y_l^|m|) for m < 0, Y_l^0 for m = 0, sqrt(2)*Im(Y_l^m) for
  m > 0, where Y_l^m are orthonormal complex harmonics with the
  Condon-Shortley phase folded into the associated Legendre functions.
* theta is the polar angle from +z, phi the azimuth from +x.

Associated Legendre values are produced by a stable forward recurrence in l
for fixed m on the fully normalized functions, so no factorials overflow.
The azimuthal factors cos(m*phi), sin(m*phi) come from Chebyshev-style
recurrences on (x/rho, y/rho); together with the recurrence this makes
``eval_basis(u) == eval_basis(-u)`` hold exactly in floating point, not just
analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SH_C0 = 0.28209479177387814  # Y_0^0 = 1/(2 sqrt(pi))


def coeff_count(order: int) -> int:
    """Number of coefficients R of an even-degrees-only basis of max degree ``order``."""
    _check_order(order)
    return (order + 1) * (order + 2) // 2


def _check_order(order: int) -> None:
    if order < 0 or order % 2 != 0:
        raise ValueError(f"SH order must be even and >= 0, got {order}")


@dataclass(frozen=True)
class ShBasisSpec:
    """Shape descriptor of an even-order real SH basis."""

    order: int

    def __post_init__(self) -> None:
        _check_order(self.order)

    @property
    def coeff_count(self) -> int:
        return coeff_count(self.order)


def sh_index(l: int, m: int) -> int:
    """Packed coefficient index j = l(l+1)/2 + m for even degree l."""
    if l < 0 or l % 2 != 0:
        raise ValueError(f"degree must be even and >= 0, got l={l}")
    if abs(m) > l:
        raise ValueError(f"order m must satisfy |m| <= l, got l={l}, m={m}")
    return l * (l + 1) // 2 + m


def sh_degree_order(j: int) -> tuple[int, int]:
    """Inverse of :func:`sh_index`: recover (l, m) from a packed index."""
    if j < 0:
        raise ValueError(f"coefficient index must be >= 0, got {j}")
    l = 0
    while l * (l + 1) // 2 + l < j:
        l += 2
    m = j - l * (l + 1) // 2
    return l, m


def basis_degrees(order: int) -> np.ndarray:
    """Degree l of every coefficient column, shape (R,)."""
    _check_order(order)
    out = np.empty(coeff_count(order), dtype=np.int64)
    for l in range(0, order + 1, 2):
        base = l * (l + 1) // 2
        out[base - l : base + l + 1] = l
    return out


def as_unit_directions(dirs) -> np.ndarray:
    """Validate and normalize directions to unit vectors, shape (N, 3).

    Accepts a single 3-vector or an (N, 3) array. Zero vectors are rejected;
    the result satisfies | ||v|| - 1 | <= 1e-9 per row.
    """
    arr = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"directions must have shape (N, 3), got {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError("direction list is empty")
    if not np.isfinite(arr).all():
        raise ValueError("directions contain non-finite values")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms <= 1e-12):
        bad = int(np.argmax(norms <= 1e-12))
        raise ValueError(f"zero direction vector at row {bad}")
    return arr / norms[:, None]


def eval_basis(dirs, order: int) -> np.ndarray:
    """Evaluate the real even-order SH basis at unit directions.

    Returns B with B[i, j] = Y_j(theta_i, phi_i), shape (N, R).
    """
    _check_order(order)
    u = as_unit_directions(dirs)
    n = u.shape[0]
    x, y, ct = u[:, 0], u[:, 1], u[:, 2]
    st = np.hypot(x, y)

    # Azimuth enters only through cos(phi), sin(phi); at the poles rho = 0 and
    # every m != 0 term carries an st^m = 0 factor, so the values are arbitrary
    # but must be finite.
    safe = np.where(st > 0.0, st, 1.0)
    cos_phi = np.where(st > 0.0, x / safe, 1.0)
    sin_phi = np.where(st > 0.0, y / safe, 0.0)

    # Fully normalized associated Legendre N_l^m(ct), Condon-Shortley included:
    # N_l^m = sqrt((2l+1)/(4 pi) * (l-m)!/(l+m)!) * P_l^m.
    leg = np.empty((order + 1, order + 1, n))
    leg[0, 0] = SH_C0
    for m in range(1, order + 1):
        leg[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * leg[m - 1, m - 1]
    for m in range(0, order + 1):
        if m + 1 <= order:
            leg[m + 1, m] = np.sqrt(2.0 * m + 3.0) * ct * leg[m, m]
        for l in range(m + 2, order + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(
                ((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                / ((2.0 * l - 3.0) * (l * l - m * m))
            )
            leg[l, m] = a * ct * leg[l - 1, m] - b * leg[l - 2, m]

    cos_m = np.empty((order + 1, n))
    sin_m = np.empty((order + 1, n))
    cos_m[0] = 1.0
    sin_m[0] = 0.0
    if order >= 1:
        cos_m[1] = cos_phi
        sin_m[1] = sin_phi
    for m in range(2, order + 1):
        cos_m[m] = 2.0 * cos_phi * cos_m[m - 1] - cos_m[m - 2]
        sin_m[m] = 2.0 * cos_phi * sin_m[m - 1] - sin_m[m - 2]

    basis = np.empty((n, coeff_count(order)))
    sqrt2 = np.sqrt(2.0)
    for l in range(0, order + 1, 2):
        base = l * (l + 1) // 2
        basis[:, base] = leg[l, 0]
        for m in range(1, l + 1):
            basis[:, base - m] = sqrt2 * leg[l, m] * cos_m[m]
            basis[:, base + m] = sqrt2 * leg[l, m] * sin_m[m]
    return basis


def laplace_beltrami_diag(order: int) -> np.ndarray:
    """Diagonal of the Laplace-Beltrami penalty: l^2 (l+1)^2 per coefficient."""
    l = basis_degrees(order).astype(np.float64)
    return (l * (l + 1.0)) ** 2


def tangent_basis(u) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal tangent frame (e1, e2) at unit direction u.

    {e1, e2, u} is right-handed (e1 x e2 = u). The reference vector is +z,
    switched to +x when |u_z| > 0.9 to avoid cancellation near the poles.
    """
    uu = as_unit_directions(u)[0]
    ref = np.array([0.0, 0.0, 1.0]) if abs(uu[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(ref, uu)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(uu, e1)
    return e1, e2


def ring_directions(u, alpha: float, n: int) -> np.ndarray:
    """n unit directions on the circle at angular distance alpha around u.

    Point k sits at azimuth 2 pi k / n in the (e1, e2) tangent frame, with
    the k = 0 point along e1. Requires 0 < alpha < pi/2.
    """
    if not (0.0 < alpha < np.pi / 2.0):
        raise ValueError(f"angular distance must lie in (0, pi/2), got {alpha}")
    if n < 1:
        raise ValueError(f"ring point count must be >= 1, got {n}")
    uu = as_unit_directions(u)[0]
    e1, e2 = tangent_basis(uu)
    az = 2.0 * np.pi * np.arange(n) / n
    ring = (
        np.cos(alpha) * uu[None, :]
        + np.sin(alpha) * (np.cos(az)[:, None] * e1[None, :] + np.sin(az)[:, None] * e2[None, :])
    )
    return ring / np.linalg.norm(ring, axis=1, keepdims=True)


def _checked_coeffs(coeffs, order: int, axis: int) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.float64)
    r = coeff_count(order)
    if arr.shape[axis] != r:
        raise ValueError(f"expected {r} coefficients along axis {axis}, got {arr.shape[axis]}")
    return arr


def degree_energies(coeffs, order: int, axis: int = 0) -> np.ndarray:
    """Sum of squared coefficients per even degree.

    ``coeffs`` has R entries along ``axis``; the result replaces that axis by
    one entry per even degree 0, 2, ..., order.
    """
    arr = _checked_coeffs(coeffs, order, axis)
    # degree l holds the contiguous coefficients l(l-1)/2 .. (l+1)(l+2)/2 - 1
    sq = np.ascontiguousarray(np.moveaxis(arr, axis, 0)) ** 2
    out = np.stack(
        [sq[l * (l - 1) // 2 : (l + 1) * (l + 2) // 2].sum(axis=0) for l in range(0, order + 1, 2)],
        axis=0,
    )
    return np.moveaxis(out, 0, axis)


def high_degree_energy_fraction(coeffs, order: int, axis: int = 0) -> np.ndarray:
    """Share of squared-coefficient energy in degrees l >= 2: 1 - c_0^2 / sum(c^2), 0 if c = 0."""
    arr = _checked_coeffs(coeffs, order, axis)
    dims = list(range(arr.ndim))
    # einsum sums the squares along axis without a squared copy of the array
    total = np.einsum(arr, dims, arr, dims, [d for d in dims if d != dims[axis]])
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0.0, 1.0 - np.take(arr, 0, axis=axis) ** 2 / total, 0.0)
