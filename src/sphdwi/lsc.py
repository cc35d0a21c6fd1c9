"""Local spherical convolution over SH-resampled ring neighborhoods.

For every origin direction, concentric rings of resampled points are placed
at angular distances alpha, 2*alpha, ... (ring r holding kernel_sizes[r-1]
points). Each voxel's coefficients are resampled onto origin + rings, the
ring kernel is applied without reflection (cross-correlation semantics, as
in deep-learning convolutions), and the resulting per-origin scalars are
refit to SH at the requested output order. Kernels carry input/output shell
channels so multi-shell signals mix explicitly.

All three steps are linear, so :func:`lsc_operator` folds them into one
(S_out*R_out, S_in*R_in) matrix plus a constant offset, and
:func:`lsc_forward` applies that affine map to every voxel with
:func:`sphdwi.fitting._apply_affine`, the routine that applies every linear
stage (each voxel's result is bitwise the same however the volume is split
into subjects or blocks).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import dwio
from .errors import KernelMismatchError, ShapeError
from .fitting import FitOperator, ShVolume, _apply_affine, make_fit_operator
from .shcore import ShBasisSpec, as_unit_directions, eval_basis, ring_directions

KERNEL_JSON_FIELDS = ("shells_in", "shells_out", "kernel_sizes", "angular_distance", "weights", "bias")


@dataclass(frozen=True)
class LscKernel:
    """Ring-kernel weights (shells_out, shells_in, K) and per-output bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if w.ndim != 3:
            raise ShapeError(f"kernel weights must be (shells_out, shells_in, K), got {w.shape}")
        if b.shape != (w.shape[0],):
            raise ShapeError(f"bias must have one entry per output shell, got {b.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ShapeError("kernel contains non-finite entries")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def shells_out(self) -> int:
        return self.weights.shape[0]

    @property
    def shells_in(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_len(self) -> int:
        return self.weights.shape[2]


@dataclass(frozen=True)
class LscGeometry:
    """Resampling geometry and output-side refit for one origin set."""

    origins: np.ndarray             # (m, 3)
    alpha: float
    kernel_sizes: tuple[int, ...]
    order_in: int
    rings: tuple[np.ndarray, ...]   # ring r: (m, kernel_sizes[r], 3)
    resample_matrix: np.ndarray     # (m * K, R_in)
    refit: FitOperator

    @property
    def m(self) -> int:
        return int(self.origins.shape[0])

    @property
    def kernel_len(self) -> int:
        return 1 + sum(self.kernel_sizes)

    @property
    def order_out(self) -> int:
        return self.refit.basis_spec.order


def _kernel_sizes(kernel_sizes) -> tuple[int, ...]:
    """Ring sizes as a tuple of ints; raises ValueError unless all are :func:`_positive_int`."""
    sizes = tuple(kernel_sizes)
    if not sizes or not all(map(_positive_int, sizes)):
        raise ValueError(f"kernel_sizes must be non-empty positive integers, got {kernel_sizes}")
    return tuple(int(s) for s in sizes)


def _check_ring_angle(alpha: float, rings: int) -> None:
    """Raise ValueError unless ``rings`` rings spaced ``alpha`` apart stay inside the hemisphere.

    Written so that a NaN ``alpha`` fails it as well.
    """
    if not (0.0 < alpha and alpha * rings < np.pi / 2.0):
        raise ValueError(
            f"rings must stay inside the hemisphere: need 0 < alpha and "
            f"alpha * {rings} < pi/2, got alpha = {alpha}"
        )


def build_lsc_geometry(
    gradients,
    kernel_sizes,
    alpha: float,
    order_in: int,
    order_out: int,
    lb_lambda: float = 0.0,
) -> LscGeometry:
    """Place rings, assemble the resample matrix and build the refit operator.

    Ring r (1-based) sits at angular distance r * alpha and holds
    kernel_sizes[r-1] points; rows of the resample matrix are blocked per
    origin as [origin, ring-1 points in phase order, ring-2 points, ...].
    """
    origins = as_unit_directions(gradients)
    sizes = _kernel_sizes(kernel_sizes)
    _check_ring_angle(alpha, len(sizes))
    rings = [
        np.stack([ring_directions(u, r * alpha, npts) for u in origins])
        for r, npts in enumerate(sizes, start=1)
    ]
    all_dirs = np.concatenate([origins[:, None], *rings], axis=1).reshape(-1, 3)

    resample = eval_basis(all_dirs, order_in)
    refit = make_fit_operator(origins, order_out, lb_lambda)
    resample.setflags(write=False)
    return LscGeometry(
        origins=origins,
        alpha=float(alpha),
        kernel_sizes=sizes,
        order_in=order_in,
        rings=tuple(rings),
        resample_matrix=resample,
        refit=refit,
    )


def make_moving_average_kernel(kernel_sizes, shells_in: int = 1, shells_out: int = 1) -> LscKernel:
    """Uniform kernel: every weight 1 / (shells_in * K), bias zero."""
    sizes = _kernel_sizes(kernel_sizes)
    klen = 1 + sum(sizes)
    weights = np.full((shells_out, shells_in, klen), 1.0 / (shells_in * klen))
    return LscKernel(weights=weights, bias=np.zeros(shells_out))


def make_identity_kernel(kernel_sizes, shells: int = 1) -> LscKernel:
    """Kernel that keeps each shell's origin sample and ignores the rings."""
    sizes = _kernel_sizes(kernel_sizes)
    klen = 1 + sum(sizes)
    weights = np.zeros((shells, shells, klen))
    for s in range(shells):
        weights[s, s, 0] = 1.0
    return LscKernel(weights=weights, bias=np.zeros(shells))


def lsc_operator(kernel: LscKernel, geom: LscGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Fold resample, ring reduction and refit into one affine map.

    Returns ``(matrix, offset)`` with matrix (S_out*R_out, S_in*R_in) and
    offset (S_out*R_out,): block [o, s] of the matrix is
    ``M_refit @ sum_k w[o,s,k] * S_k``, where S_k holds the resample rows of
    kernel entry k for every origin, and ``offset[o] = bias[o] * M_refit @ 1``.
    """
    fit = geom.refit.fit_matrix                                    # (R_out, m)
    sampled = geom.resample_matrix.reshape(geom.m, geom.kernel_len, -1)
    reduced = np.einsum("osk,mkr->osmr", kernel.weights, sampled)  # (S_out, S_in, m, R_in)
    blocks = np.matmul(fit, reduced)                               # (S_out, S_in, R_out, R_in)
    s_out, s_in, r_out, r_in = blocks.shape
    matrix = np.ascontiguousarray(blocks.transpose(0, 2, 1, 3).reshape(s_out * r_out, s_in * r_in))
    offset = np.outer(kernel.bias, fit.sum(axis=1)).ravel()
    return matrix, offset


def lsc_forward(sh_in: ShVolume, kernel: LscKernel, geom: LscGeometry) -> ShVolume:
    """Apply a local spherical convolution to an SH volume.

    Per voxel and input shell the coefficients are resampled onto the
    origin+ring points, reduced with the kernel (one scalar per origin and
    output shell), and the origin scalars are refit to SH at the geometry's
    output order. The three steps run as the single affine map of
    :func:`lsc_operator`, applied by :func:`sphdwi.fitting._apply_affine`
    serially in fixed voxel blocks, so each voxel's output is bitwise the
    same whatever the subject count or grid size; BLAS supplies any
    parallelism.
    """
    if sh_in.basis_spec.order != geom.order_in:
        raise ShapeError(
            f"SH input order {sh_in.basis_spec.order} does not match "
            f"geometry input order {geom.order_in}"
        )
    if kernel.shells_in != sh_in.shells:
        raise ShapeError(
            f"kernel expects {kernel.shells_in} input shells, volume has {sh_in.shells}"
        )
    if kernel.kernel_len != geom.kernel_len:
        raise KernelMismatchError(
            f"kernel length K = {kernel.kernel_len} does not match "
            f"geometry K = {geom.kernel_len}"
        )

    matrix, offset = lsc_operator(kernel, geom)
    return ShVolume(
        data=_apply_affine(matrix, sh_in.data, offset=offset),
        basis_spec=ShBasisSpec(geom.order_out),
        shells=kernel.shells_out,
    )


def save_kernel_json(path: str, kernel: LscKernel, kernel_sizes, angular_distance: float) -> None:
    """Serialize a kernel with its ring layout to the interchange JSON format."""
    sizes = list(_kernel_sizes(kernel_sizes))
    if kernel.kernel_len != 1 + sum(sizes):
        raise KernelMismatchError(
            f"kernel length K = {kernel.kernel_len} does not match "
            f"kernel_sizes K = {1 + sum(sizes)}"
        )
    doc = {
        "shells_in": kernel.shells_in,
        "shells_out": kernel.shells_out,
        "kernel_sizes": sizes,
        "angular_distance": float(angular_distance),
        "weights": kernel.weights.tolist(),
        "bias": kernel.bias.tolist(),
    }
    with dwio._atomic_output(path) as tmp, open(tmp, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value > 0


def load_kernel_json(path: str) -> tuple[LscKernel, tuple[int, ...], float]:
    """Read a kernel JSON document; returns (kernel, kernel_sizes, angular_distance).

    A malformed document raises :class:`KernelMismatchError` naming the field.
    """
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise KernelMismatchError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise KernelMismatchError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    missing = [k for k in KERNEL_JSON_FIELDS if k not in doc]
    if missing:
        raise KernelMismatchError(f"{path}: missing fields {missing}")
    sizes = doc["kernel_sizes"]
    if not (isinstance(sizes, list) and sizes and all(map(_positive_int, sizes))):
        raise KernelMismatchError(
            f"{path}: kernel_sizes must be a non-empty list of positive integers, got {sizes!r}"
        )
    for name in ("shells_in", "shells_out"):
        if not _positive_int(doc[name]):
            raise KernelMismatchError(f"{path}: {name} must be a positive integer, got {doc[name]}")
    weights = np.asarray(doc["weights"], dtype=np.float64)
    bias = np.asarray(doc["bias"], dtype=np.float64)
    if weights.ndim != 3 or weights.shape[:2] != (doc["shells_out"], doc["shells_in"]):
        raise KernelMismatchError(
            f"{path}: weights shape {weights.shape} does not match declared shells "
            f"({doc['shells_out']} out, {doc['shells_in']} in)"
        )
    if weights.shape[2] != 1 + sum(sizes):
        raise KernelMismatchError(
            f"{path}: weights length K = {weights.shape[2]} does not match "
            f"kernel_sizes K = {1 + sum(sizes)}"
        )
    alpha = doc["angular_distance"]
    # the upper bound also rejects infinity, NaN and integers too large for a float
    if not _real(alpha) or not 0.0 < alpha <= sys.float_info.max:
        raise KernelMismatchError(
            f"{path}: angular_distance must be a finite number > 0, got {alpha!r}"
        )
    kernel = LscKernel(weights=weights, bias=bias)
    return kernel, tuple(sizes), float(alpha)
