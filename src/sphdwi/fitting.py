"""Regularized least-squares transforms between q-space samples and SH space.

A :class:`FitOperator` factors the penalized normal matrix once and stores
M = (B^T B + lambda * diag(LB))^-1 B^T, after which transforming a whole
volume is a single matrix product per shell. All arithmetic is double
precision; volumes are 5-D arrays laid out as
(subjects, shells * channels, X, Y, Z) with the channels of shell s in the
contiguous block [s*C, (s+1)*C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dwio
from .errors import IllPosedFitError, MissingB0Error, ShapeError
from .shcore import (
    ShBasisSpec,
    as_unit_directions,
    coeff_count,
    eval_basis,
    laplace_beltrami_diag,
)

COND_LIMIT = 1e12


@dataclass(frozen=True)
class ShVolume:
    """Per-voxel SH coefficients, channel block of R coefficients per shell."""

    data: np.ndarray  # (subjects, shells * R, X, Y, Z), float64
    basis_spec: ShBasisSpec
    shells: int = 1

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        object.__setattr__(self, "data", arr)
        if arr.ndim != 5:
            raise ShapeError(f"SH volume must be 5-D, got shape {arr.shape}")
        expected = self.shells * self.basis_spec.coeff_count
        if arr.shape[1] != expected:
            raise ShapeError(
                f"SH volume has {arr.shape[1]} channels, expected "
                f"shells ({self.shells}) * R ({self.basis_spec.coeff_count}) = {expected}"
            )

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.data.shape[2:]

    def shell_coeffs(self, shell: int) -> np.ndarray:
        """View of shell ``shell`` as (subjects, R, X, Y, Z)."""
        r = self.basis_spec.coeff_count
        return self.data[:, shell * r : (shell + 1) * r]


@dataclass(frozen=True)
class DwiVolume:
    """Normalized diffusion signal, channel block of N samples per shell."""

    data: np.ndarray  # (subjects, shells * N, X, Y, Z), float64
    shells: int = 1
    scheme: dwio.GradientScheme | None = None

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        object.__setattr__(self, "data", arr)
        if arr.ndim != 5:
            raise ShapeError(f"DWI volume must be 5-D, got shape {arr.shape}")
        if self.shells < 1 or arr.shape[1] % self.shells != 0:
            raise ShapeError(
                f"channel count {arr.shape[1]} is not divisible by shells = {self.shells}"
            )
        if not np.isfinite(arr).all():
            raise ShapeError("DWI volume contains non-finite values")

    @property
    def samples_per_shell(self) -> int:
        return self.data.shape[1] // self.shells

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.data.shape[2:]


@dataclass(frozen=True)
class FitOperator:
    """Precomputed sample -> coefficient map for one gradient set."""

    basis_spec: ShBasisSpec
    gradients: np.ndarray       # (N, 3)
    lb_lambda: float
    basis_matrix: np.ndarray    # B, (N, R)
    fit_matrix: np.ndarray      # M = (B^T B + lambda L)^-1 B^T, (R, N)
    cond: float                 # 2-norm condition estimate of the normal matrix

    @property
    def n_gradients(self) -> int:
        return int(self.gradients.shape[0])


def _normal_system(
    dirs: np.ndarray, order: int, lb_lambda: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Basis B, penalized normal matrix B^T B + lambda L and its condition number.

    Raises :class:`IllPosedFitError` with the system dimensions when the
    system is underdetermined or numerically rank deficient. Shared by
    :func:`make_fit_operator` and the naive per-voxel oracle, so both paths
    reject the same inputs with the same messages.
    """
    n = dirs.shape[0]
    r = coeff_count(order)
    if lb_lambda == 0.0 and n < r:
        # N < R makes the normal matrix exactly singular
        raise IllPosedFitError(
            f"unregularized fit needs at least R = {r} directions, got N = {n} (cond = inf)"
        )
    basis = eval_basis(dirs, order)
    normal = basis.T @ basis + lb_lambda * np.diag(laplace_beltrami_diag(order))
    cond = float(np.linalg.cond(normal))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllPosedFitError(
            f"fit system is numerically rank deficient "
            f"(N = {n}, R = {r}, cond = {cond:.3e})"
        )
    return basis, normal, cond


def make_fit_operator(gradients, order: int, lb_lambda: float = 0.0) -> FitOperator:
    """Build the regularized least-squares operator for a gradient set.

    With lambda = 0 this requires at least R = (order+1)(order+2)/2 directions
    of full column rank; otherwise an :class:`IllPosedFitError` is raised with
    the system dimensions and a condition estimate.
    """
    dirs = as_unit_directions(gradients)
    if lb_lambda < 0:
        raise ValueError(f"regularization weight must be >= 0, got {lb_lambda}")
    basis, normal, cond = _normal_system(dirs, order, lb_lambda)
    try:
        lower = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as exc:
        raise IllPosedFitError(
            f"normal matrix is not positive definite "
            f"(N = {dirs.shape[0]}, R = {normal.shape[0]}, cond = {cond:.3e})"
        ) from exc
    # M = (L L^T)^-1 B^T: solve with L, then with L^T
    fit_matrix = np.ascontiguousarray(np.linalg.solve(lower.T, np.linalg.solve(lower, basis.T)))
    for arr in (dirs, basis, fit_matrix):
        arr.setflags(write=False)
    return FitOperator(
        basis_spec=ShBasisSpec(order),
        gradients=dirs,
        lb_lambda=float(lb_lambda),
        basis_matrix=basis,
        fit_matrix=fit_matrix,
        cond=cond,
    )


_BLOCK = 1024  # voxel columns per BLAS call


def _apply_channel_matrix(
    matrix: np.ndarray, stacked: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """out[b, s] = matrix @ stacked[b, s] over a (B, S, C_in, V) stack.

    The product runs serially in fixed-width blocks of _BLOCK voxel columns:
    full blocks are strided views of ``stacked`` multiplied straight into
    ``out``, and only the tail block is copied into a zero-padded buffer. So
    every BLAS call sees identical dimensions; kernel selection can depend
    on the operand shape (a lone column would go to gemv), and uniform calls
    keep each voxel's result bitwise identical however the volume is split,
    from a single voxel up to many subjects. Any parallelism comes from BLAS
    itself. ``out`` lets callers write into an existing buffer.
    """
    nb, ns, cin, nvox = stacked.shape
    if out is None:
        out = np.empty((nb, ns, matrix.shape[0], nvox))
    full = nvox - nvox % _BLOCK
    tail = np.zeros((cin, _BLOCK)) if full < nvox else None
    for b in range(nb):
        for s in range(ns):
            for lo in range(0, full, _BLOCK):
                hi = lo + _BLOCK
                np.matmul(matrix, stacked[b, s, :, lo:hi], out=out[b, s, :, lo:hi])
            if tail is not None:
                tail[:, : nvox - full] = stacked[b, s, :, full:]
                out[b, s, :, full:] = np.matmul(matrix, tail)[:, : nvox - full]
    return out


def _as_operator_list(op, shells: int) -> list[FitOperator]:
    ops = [op] if isinstance(op, FitOperator) else list(op)
    if len(ops) == 1:
        ops = ops * shells
    if len(ops) != shells:
        raise ShapeError(f"got {len(ops)} fit operators for {shells} shells")
    first = ops[0]
    for other in ops[1:]:
        if other.basis_spec.order != first.basis_spec.order:
            raise ShapeError("per-shell fit operators must share one SH order")
        if other.n_gradients != first.n_gradients:
            raise ShapeError("per-shell fit operators must share one gradient count")
    return ops


def signal_to_sh(vol: DwiVolume, op: FitOperator | Sequence[FitOperator]) -> ShVolume:
    """Fit SH coefficients to every voxel of a normalized DWI volume.

    ``op`` may be a single operator (shared by all shells) or one operator
    per shell with a common order and direction count.
    """
    ops = _as_operator_list(op, vol.shells)
    n = ops[0].n_gradients
    expected = vol.shells * n
    if vol.data.shape[1] != expected:
        raise ShapeError(
            f"DWI volume has {vol.data.shape[1]} channels, expected "
            f"shells ({vol.shells}) * N ({n}) = {expected}"
        )
    subjects = vol.data.shape[0]
    grid = vol.data.shape[2:]
    nvox = int(np.prod(grid))
    r = ops[0].basis_spec.coeff_count
    stacked = vol.data.reshape(subjects, vol.shells, n, nvox)
    coeffs = np.empty((subjects, vol.shells, r, nvox))
    for s, o in enumerate(ops):
        _apply_channel_matrix(o.fit_matrix, stacked[:, s : s + 1], out=coeffs[:, s : s + 1])
    out = coeffs.reshape(subjects, vol.shells * r, *grid)
    return ShVolume(data=out, basis_spec=ops[0].basis_spec, shells=vol.shells)


def sh_to_signal(sh: ShVolume, gradients) -> DwiVolume:
    """Evaluate an SH volume at arbitrary unit directions (per shell)."""
    dirs = as_unit_directions(gradients)
    basis = eval_basis(dirs, sh.basis_spec.order)
    subjects = sh.data.shape[0]
    grid = sh.data.shape[2:]
    nvox = int(np.prod(grid))
    r = sh.basis_spec.coeff_count
    stacked = sh.data.reshape(subjects, sh.shells, r, nvox)
    signals = _apply_channel_matrix(basis, stacked)
    out = signals.reshape(subjects, sh.shells * dirs.shape[0], *grid)
    return DwiVolume(data=out, shells=sh.shells)


def normalize_b0(
    raw,
    bvals_or_scheme,
    b0_threshold: float = dwio.B0_THRESHOLD,
    tolerance: float = dwio.SHELL_TOLERANCE,
    shells: Sequence[float] | None = None,
) -> tuple[DwiVolume, np.ndarray]:
    """Divide diffusion-weighted volumes by the mean b=0 volume.

    ``raw`` is the 4-D acquisition (X, Y, Z, volumes); ``bvals_or_scheme`` is
    either the b-value list or a :class:`~sphdwi.dwio.GradientScheme`.
    ``shells`` optionally restricts the output to the named nominal
    b-values. Voxels whose mean b0 falls at or below 1e-6 times the volume
    maximum produce 0 and are flagged in the returned exclusion mask
    (X, Y, Z boolean, True = excluded). Returns the shell-blocked
    :class:`DwiVolume` and that mask.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError(f"raw acquisition must be 4-D, got shape {arr.shape}")

    scheme: dwio.GradientScheme | None
    if isinstance(bvals_or_scheme, dwio.GradientScheme):
        scheme = bvals_or_scheme
        b0_idx, shell_table = scheme.b0_indices, scheme.shells
    else:
        scheme = None
        bvals = np.asarray(bvals_or_scheme, dtype=np.float64)
        b0_idx, shell_table = dwio.detect_shells(
            bvals, tolerance=tolerance, b0_threshold=b0_threshold
        )

    nvol = arr.shape[3]
    indexed = b0_idx.size + sum(s.indices.size for s in shell_table)
    if indexed != nvol:
        raise ShapeError(f"gradient table describes {indexed} volumes, data has {nvol}")
    if b0_idx.size == 0:
        raise MissingB0Error("acquisition has no b=0 volume to normalize against")

    if shells is not None:
        shell_table = dwio.select_shells(shell_table, shells, tolerance)
    if not shell_table:
        raise ShapeError("no diffusion-weighted shells selected")
    sizes = {s.indices.size for s in shell_table}
    if len(sizes) != 1:
        detail = ", ".join(f"b={s.bvalue:g}: {s.indices.size}" for s in shell_table)
        raise ShapeError(
            f"shells have unequal direction counts ({detail}); "
            "select shells of equal size"
        )

    mean_b0 = arr[..., b0_idx].mean(axis=3)
    eps = 1e-6 * float(mean_b0.max()) if mean_b0.size else 0.0
    excluded = mean_b0 <= eps
    denom = np.where(excluded, 1.0, mean_b0)

    blocks = []
    for sh in shell_table:
        block = arr[..., sh.indices] / denom[..., None]
        block[excluded] = 0.0
        blocks.append(block)
    stacked = np.concatenate(blocks, axis=3)  # (X, Y, Z, shells * m)
    data5d = np.moveaxis(stacked, 3, 0)[None, ...]

    if scheme is not None:
        keep = np.concatenate([s.indices for s in shell_table])
        sub = dwio.GradientScheme(
            directions=scheme.directions[keep],
            bvals=scheme.bvals[keep],
            b0_indices=np.array([], dtype=np.int64),
            shells=tuple(
                dwio.Shell(s.bvalue, np.arange(off, off + s.indices.size))
                for off, s in zip(
                    np.cumsum([0] + [s.indices.size for s in shell_table[:-1]]),
                    shell_table,
                )
            ),
            b0_threshold=b0_threshold,
        )
    else:
        sub = None
    vol = DwiVolume(data=data5d, shells=len(shell_table), scheme=sub)
    return vol, excluded
