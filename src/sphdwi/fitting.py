"""Regularized least-squares transforms between q-space samples and SH space.

A :class:`FitOperator` factors the penalized normal matrix once and stores
M = (B^T B + lambda * diag(LB))^-1 B^T. Every linear stage of the package
(the fit, the evaluation at directions and the local spherical convolution
of :mod:`sphdwi.lsc`) is a precomputed matrix applied to each voxel by one
routine, :func:`_apply_affine`. All arithmetic is double
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


def _check_data(vol, kind: str) -> np.ndarray:
    """Store ``vol.data`` as float64 and C-contiguous; :class:`ShapeError` unless 5-D and finite.

    The data is copied only when it is not float64 and C-contiguous
    already, and the finite check (:func:`_all_finite`) allocates nothing
    the size of the volume.
    """
    arr = np.ascontiguousarray(vol.data, dtype=np.float64)
    if arr.ndim != 5:
        raise ShapeError(f"{kind} volume must be 5-D, got shape {arr.shape}")
    if not _all_finite(arr):
        raise ShapeError(f"{kind} volume contains non-finite values")
    object.__setattr__(vol, "data", arr)
    return arr


@dataclass(frozen=True)
class ShVolume:
    """Per-voxel SH coefficients, channel block of R coefficients per shell."""

    data: np.ndarray  # (subjects, shells * R, X, Y, Z), float64
    basis_spec: ShBasisSpec
    shells: int = 1

    def __post_init__(self) -> None:
        arr = _check_data(self, "SH")
        expected = self.shells * self.basis_spec.coeff_count
        if arr.shape[1] != expected:
            raise ShapeError(
                f"SH volume has {arr.shape[1]} channels, expected "
                f"shells ({self.shells}) * R ({self.basis_spec.coeff_count}) = {expected}"
            )

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
        arr = _check_data(self, "DWI")
        if self.shells < 1 or arr.shape[1] % self.shells != 0:
            raise ShapeError(
                f"channel count {arr.shape[1]} is not divisible by shells = {self.shells}"
            )


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


def _check_weight(lb_lambda: float) -> None:
    """Raise ValueError unless the Laplace-Beltrami weight is finite and >= 0."""
    if not (np.isfinite(lb_lambda) and lb_lambda >= 0):
        raise ValueError(f"regularization weight must be finite and >= 0, got {lb_lambda}")


def make_fit_operator(gradients, order: int, lb_lambda: float = 0.0) -> FitOperator:
    """Build the regularized least-squares operator for a gradient set.

    With lambda = 0 this requires at least R = (order+1)(order+2)/2 directions
    of full column rank; otherwise an :class:`IllPosedFitError` is raised with
    the system dimensions and a condition estimate.
    """
    dirs = as_unit_directions(gradients)
    _check_weight(lb_lambda)
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
_FINITE_PIECE = 64 * _BLOCK  # elements per np.isfinite call of _all_finite


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every element of the C-contiguous array ``arr`` is finite.

    The elements are checked _FINITE_PIECE at a time into one reused bool
    buffer, so no temporary grows with ``arr``, and the check stops at the
    first piece that holds a non-finite value. A signalling NaN counts as
    non-finite and raises no numpy warning.
    """
    flat = arr.reshape(-1)
    flags = np.empty(min(flat.size, _FINITE_PIECE), dtype=bool)
    for lo in range(0, flat.size, _FINITE_PIECE):
        part = flat[lo : lo + _FINITE_PIECE]
        if not np.isfinite(part, out=flags[: part.size]).all():
            return False
    return True


def _apply_affine(
    matrix: np.ndarray,
    data: np.ndarray,
    offset: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a linear stage, plus an optional offset, to every voxel of a 5-D volume.

    ``data`` is (B, groups * C_in, X, Y, Z). ``matrix`` is one (C_out, C_in)
    matrix shared by every channel group, so that groups is the channel
    count over C_in, or a (groups, C_out, C_in) stack with one matrix per
    group; a channel count that is not groups * C_in raises
    :class:`ShapeError`. ``offset`` has shape (groups * C_out,). The
    result, written into ``out`` when given (a C-contiguous buffer), is
    (B, groups * C_out, X, Y, Z): group g of the output is matrix[g] times
    group g of the input, plus its slice of ``offset``.

    The product runs serially in fixed-width blocks of _BLOCK voxel columns:
    full blocks are strided views of ``data`` multiplied straight into
    ``out``, and only the tail block is copied into a zero-padded buffer. So
    every BLAS call sees identical dimensions; kernel selection can depend
    on the operand shape (a lone column would go to gemv), and uniform calls
    keep each voxel's result bitwise identical however the volume is split,
    from a single voxel up to many subjects. Any parallelism comes from BLAS
    itself.
    """
    cout, cin = matrix.shape[-2:]
    nb, nch = data.shape[:2]
    # at least one group, so that a volume of fewer than C_in channels is refused
    mats = [matrix] * max(1, nch // cin) if matrix.ndim == 2 else matrix
    groups = len(mats)
    if nch != groups * cin:
        raise ShapeError(
            f"volume has {nch} channels, expected groups ({groups}) * C_in ({cin}) "
            f"= {groups * cin}"
        )
    if out is None:
        out = np.empty((nb, groups * cout, *data.shape[2:]))
    src = data.reshape(nb, groups, cin, -1)
    dst = out.reshape(nb, groups, cout, -1)
    nvox = src.shape[3]
    full = nvox - nvox % _BLOCK
    tail = np.zeros((cin, _BLOCK)) if full < nvox else None
    for b in range(nb):
        for g, mat in enumerate(mats):
            for lo in range(0, full, _BLOCK):
                hi = lo + _BLOCK
                np.matmul(mat, src[b, g, :, lo:hi], out=dst[b, g, :, lo:hi])
            if tail is not None:
                tail[:, : nvox - full] = src[b, g, :, full:]
                dst[b, g, :, full:] = np.matmul(mat, tail)[:, : nvox - full]
    if offset is not None:
        dst += offset.reshape(groups, cout, 1)
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
    coeffs = _apply_affine(np.stack([o.fit_matrix for o in ops]), vol.data)
    return ShVolume(data=coeffs, basis_spec=ops[0].basis_spec, shells=vol.shells)


def sh_to_signal(sh: ShVolume, gradients) -> DwiVolume:
    """Evaluate an SH volume at arbitrary unit directions (per shell)."""
    basis = eval_basis(gradients, sh.basis_spec.order)
    return DwiVolume(data=_apply_affine(basis, sh.data), shells=sh.shells)


def _plan_shells(
    b0_idx: np.ndarray, shell_table, shells: Sequence[float] | None = None
) -> tuple[dwio.Shell, ...]:
    """The shells of ``shell_table`` to process, from a gradient table alone.

    Raises :class:`MissingB0Error` when ``b0_idx`` is empty, then the errors
    of :func:`sphdwi.dwio.select_shells` for ``shells``; so it can run
    before the volume is opened.
    """
    if b0_idx.size == 0:
        raise MissingB0Error("acquisition has no b=0 volume to normalize against")
    return dwio.select_shells(shell_table, shells)


def _check_volume_count(nvol: int, b0_idx, shell_table) -> None:
    """Raise :class:`ShapeError` unless the table's b0 and shell indices cover ``nvol`` volumes."""
    indexed = b0_idx.size + sum(s.indices.size for s in shell_table)
    if indexed != nvol:
        raise ShapeError(f"gradient table describes {indexed} volumes, data has {nvol}")


def _b0_mean(b0: np.ndarray) -> np.ndarray:
    """The per-voxel mean of b0 samples (volumes, voxels...).

    The rows are summed one after another, so the bits depend neither on
    the memory layout of ``b0`` nor on how its voxels are split into parts.
    A signalling NaN gives NaN, with no numpy warning.
    """
    with np.errstate(invalid="ignore"):
        total = np.array(b0[0], dtype=np.float64)
        for row in b0[1:]:
            total += row
        return total / b0.shape[0]


def _b0_threshold(mean_b0: np.ndarray, eps: float = -np.inf) -> float:
    """The b0 rule's threshold: 1e-6 times the largest per-voxel mean b0 of :func:`_b0_mean`.

    ``mean_b0`` may be one part of a volume's means, given with ``eps``,
    the threshold of the parts before it. Multiplying by 1e-6 is monotone
    in floating point, so the largest threshold of the parts is the
    volume's, bit for bit, however its voxels are split. A non-finite mean
    raises :class:`ShapeError`, as it would make the threshold itself
    infinite or undefined; that check (:func:`_all_finite`) allocates
    nothing the size of ``mean_b0``.
    """
    if not _all_finite(mean_b0):
        raise ShapeError("b0 volumes contain non-finite values")
    return max(eps, 1e-6 * float(mean_b0.max())) if mean_b0.size else eps


def _b0_denominator(mean_b0: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """The b0 rule: (excluded, denominator) of per-voxel means under the threshold ``eps``.

    ``mean_b0`` holds all or part of a volume's means, and ``eps`` is the
    volume's :func:`_b0_threshold`. Voxels whose mean falls at or below it
    are excluded (True) and get a denominator of 1; the others are divided
    by their mean. The denominator is ``mean_b0`` itself, overwritten in
    place, so only the mask is allocated.
    """
    excluded = mean_b0 <= eps
    mean_b0[excluded] = 1.0
    return excluded, mean_b0


def _normalize_block(
    x: np.ndarray, denom: np.ndarray, excluded: np.ndarray, out: np.ndarray
) -> None:
    """out = x / denom with the excluded voxels set to 0; x and out are (samples, voxels...).

    A quotient that overflows becomes inf, and a signalling NaN a NaN,
    without a numpy warning: each caller's finite check that follows
    reports it (the CLI's names the volume and voxel).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(x, denom, out=out)
    out[:, excluded] = 0.0


def normalize_b0(
    raw, bvals_or_scheme, shells: Sequence[float] | None = None
) -> tuple[DwiVolume, np.ndarray]:
    """Divide diffusion-weighted volumes by the mean b=0 volume.

    ``raw`` is the 4-D acquisition (X, Y, Z, volumes); ``bvals_or_scheme`` is
    either the b-value list, grouped by :func:`sphdwi.dwio.detect_shells`,
    or a :class:`~sphdwi.dwio.GradientScheme`, whose own b0 indices and
    shells are used. ``shells`` optionally restricts the output to the
    named nominal b-values (see :func:`sphdwi.dwio.select_shells`). The
    mean b0 sums the b0 volumes in acquisition order, so its bits do not
    depend on the memory layout of ``raw``, nor on its dtype: samples are
    upcast one at a time, never as a float64 copy of ``raw``. Voxels whose
    mean b0 falls at or below 1e-6 times the volume maximum produce 0 and
    are flagged in the returned exclusion mask (X, Y, Z boolean, True =
    excluded); a non-finite b0 value raises :class:`ShapeError`. Returns
    the shell-blocked :class:`DwiVolume` and that mask.
    """
    arr = np.asarray(raw)
    if arr.ndim != 4:
        raise ShapeError(f"raw acquisition must be 4-D, got shape {arr.shape}")
    if isinstance(bvals_or_scheme, dwio.GradientScheme):
        scheme = bvals_or_scheme
        b0_idx, table = scheme.b0_indices, scheme.shells
    else:
        scheme = None
        b0_idx, table = dwio.detect_shells(bvals_or_scheme)
    _check_volume_count(arr.shape[3], b0_idx, table)
    shell_table = _plan_shells(b0_idx, table, shells)
    mean = _b0_mean(np.moveaxis(arr[..., b0_idx], 3, 0))
    excluded, denom = _b0_denominator(mean, _b0_threshold(mean))
    keep = np.concatenate([s.indices for s in shell_table])
    data = np.empty((1, keep.size, *arr.shape[:3]))
    _normalize_block(np.moveaxis(arr[..., keep], 3, 0), denom, excluded, out=data[0])

    sub = None
    if scheme is not None:
        m = shell_table[0].indices.size
        sub = dwio.GradientScheme(
            directions=scheme.directions[keep],
            bvals=scheme.bvals[keep],
            b0_indices=np.array([], dtype=np.int64),
            shells=tuple(
                dwio.Shell(s.bvalue, np.arange(k * m, (k + 1) * m))
                for k, s in enumerate(shell_table)
            ),
        )
    return DwiVolume(data=data, shells=len(shell_table), scheme=sub), excluded
