"""Synthetic diffusion phantoms for desk-scale verification.

Three per-voxel generators are available: a constant signal, seeded random
band-limited SH signals (their true coefficients are kept for oracle
comparisons), and a single-tensor signal exp(-b g^T D g). All generated
signals are antipodally symmetric by construction and kept positive at the
sampled directions.
"""

from __future__ import annotations

import errno
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dwio
from .shcore import coeff_count, basis_degrees, eval_basis

DEFAULT_S0 = 1000.0  # b0 signal of every voxel
TENSOR_DIAG = (1.7e-3, 0.3e-3, 0.3e-3)  # diffusion tensor of the 'tensor' kind, mm^2/s
_MIN_SIGNAL = 0.05


@dataclass(frozen=True)
class PhantomSpec:
    """What to generate: grid dimensions plus the per-voxel signal model.

    kind: 'constant' (signal == value), 'bandlimited' (seeded random SH
    coefficients of the given order) or 'tensor'
    (signal = exp(-b g^T D g), D = diag(TENSOR_DIAG)). Every kind is scaled
    by the b0 signal DEFAULT_S0.
    """

    grid: tuple[int, int, int]
    kind: str = "bandlimited"
    value: float = 1.0
    order: int = 4
    seed: int = 0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "bandlimited", "tensor"):
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        if len(self.grid) != 3 or any(int(g) < 1 for g in self.grid):
            raise ValueError(f"grid must be three positive dimensions, got {self.grid}")
        if not np.isfinite(self.value):
            raise ValueError(f"value must be finite, got {self.value}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class PhantomResult:
    """Raw 4-D acquisition plus, for band-limited phantoms, the true coefficients."""

    data: np.ndarray                  # (X, Y, Z, n_volumes)
    scheme: dwio.GradientScheme
    truth_coeffs: np.ndarray | None   # (X, Y, Z, R) or None
    paths: dict[str, str] = field(default_factory=dict)


def make_scheme(n_directions: int, bvalue: float = 1000.0, n_b0: int = 1) -> dwio.GradientScheme:
    """Scheme with ``n_b0`` leading b=0 rows and one shell from a shipped table.

    Raises ValueError for an ``n_b0`` below 1, since the signal is scaled by
    its b0, and for a ``bvalue`` that is not finite or not above the b0
    cutoff (dwio.B0_THRESHOLD, 50 s/mm^2), since that would leave no shell.
    """
    from .directions import unit_sphere_directions

    if n_b0 < 1:
        raise ValueError(f"n_b0 must be at least 1, got {n_b0}")
    if not (np.isfinite(bvalue) and bvalue > dwio.B0_THRESHOLD):
        raise ValueError(
            f"bvalue must be finite and above the b0 cutoff of {dwio.B0_THRESHOLD:g} "
            f"s/mm^2, got {bvalue:g}"
        )
    dirs = unit_sphere_directions(n_directions)
    total = n_b0 + n_directions
    directions = np.zeros((total, 3))
    directions[n_b0:] = dirs
    bvals = np.zeros(total)
    bvals[n_b0:] = bvalue
    b0_idx, shells = dwio.detect_shells(bvals)
    return dwio.GradientScheme(
        directions=directions, bvals=bvals, b0_indices=b0_idx, shells=shells
    )


def _bandlimited_coeffs(rng: np.random.Generator, order: int, nvox: int) -> np.ndarray:
    """Random coefficients with a fixed mean level and decaying degree amplitudes.

    The l > 0 part is shrunk per voxel when needed so the sampled signal
    stays above a small positive floor.
    """
    r = coeff_count(order)
    degs = basis_degrees(order).astype(np.float64)
    amp = 0.9 / (1.0 + degs * (degs + 1.0) / 4.0)
    coeffs = rng.uniform(-1.0, 1.0, size=(r, nvox)) * amp[:, None]
    coeffs[0] = 2.0 * np.sqrt(np.pi)  # constant part: unit mean signal
    return coeffs


def _enforce_positive(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    signal = basis @ coeffs
    base = coeffs[0] * basis[0, 0]  # constant level per voxel
    dev = np.max(np.abs(signal - base[None, :]), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(dev > 0.0, (base - _MIN_SIGNAL) / dev, 1.0)
    scale = np.clip(scale, 0.0, 1.0)
    coeffs[1:] *= scale[None, :]
    return coeffs


def generate_phantom(spec: PhantomSpec, scheme: dwio.GradientScheme) -> PhantomResult:
    """Generate the raw 4-D acquisition for a spec and gradient scheme."""
    rng = np.random.default_rng(spec.seed)
    grid = tuple(int(g) for g in spec.grid)
    nvox = int(np.prod(grid))
    nvol = scheme.n
    dwi_idx = np.concatenate([s.indices for s in scheme.shells]) if scheme.shells else np.array([], int)

    data = np.empty((nvox, nvol))
    data[:, scheme.b0_indices] = DEFAULT_S0
    truth = None

    if spec.kind == "constant":
        data[:, dwi_idx] = DEFAULT_S0 * spec.value
    elif spec.kind == "bandlimited":
        coeffs = _bandlimited_coeffs(rng, spec.order, nvox)
        for shell in scheme.shells:
            basis = eval_basis(scheme.directions[shell.indices], spec.order)
            coeffs = _enforce_positive(coeffs, basis)
        for shell in scheme.shells:
            basis = eval_basis(scheme.directions[shell.indices], spec.order)
            data[:, shell.indices] = DEFAULT_S0 * (basis @ coeffs).T
        truth = coeffs.T.reshape(*grid, -1)
    else:  # tensor
        d = np.diag(TENSOR_DIAG)
        for shell in scheme.shells:
            g = scheme.directions[shell.indices]
            b = scheme.bvals[shell.indices]
            decay = np.exp(-b * np.einsum("ni,ij,nj->n", g, d, g))
            data[:, shell.indices] = DEFAULT_S0 * decay[None, :]

    if spec.noise_sigma > 0.0:
        data = data + rng.normal(scale=spec.noise_sigma * DEFAULT_S0, size=data.shape)

    raw = data.reshape(*grid, nvol)
    return PhantomResult(data=raw, scheme=scheme, truth_coeffs=truth)


def make_phantom(spec: PhantomSpec, scheme: dwio.GradientScheme, out_prefix: str) -> PhantomResult:
    """Generate a phantom and write NIfTI + bvals/bvecs consumable by the CLI.

    Writes ``<prefix>.nii.gz``, ``.bvals``, ``.bvecs`` and, for band-limited
    phantoms, ``_truth.npy`` (the per-voxel true coefficients) as one set:
    into a new ``.sphdwi-`` directory beside them, always removed, then
    renamed into place in one loop. A failure before the renames leaves an
    existing set as it was; a refused rename raises an OSError naming the
    files already renamed. A prefix whose base name is empty, ``.`` or
    ``..`` (``""`` or ``sub/``) names no file: it raises FileNotFoundError
    before anything is generated. A missing parent directory is created.
    """
    if os.path.basename(out_prefix) in ("", os.curdir, os.pardir):
        raise FileNotFoundError(errno.ENOENT, "the output prefix names no file", out_prefix)
    result = generate_phantom(spec, scheme)
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    ends = {"nifti": ".nii.gz", "bvals": ".bvals", "bvecs": ".bvecs", "truth": "_truth.npy"}
    paths = {kind: str(prefix) + end for kind, end in ends.items()
             if kind != "truth" or result.truth_coeffs is not None}
    work = tempfile.mkdtemp(prefix=".sphdwi-", dir=prefix.parent)
    staged = {kind: os.path.join(work, os.path.basename(path)) for kind, path in paths.items()}
    try:
        dwio.write_nifti(staged["nifti"], result.data, dtype=np.float64)
        dwio.write_bvals_bvecs(scheme.bvals, scheme.directions, staged["bvals"], staged["bvecs"])
        if "truth" in paths:
            np.save(staged["truth"], result.truth_coeffs)
        placed = []
        for kind, path in reversed(paths.items()):  # the volume last
            try:
                os.replace(staged[kind], path)
            except OSError as exc:
                raise OSError(f"{path}: {exc}; renamed before it: {placed or 'none'}") from exc
            placed.append(path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return PhantomResult(
        data=result.data, scheme=scheme, truth_coeffs=result.truth_coeffs, paths=paths
    )
