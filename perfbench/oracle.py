"""Independent rebuild of the pipeline output on a sample of voxels.

The rebuild goes b0 normalization by hand, then the package's naive
per-voxel solver (``naive_signal_to_sh``), then the local spherical
convolution by hand from ``ring_directions`` / ``eval_basis``, the kernel
weights and a regularized refit solved with ``np.linalg.solve``, and finally
``eval_basis @ c``. None of the batched operators under test is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances are multiples of the storage precision times the output scale.
# The brain chain stores the SH coefficients twice and the signal once as
# float32; the deviation seen on the reference grid is about one float32
# ulp (1.3e-7), so 64 ulps leaves a wide margin.
FLOAT32_TOL = 64 * float(np.finfo(np.float32).eps)
# The in-memory chain stays float64; the deviation seen is about 3e-15, and
# reordering the arithmetic (a collapsed LSC operator) moves it by ~1e-14.
FLOAT64_TOL = 2.0**16 * float(np.finfo(np.float64).eps)

B0_MAX = 50.0


@dataclass(frozen=True)
class Chain:
    """Everything the rebuild needs, independent of the package's objects."""

    bvals: np.ndarray          # (n_vol,)
    directions: np.ndarray     # (n_vol, 3)
    shells: tuple[float, ...]  # nominal b-values, in output order
    order_in: int
    order_out: int
    lb_lambda: float
    ring_sizes: tuple[int, ...]
    alpha: float
    weights: np.ndarray        # (shells_out, shells_in, K)
    bias: np.ndarray           # (shells_out,)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    max_abs_dev: float
    tol: float
    samples: int


def sample_voxels(total: int, seed: int, pass_id: int, count: int = 1024) -> np.ndarray:
    """Seeded, sorted sample of voxel indices, fresh for every pass."""
    rng = np.random.default_rng([seed, pass_id, 7])
    return np.sort(rng.choice(total, size=min(count, total), replace=False))


def _lb_penalty(order: int) -> np.ndarray:
    degs = np.concatenate([np.full(2 * l + 1, l) for l in range(0, order + 1, 2)])
    return (degs * (degs + 1.0)) ** 2


def _refit(dirs: np.ndarray, values: np.ndarray, order: int, lam: float) -> np.ndarray:
    from sphdwi.shcore import eval_basis

    basis = eval_basis(dirs, order)
    normal = basis.T @ basis + lam * np.diag(_lb_penalty(order))
    return np.linalg.solve(normal, basis.T @ values)


def rebuild(chain: Chain, raw: np.ndarray) -> np.ndarray:
    """Pipeline output for raw voxel rows (k, n_vol); returns (k, shells_out * m)."""
    from sphdwi.bench import naive_signal_to_sh
    from sphdwi.fitting import DwiVolume
    from sphdwi.shcore import eval_basis, ring_directions

    k = raw.shape[0]
    b0 = chain.bvals <= B0_MAX
    signal = raw / raw[:, b0].mean(axis=1, keepdims=True)

    coeffs = []
    for b in chain.shells:
        idx = np.flatnonzero(np.abs(chain.bvals - b) <= B0_MAX)
        vol = DwiVolume(data=signal[:, idx].T.reshape(1, idx.size, k, 1, 1))
        fit = naive_signal_to_sh(vol, chain.directions[idx], chain.order_in, chain.lb_lambda)
        coeffs.append(fit.data.reshape(-1, k))

    origin_idx = np.flatnonzero(np.abs(chain.bvals - chain.shells[0]) <= B0_MAX)
    origins = chain.directions[origin_idx]
    points = []
    for u in origins:
        points.append(u[None, :])
        for r, n in enumerate(chain.ring_sizes, start=1):
            points.append(ring_directions(u, r * chain.alpha, n))
    klen = 1 + sum(chain.ring_sizes)
    resample = eval_basis(np.concatenate(points), chain.order_in)
    sampled = [(resample @ c).reshape(origins.shape[0], klen, k) for c in coeffs]

    out = []
    for o in range(chain.weights.shape[0]):
        values = np.full((origins.shape[0], k), chain.bias[o])
        for s, samp in enumerate(sampled):
            values += np.einsum("j,ijv->iv", chain.weights[o, s], samp)
        c_out = _refit(origins, values, chain.order_out, chain.lb_lambda)
        out.append(eval_basis(origins, chain.order_out) @ c_out)
    return np.concatenate(out, axis=0).T


def compare(got: np.ndarray, ref: np.ndarray, rel_tol: float) -> Verdict:
    """Pass when every sampled value is within rel_tol * max(1, max|ref|)."""
    tol = rel_tol * max(1.0, float(np.max(np.abs(ref))))
    if got.shape != ref.shape:
        return Verdict(False, float("inf"), tol, int(ref.shape[0]))
    dev = float(np.max(np.abs(got - ref))) if got.size else 0.0
    ok = bool(np.isfinite(got).all()) and dev <= tol
    return Verdict(ok, dev, tol, int(ref.shape[0]))
