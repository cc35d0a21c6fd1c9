"""Per-voxel reference kernels, numba-compiled with a pure-numpy fallback.

These are the deliberately naive solver and evaluator that serve as the
correctness oracle and the baseline of :mod:`sphdwi.bench`. The backend is
chosen by the SPHDWI_BACKEND environment variable:

* ``auto`` (default) - numba when it is importable, numpy otherwise
* ``numba``          - require numba, error if missing
* ``numpy``          - force the fallback path

Every public function also takes an explicit ``backend=`` override so the
two paths can be compared in one process. The batched transforms and the
local spherical convolution are not here on purpose: each is one
precomputed matrix applied by a plain BLAS product under any backend.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import BackendUnavailableError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

_ENV_VAR = "SPHDWI_BACKEND"


def default_backend() -> str:
    """Backend selected by the environment (resolved at call time)."""
    choice = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"{_ENV_VAR} must be auto, numba or numpy, got {choice!r}")
    if choice == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numba" and not HAVE_NUMBA:
        raise BackendUnavailableError(f"{_ENV_VAR}=numba but numba is not importable")
    return choice


def resolve_backend(backend: str | None) -> str:
    """Resolve an explicit override, falling back to the env flag."""
    if backend is None:
        return default_backend()
    if backend not in ("numba", "numpy"):
        raise ValueError(f"backend must be numba or numpy, got {backend!r}")
    if backend == "numba" and not HAVE_NUMBA:
        raise BackendUnavailableError("numba backend requested but numba is not importable")
    return backend


# ---------------------------------------------------------------------------
# per-voxel regularized normal-equations solve (the deliberately naive path)
# ---------------------------------------------------------------------------

def _naive_fit_numpy(basis, penalty, lam, signals):
    n, r = basis.shape
    nvox = signals.shape[1]
    bt = np.ascontiguousarray(basis.T)
    out = np.empty((r, nvox))
    for v in range(nvox):
        normal = bt @ basis + lam * np.diag(penalty)
        out[:, v] = np.linalg.solve(normal, bt @ signals[:, v])
    return out


def _naive_eval_numpy(basis, coeffs):
    n = basis.shape[0]
    nvox = coeffs.shape[1]
    out = np.empty((n, nvox))
    for v in range(nvox):
        out[:, v] = basis @ coeffs[:, v]
    return out


if HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _naive_fit_numba(basis, penalty, lam, signals, out):  # pragma: no cover
        n, r = basis.shape
        bt = np.ascontiguousarray(basis.T)
        nvox = signals.shape[1]
        for v in range(nvox):
            normal = bt @ basis
            for j in range(r):
                normal[j, j] += lam * penalty[j]
            rhs = bt @ np.ascontiguousarray(signals[:, v])
            out[:, v] = np.linalg.solve(normal, rhs)

    @njit(cache=True, nogil=True)
    def _naive_eval_numba(basis, coeffs, out):  # pragma: no cover
        n, r = basis.shape
        nvox = coeffs.shape[1]
        for v in range(nvox):
            for i in range(n):
                acc = 0.0
                for j in range(r):
                    acc += basis[i, j] * coeffs[j, v]
                out[i, v] = acc


def naive_fit(basis, penalty, lam, signals, backend: str | None = None) -> np.ndarray:
    """Solve (B^T B + lam diag(penalty)) c = B^T s per voxel, no reuse across voxels.

    basis: (N, R); signals: (N, V). Returns coefficients (R, V).
    """
    which = resolve_backend(backend)
    basis = np.ascontiguousarray(basis, dtype=np.float64)
    signals = np.ascontiguousarray(signals, dtype=np.float64)
    penalty = np.ascontiguousarray(penalty, dtype=np.float64)
    if which == "numpy":
        return _naive_fit_numpy(basis, penalty, float(lam), signals)
    out = np.empty((basis.shape[1], signals.shape[1]))
    _naive_fit_numba(basis, penalty, float(lam), signals, out)
    return out


def naive_eval(basis, coeffs, backend: str | None = None) -> np.ndarray:
    """Evaluate s = B c per voxel. basis: (N, R); coeffs: (R, V) -> (N, V)."""
    which = resolve_backend(backend)
    basis = np.ascontiguousarray(basis, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    if which == "numpy":
        return _naive_eval_numpy(basis, coeffs)
    out = np.empty((basis.shape[0], coeffs.shape[1]))
    _naive_eval_numba(basis, coeffs, out)
    return out


def warm_up() -> str:
    """Trigger jit compilation of all kernels; returns the active backend."""
    which = default_backend()
    basis = np.eye(3, 2)
    naive_fit(basis, np.zeros(2), 0.0, np.ones((3, 1)), backend=which)
    naive_eval(basis, np.ones((2, 1)), backend=which)
    return which
