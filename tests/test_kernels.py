"""Numba and numpy kernel backends must agree and honor the env flag."""

import numpy as np
import pytest

from sphdwi import _kernels
from sphdwi.errors import BackendUnavailableError
from sphdwi.shcore import eval_basis, laplace_beltrami_diag
from sphdwi.directions import unit_sphere_directions

needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba not installed")


class TestBackendSelection:
    def test_env_flag_numpy(self, monkeypatch):
        monkeypatch.setenv("SPHDWI_BACKEND", "numpy")
        assert _kernels.default_backend() == "numpy"

    @needs_numba
    def test_env_flag_auto_prefers_numba(self, monkeypatch):
        monkeypatch.setenv("SPHDWI_BACKEND", "auto")
        assert _kernels.default_backend() == "numba"

    def test_env_flag_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("SPHDWI_BACKEND", "fortran")
        with pytest.raises(ValueError):
            _kernels.default_backend()

    def test_explicit_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("SPHDWI_BACKEND", "numpy")
        assert _kernels.resolve_backend("numpy") == "numpy"

    def test_forced_numba_without_numba_raises(self, monkeypatch):
        monkeypatch.setattr(_kernels, "HAVE_NUMBA", False)
        monkeypatch.setenv("SPHDWI_BACKEND", "numba")
        with pytest.raises(BackendUnavailableError, match="numba"):
            _kernels.default_backend()
        with pytest.raises(RuntimeError, match="numba"):
            _kernels.resolve_backend("numba")

@needs_numba
class TestBackendEquivalence:
    def test_naive_fit(self, rng):
        basis = eval_basis(unit_sphere_directions(30), 4)
        penalty = laplace_beltrami_diag(4)
        signals = rng.normal(size=(30, 50)) + 1.0
        a = _kernels.naive_fit(basis, penalty, 0.006, signals, backend="numpy")
        b = _kernels.naive_fit(basis, penalty, 0.006, signals, backend="numba")
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_naive_eval(self, rng):
        basis = eval_basis(unit_sphere_directions(30), 4)
        coeffs = rng.normal(size=(15, 40))
        a = _kernels.naive_eval(basis, coeffs, backend="numpy")
        b = _kernels.naive_eval(basis, coeffs, backend="numba")
        assert np.max(np.abs(a - b)) <= 1e-13


class TestWarmUp:
    def test_warm_up_reports_backend(self):
        assert _kernels.warm_up() in ("numba", "numpy")
