"""Benchmark: precomputed-operator batched transform vs naive per-voxel solves.

The naive path re-forms and solves the regularized normal equations from
scratch for every voxel (no factorization reuse); it doubles as the
correctness oracle for the batched path. Timings are medians over repeats
with one untimed warm-up per configuration, whose result is kept as the
reference output, and BLAS pinned to one thread for fairness when
threadpoolctl is installed (``BenchReport.blas_pinned`` says whether it
was). Two measurement-hygiene rules keep the speedup-vs-volume
curve about the algorithm instead of the machine: the CPU data caches are
scrubbed before every timed run (small volumes must not be timed cache-hot),
and batched runs write into a reused output buffer (fresh multi-hundred-MB
allocations would otherwise spend most of their time in kernel page zeroing,
a cost that vanishes in any pipeline that transforms more than one volume).
CSV columns are fixed: direction,order,voxels,method,seconds,max_dev.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .directions import unit_sphere_directions
from .fitting import (
    DwiVolume,
    ShVolume,
    _apply_channel_matrix,
    _normal_system,
    make_fit_operator,
    sh_to_signal,
    signal_to_sh,
)
from .phantom import _bandlimited_coeffs
from .shcore import ShBasisSpec, coeff_count, eval_basis, laplace_beltrami_diag

CSV_HEADER = "direction,order,voxels,method,seconds,max_dev"


@dataclass(frozen=True)
class BenchRow:
    direction: str
    order: int
    voxels: int
    method: str
    seconds: float
    max_dev: float

    def as_csv(self) -> str:
        return (
            f"{self.direction},{self.order},{self.voxels},{self.method},"
            f"{self.seconds:.6f},{self.max_dev:.3e}"
        )


@dataclass
class BenchReport:
    rows: list[BenchRow]
    blas_pinned: bool  # False when threadpoolctl was missing and BLAS ran unpinned

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in self.rows:
            buf.write(row.as_csv() + "\n")
        return buf.getvalue()

    def row(self, direction: str, order: int, method: str) -> BenchRow:
        for r in self.rows:
            if (r.direction, r.order, r.method) == (direction, order, method):
                return r
        raise KeyError(f"no row ({direction}, {order}, {method})")

    def speedup(self, direction: str, order: int) -> float:
        return (
            self.row(direction, order, "naive").seconds
            / self.row(direction, order, "batched").seconds
        )


@contextmanager
def _single_thread_blas():
    """Pin BLAS to one thread; yields whether it could (needs threadpoolctl)."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        yield False
        return
    with threadpool_limits(limits=1):
        yield True


def _naive_fit(basis, penalty, lam, signals) -> np.ndarray:
    """Solve (B^T B + lam diag(penalty)) c = B^T s per voxel, no reuse across voxels.

    basis: (N, R); signals: (N, V). Returns coefficients (R, V).
    """
    basis = np.ascontiguousarray(basis, dtype=np.float64)
    signals = np.ascontiguousarray(signals, dtype=np.float64)
    penalty = np.ascontiguousarray(penalty, dtype=np.float64)
    lam = float(lam)
    r = basis.shape[1]
    nvox = signals.shape[1]
    bt = np.ascontiguousarray(basis.T)
    out = np.empty((r, nvox))
    for v in range(nvox):
        normal = bt @ basis + lam * np.diag(penalty)
        out[:, v] = np.linalg.solve(normal, bt @ signals[:, v])
    return out


def _naive_eval(basis, coeffs) -> np.ndarray:
    """Evaluate s = B c per voxel. basis: (N, R); coeffs: (R, V) -> (N, V)."""
    basis = np.ascontiguousarray(basis, dtype=np.float64)
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    n = basis.shape[0]
    nvox = coeffs.shape[1]
    out = np.empty((n, nvox))
    for v in range(nvox):
        out[:, v] = basis @ coeffs[:, v]
    return out


def naive_signal_to_sh(vol: DwiVolume, gradients, order: int, lb_lambda: float = 0.0) -> ShVolume:
    """Per-voxel reference fit: solve the normal equations voxel by voxel."""
    from .shcore import as_unit_directions

    dirs = as_unit_directions(gradients)
    basis, _normal, _cond = _normal_system(dirs, order, lb_lambda)
    penalty = laplace_beltrami_diag(order)
    n = dirs.shape[0]
    subjects = vol.data.shape[0]
    grid = vol.data.shape[2:]
    nvox = int(np.prod(grid))
    r = coeff_count(order)
    stacked = vol.data.reshape(subjects, vol.shells, n, nvox)
    out = np.empty((subjects, vol.shells, r, nvox))
    for b in range(subjects):
        for s in range(vol.shells):
            out[b, s] = _naive_fit(basis, penalty, lb_lambda, stacked[b, s])
    return ShVolume(
        data=out.reshape(subjects, vol.shells * r, *grid),
        basis_spec=ShBasisSpec(order),
        shells=vol.shells,
    )


def naive_sh_to_signal(sh: ShVolume, gradients) -> DwiVolume:
    """Per-voxel reference evaluation of an SH volume at target directions."""
    from .shcore import as_unit_directions

    dirs = as_unit_directions(gradients)
    basis = eval_basis(dirs, sh.basis_spec.order)
    subjects = sh.data.shape[0]
    grid = sh.data.shape[2:]
    nvox = int(np.prod(grid))
    r = sh.basis_spec.coeff_count
    stacked = sh.data.reshape(subjects, sh.shells, r, nvox)
    out = np.empty((subjects, sh.shells, dirs.shape[0], nvox))
    for b in range(subjects):
        for s in range(sh.shells):
            out[b, s] = _naive_eval(basis, stacked[b, s])
    return DwiVolume(data=out.reshape(subjects, sh.shells * dirs.shape[0], *grid), shells=sh.shells)


_scrub_buf = None


def _scrub_caches() -> None:
    """Push the input volume out of the CPU data caches before a timed run.

    Small volumes would otherwise be timed cache-hot, an advantage large
    volumes can never have; that masks the amortization effect the speedup
    sweep is meant to expose. A 256 MB read pass evicts stale lines (writes
    may use non-temporal stores and leave the cache alone). Code paths stay
    warm (one untimed warm-up run precedes the timed ones). The buffer is
    allocated on first use so importing the package stays cheap.
    """
    global _scrub_buf
    if _scrub_buf is None:
        _scrub_buf = np.ones(32 * 1024 * 1024)
    float(_scrub_buf.sum())


def _interleaved_median_times(fns: dict, repeats: int) -> dict:
    """Median timings with the competitors' repeats interleaved in one window.

    Host-load bursts on shared machines last seconds; timing method A's
    repeats and then method B's in disjoint windows lets one burst inflate a
    single method's median and corrupt the speedup ratio. Alternating the
    repeats exposes both methods to the same load profile. Returns the
    medians and the warm-up results, both keyed by name.
    """
    results = {name: fn() for name, fn in fns.items()}  # warm-up
    samples = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            _scrub_caches()
            t0 = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - t0)
    return {name: float(np.median(vals)) for name, vals in samples.items()}, results


def _synth_inputs(order: int, voxel_count: int, seed: int, n_dirs: int):
    rng = np.random.default_rng(seed)
    gradients = unit_sphere_directions(n_dirs)
    coeffs = _bandlimited_coeffs(rng, order, voxel_count)
    basis = eval_basis(gradients, order)
    signals = basis @ coeffs
    vol = DwiVolume(data=signals.reshape(1, n_dirs, voxel_count, 1, 1))
    shvol = ShVolume(
        data=coeffs.reshape(1, coeffs.shape[0], voxel_count, 1, 1),
        basis_spec=ShBasisSpec(order),
    )
    return gradients, vol, shvol


def _timed_batched_fit(vol, gradients, order, lb_lambda, out_buf):
    """One batched signal->SH pass: operator build (the amortized cost) plus
    the matrix application, written into a reused buffer so allocator page
    zeroing does not pollute small-volume timings."""
    op = make_fit_operator(gradients, order, lb_lambda)
    stacked = vol.data.reshape(1, vol.shells, gradients.shape[0], -1)
    _apply_channel_matrix(op.fit_matrix, stacked, out=out_buf)


def _timed_batched_eval(shvol, gradients, out_buf):
    basis = eval_basis(gradients, shvol.basis_spec.order)
    r = shvol.basis_spec.coeff_count
    stacked = shvol.data.reshape(1, shvol.shells, r, -1)
    _apply_channel_matrix(basis, stacked, out=out_buf)


def run_bench(
    orders,
    voxel_count: int,
    repeats: int = 3,
    seed: int = 0,
    lb_lambda: float = 0.006,
    n_dirs: int = 90,
) -> BenchReport:
    """Time batched vs naive transforms on seeded synthetic volumes.

    Emits one batched and one naive row per (direction, order). Batched
    timing includes operator construction, which is exactly the cost the
    precomputation amortizes over the volume.
    """
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3, got {repeats}")
    rows: list[BenchRow] = []
    pinned = True
    for order in orders:
        gradients, vol, shvol = _synth_inputs(order, voxel_count, seed, n_dirs)
        r = coeff_count(order)
        fit_buf = np.empty((1, 1, r, voxel_count))
        eval_buf = np.empty((1, 1, n_dirs, voxel_count))

        with _single_thread_blas() as ok:
            pinned &= ok
            fit_times, fit_results = _interleaved_median_times(
                {
                    "batched": lambda: _timed_batched_fit(
                        vol, gradients, order, lb_lambda, fit_buf
                    ),
                    "naive": lambda: naive_signal_to_sh(vol, gradients, order, lb_lambda),
                },
                repeats,
            )
        op = make_fit_operator(gradients, order, lb_lambda)
        fitted = signal_to_sh(vol, op)
        reference = fit_results["naive"]
        dev_fit = float(np.max(np.abs(fitted.data - reference.data)))
        assert np.array_equal(fit_buf.reshape(fitted.data.shape), fitted.data)
        rows.append(
            BenchRow("signal2sh", order, voxel_count, "batched", fit_times["batched"], dev_fit)
        )
        rows.append(
            BenchRow("signal2sh", order, voxel_count, "naive", fit_times["naive"], dev_fit)
        )

        with _single_thread_blas() as ok:
            pinned &= ok
            eval_times, eval_results = _interleaved_median_times(
                {
                    "batched": lambda: _timed_batched_eval(shvol, gradients, eval_buf),
                    "naive": lambda: naive_sh_to_signal(shvol, gradients),
                },
                repeats,
            )
        evaluated = sh_to_signal(shvol, gradients)
        reference_s = eval_results["naive"]
        dev_eval = float(np.max(np.abs(evaluated.data - reference_s.data)))
        rows.append(
            BenchRow("sh2signal", order, voxel_count, "batched", eval_times["batched"], dev_eval)
        )
        rows.append(
            BenchRow("sh2signal", order, voxel_count, "naive", eval_times["naive"], dev_eval)
        )

    return BenchReport(rows=rows, blas_pinned=pinned)
