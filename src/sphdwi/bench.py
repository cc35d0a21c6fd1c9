"""Benchmark: precomputed-operator batched transform vs naive per-voxel solves.

The naive path re-forms and solves the regularized normal equations from
scratch for every voxel (no factorization reuse); it doubles as the
correctness oracle for the batched path. Timings are medians over repeats
with one untimed warm-up per configuration, whose result is kept as the
reference output. BLAS is pinned to one thread for fairness: the batched
path's GEMMs must not get more cores than the naive path's small per-voxel
solves can use. Every OpenBLAS mapped into the process (numpy's, and
scipy's once scipy is imported) is found through /proc/self/maps and set
through its own exported thread-count functions via ctypes, then given its
earlier count back. Where no such library is found (MKL, Accelerate, not
Linux) BLAS runs unpinned, and ``BenchReport.blas_pinned`` says so. Two
measurement-hygiene rules keep the speedup-vs-volume curve about the
algorithm instead of the machine: the CPU data caches are scrubbed before
every timed run (small volumes must not be timed cache-hot), and batched
runs write into a reused output buffer (fresh multi-hundred-MB allocations
would otherwise spend most of their time in kernel page zeroing, a cost
that vanishes in any pipeline that transforms more than one volume).
CSV columns are fixed: direction,order,voxels,method,seconds,max_dev.
"""

from __future__ import annotations

import ctypes
import io
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .directions import unit_sphere_directions
from .fitting import (
    DwiVolume,
    ShVolume,
    _apply_affine,
    _normal_system,
    make_fit_operator,
    sh_to_signal,
    signal_to_sh,
)
from .phantom import _bandlimited_coeffs
from .shcore import ShBasisSpec, as_unit_directions, coeff_count, eval_basis, laplace_beltrami_diag

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
    blas_pinned: bool  # False when no OpenBLAS thread control was found and BLAS ran unpinned

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


# (get, set) thread-count symbol pairs, in the order tried on each library: the
# scipy-openblas wheels numpy and scipy bundle (ILP64, then LP64), then upstream
# OpenBLAS builds (ILP64 with the 64_ suffix, then plain)
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS mapped into this process.

    The libraries are the files in /proc/self/maps with "openblas" in their
    path; each one that exports a pair of :data:`_OPENBLAS_THREAD_SYMBOLS`
    contributes its first such pair. Nothing is loaded that is not mapped
    already (RTLD_NOLOAD). The list is empty where there is no such map
    (not Linux) or no such library (MKL, Accelerate).
    """
    try:
        with open("/proc/self/maps") as fh:
            # address, perms, offset, device, inode and, for a mapped file, its path
            fields = [line.rstrip("\n").split(maxsplit=5) for line in fh]
    except OSError:
        return []
    controls = []
    for path in sorted({f[5] for f in fields if len(f) == 6 and "openblas" in f[5].lower()}):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:  # not a library that can be opened, or no longer mapped
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextmanager
def _single_thread_blas():
    """Pin every OpenBLAS in the process to one thread; yields whether there was one.

    Each library found by :func:`_openblas_thread_controls` gets its earlier
    thread count back on exit, also when the body raises.
    """
    controls = _openblas_thread_controls()
    earlier = [get() for get, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(1)
        yield bool(controls)
    finally:
        for (_, set_threads), count in zip(controls, earlier):
            set_threads(count)


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


def _naive_per_shell(vol, channels_out: int, kernel) -> np.ndarray:
    """Run a per-voxel kernel on every subject's and shell's block of a 5-D volume.

    ``vol.data`` (subjects, shells * C, *grid) is viewed as
    (subjects, shells, C, voxels); kernel maps each (C, voxels) block to
    (channels_out, voxels). Returns (subjects, shells * channels_out, *grid).
    """
    subjects, channels = vol.data.shape[:2]
    grid = vol.data.shape[2:]
    nvox = int(np.prod(grid))
    stacked = vol.data.reshape(subjects, vol.shells, channels // vol.shells, nvox)
    out = np.empty((subjects, vol.shells, channels_out, nvox))
    for b in range(subjects):
        for s in range(vol.shells):
            out[b, s] = kernel(stacked[b, s])
    return out.reshape(subjects, vol.shells * channels_out, *grid)


def naive_signal_to_sh(vol: DwiVolume, gradients, order: int, lb_lambda: float = 0.0) -> ShVolume:
    """Per-voxel reference fit: solve the normal equations voxel by voxel."""
    dirs = as_unit_directions(gradients)
    basis, _normal, _cond = _normal_system(dirs, order, lb_lambda)
    penalty = laplace_beltrami_diag(order)
    data = _naive_per_shell(
        vol, coeff_count(order), lambda signals: _naive_fit(basis, penalty, lb_lambda, signals)
    )
    return ShVolume(data=data, basis_spec=ShBasisSpec(order), shells=vol.shells)


def naive_sh_to_signal(sh: ShVolume, gradients) -> DwiVolume:
    """Per-voxel reference evaluation of an SH volume at target directions."""
    basis = eval_basis(gradients, sh.basis_spec.order)
    data = _naive_per_shell(sh, basis.shape[0], lambda coeffs: _naive_eval(basis, coeffs))
    return DwiVolume(data=data, shells=sh.shells)


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
    timing includes the stage matrix's construction, which is exactly the
    cost the precomputation amortizes over the volume. The timed batched
    result must equal the public API's bit for bit; ``max_dev`` is the
    API's deviation from the naive oracle.
    """
    if not orders:
        raise ValueError("orders must name at least one SH order")
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3, got {repeats}")
    if voxel_count < 1:
        raise ValueError(f"voxel_count must be >= 1, got {voxel_count}")
    rows: list[BenchRow] = []
    with _single_thread_blas() as pinned:
        for order in orders:
            gradients, vol, shvol = _synth_inputs(order, voxel_count, seed, n_dirs)
            # (direction, input, output channels, stage matrix, naive oracle, public API)
            directions = (
                ("signal2sh", vol, coeff_count(order),
                 lambda: make_fit_operator(gradients, order, lb_lambda).fit_matrix,
                 lambda: naive_signal_to_sh(vol, gradients, order, lb_lambda),
                 lambda: signal_to_sh(vol, make_fit_operator(gradients, order, lb_lambda))),
                ("sh2signal", shvol, n_dirs,
                 lambda: eval_basis(gradients, order),
                 lambda: naive_sh_to_signal(shvol, gradients),
                 lambda: sh_to_signal(shvol, gradients)),
            )
            for direction, src, channels, build, naive, api in directions:
                buf = np.empty((1, channels, voxel_count, 1, 1))
                times, results = _interleaved_median_times(
                    {
                        "batched": lambda: _apply_affine(build(), src.data, out=buf),
                        "naive": naive,
                    },
                    repeats,
                )
                expected = api().data
                if not np.array_equal(buf, expected):  # not an assert: python -O strips those
                    raise RuntimeError(
                        f"{direction}, order {order}: the batched result differs from the API's"
                    )
                dev = float(np.max(np.abs(expected - results["naive"].data)))
                for method in ("batched", "naive"):
                    rows.append(BenchRow(direction, order, voxel_count, method, times[method], dev))
    return BenchReport(rows=rows, blas_pinned=pinned)
