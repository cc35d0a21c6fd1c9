"""Workload definitions: input generation and one pass of each pipeline.

``brain-nii`` and ``brain-gz`` run the three CLI commands in-process through
``sphdwi.cli.main``; ``patches-3shell`` runs the API in memory on a batch of
small multi-shell patches. Inputs are generated from the workload seed in a
separate process (see ``generate.py``); a runner only reads them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

import niftiio
import oracle

NOISE_SIGMA = 0.01


@dataclass(frozen=True)
class Brain:
    """Whole-brain single-shell volume through signal2sh -> lsc -> sh2signal."""

    name: str
    grid: tuple[int, int, int]
    gz: bool
    n_dirs: int = 60
    bvalue: float = 1000.0
    order: int = 8
    lb_lambda: float = 0.006
    ring: int = 5
    alpha: float = 0.6283185307


@dataclass(frozen=True)
class Patches:
    """Batch of multi-shell patches on the subjects axis, in memory."""

    name: str
    patches: int
    edge: int
    bvalues: tuple[float, ...] = (1000.0, 2000.0, 3000.0)
    n_dirs: int = 60
    order: int = 4
    lb_lambda: float = 0.006
    rings: tuple[int, ...] = (6, 12)
    alpha: float = math.pi / 5


WORKLOADS = {
    "full": {
        "brain-nii": Brain("brain-nii", (96, 96, 50), gz=False),
        "brain-gz": Brain("brain-gz", (96, 96, 50), gz=True),
        "patches-3shell": Patches("patches-3shell", patches=64, edge=12),
    },
    "smoke": {
        "brain-nii": Brain("brain-nii", (10, 8, 6), gz=False),
        "brain-gz": Brain("brain-gz", (10, 8, 6), gz=True),
        "patches-3shell": Patches("patches-3shell", patches=3, edge=4),
    },
}


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _patch_scheme(wl: Patches, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One b0 plus, per shell, the shipped direction table under its own rotation."""
    from sphdwi.directions import unit_sphere_directions

    rng = np.random.default_rng([seed, 1])
    base = unit_sphere_directions(wl.n_dirs)
    bvals = [0.0]
    dirs = [np.zeros((1, 3))]
    for b in wl.bvalues:
        bvals.extend([b] * wl.n_dirs)
        dirs.append(base @ _rotation(rng).T)
    return np.array(bvals), np.concatenate(dirs)


def generate(wl, seed: int, dest: str) -> float:
    """Write the workload's inputs into ``dest``; returns generate_phantom seconds."""
    import time

    from sphdwi import dwio, phantom

    if isinstance(wl, Brain):
        scheme = phantom.make_scheme(wl.n_dirs, bvalue=wl.bvalue, n_b0=1)
        grid = wl.grid
    else:
        bvals, dirs = _patch_scheme(wl, seed)
        b0_idx, shells = dwio.detect_shells(bvals)
        scheme = dwio.GradientScheme(directions=dirs, bvals=bvals, b0_indices=b0_idx, shells=shells)
        # one tall grid, cut into patches along z below
        grid = (wl.edge, wl.edge, wl.edge * wl.patches)
    spec = phantom.PhantomSpec(
        grid=grid, kind="bandlimited", order=wl.order, seed=seed, noise_sigma=NOISE_SIGMA
    )
    t0 = time.perf_counter()
    result = phantom.generate_phantom(spec, scheme)
    gen_s = time.perf_counter() - t0

    raw = result.data.astype(np.float32)
    niftiio.write_gradients(os.path.join(dest, "dwi"), scheme.bvals, scheme.directions)
    if isinstance(wl, Brain):
        niftiio.write_float32(os.path.join(dest, "dwi.nii.gz" if wl.gz else "dwi.nii"), raw)
    else:
        e, n = wl.edge, raw.shape[3]
        patches = raw.reshape(e, e, wl.patches, e, n).transpose(2, 0, 1, 3, 4)
        np.save(os.path.join(dest, "patches.npy"), np.ascontiguousarray(patches))
        rng = np.random.default_rng([seed, 2])
        s, k = len(wl.bvalues), 1 + sum(wl.rings)
        np.savez(
            os.path.join(dest, "kernel.npz"),
            weights=rng.uniform(0.0, 2.0 / (s * k), size=(s, s, k)),
            bias=rng.uniform(-0.1, 0.1, size=s),
        )
    return gen_s


def _read_gradients(inputs: str) -> tuple[np.ndarray, np.ndarray]:
    bvals = np.loadtxt(os.path.join(inputs, "dwi.bvals"), ndmin=1)
    dirs = np.loadtxt(os.path.join(inputs, "dwi.bvecs"), ndmin=2).T
    return bvals, dirs


class BrainRunner:
    """Runs the CLI chain on files; outputs land in ``run_dir``."""

    def __init__(self, wl: Brain, inputs: str, run_dir: str) -> None:
        self.wl = wl
        self.dwi = dwi = os.path.join(inputs, "dwi.nii.gz" if wl.gz else "dwi.nii")
        grad = [
            "--bvals", os.path.join(inputs, "dwi.bvals"),
            "--bvecs", os.path.join(inputs, "dwi.bvecs"),
            "--shell", f"{wl.bvalue:g}",
        ]
        sh = os.path.join(run_dir, "sh.nii")
        smooth = os.path.join(run_dir, "lsc.nii")
        self.signal = os.path.join(run_dir, "signal.nii.gz" if wl.gz else "signal.nii")
        self.outputs = (sh, smooth, self.signal)
        self.commands = (
            ["signal2sh", "--dwi", dwi, *grad, "--order", str(wl.order),
             "--lambda", str(wl.lb_lambda), "--out", sh],
            ["lsc", "--sh", sh, *grad, "--moving-average", f"{wl.ring},{wl.alpha!r}",
             "--lambda", str(wl.lb_lambda), "--out", smooth],
            ["sh2signal", "--sh", smooth, *grad, "--order", str(wl.order), "--out", self.signal],
        )
        bvals, dirs = _read_gradients(inputs)
        self.chain = oracle.Chain(
            bvals=bvals, directions=dirs, shells=(wl.bvalue,), order_in=wl.order,
            order_out=wl.order, lb_lambda=wl.lb_lambda, ring_sizes=(wl.ring,),
            alpha=wl.alpha, weights=np.full((1, 1, 1 + wl.ring), 1.0 / (1 + wl.ring)),
            bias=np.zeros(1),
        )
        self.tolerance = oracle.FLOAT32_TOL

    @property
    def voxels(self) -> int:
        return int(np.prod(self.wl.grid))

    def run_pass(self, span) -> None:
        from sphdwi import cli

        for argv in self.commands:
            with span(f"cli.{argv[0]}"):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"sphdwi {argv[0]} exited with code {code}")

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.outputs)

    def sample(self, voxels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(raw input rows, pipeline output rows) at F-order voxel indices."""
        raw, _shape = niftiio.read_voxels(self.dwi, voxels)
        got, shape = niftiio.read_voxels(self.signal, voxels)
        if shape != (*self.wl.grid, self.wl.n_dirs):
            raise ValueError(f"{self.signal}: shape {shape}, expected {(*self.wl.grid, self.wl.n_dirs)}")
        return raw, got

    def release(self) -> None:
        """Delete the outputs, so the next pass cannot be checked against stale files."""
        for path in self.outputs:
            if os.path.exists(path):
                os.unlink(path)


class PatchRunner:
    """Runs normalize_b0 per patch, then the batched API, in memory."""

    def __init__(self, wl: Patches, inputs: str) -> None:
        from sphdwi import dwio, lsc

        self.wl = wl
        self.patches = np.load(os.path.join(inputs, "patches.npy"))
        self.scheme = dwio.read_bvals_bvecs(
            os.path.join(inputs, "dwi.bvals"), os.path.join(inputs, "dwi.bvecs")
        )
        with np.load(os.path.join(inputs, "kernel.npz")) as k:
            weights, bias = k["weights"], k["bias"]
        self.kernel = lsc.LscKernel(weights=weights, bias=bias)
        bvals, dirs = _read_gradients(inputs)
        self.chain = oracle.Chain(
            bvals=bvals, directions=dirs, shells=wl.bvalues, order_in=wl.order,
            order_out=wl.order, lb_lambda=wl.lb_lambda, ring_sizes=wl.rings,
            alpha=wl.alpha, weights=weights, bias=bias,
        )
        self.tolerance = oracle.FLOAT64_TOL
        self.result: np.ndarray | None = None

    @property
    def voxels(self) -> int:
        return self.wl.patches * self.wl.edge**3

    def run_pass(self, span) -> None:
        from sphdwi import fitting, lsc

        wl = self.wl
        self.result = None
        vols = [fitting.normalize_b0(p, self.scheme)[0] for p in self.patches]
        scheme = vols[0].scheme
        batch = fitting.DwiVolume(
            data=np.concatenate([v.data for v in vols]), shells=len(scheme.shells), scheme=scheme
        )
        del vols
        ops = [
            fitting.make_fit_operator(scheme.shell_directions(s.bvalue), wl.order, wl.lb_lambda)
            for s in scheme.shells
        ]
        sh = fitting.signal_to_sh(batch, ops)
        del batch
        origins = scheme.shell_directions(scheme.shells[0].bvalue)
        geom = lsc.build_lsc_geometry(origins, wl.rings, wl.alpha, wl.order, wl.order, wl.lb_lambda)
        smooth = lsc.lsc_forward(sh, self.kernel, geom)
        del sh
        self.result = fitting.sh_to_signal(smooth, origins).data

    def output_bytes(self) -> int:
        """Bytes of the signal array the pass hands back (nothing goes to disk)."""
        return int(self.result.nbytes)

    def sample(self, voxels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(raw input rows, pipeline output rows) at C-order (patch, x, y, z) indices."""
        per = self.wl.edge**3
        p, v = np.divmod(voxels, per)
        n_in = self.patches.shape[-1]
        raw = self.patches.reshape(self.wl.patches, per, n_in)[p, v]
        out = self.result.reshape(self.wl.patches, self.result.shape[1], per)[p, :, v]
        return np.asarray(raw, dtype=np.float64), out

    def release(self) -> None:
        self.result = None


def runner(wl, inputs: str, run_dir: str):
    return BrainRunner(wl, inputs, run_dir) if isinstance(wl, Brain) else PatchRunner(wl, inputs)
