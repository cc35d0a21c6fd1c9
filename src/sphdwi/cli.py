"""Command-line surface: signal2sh, sh2signal, lsc, bench and phantom.

Exit codes: 0 success, 2 usage/validation, 3 numerical failure, 4 I/O
failure. Diagnostics go to stderr; data and CSV go to --out or stdout.
Angles are radians (pi/5 = 0.6283185307). Output files are written to a
temporary sibling and renamed into place, so failures never leave partial
files behind; an --out whose directory does not exist exits 4 before any
input is read.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import bench as bench_mod
from . import dwio, fitting, lsc, phantom
from .errors import GradientParseError, ShapeError, SphdwiError
from .fitting import DwiVolume, ShVolume, make_fit_operator, sh_to_signal, signal_to_sh
# Not called here; perfbench/spans.py patches this name on this module.
from .fitting import normalize_b0  # noqa: F401
from .shcore import ShBasisSpec, as_unit_directions, coeff_count, high_degree_energy_fraction

_EXIT_VALIDATION = 2
_EXIT_IO = 4

_ORDER_FOR_R = {coeff_count(order): order for order in range(0, 17, 2)}


def _err(msg: str) -> None:
    print(f"sphdwi: {msg}", file=sys.stderr)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphdwi",
        description="Spherical-harmonic transforms and local spherical convolution "
        "for diffusion-MRI volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signal2sh", help="b0-normalize a DWI volume and fit SH coefficients")
    p.add_argument("--dwi", required=True, help="4-D NIfTI acquisition")
    p.add_argument("--bvals", required=True)
    p.add_argument("--bvecs", required=True)
    p.add_argument("--order", type=int, default=4, help="even SH order (default 4)")
    p.add_argument("--lambda", dest="lb_lambda", type=float, default=0.006,
                   help="Laplace-Beltrami weight (default 0.006)")
    p.add_argument("--shell", type=float, action="append",
                   help="nominal b-value to fit; repeatable (default: all shells)")
    p.add_argument("--out", required=True, help="output SH NIfTI (shells*R volumes)")

    p = sub.add_parser("sh2signal", help="evaluate SH coefficients at target directions")
    p.add_argument("--sh", required=True, help="SH NIfTI from signal2sh/lsc")
    p.add_argument("--dirs", help="text file with one 'x y z' direction per row")
    p.add_argument("--bvals")
    p.add_argument("--bvecs")
    p.add_argument("--shell", type=float, action="append",
                   help="take target directions from this shell of --bvals/--bvecs; "
                   "give it once (a repeat exits 2)")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lsc", help="local spherical convolution of an SH volume")
    p.add_argument("--sh", required=True)
    p.add_argument("--bvals", required=True)
    p.add_argument("--bvecs", required=True)
    p.add_argument("--shell", type=float, action="append",
                   help="shell(s) whose directions are the kernel origins; repeatable")
    p.add_argument("--kernel", help="kernel JSON file")
    p.add_argument("--moving-average", metavar="N,ALPHA",
                   help="uniform kernel: ring of N points at angle ALPHA (radians)")
    p.add_argument("--order-out", type=int, help="output SH order (default: input order)")
    p.add_argument("--lambda", dest="lb_lambda", type=float, default=0.006)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench", help="batched vs naive transform benchmark (CSV)")
    p.add_argument("--orders", default="2,4,6,8", help="comma-separated even orders")
    p.add_argument("--voxels", type=int, default=450_000)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dirs", type=int, default=90, choices=(30, 60, 90))
    p.add_argument("--lambda", dest="lb_lambda", type=float, default=0.006)
    p.add_argument("--out", help="CSV path (default: stdout)")

    p = sub.add_parser("phantom", help="write a synthetic phantom + gradient files")
    p.add_argument("--kind", choices=("constant", "bandlimited", "tensor"), default="bandlimited")
    p.add_argument("--grid", default="8,8,8", help="X,Y,Z dimensions")
    p.add_argument("--dirs", type=int, default=30, choices=(30, 60, 90))
    p.add_argument("--bvalue", type=float, default=1000.0)
    p.add_argument("--n-b0", type=int, default=1)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--value", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out-prefix", required=True)
    return parser


def _sh_layout(path: str, nvol: int, order: int | None = None, shells: int | None = None):
    """(order, shells) of an SH volume of ``nvol`` = shells * R volumes.

    Give the order (the shell count follows) or the shell count (the order
    follows).
    """
    if order is not None:
        r = coeff_count(order)
        if nvol % r != 0:
            raise ShapeError(
                f"{path}: {nvol} volumes is not a multiple of R = {r} "
                f"for order {order} (expects {r})"
            )
        return order, nvol // r
    if nvol % shells != 0 or (nvol // shells) not in _ORDER_FOR_R:
        raise ShapeError(
            f"{path}: cannot infer SH order from {nvol} volumes and {shells} shell(s)"
        )
    return _ORDER_FOR_R[nvol // shells], shells


# The three volume commands work on the NIfTI payload itself: a single-file
# NIfTI stores (X, Y, Z, C) in Fortran order, which is a C-order (C, V)
# channel matrix (dwio.NiftiRows). _chunks goes through it in chunks of
# _STREAM voxel columns: it reads a chunk's rows of stored values into one
# reused staging buffer (positioned reads from an uncompressed file; a
# .nii.gz input is inflated whole first) and converts them to float64 in a
# second reused buffer. _stream hands each chunk to the 5-D API as a
# (1, C, width, 1, 1) volume and hands the result to one writer,
# dwio.write_nifti_rows, which casts it to float32. An uncompressed output
# gets each chunk's rows written at their offsets in the file; a .nii.gz
# output is collected whole and deflated once, when the last chunk is in.

_STREAM = 16 * fitting._BLOCK  # voxel columns per chunk of _stream


@contextmanager
def _read_channels(path: str):
    """Open the 4-D NIfTI at ``path`` as a :class:`sphdwi.dwio.NiftiRows`."""
    with dwio.NiftiRows(path) as vol:
        if len(vol.shape) != 4:
            raise ShapeError(f"{path}: expected a 4-D volume, got {len(vol.shape)}-D")
        yield vol


def _check_finite(x: np.ndarray, vol, rows, lo: int, excluded) -> None:
    """Raise ShapeError naming the file, volume and voxel of a non-finite value of ``x``.

    ``x`` holds rows ``rows`` of voxel columns lo:lo + width; values at
    ``excluded`` voxels (a mask over all voxels, or None) are not checked.
    """
    if np.isfinite(x).all():
        return
    bad = ~np.isfinite(x)
    if excluded is not None:
        bad[:, excluded[lo : lo + x.shape[1]]] = False
    if not bad.any():
        return
    volume, row = min((int(rows[i]), i) for i in np.flatnonzero(bad.any(axis=1)))
    voxel = np.unravel_index(lo + int(np.argmax(bad[row])), vol.shape[:3], order="F")
    raise ShapeError(
        f"{vol.path}: non-finite value in volume {volume} at voxel "
        f"({', '.join(str(int(i)) for i in voxel)})"
    )


def _stream(vol, path: str, channels: int, step, rows=None, excluded=None) -> None:
    """Write to ``path`` the float32 volume of ``channels`` volumes that ``step`` computes.

    The chunks of :func:`_chunks` hold the ``rows`` of the open
    :class:`sphdwi.dwio.NiftiRows` ``vol`` (all rows by default) as
    float64. A non-finite value raises :class:`ShapeError` naming the file,
    the volume and the voxel, except at the voxels of the ``excluded``
    mask, whose values are never used. step(x, voxels) gets the chunk as a
    C-contiguous (1, rows, width, 1, 1) volume, which the 5-D API takes
    without a copy, and returns the API volume of the voxels in the slice
    ``voxels``. That goes to :func:`sphdwi.dwio.write_nifti_rows`, which
    casts it to float32 and writes it straight to its rows' offsets in an
    uncompressed ``path``. Chunks start on fitting._BLOCK boundaries, so
    :func:`sphdwi.fitting._apply_affine` splits a chunk the way it splits
    the whole volume and every voxel's bits match the 5-D API. Memory stays
    a few MiB whatever the volume size, except for a .nii.gz input or
    output, which is held whole. An output shape that NIfTI-1 cannot store
    raises ValueError before any chunk, and a failure leaves no output file.
    """
    shape = (*vol.shape[:3], channels)
    rows = np.arange(vol.channels) if rows is None else rows
    with dwio.write_nifti_rows(path, shape, affine=vol.affine) as write:
        for lo, hi, x in _chunks(vol, rows):
            _check_finite(x, vol, rows, lo, excluded)
            volume = x.reshape(1, len(rows), hi - lo, 1, 1)
            write(step(volume, slice(lo, hi)).data.reshape(channels, hi - lo), lo)


def _chunks(vol, rows):
    """Yield (lo, hi, x) for each chunk of _STREAM voxel columns of ``vol``.

    ``x`` holds rows ``rows`` of voxel columns lo:hi as float64, scaled by
    :func:`sphdwi.dwio.to_float64`: a C-contiguous (rows, width) view of
    one reused buffer, filled from a second reused buffer of the stored
    dtype, so a chunk costs no allocation. It is valid until the next chunk.
    """
    width = min(vol.voxels, _STREAM)
    stored = np.empty(len(rows) * width, dtype=vol.dtype)
    buf = np.empty(stored.size)
    for lo in range(0, vol.voxels, _STREAM):
        hi = min(lo + _STREAM, vol.voxels)
        shape = (len(rows), hi - lo)
        size = shape[0] * shape[1]
        chunk = vol.read(rows, lo, hi, stored[:size].reshape(shape))
        yield lo, hi, dwio.to_float64(chunk, vol.header, out=buf[:size].reshape(shape))


def _mean_b0(vol, b0_idx) -> np.ndarray:
    """The per-voxel mean of the ``b0_idx`` rows of ``vol``, read chunk by chunk.

    Each voxel's sum runs over its rows in acquisition order, so the bits
    are those of :func:`sphdwi.fitting._b0_mean` over the whole volume.
    """
    mean = np.empty(vol.voxels)
    for lo, hi, b0 in _chunks(vol, b0_idx):
        mean[lo:hi] = fitting._b0_mean(b0)
    return mean


def _cmd_signal2sh(args) -> int:
    scheme = dwio.read_bvals_bvecs(args.bvals, args.bvecs)
    with _read_channels(args.dwi) as vol:
        _, b0_idx, shells = fitting._plan_shells(vol.channels, scheme, shells=args.shell)
        excluded, denom = fitting._b0_denominator(_mean_b0(vol, b0_idx))
        ops = [
            make_fit_operator(scheme.directions[s.indices], args.order, args.lb_lambda)
            for s in shells
        ]
        _info(f"R={ops[0].basis_spec.coeff_count} cond={max(o.cond for o in ops):.3e}")

        def fit(x, voxels):
            flat = x[0, :, :, 0, 0]
            fitting._normalize_block(flat, denom[voxels], excluded[voxels], out=flat)
            return signal_to_sh(DwiVolume(x, shells=len(ops)), ops)

        rows = np.concatenate([s.indices for s in shells])
        _stream(vol, args.out, len(ops) * ops[0].basis_spec.coeff_count, fit, rows=rows,
                excluded=excluded)
    return 0


def _read_dirs_file(path: str) -> np.ndarray:
    rows = dwio._parse_numeric_table(path)
    widths = {len(r) for r in rows}
    if widths != {3}:
        raise GradientParseError(
            f"{path}: expected one 'x y z' row per direction, got row widths {sorted(widths)}"
        )
    return as_unit_directions(np.array(rows, dtype=np.float64))


def _cmd_sh2signal(args) -> int:
    either = "give either --dirs or the --bvals/--bvecs/--shell triple"
    if args.dirs is not None:
        given = {"--bvals": args.bvals, "--bvecs": args.bvecs, "--shell": args.shell}
        extra = [flag for flag, value in given.items() if value is not None]
        if extra:
            raise ShapeError(f"--dirs does not combine with {', '.join(extra)}: {either}")
        dirs = _read_dirs_file(args.dirs)
    elif args.bvecs is None:
        raise ShapeError(either)
    else:
        if args.bvals is None or not args.shell:
            raise ShapeError("--bvecs needs --bvals and one --shell")
        if len(args.shell) > 1:
            raise ShapeError(f"sh2signal takes one --shell, got {len(args.shell)}")
        scheme = dwio.read_bvals_bvecs(args.bvals, args.bvecs)
        dirs = scheme.shell_directions(args.shell[0])
    with _read_channels(args.sh) as vol:
        order, shells = _sh_layout(args.sh, vol.channels, order=args.order)
        spec = ShBasisSpec(order)

        def evaluate(x, voxels):
            return sh_to_signal(ShVolume(x, spec, shells=shells), dirs)

        _stream(vol, args.out, shells * dirs.shape[0], evaluate)
    return 0


def _parse_moving_average(text: str) -> tuple[int, float]:
    try:
        n_str, alpha_str = text.split(",")
        return int(n_str), float(alpha_str)
    except ValueError:
        raise ShapeError(f"--moving-average expects 'N,ALPHA', got {text!r}") from None


def _cmd_lsc(args) -> int:
    if (args.kernel is None) == (args.moving_average is None):
        raise ShapeError("give exactly one of --kernel or --moving-average")
    scheme = dwio.read_bvals_bvecs(args.bvals, args.bvecs)
    selected = dwio.select_shells(scheme.shells, args.shell)
    origins = scheme.directions[selected[0].indices]
    n_shells = len(selected)

    if args.kernel is not None:
        kernel, sizes, alpha = lsc.load_kernel_json(args.kernel)
    else:
        n, alpha = _parse_moving_average(args.moving_average)
        sizes = (n,)
        kernel = lsc.make_moving_average_kernel(sizes, shells_in=n_shells, shells_out=n_shells)

    if kernel.shells_in != n_shells:
        raise ShapeError(
            f"kernel expects {kernel.shells_in} input shells, selection has {n_shells}"
        )
    with _read_channels(args.sh) as vol:
        order_in, shells_in = _sh_layout(args.sh, vol.channels, shells=kernel.shells_in)
        order_out = args.order_out if args.order_out is not None else order_in
        geom = lsc.build_lsc_geometry(origins, sizes, alpha, order_in, order_out, args.lb_lambda)
        spec = ShBasisSpec(order_in)
        energy = [0.0, 0.0]  # summed l>=2 energy fractions of the input and the output

        def convolve(x, voxels):
            smooth = lsc.lsc_forward(ShVolume(x, spec, shells=shells_in), kernel, geom)
            # each side as (shells, R, width): one reduction over every shell of the chunk
            for side, data, shells, order in ((0, x, shells_in, order_in),
                                              (1, smooth.data, kernel.shells_out, order_out)):
                coeffs = data.reshape(shells, -1, x.shape[2])
                energy[side] += np.sum(high_degree_energy_fraction(coeffs, order, axis=1))
            return smooth

        _stream(vol, args.out, kernel.shells_out * coeff_count(order_out), convolve)
    _info(
        f"mean l>=2 energy fraction: {energy[0] / (shells_in * vol.voxels):.4f} "
        f"-> {energy[1] / (kernel.shells_out * vol.voxels):.4f}"
    )
    return 0


def _cmd_bench(args) -> int:
    try:
        orders = [int(tok) for tok in str(args.orders).split(",") if tok.strip()]
    except ValueError:
        raise ShapeError(f"--orders expects comma-separated integers, got {args.orders!r}") from None
    report = bench_mod.run_bench(
        orders,
        args.voxels,
        repeats=args.repeats,
        seed=args.seed,
        lb_lambda=args.lb_lambda,
        n_dirs=args.dirs,
    )
    if not report.blas_pinned:
        _info("BLAS not pinned to one thread: threadpoolctl not installed")
    csv_text = report.to_csv()
    if args.out:
        with dwio._atomic_output(args.out) as tmp, open(tmp, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_phantom(args) -> int:
    try:
        grid = tuple(int(tok) for tok in args.grid.split(","))
    except ValueError:
        raise ShapeError(f"--grid expects 'X,Y,Z', got {args.grid!r}") from None
    spec = phantom.PhantomSpec(
        grid=grid,
        kind=args.kind,
        value=args.value,
        order=args.order,
        seed=args.seed,
        noise_sigma=args.noise,
    )
    scheme = phantom.make_scheme(args.dirs, bvalue=args.bvalue, n_b0=args.n_b0)
    result = phantom.make_phantom(spec, scheme, args.out_prefix)
    for kind, path in result.paths.items():
        _info(f"{kind}: {path}")
    return 0


def _check_out_dir(path: str) -> None:
    """Fail before any work, not after it, when ``--out`` names no existing directory."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist", path)


_HANDLERS = {
    "signal2sh": _cmd_signal2sh,
    "sh2signal": _cmd_sh2signal,
    "lsc": _cmd_lsc,
    "bench": _cmd_bench,
    "phantom": _cmd_phantom,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None) is not None:
            _check_out_dir(args.out)
        return _HANDLERS[args.command](args)
    except SphdwiError as exc:
        _err(str(exc))
        return exc.exit_code
    except ValueError as exc:
        _err(str(exc))
        return _EXIT_VALIDATION
    except OSError as exc:
        _err(str(exc))
        return _EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
