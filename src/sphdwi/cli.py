"""Command-line surface: signal2sh, sh2signal, lsc, bench and phantom.

Exit codes: 0 success, 2 usage/validation, 3 numerical failure, 4 I/O
failure. Diagnostics go to stderr; data and CSV go to --out or stdout.
Angles are radians (pi/5 = 0.6283185307). Output files are written to a
temporary sibling and renamed into place, so failures never leave partial
files behind.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from . import dwio, lsc, phantom
from .errors import (
    GradientParseError,
    IllPosedFitError,
    KernelMismatchError,
    MissingB0Error,
    NiftiError,
    ShapeError,
    SphdwiError,
)
from .fitting import ShVolume, make_fit_operator, normalize_b0, sh_to_signal, signal_to_sh
from .shcore import ShBasisSpec, as_unit_directions, coeff_count, high_degree_energy_fraction

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3
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
    p.add_argument("--order", type=int, default=4)
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


def _load_sh_volume(path: str, order: int | None, shells_hint: int | None = None):
    data, affine, _ = dwio.read_nifti(path)
    if data.ndim != 4:
        raise ShapeError(f"{path}: SH volume must be 4-D, got {data.ndim}-D")
    nvol = data.shape[3]
    if order is not None:
        r = coeff_count(order)
        if shells_hint is None:
            if nvol % r != 0:
                raise ShapeError(
                    f"{path}: {nvol} volumes is not a multiple of R = {r} "
                    f"for order {order} (expects {r})"
                )
            shells = nvol // r
        else:
            shells = shells_hint
            if shells * r != nvol:
                raise ShapeError(
                    f"{path}: expected shells ({shells}) * R ({r}) = {shells * r} "
                    f"volumes, found {nvol} (expects {shells * r})"
                )
    else:
        if shells_hint is None:
            shells_hint = 1
        shells = shells_hint
        if nvol % shells != 0 or (nvol // shells) not in _ORDER_FOR_R:
            raise ShapeError(
                f"{path}: cannot infer SH order from {nvol} volumes and {shells} shell(s)"
            )
        order = _ORDER_FOR_R[nvol // shells]
    arr = np.moveaxis(data, 3, 0)[None, ...]
    return ShVolume(data=arr, basis_spec=ShBasisSpec(order), shells=shells), affine


def _volume_to_nifti(vol, path: str, affine=None) -> None:
    arr = np.moveaxis(vol.data[0], 0, 3)
    dwio.write_nifti(path, arr, affine=affine, dtype=np.float32)


def _cmd_signal2sh(args) -> int:
    scheme = dwio.read_bvals_bvecs(args.bvals, args.bvecs)
    data, affine, _ = dwio.read_nifti(args.dwi)
    if data.ndim != 4:
        raise ShapeError(f"{args.dwi}: expected a 4-D acquisition, got {data.ndim}-D")
    vol, _mask = normalize_b0(data, scheme, shells=args.shell)
    ops = [
        make_fit_operator(vol.scheme.shell_directions(s.bvalue), args.order, args.lb_lambda)
        for s in vol.scheme.shells
    ]
    _info(f"R={ops[0].basis_spec.coeff_count} cond={max(o.cond for o in ops):.3e}")
    fitted = signal_to_sh(vol, ops)
    _volume_to_nifti(fitted, args.out, affine=affine)
    return 0


def _read_dirs_file(path: str) -> np.ndarray:
    rows = dwio._parse_numeric_table(path)
    table = np.array(rows, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != 3:
        raise GradientParseError(f"{path}: expected one 'x y z' row per direction")
    return as_unit_directions(table)


def _cmd_sh2signal(args) -> int:
    if (args.dirs is None) == (args.bvecs is None):
        raise ShapeError("give either --dirs or the --bvals/--bvecs/--shell triple")
    if args.dirs is not None:
        dirs = _read_dirs_file(args.dirs)
    else:
        if args.bvals is None or not args.shell:
            raise ShapeError("--bvecs needs --bvals and one --shell")
        if len(args.shell) > 1:
            raise ShapeError(f"sh2signal takes one --shell, got {len(args.shell)}")
        scheme = dwio.read_bvals_bvecs(args.bvals, args.bvecs)
        dirs = scheme.shell_directions(args.shell[0])
    sh, affine = _load_sh_volume(args.sh, args.order)
    _volume_to_nifti(sh_to_signal(sh, dirs), args.out, affine=affine)
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
    selected = dwio.select_shells(scheme.shells, args.shell) if args.shell else scheme.shells
    if not selected:
        raise ShapeError("no shells selected")
    counts = {s.indices.size for s in selected}
    if len(counts) != 1:
        raise ShapeError("selected shells must share one direction count")
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
    sh, affine = _load_sh_volume(args.sh, order=None, shells_hint=kernel.shells_in)
    order_out = args.order_out if args.order_out is not None else sh.basis_spec.order
    geom = lsc.build_lsc_geometry(
        origins, sizes, alpha, sh.basis_spec.order, order_out, args.lb_lambda
    )
    result = lsc.lsc_forward(sh, kernel, geom)

    _info(
        f"mean l>=2 energy fraction: {_mean_high_degree_fraction(sh):.4f} "
        f"-> {_mean_high_degree_fraction(result):.4f}"
    )
    _volume_to_nifti(result, args.out, affine=affine)
    return 0


def _mean_high_degree_fraction(vol: ShVolume) -> float:
    fracs = [
        high_degree_energy_fraction(vol.shell_coeffs(s)[0], vol.basis_spec.order, axis=0)
        for s in range(vol.shells)
    ]
    return float(np.mean(fracs))


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
        return _HANDLERS[args.command](args)
    except (ShapeError, GradientParseError, KernelMismatchError, MissingB0Error, ValueError) as exc:
        _err(str(exc))
        return _EXIT_VALIDATION
    except IllPosedFitError as exc:
        _err(str(exc))
        return _EXIT_NUMERICAL
    except (NiftiError, OSError) as exc:
        _err(str(exc))
        return _EXIT_IO
    except SphdwiError as exc:  # any remaining package error counts as validation
        _err(str(exc))
        return _EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
