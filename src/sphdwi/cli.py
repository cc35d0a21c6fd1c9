"""Command-line surface: signal2sh, sh2signal, lsc, bench and phantom.

Exit codes: 0 success, 2 usage/validation, 3 numerical failure, 4 I/O
failure. Diagnostics go to stderr; data and CSV go to --out or stdout.
Angles are radians (pi/5 = 0.6283185307). Output files are written to a
temporary sibling and renamed into place, so failures never leave partial
files behind; an --out whose directory does not exist, that names a
directory or that ends in no file name exits 4 before any input is read.
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
from .errors import GradientParseError, IllPosedFitError, ShapeError, SphdwiError
from .fitting import make_fit_operator
# Not called here; perfbench/spans.py patches these names on this module.
from .fitting import normalize_b0, sh_to_signal, signal_to_sh  # noqa: F401
from .shcore import ShBasisSpec, as_unit_directions, coeff_count, eval_basis
from .shcore import high_degree_energy_fraction

_EXIT_VALIDATION = 2
_EXIT_IO = 4

_ORDER_FOR_R = {coeff_count(order): order for order in range(0, 17, 2)}


def _err(msg: str) -> None:
    print(f"sphdwi: {msg}", file=sys.stderr)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


class _Once(argparse.Action):
    """Store an option's value, and refuse the option when it is given again.

    argparse would keep the last of several values without a word; a
    repeat is a usage error (exit 2) naming the option instead.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subcommands', whose single-value options are :class:`_Once`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register("action", None, _Once)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--shell", type=float,
                   help="take target directions from this shell of --bvals/--bvecs")
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


def _sh_intent(order: int, shells: int) -> tuple:
    """The intent fields (name, p1, p2) that tag an SH file of ``shells`` shells of ``order``."""
    return b"sphdwi-sh", order, shells


def _sh_layout(vol, order: int | None = None, shells: int | None = None):
    """(order, shells) of the SH volume ``vol``, an open NIfTI of shells * R volumes.

    A file that signal2sh or lsc wrote is tagged with both (see
    :func:`_sh_intent`), and a given ``order`` or ``shells`` that disagrees
    with its tag raises ShapeError naming both values. Of an untagged file,
    give the order (the shell count follows) or the shell count (the order
    follows).
    """
    path, nvol, hdr = vol.path, vol.channels, vol.header
    if hdr["intent_name"].item() == _sh_intent(0, 0)[0]:  # the tag's name
        tag_order, tag_shells = float(hdr["intent_p1"]), float(hdr["intent_p2"])
        if (not tag_order.is_integer() or tag_order < 0 or tag_order % 2 != 0
                or not tag_shells.is_integer()
                or coeff_count(int(tag_order)) * int(tag_shells) != nvol):
            raise ShapeError(f"{path}: its SH tag (order {tag_order:g}, {tag_shells:g} "
                             f"shell(s)) does not fit its {nvol} volumes")
        tag_order, tag_shells = int(tag_order), int(tag_shells)
        if order is not None and order != tag_order:
            raise ShapeError(f"{path}: --order {order} disagrees with the file's SH order "
                             f"{tag_order}")
        if shells is not None and shells != tag_shells:
            raise ShapeError(f"{path}: the kernel and the shell selection take {shells} "
                             f"shell(s); the file holds {tag_shells}")
        return tag_order, tag_shells
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
# channel matrix (dwio.NiftiRows). Each command builds its stage once, as the
# matrix (and offset) that the 5-D API builds. NiftiRows.windows reads and
# dwio.write_nifti_rows writes windows of dwio._STREAM voxel columns; within
# one, _blocks converts and _stream applies the stage in blocks of
# fitting._BLOCK columns, one BLAS call per channel group, as _apply_affine
# splits an API volume (dwio._STREAM is a multiple of fitting._BLOCK), so the
# bits are the API's. A command's buffers take (rows_in * stored itemsize +
# rows_out * 4) * dwio._STREAM + (rows_in + rows_out) * fitting._BLOCK * 8
# bytes, and no buffer grows with the voxel count. signal2sh reads its b0
# rows twice, one row of a window at a time (_b0_means): once for the
# volume's b0 threshold, then beside the shells' windows for each block's
# mean b0. A .nii.gz input is inflated once into, and read from, an unnamed
# spill file in the --out directory; a .nii.gz output's rows go to a second
# spill file, deflated after the last window. So a .nii.gz needs about one
# uncompressed payload of free disk in the --out directory, and a .nii to
# .nii command none beyond its output.


@contextmanager
def _read_channels(path: str, out: str):
    """Open the 4-D NIfTI at ``path`` as a :class:`sphdwi.dwio.NiftiRows`.

    A .nii.gz input spills into the directory of ``out``, which
    :func:`_check_out_dir` has checked, never into the platform's
    temporary directory: that may be a tmpfs, whose pages are memory.
    """
    with dwio.NiftiRows(path, spill_dir=os.path.dirname(os.path.abspath(out))) as vol:
        if len(vol.shape) != 4:
            raise ShapeError(f"{path}: expected a 4-D volume, got {len(vol.shape)}-D")
        yield vol


def _check_finite(x: np.ndarray, vol, rows, lo: int) -> None:
    """Raise ShapeError naming the file, volume and voxel of a non-finite value of ``x``.

    ``x`` holds rows ``rows`` (an array) of voxel columns lo:lo + width of
    ``vol``. The voxel is the first, in file order, that holds one, and the
    volume the lowest with one there, whatever the block width.
    """
    if fitting._all_finite(x):
        return
    bad = ~np.isfinite(x)
    col = int(np.argmax(bad.any(axis=0)))
    volume = int(rows[bad[:, col]].min())
    voxel = np.unravel_index(lo + col, vol.shape[:3], order="F")
    raise ShapeError(
        f"{vol.path}: non-finite value in volume {volume} at voxel "
        f"({', '.join(str(int(i)) for i in voxel)})"
    )


def _stream(vol, path: str, matrix, offset=None, rows=None, normalize=None,
            measure=None, intent=None) -> None:
    """Write to ``path`` the float32 volume that the stage ``matrix`` makes of ``vol``.

    The blocks of :func:`_blocks` hold the ``rows`` of the open
    :class:`sphdwi.dwio.NiftiRows` ``vol`` (all rows by default) as
    float64. ``normalize(x)``, when given, b0-normalizes each block ``x``
    in place, in file order (signal2sh's step takes the next mean of
    :func:`_b0_means`); each block is then checked by
    :func:`_check_finite`. ``matrix`` (shared by every channel group, or
    one per group) and ``offset`` are applied by
    :func:`sphdwi.fitting._apply_affine` into one reused block buffer, so
    there are len(rows) / C_in * C_out output channels; ``measure(x, y)``
    sees each block and its result. Each result goes to
    :func:`sphdwi.dwio.write_nifti_rows`, whose fit rules and shape checks
    apply, with ``intent`` in the output's header (see :func:`_sh_intent`).
    Every voxel's bits are the 5-D API's, memory stays a few MiB whatever
    the volume size (see the comment above _read_channels), and a failure
    leaves no output file.
    """
    rows = np.arange(vol.channels) if rows is None else rows
    channels = len(rows) // matrix.shape[-1] * matrix.shape[-2]
    buf = np.empty(channels * min(vol.voxels, fitting._BLOCK))
    with dwio.write_nifti_rows(path, (*vol.shape[:3], channels), affine=vol.affine,
                               intent=intent) as write:
        for lo, x in _blocks(vol, rows):
            hi = lo + x.shape[1]
            if normalize is not None:
                normalize(x)
            _check_finite(x, vol, rows, lo)
            y = buf[: channels * (hi - lo)].reshape(channels, hi - lo)
            fitting._apply_affine(matrix, x.reshape(1, len(rows), hi - lo, 1, 1), offset,
                                  out=y.reshape(1, channels, hi - lo, 1, 1))
            if measure is not None:
                measure(x, y)
            write(y)


def _blocks(vol, rows):
    """Yield (lo, x) for each float64 block of ``vol``, starting at voxel column lo.

    Each window of :meth:`sphdwi.dwio.NiftiRows.windows` is converted
    fitting._BLOCK columns at a time: ``x`` holds rows ``rows`` of its
    columns, scaled, as a C-contiguous (rows, width) view of one reused
    buffer, valid until the next block, so a block costs no allocation.
    """
    buf = np.empty(len(rows) * min(vol.voxels, fitting._BLOCK))
    for start, stored in vol.windows(rows):
        for col in range(0, stored.shape[1], fitting._BLOCK):
            part = stored[:, col : col + fitting._BLOCK]
            yield start + col, vol.convert(part, buf[: part.size].reshape(part.shape))


def _b0_means(vol, b0_idx):
    """Yield the per-voxel mean of the ``b0_idx`` rows of ``vol``, block by block.

    The blocks are those of :func:`_blocks`, in file order. For each
    window of dwio._STREAM voxel columns, the b0 rows are read one
    at a time (:meth:`sphdwi.dwio.NiftiRows.read_row`) into one row buffer
    of the stored dtype, converted into one float64 row buffer and summed
    in acquisition order by :func:`sphdwi.fitting._b0_mean`, so the bits
    are those of the whole-volume mean; the window's means are then yielded
    fitting._BLOCK columns at a time. Memory holds three rows of one window
    whatever the b0 count, and each run of the generator reads the b0 rows
    from the input again.
    """
    stored = np.empty(min(vol.voxels, dwio._STREAM), dtype=vol.dtype)
    row = np.empty(stored.shape)
    for lo in range(0, vol.voxels, dwio._STREAM):
        width = min(dwio._STREAM, vol.voxels - lo)
        mean = fitting._b0_mean(vol.convert(vol.read_row(b0, lo, stored[:width]), row[:width])
                                for b0 in b0_idx)
        for col in range(0, width, fitting._BLOCK):
            yield mean[col : col + fitting._BLOCK]


def _cmd_signal2sh(args) -> int:
    scheme = dwio.read_bvals_bvecs(args.bvals, args.bvecs)
    # the shells and operators need only the table and the flags: a bad one exits before any read
    shells = fitting._plan_shells(scheme.b0_indices, scheme.shells, args.shell)
    ops = []
    for shell in shells:
        try:
            ops.append(make_fit_operator(scheme.directions[shell.indices], args.order,
                                         args.lb_lambda))
        except IllPosedFitError as exc:
            raise IllPosedFitError(f"shell b={shell.bvalue:g}: {exc}") from None
    _info(f"R={ops[0].basis_spec.coeff_count} cond={max(o.cond for o in ops):.3e}")
    with _read_channels(args.dwi, args.out) as vol:
        fitting._check_volume_count(vol.channels, scheme.b0_indices, scheme.shells)
        # pass 1: the volume's b0 threshold; a non-finite b0 is refused here,
        # before any output is opened
        eps = -np.inf
        for mean in _b0_means(vol, scheme.b0_indices):
            eps = fitting._b0_threshold(mean, eps)
        # pass 2: each block of the shells is divided by its mean b0
        means = _b0_means(vol, scheme.b0_indices)
        excluded = 0

        def normalize(x):
            nonlocal excluded
            excluded += int(np.count_nonzero(fitting._normalize_b0(x, next(means), eps, out=x)))

        _stream(vol, args.out, np.stack([o.fit_matrix for o in ops]),
                rows=np.concatenate([s.indices for s in shells]), normalize=normalize,
                intent=_sh_intent(args.order, len(shells)))
    # after the output is in place, so a failed run prints only its error
    _info(f"b0: {excluded} of {vol.voxels} voxels excluded "
          "(mean b0 at or below 1e-6 of its maximum)")
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
        if args.bvals is None or args.shell is None:
            raise ShapeError("--bvecs needs --bvals and one --shell")
        scheme = dwio.read_bvals_bvecs(args.bvals, args.bvecs)
        dirs = scheme.shell_directions(args.shell)
    basis = eval_basis(dirs, args.order)
    with _read_channels(args.sh, args.out) as vol:
        _sh_layout(vol, order=args.order)  # the file's layout fits --order
        _stream(vol, args.out, basis)
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
    # the ring angle, --order-out and --lambda are checked before any input read
    lsc._check_ring_angle(alpha, len(sizes))
    if args.order_out is not None:
        ShBasisSpec(args.order_out)
    fitting._check_weight(args.lb_lambda)
    with _read_channels(args.sh, args.out) as vol:
        order_in, shells_in = _sh_layout(vol, shells=kernel.shells_in)
        order_out = args.order_out if args.order_out is not None else order_in
        geom = lsc.build_lsc_geometry(origins, sizes, alpha, order_in, order_out, args.lb_lambda)
        matrix, offset = lsc.lsc_operator(kernel, geom)
        energy = [0.0, 0.0]  # summed l>=2 energy fractions of the input and the output

        def measure(x, y):
            # each side as (shells, R, width): one reduction over every shell of the block
            for side, data, shells, order in ((0, x, shells_in, order_in),
                                              (1, y, kernel.shells_out, order_out)):
                coeffs = data.reshape(shells, -1, x.shape[1])
                energy[side] += np.sum(high_degree_energy_fraction(coeffs, order, axis=1))

        _stream(vol, args.out, matrix, offset, measure=measure,
                intent=_sh_intent(order_out, kernel.shells_out))
    _info(
        f"mean l>=2 energy fraction: {energy[0] / (shells_in * vol.voxels):.4f} "
        f"-> {energy[1] / (kernel.shells_out * vol.voxels):.4f}"
    )
    for ring, points in enumerate(sizes, start=1):
        if points <= order_in:
            _info(f"warning: ring {ring} has {points} points, no more than the input "
                  f"order {order_in}, so it undersamples the degrees it averages")
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
        _info("BLAS not pinned to one thread: no OpenBLAS thread control found")
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
    """Fail before any work, not after it, when ``--out`` cannot name a new file.

    That is when its directory does not exist, when it names a directory,
    or when it ends in no file name (it is empty, or ends in /, . or ..).
    """
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist", path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "--out names a directory", path)
    if os.path.basename(path) in ("", os.curdir, os.pardir):
        raise FileNotFoundError(errno.ENOENT, "--out names no file", path)


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
