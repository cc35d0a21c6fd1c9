"""Diffusion-volume and gradient-table I/O.

Covers single-file NIfTI-1 (.nii / .nii.gz, 348-byte header) and FSL-style
whitespace bvals/bvecs text files, plus grouping of b-values into shells.
No attempt is made to support NIfTI-2 or paired .hdr/.img; the parser stays
deliberately small. bvecs are passed through in the frame they were written
in; no scanner/image reorientation is applied.
"""

from __future__ import annotations

import collections
import os
import struct
import tempfile
import zlib
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import (
    GradientParseError,
    NiftiDatatypeError,
    NiftiError,
    NiftiMagicError,
    NiftiTruncatedError,
    ShapeError,
)

# Fixed grouping rules, in s/mm^2: b <= B0_THRESHOLD is b0 (real bval files
# carry near-zero values for b=0), and shells split at gaps > SHELL_TOLERANCE.
B0_THRESHOLD = 50.0
SHELL_TOLERANCE = 50.0

# NIfTI-1 header, 348 bytes. Field offsets noted for reference.
_HEADER_DTD = [
    ("sizeof_hdr", "i4"),        # 0; must be 348
    ("data_type", "S10"),        # 4; unused
    ("db_name", "S18"),          # 14; unused
    ("extents", "i4"),           # 32; unused
    ("session_error", "i2"),     # 36; unused
    ("regular", "S1"),           # 38; unused
    ("dim_info", "u1"),          # 39
    ("dim", "i2", (8,)),         # 40; data array dimensions
    ("intent_p1", "f4"),         # 56
    ("intent_p2", "f4"),         # 60
    ("intent_p3", "f4"),         # 64
    ("intent_code", "i2"),       # 68
    ("datatype", "i2"),          # 70
    ("bitpix", "i2"),            # 72
    ("slice_start", "i2"),       # 74
    ("pixdim", "f4", (8,)),      # 76
    ("vox_offset", "f4"),        # 108; offset to voxel data
    ("scl_slope", "f4"),         # 112
    ("scl_inter", "f4"),         # 116
    ("slice_end", "i2"),         # 120
    ("slice_code", "u1"),        # 122
    ("xyzt_units", "u1"),        # 123
    ("cal_max", "f4"),           # 124
    ("cal_min", "f4"),           # 128
    ("slice_duration", "f4"),    # 132
    ("toffset", "f4"),           # 136
    ("glmax", "i4"),             # 140
    ("glmin", "i4"),             # 144
    ("descrip", "S80"),          # 148
    ("aux_file", "S24"),         # 228
    ("qform_code", "i2"),        # 252
    ("sform_code", "i2"),        # 254
    ("quatern_b", "f4"),         # 256
    ("quatern_c", "f4"),         # 260
    ("quatern_d", "f4"),         # 264
    ("qoffset_x", "f4"),         # 268
    ("qoffset_y", "f4"),         # 272
    ("qoffset_z", "f4"),         # 276
    ("srow_x", "f4", (4,)),      # 280
    ("srow_y", "f4", (4,)),      # 296
    ("srow_z", "f4", (4,)),      # 312
    ("intent_name", "S16"),      # 328
    ("magic", "S4"),             # 344; 'n+1\0' for single-file
]
HEADER_DTYPE = np.dtype(_HEADER_DTD)

_DTYPE_CODES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
    256: np.dtype(np.int8),
    512: np.dtype(np.uint16),
    768: np.dtype(np.uint32),
}
_CODE_FOR_DTYPE = {v: k for k, v in _DTYPE_CODES.items()}


@dataclass(frozen=True)
class Shell:
    """One b-value shell: nominal strength and member volume indices."""

    bvalue: float
    indices: np.ndarray


@dataclass(frozen=True)
class GradientScheme:
    """Gradient table: unit directions, b-values and shell grouping."""

    directions: np.ndarray  # (N, 3); zero rows only for b0 entries
    bvals: np.ndarray       # (N,)
    b0_indices: np.ndarray
    shells: tuple[Shell, ...]

    def __post_init__(self) -> None:
        if self.directions.shape[0] != self.bvals.shape[0]:
            raise GradientParseError(
                f"bvals count ({self.bvals.shape[0]}) does not match "
                f"bvecs count ({self.directions.shape[0]})"
            )

    @property
    def n(self) -> int:
        return int(self.bvals.shape[0])

    def shell(self, bvalue: float) -> Shell:
        """Shell whose nominal b-value is nearest ``bvalue``, within SHELL_TOLERANCE."""
        return select_shells(self.shells, [bvalue])[0]

    def shell_directions(self, bvalue: float) -> np.ndarray:
        sh = self.shell(bvalue)
        return self.directions[sh.indices]


def select_shells(shells, bvalues=None) -> tuple[Shell, ...]:
    """The shells to process: all of ``shells``, or those nearest ``bvalues``.

    Each requested b-value resolves to the nearest shell within
    SHELL_TOLERANCE (50 s/mm^2). Raises ValueError when a request has no
    shell that close (a NaN has none), naming the available shells, and
    when two requests resolve to the same shell, which would otherwise fit
    or convolve that shell twice. Raises :class:`ShapeError` when nothing
    is selected or the selected shells differ in direction count, since
    their channel blocks must share one size.
    """
    if bvalues is None:
        out = list(shells)
    else:
        picked: dict[float, float] = {}  # shell b-value -> request that chose it
        out = []
        for want in bvalues:
            near = [s for s in shells if abs(s.bvalue - want) <= SHELL_TOLERANCE]
            best = min(near, key=lambda s: abs(s.bvalue - want), default=None)
            if best is None:
                avail = ", ".join(f"{s.bvalue:g}" for s in shells) or "none"
                raise ValueError(f"no shell near b={want:g}; available shells: {avail}")
            if best.bvalue in picked:
                raise ValueError(
                    f"b={picked[best.bvalue]:g} and b={want:g} both select the "
                    f"b={best.bvalue:g} shell; give each shell once"
                )
            picked[best.bvalue] = want
            out.append(best)
    if not out:
        raise ShapeError("no diffusion-weighted shells selected")
    if len({s.indices.size for s in out}) != 1:
        detail = ", ".join(f"b={s.bvalue:g}: {s.indices.size}" for s in out)
        raise ShapeError(
            f"shells have unequal direction counts ({detail}); "
            "select shells of equal size"
        )
    return tuple(out)


def detect_shells(bvals) -> tuple[np.ndarray, tuple[Shell, ...]]:
    """Group b-values into a b0 set and shells, by the fixed rules of this module.

    Values <= B0_THRESHOLD (50) form the b0 group. The rest are sorted and
    split wherever the gap between consecutive values exceeds
    SHELL_TOLERANCE (50); each group's nominal b is its mean rounded to the
    nearest 5. Returns (b0_indices, shells sorted by nominal b).
    """
    b = np.asarray(bvals, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("bvals must be one-dimensional")
    if not np.isfinite(b).all():
        raise ValueError("bvals contain non-finite values")
    b0_idx = np.flatnonzero(b <= B0_THRESHOLD)
    dwi_idx = np.flatnonzero(b > B0_THRESHOLD)
    if dwi_idx.size == 0:
        return b0_idx, ()
    order = dwi_idx[np.argsort(b[dwi_idx], kind="stable")]
    groups: list[list[int]] = [[int(order[0])]]
    for i in order[1:]:
        if b[i] - b[groups[-1][-1]] > SHELL_TOLERANCE:
            groups.append([])
        groups[-1].append(int(i))
    shells = []
    for g in groups:
        idx = np.array(sorted(g), dtype=np.int64)
        nominal = float(np.round(np.mean(b[idx]) / 5.0) * 5.0)
        shells.append(Shell(bvalue=nominal, indices=idx))
    return b0_idx, tuple(shells)


def _parse_numeric_table(path: str) -> list[list[float]]:
    rows = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            row = []
            for col, tok in enumerate(tokens, start=1):
                try:
                    row.append(float(tok))
                except ValueError:
                    raise GradientParseError(
                        f"{path}: non-numeric token {tok!r} at line {lineno}, column {col}"
                    ) from None
            rows.append(row)
    if not rows:
        raise GradientParseError(f"{path}: file contains no numeric data")
    return rows


def read_bvals_bvecs(bvals_path: str, bvecs_path: str) -> GradientScheme:
    """Read an FSL gradient table into a :class:`GradientScheme`.

    bvals: whitespace-separated reals forming one logical row. bvecs: 3 rows
    of N columns; a transposed N x 3 layout is accepted and detected from the
    shape. Non-b0 rows are normalized to unit length; zero vectors are only
    legal where b <= B0_THRESHOLD. Shells are grouped by
    :func:`detect_shells`.
    """
    bval_rows = _parse_numeric_table(bvals_path)
    bvals = np.array([v for row in bval_rows for v in row], dtype=np.float64)
    if not np.isfinite(bvals).all():
        bad = int(np.flatnonzero(~np.isfinite(bvals))[0])
        raise GradientParseError(f"{bvals_path}: non-finite b-value at index {bad}")

    vec_rows = _parse_numeric_table(bvecs_path)
    widths = {len(r) for r in vec_rows}
    if len(widths) != 1:
        raise GradientParseError(f"{bvecs_path}: ragged rows (widths {sorted(widths)})")
    table = np.array(vec_rows, dtype=np.float64)
    if table.shape[0] == 3:
        vecs = table.T
    elif table.shape[1] == 3:
        vecs = table
    else:
        raise GradientParseError(
            f"{bvecs_path}: expected 3 x N or N x 3 layout, got {table.shape[0]} x {table.shape[1]}"
        )

    if vecs.shape[0] != bvals.shape[0]:
        raise GradientParseError(
            f"bvals has {bvals.shape[0]} entries but bvecs has {vecs.shape[0]} directions"
        )
    if not np.isfinite(vecs).all():
        bad = int(np.flatnonzero(~np.isfinite(vecs).all(axis=1))[0])
        raise GradientParseError(f"{bvecs_path}: non-finite direction at index {bad}")

    norms = np.linalg.norm(vecs, axis=1)
    zero = norms <= 1e-12
    bad = zero & (bvals > B0_THRESHOLD)
    if np.any(bad):
        raise GradientParseError(
            f"{bvecs_path}: zero direction at index {int(np.flatnonzero(bad)[0])} "
            f"with b > {B0_THRESHOLD:g}"
        )
    unit = vecs.copy()
    unit[~zero] /= norms[~zero, None]

    b0_idx, shells = detect_shells(bvals)
    return GradientScheme(directions=unit, bvals=bvals, b0_indices=b0_idx, shells=shells)


def write_bvals_bvecs(bvals, directions, bvals_path: str, bvecs_path: str) -> None:
    """Write an FSL gradient table (bvals one row, bvecs three rows), each via _atomic_output."""
    b = np.asarray(bvals, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    with _atomic_output(bvals_path) as tmp, open(tmp, "w") as fh:
        fh.write(" ".join(f"{v:g}" for v in b) + "\n")
    with _atomic_output(bvecs_path) as tmp, open(tmp, "w") as fh:
        for axis in range(3):
            fh.write(" ".join(f"{v:.14g}" for v in d[:, axis]) + "\n")


# ---------------------------------------------------------------------------
# NIfTI-1
# ---------------------------------------------------------------------------

def _affine_from_header(hdr) -> np.ndarray:
    if int(hdr["sform_code"]) > 0:
        aff = np.eye(4)
        aff[0, :] = hdr["srow_x"]
        aff[1, :] = hdr["srow_y"]
        aff[2, :] = hdr["srow_z"]
        return aff
    if int(hdr["qform_code"]) > 0:
        b, c, d = float(hdr["quatern_b"]), float(hdr["quatern_c"]), float(hdr["quatern_d"])
        a2 = max(0.0, 1.0 - b * b - c * c - d * d)
        a = np.sqrt(a2)
        rot = np.array(
            [
                [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
                [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
                [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
            ]
        )
        pixdim = np.asarray(hdr["pixdim"], dtype=np.float64)
        qfac = -1.0 if pixdim[0] == -1.0 else 1.0
        scales = np.array([pixdim[1], pixdim[2], pixdim[3] * qfac])
        aff = np.eye(4)
        aff[:3, :3] = rot * scales[None, :]
        aff[:3, 3] = [hdr["qoffset_x"], hdr["qoffset_y"], hdr["qoffset_z"]]
        return aff
    pixdim = np.asarray(hdr["pixdim"], dtype=np.float64)
    aff = np.diag([pixdim[1] or 1.0, pixdim[2] or 1.0, pixdim[3] or 1.0, 1.0])
    return aff


_DIM_MAX = 32767  # the header's dim field is int16
_IO_CHUNK = 1 << 22  # bytes per inflate call; bounds the inflated piece in memory
_STREAM = 1 << 14  # voxel columns per I/O window: NiftiRows.windows and write_nifti_rows
_GZIP_SLICE = 1 << 20  # uncompressed bytes per independently deflated .gz slice


def _open_nifti(path: str, spill_dir: str | None):
    """``path`` opened once, to be read as a plain NIfTI: itself, or its :func:`_inflate` spill."""
    try:
        fh = open(path, "rb")
        if fh.peek(2)[:2] != b"\x1f\x8b":  # the gzip magic
            return fh
    except OSError as exc:
        raise NiftiError(f"{path}: cannot open ({exc})") from exc
    with fh:
        return _inflate(path, fh, spill_dir)


def _read_header(raw: bytes, path: str):
    """Check the header bytes ``raw``, read from the start of ``path``.

    Returns (hdr, dtype, shape, offset): the header record in its file's
    byte order, the stored dtype, the array shape and the payload's byte
    offset. Raises distinct error types for a bad magic number, an
    unsupported datatype and a truncated header.
    """
    if len(raw) < HEADER_DTYPE.itemsize:
        raise NiftiTruncatedError(
            f"{path}: header is {len(raw)} bytes, expected {HEADER_DTYPE.itemsize}"
        )
    hdr = np.frombuffer(raw, dtype=HEADER_DTYPE)[0]
    if int(hdr["sizeof_hdr"]) != 348:
        swapped = HEADER_DTYPE.newbyteorder()
        hdr = np.frombuffer(raw, dtype=swapped)[0]
        if int(hdr["sizeof_hdr"]) != 348:
            raise NiftiMagicError(f"{path}: sizeof_hdr is not 348 in either byte order")
    magic = bytes(hdr["magic"]).rstrip(b"\x00")
    if magic != b"n+1":
        raise NiftiMagicError(
            f"{path}: magic {magic!r} is not 'n+1' (only single-file NIfTI-1 is supported)"
        )
    code = int(hdr["datatype"])
    if code not in _DTYPE_CODES:
        raise NiftiDatatypeError(f"{path}: unsupported datatype code {code}")
    dtype = _DTYPE_CODES[code].newbyteorder(hdr["dim"].dtype.byteorder)

    ndim = int(hdr["dim"][0])
    if not 1 <= ndim <= 7:
        raise NiftiMagicError(f"{path}: implausible dim[0] = {ndim}")
    shape = tuple(int(v) for v in hdr["dim"][1 : ndim + 1])
    if any(d < 1 for d in shape):
        raise NiftiMagicError(f"{path}: implausible dimensions {shape}")
    offset_f = float(hdr["vox_offset"])
    # a single-file NIfTI-1 keeps 4 extension bytes after the header, so data starts at >= 352
    if not np.isfinite(offset_f) or offset_f < HEADER_DTYPE.itemsize + 4:
        raise NiftiMagicError(f"{path}: implausible vox_offset = {offset_f}")
    return hdr, dtype, shape, int(offset_f)


def _header_dict(hdr) -> dict:
    return {name: np.copy(hdr[name]) for name in HEADER_DTYPE.names}


def _spill(dirname: str | None):
    """A read-write temporary file in ``dirname`` that has no name.

    It vanishes when closed, or when the process dies. It holds a payload
    whole on disk, so ``dirname`` needs about one payload of free space.
    """
    return tempfile.TemporaryFile(prefix=".sphdwi-", dir=dirname)


def _inflate(path: str, fh, spill_dir: str | None):
    """The NIfTI in the gzip file ``fh``, inflated from byte 0 into a new :func:`_spill` file.

    A gzip member reads only from its start, and the channel-major payload's
    first chunk needs most of it, so a .nii.gz is inflated once, when opened,
    into ``spill_dir`` (the platform's temporary directory when None, maybe
    a tmpfs). zlib inflates one member at a time, at most _IO_CHUNK bytes
    per call from _GZIP_SLICE reads, and checks its CRC32 and ISIZE. The
    header, checked as soon as it is in, promises vox_offset plus the
    payload's bytes. None past them is written, but their last member is
    inflated to its end, for its trailer, and no later byte is parsed.
    A corrupt or short stream or a failed trailer check raises
    :class:`NiftiTruncatedError`; a failed spill write, :class:`NiftiError`.
    """
    try:
        with ExitStack() as close_on_error:
            spill = close_on_error.enter_context(_spill(spill_dir))
            want, head, filled = None, b"", 0  # want: the bytes promised, once head has the header
            member, pending = zlib.decompressobj(wbits=31), b""  # 31: gzip framing
            while want is None or filled < want or not member.eof:
                try:  # the input's failures: the spill's are OSErrors, caught below
                    if member.eof:  # the next member holds more promised bytes
                        member, pending = zlib.decompressobj(wbits=31), member.unused_data
                    pending = pending or fh.read(_GZIP_SLICE)
                    if not pending:
                        raise NiftiTruncatedError(f"{path}: gzip stream ends early")
                    out = member.decompress(pending, _IO_CHUNK)
                    pending = member.unconsumed_tail
                except (OSError, zlib.error) as exc:
                    raise NiftiTruncatedError(f"{path}: unreadable voxel data ({exc})") from exc
                if want is None:
                    head += out
                    if len(head) < HEADER_DTYPE.itemsize:
                        continue
                    _, dtype, shape, offset = _read_header(head[: HEADER_DTYPE.itemsize], path)
                    want, out, head = offset + int(np.prod(shape)) * dtype.itemsize, head, None
                spill.write(memoryview(out)[: want - filled])
                filled = min(want, filled + len(out))
            spill.seek(0)
            close_on_error.pop_all()
    except OSError as exc:
        where = spill_dir or tempfile.gettempdir()
        raise NiftiError(
            f"{path}: cannot inflate into a temporary file in {where} ({exc.strerror})"
        ) from exc
    return spill


class NiftiRows:
    """A single-file NIfTI-1 volume's payload as a (C, V) matrix.

    This is the one code that reads a NIfTI payload, and the one that knows
    the stored dtypes and the scaling rule. NIfTI stores X, Y, Z[, volume...]
    in Fortran order, so the payload is a C-order matrix with one row per
    volume (C rows) and one column per voxel of the first three axes (V
    columns): row c at voxel columns lo:lo + width is one contiguous segment
    of the file. Reading takes two steps: :meth:`windows` reads the chosen
    rows in windows of _STREAM voxel columns of the stored dtype, as
    :func:`write_nifti_rows` writes them, each row by :meth:`read_row`
    (which also reads a single row segment), and :meth:`convert` turns all
    or part of a window into float64, scaled, in a buffer the caller owns;
    so memory does not grow with the volume.

    An uncompressed file is read where it is, a .nii.gz from its
    :func:`_inflate` spill file in ``spill_dir``. Attributes: ``shape``,
    ``dtype`` (the stored dtype), ``affine``, ``header`` (as
    :func:`read_nifti` returns them), ``channels`` (C) and ``voxels`` (V).
    Close it, or use it as a context manager. Opening raises the errors of
    :func:`read_nifti`, and a :class:`NiftiError` naming ``path`` when the
    spill file cannot be written.
    """

    def __init__(self, path: str, spill_dir: str | None = None) -> None:
        self.path = path
        fh = _open_nifti(path, spill_dir)
        try:
            hdr, self.dtype, self.shape, self._offset = _read_header(fh.read(348), path)
            self.voxels = int(np.prod(self.shape[:3]))
            self.channels = int(np.prod(self.shape[3:]))
            self.affine = _affine_from_header(hdr)
            self.header = _header_dict(hdr)
            size = self.channels * self.voxels * self.dtype.itemsize
            if self._offset + size > (have := os.fstat(fh.fileno()).st_size):
                raise NiftiTruncatedError(
                    f"{path}: file has {have} bytes but header promises {self._offset + size}"
                )
            self._fh = fh
        except BaseException:
            fh.close()
            raise

    def windows(self, rows):
        """Yield (lo, stored) for each window of _STREAM voxel columns, as stored.

        ``stored`` is a (len(rows), width) view of one buffer of the stored
        dtype, local to this generator and valid until the next window: row
        i holds payload row ``rows[i]`` at voxel columns lo:lo + width, by
        :meth:`read_row`. A row outside 0..C-1 raises ValueError naming the
        file before anything is read.
        """
        rows = np.asarray(rows)
        if rows.size and not 0 <= rows.min() <= rows.max() < self.channels:
            raise ValueError(f"{self.path}: rows {rows.tolist()} are not in 0..{self.channels - 1}")
        window = np.empty((len(rows), min(self.voxels, _STREAM)), dtype=self.dtype)
        for lo in range(0, self.voxels, _STREAM):
            stored = window[:, : self.voxels - lo]
            for row, dest in zip(rows, stored):
                self.read_row(row, lo, dest)
            yield lo, stored

    def read_row(self, row, lo: int, dest: np.ndarray) -> np.ndarray:
        """Fill ``dest`` with payload row ``row`` at voxel columns lo:lo + len(dest), as stored.

        ``dest`` is a contiguous 1-D array of the stored dtype; it is filled
        by one positioned ``readinto`` and returned. A short or failed read
        raises :class:`NiftiTruncatedError`.
        """
        try:
            self._fh.seek(self._offset + (int(row) * self.voxels + lo) * dest.itemsize)
            if self._fh.readinto(dest) != dest.nbytes:
                raise NiftiTruncatedError(f"{self.path}: voxel data ends early")
        except (OSError, ValueError) as exc:
            raise NiftiTruncatedError(f"{self.path}: unreadable voxel data ({exc})") from exc
        return dest

    def convert(self, stored: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the stored values ``stored`` as float64, scaled, and return it.

        ``stored`` is all or part of a window of :meth:`windows`, or a row
        of :meth:`read_row`; ``out`` has its shape. The rule is
        ``x * scl_slope + scl_inter`` when the slope is finite and nonzero
        (a non-finite intercept counts as 0);
        otherwise the values are multiplied by 1.0, which keeps every bit
        (-0.0 included) except a signalling NaN's, which becomes quiet with
        its sign kept. So no path hands on a signalling NaN, whose first use
        in the caller's arithmetic would warn. A signalling NaN or a product
        beyond float64 warns nowhere here: the CLI's finite check that
        follows names its voxel.
        """
        slope = float(self.header["scl_slope"])
        inter = float(self.header["scl_inter"])
        with np.errstate(invalid="ignore", over="ignore"):
            if not (np.isfinite(slope) and slope != 0.0):
                return np.multiply(stored, 1.0, out=out, dtype=np.float64)
            np.multiply(stored, slope, out=out, dtype=np.float64)
            out += inter if np.isfinite(inter) else 0.0
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_nifti(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read a single-file NIfTI-1 volume.

    Returns (data, affine, header) with data as float64 in X, Y, Z[, volume]
    order and scl_slope/scl_inter already applied. This is one whole-volume
    read of :class:`NiftiRows`: each window of :meth:`NiftiRows.windows`
    (C x _STREAM stored values) is converted into its columns of the (C, V)
    result, so no stored copy of the payload is held, and ``data`` is that
    result's Fortran-order view, not a C-contiguous array. A .nii.gz is
    inflated into an unnamed spill file in the platform's temporary
    directory. Raises distinct error types for a bad magic number, an
    unsupported datatype and a truncated file.
    """
    with NiftiRows(path) as vol:
        try:
            data = np.empty((vol.channels, vol.voxels))
        except MemoryError as exc:
            raise NiftiError(
                f"{path}: header promises {vol.channels * vol.voxels * vol.dtype.itemsize} "
                "bytes of voxel data, more than this process can allocate"
            ) from exc
        for lo, stored in vol.windows(range(vol.channels)):
            vol.convert(stored, data[:, lo : lo + stored.shape[1]])
        return data.reshape(-1).reshape(vol.shape, order="F"), vol.affine, vol.header


def _check_nifti_shape(shape) -> None:
    """Raise ValueError for a shape NIfTI-1 cannot store: it takes 1 to 7 axes of 1 to 32,767."""
    if not 1 <= len(shape) <= 7:
        raise ValueError(f"cannot store a {len(shape)}-dimensional array in NIfTI-1")
    for axis, length in enumerate(shape):
        if length < 1:  # _read_header, like other readers, refuses such a file
            raise ValueError(f"axis {axis} has length {length}; NIfTI-1 stores no empty axis")
        if length > _DIM_MAX:
            raise ValueError(
                f"axis {axis} has length {length}; NIfTI-1 stores at most {_DIM_MAX} per axis"
            )


def _nifti_header(shape, affine, dtype, intent=None) -> bytes:
    """The 352 bytes before the payload of a volume that sphdwi writes.

    The NIfTI-1 header of an array of ``shape`` stored as ``dtype`` with
    ``affine`` in its sform rows (identity when None), and the 4 zero
    extension bytes up to vox_offset 352. ``intent``, when given, is
    (intent_name, intent_p1, intent_p2), and intent_code stays 0: the CLI
    tags its SH files with (b"sphdwi-sh", order, shell count). Raises
    ValueError, before anything is written, for a shape NIfTI-1 cannot
    store (it takes 1 to 7 axes of 1 to 32,767) or an affine that is not
    4 x 4, and :class:`NiftiDatatypeError` for an unsupported dtype.
    """
    _check_nifti_shape(shape)
    dtype = np.dtype(dtype)
    if dtype not in _CODE_FOR_DTYPE:
        raise NiftiDatatypeError(f"unsupported on-disk dtype {dtype}")
    if affine is None:
        affine = np.eye(4)
    affine = np.asarray(affine, dtype=np.float64)
    if affine.shape != (4, 4):
        raise ValueError(f"affine must be 4 x 4, got {affine.shape}")

    ndim = len(shape)
    hdr = np.zeros((), dtype=HEADER_DTYPE)
    hdr["sizeof_hdr"] = 348
    hdr["regular"] = b"r"
    hdr["dim"][0] = ndim
    hdr["dim"][1 : ndim + 1] = shape
    hdr["dim"][ndim + 1 :] = 1
    hdr["datatype"] = _CODE_FOR_DTYPE[dtype]
    hdr["bitpix"] = dtype.itemsize * 8
    hdr["pixdim"][0] = 1.0
    hdr["pixdim"][1:4] = np.linalg.norm(affine[:3, :3], axis=0)
    hdr["pixdim"][4 : ndim + 1] = 1.0
    hdr["vox_offset"] = 352.0
    hdr["scl_slope"] = 1.0
    hdr["scl_inter"] = 0.0
    hdr["xyzt_units"] = 2  # mm
    hdr["descrip"] = b"sphdwi"
    hdr["sform_code"] = 1
    hdr["srow_x"] = affine[0, :]
    hdr["srow_y"] = affine[1, :]
    hdr["srow_z"] = affine[2, :]
    hdr["magic"] = b"n+1"
    if intent is not None:
        hdr["intent_name"], hdr["intent_p1"], hdr["intent_p2"] = intent
    return hdr.tobytes() + b"\x00" * 4


def write_nifti(path: str, data, affine=None, dtype=np.float32, intent=None) -> None:
    """Write a single-file NIfTI-1 volume (gzip when path ends in .gz, in any case).

    ``data`` is stored in X, Y, Z[, volume] order with the given on-disk
    dtype (float32 by default); the affine lands in the sform rows and
    ``intent`` in the intent fields (see :func:`_nifti_header`). The
    array goes to :func:`write_nifti_rows` one z slab at a time, as a
    (C, X * Y) block, so this holds no copy of the whole array: a slab of
    a Fortran-order array is a view, any other is one slab copy. The
    writer's checks and fit rules apply, and the file appears at ``path``
    only once it is whole.
    """
    arr = np.asarray(data)
    with write_nifti_rows(path, arr.shape, affine, dtype, intent) as write:
        arr = arr.reshape(arr.shape + (1,) * (3 - arr.ndim))
        for z in range(arr.shape[2]):
            write(arr[:, :, z].reshape(arr.shape[0] * arr.shape[1], -1, order="F").T)


@contextmanager
def write_nifti_rows(path: str, shape, affine=None, dtype=np.float32, intent=None):
    """Write a NIfTI-1 volume of ``shape`` in blocks (gzip when path ends in .gz, in any case).

    This is the one code that writes NIfTI files, and the one that turns
    values into stored ones. The payload is the (C, V) matrix of
    :class:`NiftiRows`, stored as ``dtype`` (float32 by default), and
    ``affine`` lands in the sform rows and ``intent`` in the intent fields
    (see :func:`_nifti_header`). This yields ``write(block)``,
    which takes the next ``width`` voxel columns as a (C, width) float or
    integer ``block``: blocks are written in order, from column 0, each
    with one row per channel. A block that is not 2-D, has another row
    count, or runs past the last column raises ValueError naming ``path``,
    the block's shape and the next column to be written; so do blocks
    that end short of the last column, when the ``with`` block ends. The
    header is built on entry, so its checks (see :func:`_nifti_header`)
    raise before any block or file.

    Each block is cast into one reused window of ``dtype`` and _STREAM
    voxel columns, whose rows are written, one positioned write each,
    when it fills and when the last column is in. The cast's fit rules:
    a float ``dtype`` must hold every finite value (1e39 is beyond
    float32), and an integer ``dtype`` every value exactly, so a value out
    of its range, a fractional one, NaN or inf does not fit. Such a value
    raises ValueError naming ``path``, where the cast would store inf or
    wrap it silently, and numpy prints no warning; NaN and inf are stored
    as they are in a float ``dtype``.

    An uncompressed volume's rows go straight into the
    :func:`_atomic_output` temporary file. A .nii.gz volume's rows go into
    a :func:`_spill` file in the same directory, which
    :func:`_write_gzip_member` deflates when the ``with`` block ends; so
    the directory needs about one uncompressed payload of free space.
    Either way only the caller's block and the window are in memory. The
    file appears at ``path`` only when the ``with`` block ends without an
    error.
    """
    header = _nifti_header(shape, affine, dtype, intent)
    dtype = np.dtype(dtype)
    voxels = int(np.prod(shape[:3]))
    channels = int(np.prod(shape[3:]))
    window = np.empty((channels, min(voxels, _STREAM)), dtype=dtype)
    lo = 0  # the next voxel column to write
    gz = path.lower().endswith(".gz")
    with (
        _atomic_output(path) as tmp,
        open(tmp, "wb") as fh,
        _spill(os.path.dirname(tmp)) if gz else nullcontext(fh) as out,
    ):
        out.write(header)

        def write(block) -> None:
            nonlocal lo
            if block.ndim != 2 or len(block) != channels or lo + block.shape[1] > voxels:
                raise ValueError(
                    f"{path}: a {block.shape} block at column {lo} does not fit "
                    f"the ({channels}, {voxels}) payload"
                )
            taken = 0  # the block's columns already cast
            while taken < block.shape[1]:
                col = lo % window.shape[1]  # where column lo sits in the window
                end = min(window.shape[1], col + block.shape[1] - taken)
                part, dest = block[:, taken : taken + end - col], window[:, col:end]
                with np.errstate(over="raise", invalid="ignore"):
                    try:
                        np.copyto(dest, part, casting="unsafe")
                        fits = dtype.kind not in "iu" or np.array_equal(dest, part)
                    except FloatingPointError:
                        fits = False
                if not fits:
                    raise ValueError(f"{path}: the values do not all fit on-disk dtype {dtype}")
                taken, lo = taken + end - col, lo + end - col
                if end == window.shape[1] or lo == voxels:  # the window is full, or the last
                    for channel, row in enumerate(window[:, :end]):
                        out.seek(len(header) + (channel * voxels + lo - end) * dtype.itemsize)
                        out.write(row)

        yield write
        if lo != voxels:
            raise ValueError(f"{path}: the blocks end at column {lo}; the volume has {voxels}")
        if gz:
            out.seek(0)
            _write_gzip_member(fh, os.path.basename(path)[:-3], out)


def _thread_count() -> int:
    """Cores this process may run on: the deflate pool's size."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _deflate_slice(data, last: bool) -> list:
    """Raw run-length deflate of the bytes ``data``, ending the stream when ``last``.

    A slice that is not the last ends with a sync flush: an empty stored
    block that byte-aligns the output, so the next slice's own deflate
    stream can follow it as part of one stream.
    """
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS, 9, zlib.Z_RLE)
    return [deflate.compress(data), deflate.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH)]


def _write_gzip_member(fh, name: str, src) -> None:
    """Write the file ``src`` to ``fh`` as one gzip member (RFC 1952).

    ``src`` is a binary file positioned at the start of the uncompressed
    stream, which runs to its end. Its size is measured first, since the
    final slice must end the stream; then it is read in _GZIP_SLICE
    pieces, so nothing here holds more than the slices in flight.

    The header is the one ``gzip.GzipFile(name, mtime=0)`` writes: FNAME
    set, mtime 0, XFL 0 (no level claimed), OS 255, then ``name`` and a
    NUL; like CPython's gzip, FNAME is left out when the name does not
    encode as latin-1. So the output is reproducible: it stores the
    target's name, not a temporary one, and no time. The body is one raw
    deflate stream with the Z_RLE strategy, which only matches runs of the
    previous byte. On the noise-like float32 payloads of diffusion volumes,
    LZ77 string search does a lot of work and finds almost nothing, so
    this is 4-5x faster than the gzip module's default and slightly
    smaller, and zero background compresses to almost nothing. Under Z_RLE
    the level has no effect, so there is none to choose.

    The stream is cut into _GZIP_SLICE (1 MiB) slices, each deflated on
    its own as pigz does (see :func:`_deflate_slice`), on a pool of one
    thread per core; zlib releases the GIL while it compresses. At most one
    slice per thread is in flight, and the compressed slices are written in
    order, so the output depends on the slice size only, never on the
    thread count. Since run-length matching looks back one byte, the cuts
    cost almost nothing: about 16 bytes per slice. A stream of at most one
    slice gives the bytes of one unsliced deflate. The CRC32 is computed
    here, in order, while the pool compresses.
    """
    from concurrent.futures import ThreadPoolExecutor  # about 12 ms, paid by .gz writes only

    try:
        fname = name.encode("latin-1")
    except UnicodeEncodeError:
        fname = b""
    flags = 0x08 if fname else 0  # FNAME
    fh.write(b"\x1f\x8b\x08" + bytes([flags]) + b"\x00\x00\x00\x00\x00\xff")
    if fname:
        fh.write(fname + b"\x00")
    start = src.tell()
    size = src.seek(0, os.SEEK_END) - start
    src.seek(start)
    last = max(0, size - 1) // _GZIP_SLICE  # index of the final slice; an empty stream is one
    threads = _thread_count()
    crc = 0
    with ThreadPoolExecutor(threads) as pool:
        pending = collections.deque()
        for index in range(last + 1):
            data = src.read(_GZIP_SLICE)
            pending.append(pool.submit(_deflate_slice, data, index == last))
            crc = zlib.crc32(data, crc)
            if len(pending) == threads:
                fh.writelines(pending.popleft().result())
        while pending:
            fh.writelines(pending.popleft().result())
    fh.write(struct.pack("<II", crc, size & 0xFFFFFFFF))


@contextmanager
def _atomic_output(path: str):
    """Yield a temporary sibling of ``path``; rename it into place on success.

    On any failure the temporary file is removed and ``path`` is left as it
    was, so readers never observe a partial file. An OSError that escapes
    names ``path``: the temporary name means nothing to the caller.
    """
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=".sphdwi-", suffix=".tmp", dir=dirname)
        os.close(fd)
        yield tmp
        # mkstemp creates 0600 files and os.replace keeps that mode; outputs
        # should get the permissions a plain open() would have produced
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if not isinstance(exc, OSError) or path in (exc.filename, exc.filename2):
            raise
        if exc.errno is None:
            raise OSError(f"{path}: {exc}") from exc
        raise OSError(exc.errno, exc.strerror, path) from exc
