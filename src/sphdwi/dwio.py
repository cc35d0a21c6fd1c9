"""Diffusion-volume and gradient-table I/O.

Covers single-file NIfTI-1 (.nii / .nii.gz, 348-byte header) and FSL-style
whitespace bvals/bvecs text files, plus grouping of b-values into shells.
No attempt is made to support NIfTI-2 or paired .hdr/.img; the parser stays
deliberately small. bvecs are passed through in the frame they were written
in; no scanner/image reorientation is applied.
"""

from __future__ import annotations

import collections
import gzip
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager
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
    shell that close, naming the available shells, and when two requests
    resolve to the same shell, which would otherwise fit or convolve that
    shell twice. Raises :class:`ShapeError` when nothing is selected or the
    selected shells differ in direction count, since their channel blocks
    must share one size.
    """
    if bvalues is None:
        out = list(shells)
    else:
        picked: dict[float, float] = {}  # shell b-value -> request that chose it
        out = []
        for want in bvalues:
            best = min(shells, key=lambda s: abs(s.bvalue - want), default=None)
            if best is None or abs(best.bvalue - want) > SHELL_TOLERANCE:
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
    """Write an FSL gradient table (bvals one row, bvecs three rows)."""
    b = np.asarray(bvals, dtype=np.float64)
    d = np.asarray(directions, dtype=np.float64)
    with open(bvals_path, "w") as fh:
        fh.write(" ".join(f"{v:g}" for v in b) + "\n")
    with open(bvecs_path, "w") as fh:
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
_IO_CHUNK = 1 << 22  # bytes per read call; bounds gzip's temporary buffers
_GZIP_SLICE = 1 << 20  # uncompressed bytes per independently deflated .gz slice


def _open_nifti(path: str):
    """Open ``path`` for reading, through gzip when it starts with the gzip magic."""
    try:
        with open(path, "rb") as probe:
            magic = probe.read(2)
        return gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")
    except OSError as exc:
        raise NiftiError(f"{path}: cannot open ({exc})") from exc


def _read_header(fh, path: str):
    """Read and check the header at the start of ``fh``.

    Returns (hdr, dtype, shape, offset): the header record in its file's
    byte order, the stored dtype, the array shape and the payload's byte
    offset. Raises distinct error types for a bad magic number, an
    unsupported datatype and a truncated header.
    """
    try:
        raw = fh.read(HEADER_DTYPE.itemsize)
    except (OSError, EOFError) as exc:
        raise NiftiTruncatedError(f"{path}: unreadable header ({exc})") from exc
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


def _check_file_size(fh, path: str, end: int) -> None:
    """Cheap truncation check of an uncompressed file, before allocating anything."""
    size = os.fstat(fh.fileno()).st_size
    if end > size:
        raise NiftiTruncatedError(f"{path}: file has {size} bytes but header promises {end}")


def _read_payload(fh, path: str, dtype, shape, offset: int) -> np.ndarray:
    """The whole payload of an open NIfTI file, as a flat array of ``dtype``."""
    expected = int(np.prod(shape)) * dtype.itemsize
    if not isinstance(fh, gzip.GzipFile):
        _check_file_size(fh, path, offset + expected)
    try:
        buf = np.empty(expected, dtype=np.uint8)
    except MemoryError as exc:
        raise NiftiError(
            f"{path}: header promises {expected} bytes of voxel data, "
            "more than this process can allocate"
        ) from exc
    view = memoryview(buf)
    filled = 0
    try:
        fh.seek(offset)
        while filled < expected:
            got = fh.readinto(view[filled : filled + _IO_CHUNK])
            if not got:
                break
            filled += got
    except (OSError, EOFError, ValueError, OverflowError) as exc:
        raise NiftiTruncatedError(f"{path}: unreadable voxel data ({exc})") from exc
    if filled < expected:
        raise NiftiTruncatedError(
            f"{path}: voxel data is {filled} bytes, expected {expected}"
        )
    return buf.view(dtype)


def read_nifti_payload(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read a single-file NIfTI-1 volume's voxels as stored.

    Returns (raw, affine, header) with raw in the on-disk datatype and byte
    order, shape X, Y, Z[, volume] in Fortran order and no scaling applied
    (see :func:`to_float64`). The payload is read straight into one
    preallocated array, in bounded chunks for gzip. Raises distinct error
    types for a bad magic number, an unsupported datatype and a truncated
    file.
    """
    with _open_nifti(path) as fh:
        hdr, dtype, shape, offset = _read_header(fh, path)
        data = _read_payload(fh, path, dtype, shape, offset).reshape(shape, order="F")
        return data, _affine_from_header(hdr), _header_dict(hdr)


class NiftiRows:
    """A single-file NIfTI-1 volume's payload as a (C, V) matrix of stored values.

    NIfTI stores X, Y, Z[, volume...] in Fortran order, so the payload is a
    C-order matrix with one row per volume (C rows) and one column per voxel
    of the first three axes (V columns): row c at voxel columns lo:hi is one
    contiguous segment of the file. :meth:`read` fetches such segments.

    An uncompressed file stays open, and each segment is read from disk
    with a positioned ``readinto``, so memory does not grow with the
    volume. A gzip file is inflated whole when opened, since a gzip member
    can only be read from its start. Attributes: ``shape``, ``dtype`` (the
    stored dtype), ``affine``, ``header`` (as :func:`read_nifti_payload`
    returns them), ``channels`` (C) and ``voxels`` (V). Close it, or use it
    as a context manager. Opening raises the errors of
    :func:`read_nifti_payload`.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        fh = _open_nifti(path)
        try:
            hdr, self.dtype, self.shape, self._offset = _read_header(fh, path)
            self.voxels = int(np.prod(self.shape[:3]))
            self.channels = int(np.prod(self.shape[3:]))
            self.affine = _affine_from_header(hdr)
            self.header = _header_dict(hdr)
            if isinstance(fh, gzip.GzipFile):
                payload = _read_payload(fh, path, self.dtype, self.shape, self._offset)
                self._matrix = payload.reshape(self.channels, self.voxels)
                fh.close()
                self._fh = None
            else:
                end = self._offset + self.channels * self.voxels * self.dtype.itemsize
                _check_file_size(fh, path, end)
                self._fh = fh
        except BaseException:
            fh.close()
            raise

    def read(self, rows, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with rows ``rows`` of voxel columns lo:hi, and return it.

        ``out`` is a C-contiguous (len(rows), hi - lo) array of the stored
        dtype; row i of ``out`` receives row ``rows[i]`` of the payload.
        """
        if self._fh is None:
            for row, dest in zip(rows, out):
                dest[...] = self._matrix[row, lo:hi]
            return out
        width = (hi - lo) * self.dtype.itemsize
        try:
            for row, dest in zip(rows, out):
                self._fh.seek(self._offset + (int(row) * self.voxels + lo) * self.dtype.itemsize)
                if self._fh.readinto(dest) != width:
                    raise NiftiTruncatedError(f"{self.path}: voxel data ends early")
        except (OSError, ValueError) as exc:
            raise NiftiTruncatedError(f"{self.path}: unreadable voxel data ({exc})") from exc
        return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def to_float64(stored, header: dict, out: np.ndarray | None = None) -> np.ndarray:
    """Stored voxel values as float64, with scl_slope/scl_inter applied.

    The rule is ``x * slope + inter`` when the slope is finite and nonzero
    (a non-finite intercept counts as 0); otherwise the values are taken as
    they are. ``out`` receives the result when given (same shape as
    ``stored``), so a caller can convert block by block into one buffer.
    """
    slope = float(header["scl_slope"])
    inter = float(header["scl_inter"])
    scaled = bool(np.isfinite(slope) and slope != 0.0)
    # multiplying by 1 is exact, so unscaled values convert unchanged
    out = np.multiply(stored, slope if scaled else 1.0, out=out, dtype=np.float64)
    if scaled:
        out += inter if np.isfinite(inter) else 0.0
    return out


def read_nifti(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read a single-file NIfTI-1 volume.

    Returns (data, affine, header) with data as float64 in X, Y, Z[, volume]
    order and scl_slope/scl_inter already applied. Raises distinct error
    types for a bad magic number, an unsupported datatype and a truncated
    file.
    """
    raw, affine, header = read_nifti_payload(path)
    return to_float64(raw, header), affine, header


def _nifti_header(shape, affine, dtype) -> bytes:
    """The 352 bytes before the payload of a volume that sphdwi writes.

    The NIfTI-1 header of an array of ``shape`` stored as ``dtype`` with
    ``affine`` in its sform rows (identity when None), and the 4 zero
    extension bytes up to vox_offset 352. Raises ValueError, before
    anything is written, for a shape NIfTI-1 cannot store (it takes 1 to 7
    axes of at most 32,767) or an affine that is not 4 x 4, and
    :class:`NiftiDatatypeError` for an unsupported dtype.
    """
    if not 1 <= len(shape) <= 7:
        raise ValueError(f"cannot store a {len(shape)}-dimensional array in NIfTI-1")
    for axis, length in enumerate(shape):
        if length > _DIM_MAX:
            raise ValueError(
                f"axis {axis} has length {length}; NIfTI-1 stores at most {_DIM_MAX} per axis"
            )
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
    return hdr.tobytes() + b"\x00" * 4


def write_nifti(path: str, data, affine=None, dtype=np.float32) -> None:
    """Write a single-file NIfTI-1 volume (gzip when path ends in .gz).

    ``data`` is stored in X, Y, Z[, volume] order with the given on-disk
    dtype (float32 by default); the affine lands in the sform rows. An
    F-contiguous array of that dtype is written as it is, without a copy,
    so the whole payload is in memory; :func:`write_nifti_rows` takes a
    float32 volume in blocks and writes the same bytes.
    An axis longer than 32,767 raises ValueError before any file exists.
    The file is written to a temporary sibling and renamed into place so
    readers never observe a partial volume. gzip output is one member that
    any gzip reader accepts, compressed with deflate's run-length strategy
    in 1 MiB slices on all cores (see :func:`_write_gzip_member`), and
    reproducible: its header stores mtime 0 and the target's name, not the
    temporary one, and its bytes do not depend on the core count.
    """
    arr = np.asarray(data)
    header = _nifti_header(arr.shape, affine, dtype)
    payload = memoryview(arr.astype(dtype, order="F", copy=False).reshape(-1, order="F"))
    pieces = [header, payload.cast("B")]
    with _atomic_output(path) as tmp, open(tmp, "wb") as fh:
        if path.endswith(".gz"):
            _write_gzip_member(fh, os.path.basename(path)[:-3], pieces)
        else:
            fh.writelines(pieces)


@contextmanager
def write_nifti_rows(path: str, shape, affine=None):
    """Write a float32 NIfTI-1 volume of ``shape`` in blocks (gzip when path ends in .gz).

    The payload is the (C, V) matrix of :class:`NiftiRows`. This yields
    ``write(block, lo)``, which stores the (C, width) ``block``, cast to
    float32, at voxel columns lo:lo + width; every column should be written
    once. The header is built on entry, so its checks raise before any
    block or file. An uncompressed volume's rows go straight to their
    offsets in the :func:`_atomic_output` temporary file, so only one block
    is in memory; a .nii.gz volume is collected whole and handed to
    :func:`write_nifti` when the ``with`` block ends. The file is byte for
    byte the one :func:`write_nifti` writes, and appears at ``path`` only
    when the ``with`` block ends without an error.
    """
    header = _nifti_header(shape, affine, np.float32)
    voxels = int(np.prod(shape[:3]))

    if path.endswith(".gz"):
        payload = np.empty((int(np.prod(shape[3:])), voxels), dtype=np.float32)

        def write(block, lo: int) -> None:
            payload[:, lo : lo + block.shape[1]] = block

        yield write
        write_nifti(path, payload.T.reshape(shape, order="F"), affine=affine)
        return

    itemsize = np.dtype(np.float32).itemsize
    with _atomic_output(path) as tmp, open(tmp, "wb") as fh:
        fh.write(header)

        def write(block, lo: int) -> None:
            for channel, row in enumerate(block):
                fh.seek(len(header) + (channel * voxels + lo) * itemsize)
                fh.write(row.astype(np.float32))

        yield write


def _thread_count() -> int:
    """Cores this process may run on: the deflate pool's size."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _slices(pieces, size: int):
    """Cut the bytes of ``pieces`` into lists of memoryviews of ``size`` bytes each.

    The last list holds the remainder; a stream of no bytes gives one empty
    list. Nothing is copied: each view is a slice of one of the pieces.
    """
    part, room, cut = [], size, 0
    for piece in pieces:
        view = memoryview(piece).cast("B")
        while len(view):
            part.append(view[:room])
            room -= len(part[-1])
            view = view[len(part[-1]) :]
            if not room:
                yield part
                part, room, cut = [], size, cut + 1
    if part or not cut:
        yield part


def _deflate_slice(part, last: bool) -> list:
    """Raw run-length deflate of one slice, ending the stream when ``last``.

    A slice that is not the last ends with a sync flush: an empty stored
    block that byte-aligns the output, so the next slice's own deflate
    stream can follow it as part of one stream.
    """
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS, 9, zlib.Z_RLE)
    out = [deflate.compress(view) for view in part]
    out.append(deflate.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH))
    return out


def _write_gzip_member(fh, name: str, pieces) -> None:
    """Write the bytes of ``pieces`` to ``fh`` as one gzip member (RFC 1952).

    The header is the one ``gzip.GzipFile(name, mtime=0)`` writes: FNAME
    set, mtime 0, XFL 0 (no level claimed), OS 255, then ``name`` and a
    NUL; like CPython's gzip, FNAME is left out when the name does not
    encode as latin-1. The body is one raw deflate stream with the Z_RLE
    strategy, which only matches runs of the previous byte. On the
    noise-like float32 payloads of diffusion volumes, LZ77 string search
    does a lot of work and finds almost nothing, so this is 4-5x faster
    than the gzip module's default and slightly smaller, and zero
    background compresses to almost nothing. Under Z_RLE the level has no
    effect, so there is none to choose.

    The stream is cut into _GZIP_SLICE (1 MiB) slices, each deflated on
    its own as pigz does (see :func:`_deflate_slice`), on a pool of one
    thread per core; zlib releases the GIL while it compresses. At most one
    slice per thread is in flight, and the compressed slices are written in
    order, so the output depends on the slice size only, never on the
    thread count. Since run-length matching looks back one byte, the cuts
    cost almost nothing: about 16 bytes per slice. A stream of at most one
    slice gives the bytes of one unsliced deflate. The CRC32 and size are
    computed here, in order, while the pool compresses.
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
    pieces = list(pieces)
    total = sum(memoryview(piece).nbytes for piece in pieces)
    last = max(0, total - 1) // _GZIP_SLICE  # index of the final slice
    threads = _thread_count()
    crc = 0
    with ThreadPoolExecutor(threads) as pool:
        pending = collections.deque()
        for index, part in enumerate(_slices(pieces, _GZIP_SLICE)):
            pending.append(pool.submit(_deflate_slice, part, index == last))
            for view in part:
                crc = zlib.crc32(view, crc)
            if len(pending) == threads:
                fh.writelines(pending.popleft().result())
        while pending:
            fh.writelines(pending.popleft().result())
    fh.write(struct.pack("<II", crc, total & 0xFFFFFFFF))


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
