"""Diffusion-volume and gradient-table I/O.

Covers single-file NIfTI-1 (.nii / .nii.gz, 348-byte header) and FSL-style
whitespace bvals/bvecs text files, plus grouping of b-values into shells.
No attempt is made to support NIfTI-2 or paired .hdr/.img; the parser stays
deliberately small. bvecs are passed through in the frame they were written
in; no scanner/image reorientation is applied.
"""

from __future__ import annotations

import gzip
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    GradientParseError,
    NiftiDatatypeError,
    NiftiError,
    NiftiMagicError,
    NiftiTruncatedError,
)

B0_THRESHOLD = 50.0  # s/mm^2; real bval files carry near-zero values for b=0
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
    b0_threshold: float = B0_THRESHOLD

    def __post_init__(self) -> None:
        if self.directions.shape[0] != self.bvals.shape[0]:
            raise GradientParseError(
                f"bvals count ({self.bvals.shape[0]}) does not match "
                f"bvecs count ({self.directions.shape[0]})"
            )

    @property
    def n(self) -> int:
        return int(self.bvals.shape[0])

    def shell_bvalues(self) -> list[float]:
        return [s.bvalue for s in self.shells]

    def shell(self, bvalue: float, tolerance: float = SHELL_TOLERANCE) -> Shell:
        """Shell whose nominal b-value is nearest ``bvalue`` within tolerance."""
        return select_shells(self.shells, [bvalue], tolerance)[0]

    def shell_directions(self, bvalue: float) -> np.ndarray:
        sh = self.shell(bvalue)
        return self.directions[sh.indices]


def select_shells(
    shells, bvalues, tolerance: float = SHELL_TOLERANCE
) -> tuple[Shell, ...]:
    """Resolve each requested b-value to the nearest shell within ``tolerance``.

    Raises ValueError when a request has no shell within tolerance, naming
    the available shells, and when two requests resolve to the same shell,
    which would otherwise fit or convolve that shell twice.
    """
    picked: dict[float, float] = {}  # shell b-value -> request that chose it
    out = []
    for want in bvalues:
        best = min(shells, key=lambda s: abs(s.bvalue - want), default=None)
        if best is None or abs(best.bvalue - want) > tolerance:
            avail = ", ".join(f"{s.bvalue:g}" for s in shells) or "none"
            raise ValueError(f"no shell near b={want:g}; available shells: {avail}")
        if best.bvalue in picked:
            raise ValueError(
                f"b={picked[best.bvalue]:g} and b={want:g} both select the "
                f"b={best.bvalue:g} shell; give each shell once"
            )
        picked[best.bvalue] = want
        out.append(best)
    return tuple(out)


def detect_shells(
    bvals,
    tolerance: float = SHELL_TOLERANCE,
    b0_threshold: float = B0_THRESHOLD,
) -> tuple[np.ndarray, tuple[Shell, ...]]:
    """Group b-values into a b0 set and shells.

    Values <= ``b0_threshold`` form the b0 group. The rest are sorted and
    split wherever the gap between consecutive values exceeds ``tolerance``;
    each group's nominal b is its mean rounded to the nearest 5.
    Returns (b0_indices, shells sorted by nominal b).
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    b = np.asarray(bvals, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError("bvals must be one-dimensional")
    if not np.isfinite(b).all():
        raise ValueError("bvals contain non-finite values")
    b0_idx = np.flatnonzero(b <= b0_threshold)
    dwi_idx = np.flatnonzero(b > b0_threshold)
    if dwi_idx.size == 0:
        return b0_idx, ()
    order = dwi_idx[np.argsort(b[dwi_idx], kind="stable")]
    groups: list[list[int]] = [[int(order[0])]]
    for i in order[1:]:
        if b[i] - b[groups[-1][-1]] > tolerance:
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


def read_bvals_bvecs(
    bvals_path: str,
    bvecs_path: str,
    b0_threshold: float = B0_THRESHOLD,
    tolerance: float = SHELL_TOLERANCE,
) -> GradientScheme:
    """Read an FSL gradient table into a :class:`GradientScheme`.

    bvals: whitespace-separated reals forming one logical row. bvecs: 3 rows
    of N columns; a transposed N x 3 layout is accepted and detected from the
    shape. Non-b0 rows are normalized to unit length; zero vectors are only
    legal where b <= b0_threshold.
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
    bad = zero & (bvals > b0_threshold)
    if np.any(bad):
        raise GradientParseError(
            f"{bvecs_path}: zero direction at index {int(np.flatnonzero(bad)[0])} "
            f"with b > {b0_threshold:g}"
        )
    unit = vecs.copy()
    unit[~zero] /= norms[~zero, None]

    b0_idx, shells = detect_shells(bvals, tolerance=tolerance, b0_threshold=b0_threshold)
    return GradientScheme(
        directions=unit,
        bvals=bvals,
        b0_indices=b0_idx,
        shells=shells,
        b0_threshold=b0_threshold,
    )


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

def _open_maybe_gzip(path: str, mode: str):
    if "r" in mode:
        with open(path, "rb") as probe:
            magic = probe.read(2)
        if magic == b"\x1f\x8b":
            return gzip.open(path, mode)
        return open(path, mode)
    if path.endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


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


def read_nifti(path: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Read a single-file NIfTI-1 volume.

    Returns (data, affine, header) with data as float64 in X, Y, Z[, volume]
    order and scl_slope/scl_inter already applied. Raises distinct error
    types for a bad magic number, an unsupported datatype and a truncated
    file.
    """
    try:
        fh = _open_maybe_gzip(path, "rb")
    except OSError as exc:
        raise NiftiError(f"{path}: cannot open ({exc})") from exc
    with fh:
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
        count = int(np.prod(shape))
        offset_f = float(hdr["vox_offset"])
        if not np.isfinite(offset_f) or offset_f < HEADER_DTYPE.itemsize:
            raise NiftiMagicError(f"{path}: implausible vox_offset = {offset_f}")
        offset = int(offset_f)
        expected = count * dtype.itemsize
        if not isinstance(fh, gzip.GzipFile):
            # cheap truncation check before allocating anything
            size = os.fstat(fh.fileno()).st_size
            if offset + expected > size:
                raise NiftiTruncatedError(
                    f"{path}: file has {size} bytes but header promises {offset + expected}"
                )
        try:
            fh.seek(offset)
            buf = fh.read(expected)
        except (OSError, EOFError, ValueError, OverflowError) as exc:
            raise NiftiTruncatedError(f"{path}: unreadable voxel data ({exc})") from exc
        except MemoryError as exc:
            raise NiftiError(
                f"{path}: header promises {expected} bytes of voxel data, "
                "more than this process can allocate"
            ) from exc
        if len(buf) < expected:
            raise NiftiTruncatedError(
                f"{path}: voxel data is {len(buf)} bytes, expected {expected}"
            )
        data = np.frombuffer(buf, dtype=dtype, count=count).reshape(shape, order="F")
        data = data.astype(np.float64)

        slope = float(hdr["scl_slope"])
        inter = float(hdr["scl_inter"])
        if np.isfinite(slope) and slope != 0.0:
            data = data * slope + (inter if np.isfinite(inter) else 0.0)

        header = {name: np.copy(hdr[name]) for name in HEADER_DTYPE.names}
        return data, _affine_from_header(hdr), header


def write_nifti(path: str, data, affine=None, dtype=np.float32) -> None:
    """Write a single-file NIfTI-1 volume (gzip when path ends in .gz).

    ``data`` is stored in X, Y, Z[, volume] order with the given on-disk
    dtype (float32 by default); the affine lands in the sform rows. The file
    is written to a temporary sibling and renamed into place so readers never
    observe a partial volume.
    """
    arr = np.asarray(data)
    if arr.ndim < 1 or arr.ndim > 7:
        raise ValueError(f"cannot store a {arr.ndim}-dimensional array in NIfTI-1")
    dtype = np.dtype(dtype)
    if dtype not in _CODE_FOR_DTYPE:
        raise NiftiDatatypeError(f"unsupported on-disk dtype {dtype}")
    if affine is None:
        affine = np.eye(4)
    affine = np.asarray(affine, dtype=np.float64)
    if affine.shape != (4, 4):
        raise ValueError(f"affine must be 4 x 4, got {affine.shape}")

    hdr = np.zeros((), dtype=HEADER_DTYPE)
    hdr["sizeof_hdr"] = 348
    hdr["regular"] = b"r"
    hdr["dim"][0] = arr.ndim
    hdr["dim"][1 : arr.ndim + 1] = arr.shape
    hdr["dim"][arr.ndim + 1 :] = 1
    hdr["datatype"] = _CODE_FOR_DTYPE[dtype]
    hdr["bitpix"] = dtype.itemsize * 8
    hdr["pixdim"][0] = 1.0
    hdr["pixdim"][1:4] = np.linalg.norm(affine[:3, :3], axis=0)
    hdr["pixdim"][4 : arr.ndim + 1] = 1.0
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

    payload = np.asfortranarray(arr.astype(dtype))
    opener = gzip.open if path.endswith(".gz") else open
    with _atomic_output(path) as tmp, opener(tmp, "wb") as fh:
        fh.write(hdr.tobytes())
        fh.write(b"\x00" * 4)  # pad to vox_offset = 352
        fh.write(payload.tobytes(order="F"))


@contextmanager
def _atomic_output(path: str):
    """Yield a temporary sibling of ``path``; rename it into place on success.

    On any failure the temporary file is removed and ``path`` is left as it
    was, so readers never observe a partial file.
    """
    dirname = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".sphdwi-", suffix=".tmp", dir=dirname)
    os.close(fd)
    try:
        yield tmp
        # mkstemp creates 0600 files and os.replace keeps that mode; outputs
        # should get the permissions a plain open() would have produced
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
