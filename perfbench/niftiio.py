"""Minimal single-file NIfTI-1 writer and streaming sample reader.

The benchmark writes its inputs and reads the pipeline's outputs with this
module rather than with ``sphdwi.dwio``, so a defect in the package's own
I/O cannot hide from the oracle check.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

HEADER_BYTES = 348
VOX_OFFSET = 352
_DTYPES = {16: np.dtype("<f4"), 64: np.dtype("<f8")}


def write_float32(path: str, data: np.ndarray, gzip_level: int = 1) -> None:
    """Write an (X, Y, Z, N) array as little-endian float32 NIfTI-1.

    A ``.gz`` suffix selects gzip at ``gzip_level``; the affine is the
    identity, stored in the sform rows.
    """
    arr = np.asarray(data, dtype="<f4")
    hdr = bytearray(VOX_OFFSET)
    struct.pack_into("<i", hdr, 0, HEADER_BYTES)
    dims = [arr.ndim, *arr.shape] + [1] * (7 - arr.ndim)
    struct.pack_into("<8h", hdr, 40, *dims)
    struct.pack_into("<hh", hdr, 70, 16, 32)
    struct.pack_into("<8f", hdr, 76, *([1.0] * 8))
    struct.pack_into("<fff", hdr, 108, float(VOX_OFFSET), 1.0, 0.0)
    struct.pack_into("<h", hdr, 254, 1)
    for row, offset in enumerate((280, 296, 312)):
        srow = [0.0, 0.0, 0.0, 0.0]
        srow[row] = 1.0
        struct.pack_into("<4f", hdr, offset, *srow)
    hdr[344:348] = b"n+1\x00"
    opener = gzip.open if path.endswith(".gz") else open
    kwargs = {"compresslevel": gzip_level} if path.endswith(".gz") else {}
    with opener(path, "wb", **kwargs) as fh:
        fh.write(bytes(hdr))
        fh.write(arr.tobytes(order="F"))


def _open(path: str):
    with open(path, "rb") as probe:
        magic = probe.read(2)
    return gzip.open(path, "rb") if magic == b"\x1f\x8b" else open(path, "rb")


def read_voxels(path: str, voxels: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Values of a 4-D NIfTI-1 file at the given F-order voxel indices.

    Returns ``(values, shape)`` with values of shape (len(voxels), N) as
    float64. The file is streamed one volume at a time, so memory use stays
    at one volume whatever the file size.
    """
    with _open(path) as fh:
        hdr = fh.read(HEADER_BYTES)
        if len(hdr) != HEADER_BYTES or struct.unpack_from("<i", hdr, 0)[0] != HEADER_BYTES:
            raise ValueError(f"{path}: not a little-endian NIfTI-1 header")
        if hdr[344:347] != b"n+1":
            raise ValueError(f"{path}: not a single-file NIfTI-1")
        dims = struct.unpack_from("<8h", hdr, 40)
        shape = tuple(int(d) for d in dims[1 : dims[0] + 1])
        code = struct.unpack_from("<h", hdr, 70)[0]
        if code not in _DTYPES or len(shape) != 4:
            raise ValueError(f"{path}: expected 4-D float data, got datatype {code}, shape {shape}")
        dtype = _DTYPES[code]
        offset, slope, inter = struct.unpack_from("<fff", hdr, 108)
        fh.read(int(offset) - HEADER_BYTES)
        nvox = shape[0] * shape[1] * shape[2]
        out = np.empty((voxels.size, shape[3]))
        for vol in range(shape[3]):
            block = fh.read(nvox * dtype.itemsize)
            if len(block) != nvox * dtype.itemsize:
                raise ValueError(f"{path}: truncated at volume {vol}")
            out[:, vol] = np.frombuffer(block, dtype=dtype)[voxels]
    if np.isfinite(slope) and slope != 0.0:
        out = out * slope + (inter if np.isfinite(inter) else 0.0)
    return out, shape


def write_gradients(prefix: str, bvals: np.ndarray, directions: np.ndarray) -> tuple[str, str]:
    """Write FSL ``<prefix>.bvals`` (one row) and ``<prefix>.bvecs`` (three rows)."""
    bvals_path, bvecs_path = prefix + ".bvals", prefix + ".bvecs"
    with open(bvals_path, "w") as fh:
        fh.write(" ".join(f"{b:g}" for b in bvals) + "\n")
    with open(bvecs_path, "w") as fh:
        for axis in range(3):
            fh.write(" ".join(f"{v:.17g}" for v in directions[:, axis]) + "\n")
    return bvals_path, bvecs_path
