import errno
import gzip
import io
import os
import struct
import tempfile

import numpy as np
import pytest

from sphdwi import dwio


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture
def two_blas_threads():
    """The (get, set) controls of every OpenBLAS in the process, each set to two threads.

    Importing scipy.linalg first maps scipy's own OpenBLAS beside numpy's.
    Two threads, not the machine's default, so that a pin to one differs
    from it on any machine; each library's earlier count is set back
    afterwards.
    """
    import scipy.linalg  # noqa: F401

    from sphdwi import bench

    controls = bench._openblas_thread_controls()
    earlier = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield controls
    for (_, set_threads), count in zip(controls, earlier):
        set_threads(count)


class _FullDisk(io.FileIO):
    """A file that refuses writes once 100 bytes are in it, as a full disk would."""

    def write(self, data):
        if self.tell() >= 100:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


@pytest.fixture
def full_disk(monkeypatch):
    """Make every file dwio writes fail with ENOSPC past 100 bytes.

    Those are the files it opens for "wb" and its unnamed spill files.
    """

    def full_disk_open(path, mode="r"):
        return _FullDisk(path, "w") if mode == "wb" else open(path, mode)

    def full_disk_spill(dirname):
        with tempfile.TemporaryFile(dir=dirname) as spill:
            return _FullDisk(os.dup(spill.fileno()), "r+")

    monkeypatch.setattr(dwio, "open", full_disk_open, raising=False)
    monkeypatch.setattr(dwio, "_spill", full_disk_spill)


def corrupt_gzip_member(plain: bytes, fault: str) -> bytes:
    """``plain`` as one stored-block gzip member that still inflates, but whose trailer fails.

    ``fault`` is "flipped-bit" (one bit of the last payload byte flipped,
    so the CRC32 no longer matches) or "wrong-isize" (ISIZE one too high).
    """
    packed = bytearray(gzip.compress(plain, compresslevel=0))
    if fault == "flipped-bit":
        packed[-9] ^= 1  # stored blocks hold the bytes as they are: this is the last one
    else:
        packed[-4:] = struct.pack("<I", len(plain) + 1)
    return bytes(packed)


def random_unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def fibonacci_sphere(n):
    """Deterministic, nearly uniform spread of n points on the sphere."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def reference_basis(dirs, order):
    """Independent real-basis oracle built on scipy's complex harmonics."""
    import scipy.special as sp

    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = dirs.shape[0]
    r = (order + 1) * (order + 2) // 2
    theta = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    out = np.empty((n, r))
    for l in range(0, order + 1, 2):
        for m in range(-l, l + 1):
            j = l * (l + 1) // 2 + m
            harm = sp.sph_harm_y(l, abs(m), theta, phi)
            if m < 0:
                out[:, j] = np.sqrt(2.0) * harm.real
            elif m == 0:
                out[:, j] = harm.real
            else:
                out[:, j] = np.sqrt(2.0) * harm.imag
    return out
