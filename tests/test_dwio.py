import errno
import gzip
import io
import os
import re
import stat
import struct
import threading
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphdwi import dwio, lsc, make_identity_kernel
from sphdwi.errors import (
    GradientParseError,
    NiftiDatatypeError,
    NiftiError,
    NiftiMagicError,
    NiftiTruncatedError,
)

from conftest import corrupt_gzip_member


class TestDetectShells:
    def test_basic_split(self):
        b0, shells = dwio.detect_shells([0.0, 1000.0, 1000.0, 3000.0])
        assert list(b0) == [0]
        assert [s.bvalue for s in shells] == [1000.0, 3000.0]
        assert list(shells[0].indices) == [1, 2]
        assert list(shells[1].indices) == [3]

    def test_values_within_tolerance_merge(self):
        # hand-frozen expectation: 990 and 1010 sit 20 apart -> one shell at 1000
        b0, shells = dwio.detect_shells([0.0, 990.0, 1010.0])
        assert len(shells) == 1
        assert shells[0].bvalue == 1000.0
        assert list(shells[0].indices) == [1, 2]

    def test_gap_beyond_tolerance_splits(self):
        # 990 vs 1200 is a 210 gap -> two shells
        _, shells = dwio.detect_shells([0.0, 990.0, 1200.0])
        assert len(shells) == 2
        assert [s.bvalue for s in shells] == [990.0, 1200.0]

    def test_mixed_cluster(self):
        _, shells = dwio.detect_shells([0.0, 995.0, 1005.0, 2000.0])
        assert [s.bvalue for s in shells] == [1000.0, 2000.0]
        assert [s.indices.size for s in shells] == [2, 1]

    def test_near_zero_goes_to_b0(self):
        b0, shells = dwio.detect_shells([5.0, 45.0, 1000.0])
        assert list(b0) == [0, 1]
        assert len(shells) == 1

    def test_nominal_rounded_to_five(self):
        _, shells = dwio.detect_shells([0.0, 998.0, 999.0])
        assert shells[0].bvalue == 1000.0


class TestReadBvalsBvecs:
    def write(self, tmp_path, bvals_text, bvecs_text):
        bvals = tmp_path / "bvals"
        bvecs = tmp_path / "bvecs"
        bvals.write_text(bvals_text)
        bvecs.write_text(bvecs_text)
        return str(bvals), str(bvecs)

    def test_standard_layout(self, tmp_path):
        paths = self.write(tmp_path, "0 1000 1000\n", "0 1 0\n0 0 1\n0 0 0\n")
        scheme = dwio.read_bvals_bvecs(*paths)
        assert scheme.n == 3
        assert list(scheme.b0_indices) == [0]
        assert len(scheme.shells) == 1 and scheme.shells[0].bvalue == 1000.0
        assert scheme.shells[0].indices.size == 2
        np.testing.assert_allclose(np.linalg.norm(scheme.directions[1:], axis=1), 1.0)

    def test_transposed_layout_detected(self, tmp_path):
        text = "\n".join("0.2672612 0.5345225 0.8017837" for _ in range(5)) + "\n"
        paths = self.write(tmp_path, "1000 1000 1000 1000 1000\n", text)
        scheme = dwio.read_bvals_bvecs(*paths)
        assert scheme.directions.shape == (5, 3)
        np.testing.assert_allclose(np.linalg.norm(scheme.directions, axis=1), 1.0, atol=1e-9)

    def test_four_rows_rejected(self, tmp_path):
        paths = self.write(tmp_path, "0 1000\n", "0 1\n0 0\n0 0\n1 1\n")
        with pytest.raises(GradientParseError, match="3 x N or N x 3"):
            dwio.read_bvals_bvecs(*paths)

    def test_count_mismatch_reports_counts(self, tmp_path):
        paths = self.write(tmp_path, "0 1000 2000\n", "0 1\n0 0\n0 0\n")
        with pytest.raises(GradientParseError, match="3.*2"):
            dwio.read_bvals_bvecs(*paths)

    def test_non_numeric_token_reports_position(self, tmp_path):
        paths = self.write(tmp_path, "0 10zz 1000\n", "0 1 0\n0 0 1\n0 0 0\n")
        with pytest.raises(GradientParseError, match="line 1, column 2"):
            dwio.read_bvals_bvecs(*paths)

    def test_zero_vector_on_dwi_volume_rejected(self, tmp_path):
        paths = self.write(tmp_path, "0 1000\n", "0 0\n0 0\n0 0\n")
        with pytest.raises(GradientParseError, match="zero direction"):
            dwio.read_bvals_bvecs(*paths)

    def test_normalization_applied(self, tmp_path):
        paths = self.write(tmp_path, "0 1000\n", "0 3\n0 4\n0 0\n")
        scheme = dwio.read_bvals_bvecs(*paths)
        np.testing.assert_allclose(scheme.directions[1], [0.6, 0.8, 0.0])

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400"])
    def test_non_finite_bval_rejected(self, tmp_path, token):
        paths = self.write(tmp_path, f"0 {token} 1000\n", "0 1 0\n0 0 1\n0 0 0\n")
        with pytest.raises(GradientParseError, match="non-finite b-value"):
            dwio.read_bvals_bvecs(*paths)

    def test_non_finite_bvec_rejected(self, tmp_path):
        paths = self.write(tmp_path, "0 1000 1000\n", "0 nan 0\n0 0 1\n0 0 0\n")
        with pytest.raises(GradientParseError, match="non-finite direction"):
            dwio.read_bvals_bvecs(*paths)

    def test_shell_lookup_lists_available(self, tmp_path):
        paths = self.write(tmp_path, "0 1000 2000\n", "0 1 0\n0 0 1\n0 0 0\n")
        scheme = dwio.read_bvals_bvecs(*paths)
        with pytest.raises(ValueError, match="1000.*2000"):
            scheme.shell(5000.0)

    def test_nan_request_selects_no_shell(self, tmp_path):
        # every distance to NaN is NaN: the nearest-shell choice once fell on the first shell
        paths = self.write(tmp_path, "0 1000 2000\n", "0 1 0\n0 0 1\n0 0 0\n")
        scheme = dwio.read_bvals_bvecs(*paths)
        message = "no shell near b=nan; available shells: 1000, 2000"
        with pytest.raises(ValueError, match=message):
            dwio.select_shells(scheme.shells, [float("nan")])
        with pytest.raises(ValueError, match=message):
            scheme.shell(float("nan"))

    def test_write_read_round_trip(self, tmp_path):
        bvals = np.array([0.0, 1000.0, 1000.0])
        dirs = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        dwio.write_bvals_bvecs(bvals, dirs, str(tmp_path / "b"), str(tmp_path / "v"))
        scheme = dwio.read_bvals_bvecs(str(tmp_path / "b"), str(tmp_path / "v"))
        np.testing.assert_allclose(scheme.bvals, bvals)
        np.testing.assert_allclose(scheme.directions, dirs, atol=1e-12)


class TestNifti:
    def test_write_read_round_trip(self, tmp_path, rng):
        vol = rng.normal(size=(4, 4, 4, 6))
        path = str(tmp_path / "vol.nii")
        dwio.write_nifti(path, vol)
        data, affine, header = dwio.read_nifti(path)
        assert data.shape == (4, 4, 4, 6)
        assert data.dtype == np.float64
        rel = np.max(np.abs(data - vol) / np.maximum(np.abs(vol), 1e-12))
        assert rel <= 1e-6  # float32 storage
        np.testing.assert_array_equal(affine, np.eye(4))
        assert int(header["dim"][0]) == 4

    def test_float64_storage_is_lossless(self, tmp_path, rng):
        vol = rng.normal(size=(3, 2, 2))
        path = str(tmp_path / "vol64.nii")
        dwio.write_nifti(path, vol, dtype=np.float64)
        data, _, _ = dwio.read_nifti(path)
        np.testing.assert_array_equal(data, vol)

    def test_gzip_matches_plain(self, tmp_path, rng):
        vol = rng.normal(size=(5, 3, 2, 4))
        plain = str(tmp_path / "a.nii")
        packed = str(tmp_path / "a.nii.gz")
        dwio.write_nifti(plain, vol)
        dwio.write_nifti(packed, vol)
        a, _, _ = dwio.read_nifti(plain)
        b, _, _ = dwio.read_nifti(packed)
        np.testing.assert_array_equal(a, b)
        # recompose: gunzipped bytes equal the plain file
        with gzip.open(packed, "rb") as fh:
            assert fh.read() == open(plain, "rb").read()

    def test_affine_round_trip(self, tmp_path):
        affine = np.array(
            [
                [2.0, 0.0, 0.0, -10.0],
                [0.0, 2.0, 0.0, -20.0],
                [0.0, 0.0, 2.5, 5.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        path = str(tmp_path / "aff.nii")
        dwio.write_nifti(path, np.zeros((2, 2, 2)), affine=affine)
        _, got, _ = dwio.read_nifti(path)
        np.testing.assert_allclose(got, affine, atol=1e-6)

    def test_scl_slope_and_inter_applied(self, tmp_path):
        path = str(tmp_path / "scaled.nii")
        dwio.write_nifti(path, np.full((2, 2, 2), 7.0, dtype=np.int16), dtype=np.int16)
        raw = bytearray(open(path, "rb").read())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=dwio.HEADER_DTYPE).copy()[0]
        hdr["scl_slope"] = 2.0
        hdr["scl_inter"] = 10.0
        raw[:348] = hdr.tobytes()
        open(path, "wb").write(bytes(raw))
        data, _, _ = dwio.read_nifti(path)
        np.testing.assert_array_equal(data, 2.0 * 7.0 + 10.0)

    @pytest.mark.parametrize("code", [2, 4, 8, 16, 64, 256, 512, 768])
    def test_supported_datatypes(self, tmp_path, code):
        dtype = dwio._DTYPE_CODES[code]
        vol = (np.arange(8).reshape(2, 2, 2) % 120).astype(dtype)
        path = str(tmp_path / f"dt{code}.nii")
        dwio.write_nifti(path, vol, dtype=dtype)
        data, _, _ = dwio.read_nifti(path)
        np.testing.assert_array_equal(data, vol.astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.nii")
        dwio.write_nifti(path, np.zeros((2, 2, 2)))
        raw = bytearray(open(path, "rb").read())
        raw[344:348] = b"xx1\x00"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(NiftiMagicError):
            dwio.read_nifti(path)

    def test_paired_format_rejected(self, tmp_path):
        path = str(tmp_path / "pair.nii")
        dwio.write_nifti(path, np.zeros((2, 2, 2)))
        raw = bytearray(open(path, "rb").read())
        raw[344:348] = b"ni1\x00"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(NiftiMagicError):
            dwio.read_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        path = str(tmp_path / "cplx.nii")
        dwio.write_nifti(path, np.zeros((2, 2, 2)))
        raw = bytearray(open(path, "rb").read())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=dwio.HEADER_DTYPE).copy()[0]
        hdr["datatype"] = 32  # complex64, deliberately unsupported
        raw[:348] = hdr.tobytes()
        open(path, "wb").write(bytes(raw))
        with pytest.raises(NiftiDatatypeError, match="32"):
            dwio.read_nifti(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "trunc.nii")
        open(path, "wb").write(b"\x00" * 100)
        with pytest.raises(NiftiTruncatedError):
            dwio.read_nifti(path)

    def test_truncated_data(self, tmp_path):
        path = str(tmp_path / "short.nii")
        dwio.write_nifti(path, np.zeros((4, 4, 4)))
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - 64])
        with pytest.raises(NiftiTruncatedError):
            dwio.read_nifti(path)

    @pytest.mark.parametrize("cut", ["payload", "stream"])
    def test_truncated_gzip_data(self, tmp_path, cut):
        # 5 MiB of payload: the reader fills it over more than one chunk
        path = str(tmp_path / "short.nii.gz")
        dwio.write_nifti(path, np.ones((128, 128, 80)))
        packed = open(path, "rb").read()
        if cut == "payload":  # a complete gzip stream that ends 64 bytes early
            packed = gzip.compress(gzip.decompress(packed)[:-64])
        else:  # a gzip stream cut off in the middle
            packed = packed[: len(packed) // 2]
        open(path, "wb").write(packed)
        with pytest.raises(NiftiTruncatedError):
            dwio.read_nifti(path)
        with pytest.raises(NiftiTruncatedError):
            dwio.NiftiRows(path, spill_dir=str(tmp_path))
        assert os.listdir(tmp_path) == ["short.nii.gz"]

    @pytest.mark.parametrize("fault", ["flipped-bit", "wrong-isize"])
    def test_failed_gzip_trailer_check(self, tmp_path, fault):
        # the member inflates whole, so only its CRC32 or ISIZE shows the fault
        plain = str(tmp_path / "vol.nii")
        dwio.write_nifti(plain, np.arange(24.0).reshape(2, 2, 2, 3))
        path = str(tmp_path / "bad.nii.gz")
        open(path, "wb").write(corrupt_gzip_member(open(plain, "rb").read(), fault))
        with pytest.raises(NiftiTruncatedError, match=f"^{re.escape(path)}: unreadable voxel"):
            dwio.read_nifti(path)
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        with pytest.raises(NiftiTruncatedError):
            dwio.NiftiRows(path, spill_dir=str(spill_dir))
        assert list(spill_dir.iterdir()) == []

    def test_negative_dim_rejected(self, tmp_path):
        path = str(tmp_path / "neg.nii")
        dwio.write_nifti(path, np.zeros((2, 2, 2)))
        raw = bytearray(open(path, "rb").read())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=dwio.HEADER_DTYPE).copy()[0]
        hdr["dim"][2] = -4
        raw[:348] = hdr.tobytes()
        open(path, "wb").write(bytes(raw))
        with pytest.raises(NiftiMagicError, match="dimensions"):
            dwio.read_nifti(path)

    def test_axis_over_int16_limit_rejected_before_any_file(self, tmp_path):
        path = str(tmp_path / "long.nii")
        with pytest.raises(ValueError, match="axis 0 has length 40000; NIfTI-1 stores at most 32767"):
            dwio.write_nifti(path, np.zeros(40_000, dtype=np.uint8), dtype=np.uint8)
        assert list(tmp_path.iterdir()) == []

    def test_absurd_vox_offset_rejected(self, tmp_path):
        path = str(tmp_path / "off.nii")
        dwio.write_nifti(path, np.zeros((2, 2, 2)))
        raw = bytearray(open(path, "rb").read())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=dwio.HEADER_DTYPE).copy()[0]
        hdr["vox_offset"] = 3.0e38
        raw[:348] = hdr.tobytes()
        open(path, "wb").write(bytes(raw))
        with pytest.raises((NiftiMagicError, NiftiTruncatedError)):
            dwio.read_nifti(path)

    def test_byte_swapped_header_read(self, tmp_path, rng):
        # big-endian file must be detected from sizeof_hdr
        vol = rng.normal(size=(2, 3, 2)).astype(np.float32)
        hdr = np.zeros((), dtype=dwio.HEADER_DTYPE.newbyteorder(">"))
        hdr["sizeof_hdr"] = 348
        hdr["dim"][0] = 3
        hdr["dim"][1:4] = vol.shape
        hdr["dim"][4:] = 1
        hdr["datatype"] = 16
        hdr["bitpix"] = 32
        hdr["vox_offset"] = 352.0
        hdr["scl_slope"] = 1.0
        hdr["magic"] = b"n+1"
        path = str(tmp_path / "be.nii")
        with open(path, "wb") as fh:
            fh.write(hdr.tobytes())
            fh.write(b"\x00" * 4)
            fh.write(vol.astype(">f4").tobytes(order="F"))
        data, _, _ = dwio.read_nifti(path)
        np.testing.assert_allclose(data, vol, atol=1e-7)

    def test_fortran_order_on_disk(self, tmp_path):
        # X varies fastest on disk: check a marker voxel lands where expected
        vol = np.zeros((3, 2, 2))
        vol[2, 0, 0] = 9.0
        path = str(tmp_path / "order.nii")
        dwio.write_nifti(path, vol, dtype=np.float64)
        raw = open(path, "rb").read()
        stored = np.frombuffer(raw[352:], dtype="<f8")
        assert stored[2] == 9.0
        data, _, _ = dwio.read_nifti(path)
        np.testing.assert_array_equal(data, vol)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sizeof_hdr", 347, "sizeof_hdr is not 348 in either byte order"),
            ("dim0", 0, "implausible dim[0] = 0"),
            ("dim0", 8, "implausible dim[0] = 8"),
            ("vox_offset", 100.0, "implausible vox_offset = 100.0"),
            # data read from 348 would start with the 4 extension bytes
            ("vox_offset", 348.0, "implausible vox_offset = 348.0"),
        ],
        ids=["sizeof-hdr", "dim0-zero", "dim0-eight", "vox-offset-in-header",
             "vox-offset-in-extension"],
    )
    def test_implausible_header_rejected(self, tmp_path, field, value, message):
        path = str(tmp_path / "bad.nii")
        dwio.write_nifti(path, np.zeros((2, 2, 2)))
        raw = bytearray(open(path, "rb").read())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=dwio.HEADER_DTYPE).copy()[0]
        if field == "dim0":
            hdr["dim"][0] = value
        else:
            hdr[field] = value
        raw[:348] = hdr.tobytes()
        open(path, "wb").write(bytes(raw))
        with pytest.raises(NiftiMagicError) as info:
            dwio.read_nifti(path)
        assert message in str(info.value)

    def test_qform_affine_follows_the_nifti1_formula(self, tmp_path):
        path = str(tmp_path / "qform.nii")
        dwio.write_nifti(path, np.zeros((2, 3, 4)))
        raw = bytearray(open(path, "rb").read())
        hdr = np.frombuffer(bytes(raw[:348]), dtype=dwio.HEADER_DTYPE).copy()[0]
        hdr["sform_code"] = 0
        hdr["qform_code"] = 1
        # 90 degrees about z: (a, b, c, d) = (cos 45, 0, 0, sin 45); a is implied
        hdr["quatern_b"], hdr["quatern_c"], hdr["quatern_d"] = 0.0, 0.0, np.sqrt(0.5)
        hdr["pixdim"][:4] = [-1.0, 2.0, 3.0, 4.0]  # pixdim[0] = -1: qfac flips the k axis
        hdr["qoffset_x"], hdr["qoffset_y"], hdr["qoffset_z"] = 10.0, -20.0, 30.0
        raw[:348] = hdr.tobytes()
        open(path, "wb").write(bytes(raw))
        _, affine, _ = dwio.read_nifti(path)
        # [x y z] = R diag(pixdim[1], pixdim[2], qfac * pixdim[3]) [i j k] + qoffset,
        # with R = [[0, -1, 0], [1, 0, 0], [0, 0, 1]] for this quaternion
        expected = np.array(
            [
                [0.0, -3.0, 0.0, 10.0],
                [2.0, 0.0, 0.0, -20.0],
                [0.0, 0.0, -4.0, 30.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(affine, expected, atol=1e-6)


def _channel_matrix(volume):
    """The (C, V) matrix of a 4-D volume: one row per volume, voxels in Fortran order."""
    return volume.reshape(-1, volume.shape[3], order="F").T


def _stored_matrix(path):
    """The whole (C, V) payload matrix of the file at ``path``, as stored.

    Decoded here from the bytes after vox_offset, not by dwio's reader.
    """
    blob = open(path, "rb").read()
    if path.endswith(".gz"):
        blob = gzip.decompress(blob)
    for byteorder in "<>":
        hdr = np.frombuffer(blob[:348], dtype=dwio.HEADER_DTYPE.newbyteorder(byteorder))[0]
        if hdr["sizeof_hdr"] == 348:
            break
    shape = hdr["dim"][1 : hdr["dim"][0] + 1]
    dtype = dwio._DTYPE_CODES[int(hdr["datatype"])].newbyteorder(byteorder)
    payload = np.frombuffer(blob, dtype=dtype, count=int(np.prod(shape)),
                            offset=int(hdr["vox_offset"]))
    return payload.reshape(-1, int(np.prod(shape[:3])))


def _scaled(stored, slope, inter):
    """Stored values as float64, by the NIfTI-1 scaling rule."""
    expected = stored.astype(np.float64)
    if slope != 0.0:
        expected = expected * slope + (0.0 if np.isnan(inter) else inter)
    return expected


def _write_in_blocks(path, volume, widths, affine=None, dtype=np.float32):
    matrix = _channel_matrix(volume)
    with dwio.write_nifti_rows(path, volume.shape, affine=affine, dtype=dtype) as write:
        lo = 0
        for width in widths:
            write(matrix[:, lo : lo + width])
            lo += width


ATOMIC_WRITERS = {
    "out.nii": lambda path: dwio.write_nifti(path, np.ones((2, 2, 2, 3))),
    "out.nii.gz": lambda path: dwio.write_nifti(path, np.ones((2, 2, 2, 3))),
    "rows.nii": lambda path: _write_in_blocks(path, np.ones((2, 2, 2, 3)), [3, 5]),
    "rows.nii.gz": lambda path: _write_in_blocks(path, np.ones((2, 2, 2, 3)), [3, 5]),
    "kernel.json": lambda path: lsc.save_kernel_json(path, make_identity_kernel([5]), [5], 0.6),
    # the gradient pair at one name: the bvecs replace the bvals, so both writes are renames
    "pair.bvecs": lambda path: dwio.write_bvals_bvecs([0.0, 1000.0], [[0, 0, 0], [1, 0, 0]],
                                                      path, path),
}


class TestAtomicWrite:
    @pytest.mark.parametrize("name", sorted(ATOMIC_WRITERS))
    def test_failed_rename_leaves_no_file(self, name, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            ATOMIC_WRITERS[name](str(tmp_path / name))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(ATOMIC_WRITERS))
    def test_mode_follows_umask(self, name, tmp_path):
        old = os.umask(0o027)
        try:
            ATOMIC_WRITERS[name](str(tmp_path / name))
        finally:
            os.umask(old)
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640


class TestReproducibleGzip:
    def test_two_writes_are_byte_identical(self, tmp_path):
        vol = np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5)
        paths = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            paths.append(tmp_path / run / "vol.nii.gz")
            dwio.write_nifti(str(paths[-1]), vol)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_names_the_target_with_zero_mtime(self, tmp_path):
        path = tmp_path / "vol.nii.gz"
        dwio.write_nifti(str(path), np.ones((2, 2, 2)))
        blob = path.read_bytes()
        assert blob[:3] == b"\x1f\x8b\x08"
        assert blob[3] & 0x08  # FNAME present
        assert blob[4:8] == b"\x00\x00\x00\x00"  # mtime 0
        assert blob[10 : blob.index(b"\x00", 10)] == b"vol.nii"

    @pytest.mark.parametrize("suffix", [".gz", ".GZ", ".Gz", ".gZ"])
    def test_one_complete_member_with_the_gzipfile_header(self, tmp_path, suffix):
        vol = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        dwio.write_nifti(str(tmp_path / "vol.nii"), vol)
        dwio.write_nifti(str(tmp_path / f"vol.nii{suffix}"), vol)
        blob = (tmp_path / f"vol.nii{suffix}").read_bytes()
        # the stored name drops the last three characters, in any case of the suffix
        assert blob[:18] == bytes.fromhex("1f8b0808" "00000000" "00ff") + b"vol.nii\x00"
        assert _one_member(blob) == (tmp_path / "vol.nii").read_bytes()
        assert gzip.decompress(blob) == (tmp_path / "vol.nii").read_bytes()

    def test_intent_fields_are_stored_and_read_back(self, tmp_path):
        vol = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        dwio.write_nifti(str(tmp_path / "plain.nii"), vol)
        dwio.write_nifti(str(tmp_path / "tagged.nii"), vol, intent=(b"sphdwi-sh", 4, 3))
        header = dwio.read_nifti(str(tmp_path / "tagged.nii"))[2]
        assert header["intent_name"].item() == b"sphdwi-sh"
        assert (float(header["intent_p1"]), float(header["intent_p2"])) == (4.0, 3.0)
        assert int(header["intent_code"]) == 0
        plain, tagged = ((tmp_path / n).read_bytes() for n in ("plain.nii", "tagged.nii"))
        # intent_p1 and intent_p2 (bytes 56-63) and intent_name (328-343)
        changed = {i for i, (a, b) in enumerate(zip(plain, tagged)) if a != b}
        assert changed and changed <= set(range(56, 64)) | set(range(328, 344))
        assert len(plain) == len(tagged)

    def test_non_latin1_name_is_left_out(self, tmp_path):
        vol = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        path = tmp_path / "脑.nii.gz"
        dwio.write_nifti(str(path), vol)
        blob = path.read_bytes()
        assert blob[:10] == bytes.fromhex("1f8b0800" "00000000" "00ff")  # no FNAME
        np.testing.assert_array_equal(dwio.read_nifti(str(path))[0], vol)

    def test_zero_volume_compresses_below_one_percent(self, tmp_path):
        vol = np.zeros((128, 128, 128), dtype=np.float32)  # 8 MiB
        path = tmp_path / "zeros.nii.gz"
        dwio.write_nifti(str(path), vol)
        assert path.stat().st_size < 0.01 * (352 + vol.nbytes)


SLICE = 4096  # small .gz slices, so a few KiB of payload spans several


def _rle_deflate(data, mode=zlib.Z_FINISH):
    deflate = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS, 9, zlib.Z_RLE)
    return deflate.compress(data) + deflate.flush(mode)


def _sliced_reference(stream, size):
    """The raw deflate stream pigz-style slicing gives, built slice by slice here."""
    cuts = range(0, max(len(stream), 1), size)
    ends = [zlib.Z_SYNC_FLUSH] * (len(cuts) - 1) + [zlib.Z_FINISH]
    return b"".join(_rle_deflate(stream[lo : lo + size], end) for lo, end in zip(cuts, ends))


def _deflate_body(blob):
    """The raw deflate stream of a one-member gzip file whose FNAME is vol.nii."""
    header = bytes.fromhex("1f8b0808" "00000000" "00ff") + b"vol.nii\x00"
    assert blob[: len(header)] == header
    return blob[len(header) : -8]


def _one_member(blob):
    inflate = zlib.decompressobj(31)  # gzip framing: checks CRC32 and ISIZE
    body = inflate.decompress(blob)
    assert inflate.eof and inflate.unused_data == b""
    return body


class TestSlicedGzip:
    """.nii.gz bodies are 1 MiB slices deflated apart and joined by sync flushes."""

    # payload bytes of a uint8 volume: the stream is 352 header bytes plus these
    @pytest.mark.parametrize(
        "payload",
        [3 * SLICE + 1000, 4 * SLICE - 352, 2 * SLICE - 352 + 1],
        ids=["over-three-slices", "exact-multiple", "one-byte-tail"],
    )
    def test_slices_form_one_member_that_reads_back(self, payload, tmp_path, monkeypatch, rng):
        monkeypatch.setattr(dwio, "_GZIP_SLICE", SLICE)
        vol = rng.integers(0, 4, size=(payload, 1, 1), dtype=np.uint8)  # runs to match
        dwio.write_nifti(str(tmp_path / "vol.nii"), vol, dtype=np.uint8)
        dwio.write_nifti(str(tmp_path / "vol.nii.gz"), vol, dtype=np.uint8)
        plain = (tmp_path / "vol.nii").read_bytes()
        blob = (tmp_path / "vol.nii.gz").read_bytes()
        assert _one_member(blob) == plain
        assert gzip.decompress(blob) == plain
        np.testing.assert_array_equal(dwio.read_nifti(str(tmp_path / "vol.nii.gz"))[0], vol)
        assert _deflate_body(blob) == _sliced_reference(plain, SLICE)
        assert _deflate_body(blob) != _rle_deflate(plain)  # the slices show in the bytes

    def test_bytes_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch, rng):
        monkeypatch.setattr(dwio, "_GZIP_SLICE", SLICE)
        vol = rng.normal(size=(7, 6, 5, 9)).astype(np.float32)  # 7,560 bytes: 3 slices
        blobs = []
        for threads in (1, 2, 3):
            monkeypatch.setattr(dwio, "_thread_count", lambda threads=threads: threads)
            path = tmp_path / f"t{threads}" / "vol.nii.gz"
            path.parent.mkdir()
            dwio.write_nifti(str(path), vol)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        assert _deflate_body(blobs[0]) == _sliced_reference(_one_member(blobs[0]), SLICE)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_one_slice_per_thread_in_flight(self, threads, monkeypatch):
        from concurrent import futures

        submitted, in_flight = [], []

        class CountingPool(futures.ThreadPoolExecutor):
            def submit(self, *args):
                submitted.append(args)
                return super().submit(*args)

        class Sink(io.BytesIO):
            def writelines(self, lines):  # one call per compressed slice
                in_flight.append(len(submitted) - len(in_flight))
                super().writelines(lines)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(dwio, "_GZIP_SLICE", 16)
        monkeypatch.setattr(dwio, "_thread_count", lambda: threads)
        out = Sink()
        dwio._write_gzip_member(out, "s", io.BytesIO(b"z" * 200))
        assert len(in_flight) == len(submitted) == 13
        assert max(in_flight) == threads
        assert gzip.decompress(out.getvalue()) == b"z" * 200

    # uint8 payloads of 2**20 - 352 and one byte more (NIfTI-1 axes stop at 32,767)
    @pytest.mark.parametrize(
        "shape", [(32757, 32), (1823, 575)], ids=["one-mib", "one-mib-plus-one"]
    )
    def test_files_up_to_one_mib_are_one_unsliced_deflate(self, shape, tmp_path):
        extra = shape[0] * shape[1] - ((1 << 20) - 352)
        vol = np.zeros(shape, dtype=np.uint8)
        dwio.write_nifti(str(tmp_path / "vol.nii.gz"), vol, dtype=np.uint8)
        blob = (tmp_path / "vol.nii.gz").read_bytes()
        stream = _one_member(blob)
        assert _deflate_body(blob) == _sliced_reference(stream, 1 << 20)
        assert (_deflate_body(blob) == _rle_deflate(stream)) == (extra == 0)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_empty_and_short_streams(self, threads, monkeypatch):
        monkeypatch.setattr(dwio, "_thread_count", lambda: threads)
        monkeypatch.setattr(dwio, "_GZIP_SLICE", 4)
        for stream in (b"", b"abc", b"x" * 10 + b"y" * 7):
            out = io.BytesIO()
            dwio._write_gzip_member(out, "s", io.BytesIO(stream))
            assert gzip.decompress(out.getvalue()) == stream
            assert out.getvalue()[12:-8] == _sliced_reference(stream, 4)

    # 8 bytes are two whole slices; the prefix must count toward neither the size nor the CRC
    @pytest.mark.parametrize("threads", [1, 3])
    def test_source_is_deflated_from_its_position(self, threads, monkeypatch):
        monkeypatch.setattr(dwio, "_thread_count", lambda: threads)
        monkeypatch.setattr(dwio, "_GZIP_SLICE", 4)
        for stream in (b"", b"abc", b"x" * 8, b"x" * 10 + b"y" * 7):
            src = io.BytesIO(b"prefix!" + stream)
            src.seek(7)
            out = io.BytesIO()
            dwio._write_gzip_member(out, "s", src)
            assert gzip.decompress(out.getvalue()) == stream
            assert out.getvalue()[12:-8] == _sliced_reference(stream, 4)
            assert out.getvalue()[-8:] == struct.pack("<II", zlib.crc32(stream), len(stream))


class TestSlicedGzipFailures:
    def _write(self, tmp_path, monkeypatch, threads):
        monkeypatch.setattr(dwio, "_GZIP_SLICE", SLICE)
        monkeypatch.setattr(dwio, "_thread_count", lambda: threads)
        vol = np.random.default_rng(3).normal(size=(16, 16, 16)).astype(np.float32)  # 4 slices
        before = threading.active_count()
        return before, lambda: dwio.write_nifti(str(tmp_path / "vol.nii.gz"), vol)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_slice_deflate_is_raised_leaving_nothing(self, threads, tmp_path, monkeypatch):
        before, write = self._write(tmp_path, monkeypatch, threads)
        calls = []
        real = dwio._deflate_slice

        def fail_second(part, last):
            calls.append(last)
            if len(calls) == 2:
                raise zlib.error("deflate refused")
            return real(part, last)

        monkeypatch.setattr(dwio, "_deflate_slice", fail_second)
        with pytest.raises(zlib.error, match="deflate refused"):
            write()
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_write_is_raised_naming_the_target(self, threads, tmp_path, monkeypatch,
                                                      full_disk):
        before, write = self._write(tmp_path, monkeypatch, threads)
        with pytest.raises(OSError) as info:
            write()
        assert info.value.errno == errno.ENOSPC
        assert info.value.filename == str(tmp_path / "vol.nii.gz")
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == before


class TestAtomicOutputNamesTarget:
    @pytest.mark.parametrize("name", sorted(ATOMIC_WRITERS))
    def test_missing_directory_names_the_target(self, name, tmp_path):
        target = str(tmp_path / "nodir" / name)
        with pytest.raises(FileNotFoundError) as info:
            ATOMIC_WRITERS[name](target)
        assert info.value.filename == target
        assert ".sphdwi-" not in str(info.value)
        assert list(tmp_path.iterdir()) == []


class TestMultiMemberGzip:
    """Readers accept concatenated gzip members, as pigz or ``cat`` write."""

    def test_members_read_like_the_plain_file(self, tmp_path, rng):
        vol = rng.normal(size=(9, 8, 7, 5))
        plain = str(tmp_path / "vol.nii")
        dwio.write_nifti(plain, vol)
        blob = open(plain, "rb").read()
        bounds = (0, 100, 352 + 1001, len(blob))  # cuts in the header and the payload
        packed = tmp_path / "vol.nii.gz"
        packed.write_bytes(b"".join(gzip.compress(blob[a:b]) for a, b in zip(bounds, bounds[1:])))
        want, want_affine, _ = dwio.read_nifti(plain)
        got, got_affine, _ = dwio.read_nifti(str(packed))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_affine, want_affine)
        np.testing.assert_array_equal(_stored_matrix(str(packed)), _stored_matrix(plain))

    @pytest.mark.parametrize("io_chunk", [64, 1 << 22], ids=["pieces", "one-piece"])
    def test_bytes_after_the_member_are_not_read(self, tmp_path, rng, monkeypatch, io_chunk):
        # the reader takes the payload's bytes and stops: what follows may be anything
        monkeypatch.setattr(dwio, "_IO_CHUNK", io_chunk)
        plain = str(tmp_path / "vol.nii")
        dwio.write_nifti(plain, rng.normal(size=(9, 8, 7, 5)))
        packed = tmp_path / "vol.nii.gz"
        packed.write_bytes(gzip.compress(open(plain, "rb").read()) + b"not a gzip member")
        want, want_affine, want_header = dwio.read_nifti(plain)
        got, got_affine, got_header = dwio.read_nifti(str(packed))
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got_affine, want_affine)
        assert int(got_header["datatype"]) == int(want_header["datatype"])


    def test_member_data_past_the_payload_reads_like_the_plain_file(self, tmp_path, rng):
        # the member holding the payload's last byte is inflated to its end, for its trailer
        plain = str(tmp_path / "vol.nii")
        dwio.write_nifti(plain, rng.normal(size=(9, 8, 7, 5)))
        packed = tmp_path / "vol.nii.gz"
        packed.write_bytes(gzip.compress(open(plain, "rb").read() + b"extra"))
        want, want_affine, _ = dwio.read_nifti(plain)
        got, got_affine, _ = dwio.read_nifti(str(packed))
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got_affine, want_affine)
        np.testing.assert_array_equal(_stored_matrix(str(packed)), _stored_matrix(plain))


# float32-exact scale factors, as the header stores them as float32
SCALINGS = [(1.0, 0.0), (2.0, 10.0), (0.5, -3.0), (-1.5, 0.25), (0.0, 7.0), (2.0, np.nan)]
STORED_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.float32,
                 np.float64]


def _stored_values(rng, dtype, shape):
    """Random values of ``dtype``; an integer dtype's first and last values are its extremes."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return (rng.normal(size=shape) * 1000.0).astype(dtype)
    info = np.iinfo(dtype)
    values = rng.integers(info.min, info.max, size=shape, endpoint=True, dtype=dtype)
    values.flat[0], values.flat[-1] = info.min, info.max
    return values


def _restore_header(path, slope, inter, byteorder):
    """Rewrite a file from write_nifti with a new scaling and byte order."""
    gz = path.endswith(".gz")
    blob = (gzip.open if gz else open)(path, "rb").read()
    hdr = np.frombuffer(blob[:348], dtype=dwio.HEADER_DTYPE).copy()
    hdr["scl_slope"] = slope
    hdr["scl_inter"] = inter
    dtype = dwio._DTYPE_CODES[int(hdr["datatype"][0])]
    payload = np.frombuffer(blob[352:], dtype=dtype)
    if byteorder == ">":
        hdr = hdr.astype(dwio.HEADER_DTYPE.newbyteorder(">"))
        payload = payload.astype(dtype.newbyteorder(">"))
    with (gzip.open if gz else open)(path, "wb") as fh:
        fh.write(hdr.tobytes() + blob[348:352] + payload.tobytes())


class TestNiftiRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(STORED_DTYPES),
        byteorder=st.sampled_from("<>"),
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=5).map(tuple),
        gz=st.booleans(),
        fortran=st.booleans(),
        scaling=st.sampled_from(SCALINGS),
        scales=st.tuples(*[st.sampled_from([0.5, 1.0, 2.0, 2.5]) for _ in range(3)]),
        offset=st.tuples(*[st.sampled_from([-90.5, 0.0, 12.25]) for _ in range(3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_values_scaling_and_affine_round_trip(
        self, tmp_path_factory, dtype, byteorder, shape, gz, fortran, scaling, scales, offset, seed
    ):
        stored = _stored_values(np.random.default_rng(seed), dtype, shape)
        affine = np.diag([*scales, 1.0])
        affine[:3, 3] = offset
        path = str(tmp_path_factory.mktemp("rt") / ("vol.nii.gz" if gz else "vol.nii"))
        dwio.write_nifti(path, np.asfortranarray(stored) if fortran else stored, affine=affine,
                         dtype=dtype)
        # the layout, checked without dwio's reader: the payload follows the 352 header bytes
        raw = open(path, "rb").read()
        assert (gzip.decompress(raw) if gz else raw)[352:] == stored.astype(dtype).tobytes(order="F")
        slope, inter = scaling
        _restore_header(path, slope, inter, byteorder)

        with dwio.NiftiRows(path) as vol:
            assert vol.dtype == np.dtype(dtype).newbyteorder(byteorder)
            raw_affine = vol.affine
        payload = stored.reshape(-1, order="F")  # the file's order
        np.testing.assert_array_equal(_stored_matrix(path),
                                      payload.reshape(vol.channels, vol.voxels))

        data, got_affine, header = dwio.read_nifti(path)
        expected = _scaled(stored, slope, inter)
        assert data.dtype == np.float64 and data.shape == shape and data.flags.f_contiguous
        # bitwise, so a -0.0 for a 0.0 would show as well
        assert data.tobytes(order="F") == expected.tobytes(order="F")
        np.testing.assert_array_equal(got_affine, affine)
        np.testing.assert_array_equal(raw_affine, affine)
        assert int(header["datatype"]) == dwio._CODE_FOR_DTYPE[np.dtype(dtype)]


class TestNiftiRows:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(STORED_DTYPES),
        byteorder=st.sampled_from("<>"),
        shape=st.lists(st.integers(1, 4), min_size=4, max_size=4).map(tuple),
        gz=st.booleans(),
        scaling=st.sampled_from(SCALINGS),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_row_segments_are_the_payload_matrix(
        self, tmp_path_factory, dtype, byteorder, shape, gz, scaling, seed, data
    ):
        stored = _stored_values(np.random.default_rng(seed), dtype, shape)
        affine = np.diag([2.0, 0.5, 2.5, 1.0])
        path = str(tmp_path_factory.mktemp("rows") / ("vol.nii.gz" if gz else "vol.nii"))
        dwio.write_nifti(path, stored, affine=affine, dtype=dtype)
        _restore_header(path, *scaling, byteorder)
        _, want_affine, want_header = dwio.read_nifti(path)
        matrix = _scaled(_channel_matrix(stored), *scaling)
        nvox = matrix.shape[1]
        with dwio.NiftiRows(path) as vol:
            assert vol.shape == shape and vol.dtype == np.dtype(dtype).newbyteorder(byteorder)
            assert (vol.channels, vol.voxels) == matrix.shape
            np.testing.assert_array_equal(vol.affine, want_affine)
            assert vol.header.keys() == want_header.keys()
            for name, value in want_header.items():
                np.testing.assert_array_equal(vol.header[name], value)
            # windows of several widths, each converted into rows of a wider array
            for _ in range(data.draw(st.integers(1, 3))):
                rows = data.draw(st.lists(st.integers(0, shape[3] - 1), min_size=1, max_size=6))
                stream = data.draw(st.integers(1, nvox))
                pad = data.draw(st.integers(0, 2))
                starts = []
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(dwio, "_STREAM", stream)
                    for lo, stored in vol.windows(rows):
                        hi = min(lo + stream, nvox)  # the last window is partial
                        assert stored.shape == (len(rows), hi - lo)
                        assert stored.dtype == vol.dtype
                        out = np.full((len(rows), hi - lo + pad), 77.0)[:, : hi - lo]
                        assert vol.convert(stored, out) is out
                        np.testing.assert_array_equal(out, matrix[rows, lo:hi])
                        starts.append(lo)
                assert starts == list(range(0, nvox, stream))

    def test_windows_hold_the_stored_values_and_convert_scales_them(self, tmp_path,
                                                                    monkeypatch):
        monkeypatch.setattr(dwio, "_STREAM", 10)  # 24 voxels: windows of 10, 10 and 4
        path = str(tmp_path / "u16.nii")
        stored = np.arange(2 * 3 * 4 * 5, dtype=np.uint16).reshape(2, 3, 4, 5) * 541
        dwio.write_nifti(path, stored, dtype=np.uint16)
        _restore_header(path, -1.5, 0.25, ">")
        matrix = _channel_matrix(stored)
        with dwio.NiftiRows(path) as vol:
            for lo, window in vol.windows([4, 0]):
                assert window.dtype == np.dtype(">u2")
                assert all(row.flags.c_contiguous for row in window)
                np.testing.assert_array_equal(window, matrix[[4, 0], lo : lo + 10])
                # a column slice of the window converts on its own
                out = vol.convert(window[:, 1:3], np.empty((2, 2)))
                np.testing.assert_array_equal(
                    out, _scaled(matrix[[4, 0], lo + 1 : lo + 3], -1.5, 0.25))
            assert (lo, window.shape) == (20, (2, 4))

    @pytest.mark.parametrize("byteorder", "<>", ids=["little", "big"])
    def test_as_stored_float64_has_every_nan_quiet_and_every_other_bit_kept(self, tmp_path,
                                                                            byteorder):
        # with scl_slope 0 the payload is taken as stored; a signalling NaN left
        # signalling would warn at the caller's first arithmetic on it
        flat = np.array([1.5, -0.0, 0.0, -2.0e-310, 3.0e300, -np.inf, np.nan, 0.0])
        path = str(tmp_path / "as_stored.nii")
        dwio.write_nifti(path, flat.reshape(2, 2, 2, order="F"), dtype=np.float64)
        _restore_header(path, 0.0, 0.0, byteorder)
        with open(path, "r+b") as fh:
            fh.seek(352 + 7 * 8)
            fh.write(struct.pack(f"{byteorder}Q", 0x7FF0000000000001))
        data, _, _ = dwio.read_nifti(path)
        bits = data.reshape(-1, order="F").view(np.uint64)
        np.testing.assert_array_equal(bits[:6], flat[:6].view(np.uint64))
        assert np.all(bits[6:] & np.uint64(1 << 51))  # the quiet bit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(data + 1.0).sum() == 2

    def test_truncated_file_rejected_on_open(self, tmp_path):
        path = str(tmp_path / "short.nii")
        dwio.write_nifti(path, np.zeros((4, 4, 4, 2)))
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) - 64])
        with pytest.raises(NiftiTruncatedError, match="header promises"):
            dwio.NiftiRows(path)

    def test_file_cut_after_open_raises_truncated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dwio, "_STREAM", 5000)  # 16,384 voxels: four windows
        path = str(tmp_path / "cut.nii")
        dwio.write_nifti(path, np.ones((32, 32, 16, 2)))  # rows of 64 KiB: past any read buffer
        with dwio.NiftiRows(path) as vol:
            os.truncate(path, 352 + 4 * vol.voxels + 4 * 6000)  # row 1 ends in window 1
            assert [lo for lo, _ in vol.windows([0])] == [0, 5000, 10000, 15000]  # on disk
            windows = vol.windows([0, 1])
            assert next(windows)[0] == 0
            with pytest.raises(NiftiTruncatedError, match="ends early"):
                next(windows)

    def test_read_row_fills_one_row_segment_as_stored(self, tmp_path):
        path = str(tmp_path / "u16.nii")
        stored = np.arange(2 * 3 * 4 * 5, dtype=np.uint16).reshape(2, 3, 4, 5) * 541
        dwio.write_nifti(path, stored, dtype=np.uint16)
        _restore_header(path, -1.5, 0.25, ">")
        matrix = _channel_matrix(stored)
        with dwio.NiftiRows(path) as vol:
            dest = np.empty(7, dtype=vol.dtype)
            assert vol.read_row(3, 5, dest) is dest
            np.testing.assert_array_equal(dest, matrix[3, 5:12])
        cut = str(tmp_path / "cut.nii")
        dwio.write_nifti(cut, np.ones((32, 32, 16, 2)))  # rows of 64 KiB: past any read buffer
        with dwio.NiftiRows(cut) as vol:
            os.truncate(cut, 352 + 4 * vol.voxels + 4 * 6000)  # row 1 ends at voxel 6,000
            dest = np.empty(2000, dtype=vol.dtype)
            np.testing.assert_array_equal(vol.read_row(1, 4000, dest), 1.0)
            with pytest.raises(NiftiTruncatedError, match="ends early"):
                vol.read_row(1, 5000, dest)

    @pytest.mark.parametrize("name", ["vol.nii", "vol.nii.gz"])
    def test_read_nifti_holds_no_stored_copy(self, tmp_path, name):
        # 10.5 MB stored as float32: more than the bound's 2 x 4 MiB of slack
        path = str(tmp_path / name)
        dwio.write_nifti(path, np.ones((64, 64, 32, 20), dtype=np.float32))
        dwio.read_nifti(path)  # first use: imports and caches
        tracemalloc.start()
        try:
            data, _, _ = dwio.read_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.nbytes + 2 * dwio._IO_CHUNK, (peak, data.nbytes)

    # an 8-voxel, 2-volume file of 0..15: row 0 is 0..7, row 1 is 8..15
    @pytest.mark.parametrize("rows", [[-1], [2]], ids=["negative-row", "row-C"])
    def test_read_outside_the_payload_raises_naming_the_file(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(dwio, "_STREAM", 3)  # windows of 3, 3 and 2 voxels
        path = str(tmp_path / "small.nii")
        dwio.write_nifti(path, np.arange(16.0).reshape(2, 2, 2, 2, order="F"))
        with dwio.NiftiRows(path) as vol:
            with pytest.raises(ValueError, match=f"^{re.escape(path)}: rows "):
                next(vol.windows(rows))
            *_, (lo, stored) = vol.windows([1, 0])
            assert lo == 6
            np.testing.assert_array_equal(vol.convert(stored, np.empty((2, 2))),
                                          [[14.0, 15.0], [6.0, 7.0]])

    def test_open_errors_are_those_of_read_nifti(self, tmp_path):
        missing = str(tmp_path / "missing.nii")
        bad = tmp_path / "bad.nii"
        bad.write_bytes(b"\x00" * 100)
        for reader in (dwio.NiftiRows, dwio.read_nifti):
            with pytest.raises(NiftiError, match="cannot open"):
                reader(missing)
            with pytest.raises(NiftiTruncatedError):
                reader(str(bad))


class TestWriteNiftiRows:
    @pytest.mark.parametrize("widths, window", [
        ([60], None), ([1, 59], None), ([16, 16, 16, 12], None), ([7] * 8 + [4], None),
        ([3, 1, 5, 2, 49], 3),  # blocks that straddle 3-column windows and fill them exactly
    ])
    def test_blocks_give_the_bytes_of_write_nifti(self, tmp_path, rng, monkeypatch, widths,
                                                  window):
        if window is not None:
            monkeypatch.setattr(dwio, "_STREAM", window)
        volume = rng.normal(size=(5, 4, 3, 6)) * 100
        affine = np.diag([1.5, 2.0, 2.5, 1.0])
        affine[:3, 3] = (-3.0, 4.0, 5.5)
        (tmp_path / "whole").mkdir()
        (tmp_path / "blocks").mkdir()
        # one file name in two directories, since a gzip header stores the name
        for name in ("vol.nii", "vol.nii.gz"):
            whole, blocks = tmp_path / "whole" / name, tmp_path / "blocks" / name
            dwio.write_nifti(str(whole), volume, affine=affine)
            _write_in_blocks(str(blocks), volume, widths, affine=affine)
            assert blocks.read_bytes() == whole.read_bytes()

    def test_axis_over_limit_rejected_before_any_file(self, tmp_path):
        for shape in ((1, 1, 1, 40000), (3, 3, 3, 0)):  # an empty axis is refused as well
            message = f"axis 3 has length {shape[3]};"
            with pytest.raises(ValueError, match=message):
                with dwio.write_nifti_rows(str(tmp_path / "big.nii"), shape):
                    pass
            with pytest.raises(ValueError, match=message):
                dwio.write_nifti(str(tmp_path / "big.nii.gz"), np.zeros(shape, dtype=np.uint8),
                                 dtype=np.uint8)
        with pytest.raises(ValueError, match="axis 0 has length 0;"):
            dwio.write_nifti(str(tmp_path / "empty.nii"), np.zeros((0, 3, 3)))
        assert list(tmp_path.iterdir()) == []

    def test_failure_inside_the_block_leaves_no_file(self, tmp_path):
        volume = np.ones((2, 2, 2, 3))
        for name in ("x.nii", "x.nii.gz"):
            with pytest.raises(RuntimeError, match="step failed"):
                with dwio.write_nifti_rows(str(tmp_path / name), volume.shape) as write:
                    write(_channel_matrix(volume)[:, :4])
                    raise RuntimeError("step failed")
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["short.nii", "short.nii.gz"])
    def test_unwritten_trailing_columns_raise_naming_the_target(self, name, tmp_path):
        target = str(tmp_path / name)
        with pytest.raises(ValueError, match=f"^{re.escape(target)}: .* column 5; .* has 8$"):
            _write_in_blocks(target, np.ones((2, 2, 2, 3)), [5])  # columns 5-7 never written
        assert list(tmp_path.iterdir()) == []

    # a block of 2 rows in a 3-channel volume, and one that runs 2 columns past the last
    @pytest.mark.parametrize("name", ["bad.nii", "bad.nii.gz"])
    @pytest.mark.parametrize("block", [(2, 2), (3, 7)], ids=["short-rows", "past-the-end"])
    def test_block_that_does_not_fit_raises_naming_the_target(self, name, block, tmp_path):
        target = str(tmp_path / name)
        matrix = _channel_matrix(np.ones((2, 2, 2, 3)))
        message = rf"^{re.escape(target)}: a \({block[0]}, {block[1]}\) block at column 3 "
        with pytest.raises(ValueError, match=message):
            with dwio.write_nifti_rows(target, (2, 2, 2, 3)) as write:
                write(matrix[:, :3])
                write(np.ones(block))
                write(matrix[:, 5:])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["row.nii", "row.nii.gz"])
    def test_block_that_is_not_2d_raises_naming_the_target(self, name, tmp_path):
        target = str(tmp_path / name)
        message = rf"^{re.escape(target)}: a \(8,\) block at column 0 does not fit"
        with pytest.raises(ValueError, match=message):
            with dwio.write_nifti_rows(target, (2, 2, 2, 1)) as write:
                write(np.ones(8))  # one channel's row, not a (1, 8) block
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["int.nii", "int.nii.gz"])
    @pytest.mark.parametrize(
        "dtype, value",
        [(np.int16, 70000.0), (np.uint8, -1.0), (np.uint8, np.nan), (np.int16, 1.5)],
        ids=["int16-range", "uint8-negative", "uint8-nan", "int16-fraction"],
    )
    def test_value_an_integer_dtype_cannot_hold_raises(self, name, dtype, value, tmp_path):
        target = str(tmp_path / name)
        volume = np.zeros((2, 2, 2, 3))
        volume[1, 0, 1, 2] = value
        message = f"^{re.escape(target)}: .* {np.dtype(dtype)}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's own warning about the cast must not leak
            with pytest.raises(ValueError, match=message):
                dwio.write_nifti(target, volume, dtype=dtype)
            with pytest.raises(ValueError, match=message):
                _write_in_blocks(target, volume, [3, 5], dtype=dtype)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["big.nii", "big.nii.gz"])
    def test_value_beyond_float32_raises(self, name, tmp_path):
        # a cast would store it as inf
        target = str(tmp_path / name)
        volume = np.zeros((2, 2, 2, 3))
        volume[1, 0, 1, 2] = 1e39
        with pytest.raises(ValueError, match=f"^{re.escape(target)}: .* float32$"):
            dwio.write_nifti(target, volume)
        with pytest.raises(ValueError, match=f"^{re.escape(target)}: .* float32$"):
            _write_in_blocks(target, volume, [3, 5])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["odd.nii", "odd.nii.gz"])
    def test_non_finite_and_extreme_float32_values_are_stored(self, name, tmp_path):
        top = float(np.finfo(np.float32).max)
        volume = np.array([np.nan, np.inf, -np.inf, top, -top, 0.0, 1.0, 2.0]).reshape(2, 2, 2, 1)
        dwio.write_nifti(str(tmp_path / name), volume)
        np.testing.assert_array_equal(_stored_matrix(str(tmp_path / name)),
                                      _channel_matrix(volume.astype(np.float32)))

    @pytest.mark.parametrize("name", ["int.nii", "int.nii.gz"])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int16])
    def test_integral_values_in_range_are_stored(self, name, dtype, tmp_path):
        info = np.iinfo(dtype)
        volume = np.linspace(info.min, info.max, 24).round().reshape(2, 2, 2, 3)
        dwio.write_nifti(str(tmp_path / name), volume, dtype=dtype)
        np.testing.assert_array_equal(_stored_matrix(str(tmp_path / name)),
                                      _channel_matrix(volume.astype(dtype)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_write_nifti_holds_one_slab_and_the_window(self, tmp_path, order):
        volume = np.asarray(np.ones((64, 64, 16, 30)), order=order)
        path = str(tmp_path / "vol.nii")
        dwio.write_nifti(path, volume)  # first use: imports and caches
        tracemalloc.start()
        try:
            dwio.write_nifti(path, volume)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slab = 64 * 64 * 30 * 8  # one float64 z slab, copied from C-order input
        window = 30 * dwio._STREAM * 4  # the writer's float32 window
        assert peak <= slab + window + 2**20, (peak, slab, window)

    def test_full_disk_is_raised_naming_the_target(self, tmp_path, full_disk):
        target = str(tmp_path / "x.nii")
        with pytest.raises(OSError) as info:
            _write_in_blocks(target, np.ones((4, 4, 4, 3)), [64])
        assert info.value.errno == errno.ENOSPC
        assert info.value.filename == target
        assert list(tmp_path.iterdir()) == []
