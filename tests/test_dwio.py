import gzip
import os
import stat

import numpy as np
import pytest

from sphdwi import dwio, lsc, make_identity_kernel
from sphdwi.errors import (
    GradientParseError,
    NiftiDatatypeError,
    NiftiMagicError,
    NiftiTruncatedError,
)


class TestDetectShells:
    def test_basic_split(self):
        b0, shells = dwio.detect_shells([0.0, 1000.0, 1000.0, 3000.0])
        assert list(b0) == [0]
        assert [s.bvalue for s in shells] == [1000.0, 3000.0]
        assert list(shells[0].indices) == [1, 2]
        assert list(shells[1].indices) == [3]

    def test_values_within_tolerance_merge(self):
        # hand-frozen expectation: 990 and 1010 sit 20 apart -> one shell at 1000
        b0, shells = dwio.detect_shells([0.0, 990.0, 1010.0], tolerance=50.0)
        assert len(shells) == 1
        assert shells[0].bvalue == 1000.0
        assert list(shells[0].indices) == [1, 2]

    def test_gap_beyond_tolerance_splits(self):
        # 990 vs 1200 is a 210 gap -> two shells
        _, shells = dwio.detect_shells([0.0, 990.0, 1200.0], tolerance=50.0)
        assert len(shells) == 2
        assert [s.bvalue for s in shells] == [990.0, 1200.0]

    def test_mixed_cluster(self):
        _, shells = dwio.detect_shells([0.0, 995.0, 1005.0, 2000.0], tolerance=50.0)
        assert [s.bvalue for s in shells] == [1000.0, 2000.0]
        assert [s.indices.size for s in shells] == [2, 1]

    def test_near_zero_goes_to_b0(self):
        b0, shells = dwio.detect_shells([5.0, 45.0, 1000.0])
        assert list(b0) == [0, 1]
        assert len(shells) == 1

    def test_nominal_rounded_to_five(self):
        _, shells = dwio.detect_shells([0.0, 998.0, 999.0])
        assert shells[0].bvalue == 1000.0

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            dwio.detect_shells([0.0, 1000.0], tolerance=0.0)


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

    @pytest.mark.parametrize("code", [2, 4, 8, 16, 64])
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


ATOMIC_WRITERS = {
    "out.nii": lambda path: dwio.write_nifti(path, np.ones((2, 2, 2, 3))),
    "out.nii.gz": lambda path: dwio.write_nifti(path, np.ones((2, 2, 2, 3))),
    "kernel.json": lambda path: lsc.save_kernel_json(path, make_identity_kernel([5]), [5], 0.6),
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
