import os

import numpy as np
import pytest

from sphdwi import (
    PhantomSpec,
    generate_phantom,
    make_fit_operator,
    make_phantom,
    make_scheme,
    normalize_b0,
    read_bvals_bvecs,
    read_nifti,
    signal_to_sh,
)
from sphdwi import phantom
from sphdwi.phantom import DEFAULT_S0, TENSOR_DIAG


class TestScheme:
    def test_layout(self):
        scheme = make_scheme(30, bvalue=1000.0, n_b0=2)
        assert scheme.n == 32
        assert list(scheme.b0_indices) == [0, 1]
        assert scheme.shells[0].bvalue == 1000.0
        assert scheme.shells[0].indices.size == 30

    def test_only_shipped_tables_available(self):
        with pytest.raises(ValueError, match="30, 60, 90"):
            make_scheme(45)


class TestGenerators:
    def test_constant_ratio_is_one(self):
        spec = PhantomSpec(grid=(3, 3, 3), kind="constant", value=1.0)
        scheme = make_scheme(30)
        result = generate_phantom(spec, scheme)
        b0 = result.data[..., scheme.b0_indices[0]]
        for idx in scheme.shells[0].indices:
            np.testing.assert_array_equal(result.data[..., idx] / b0, 1.0)

    def test_band_limited_truth_recovered_by_fit(self):
        spec = PhantomSpec(grid=(4, 3, 2), kind="bandlimited", order=4, seed=11)
        scheme = make_scheme(30)
        result = generate_phantom(spec, scheme)
        vol, _ = normalize_b0(result.data, scheme)
        op = make_fit_operator(scheme.directions[scheme.shells[0].indices], 4, 0.0)
        fitted = signal_to_sh(vol, op)
        got = np.moveaxis(fitted.data[0], 0, 3)
        assert np.max(np.abs(got - result.truth_coeffs)) <= 1e-9

    def test_tensor_value_along_principal_axis(self):
        # gradient parallel to the leading eigenvector: exp(-1000 * 1.7e-3)
        spec = PhantomSpec(grid=(1, 1, 1), kind="tensor")
        scheme = make_scheme(30)
        result = generate_phantom(spec, scheme)
        g = scheme.directions[scheme.shells[0].indices]
        d = np.diag(TENSOR_DIAG)
        expected = np.exp(-1000.0 * np.einsum("ni,ij,nj->n", g, d, g))
        got = result.data[0, 0, 0, scheme.shells[0].indices] / DEFAULT_S0
        np.testing.assert_allclose(got, expected, atol=1e-12)
        x_axis = np.exp(-1.7)
        closest = np.argmax(np.abs(g @ np.array([1.0, 0.0, 0.0])))
        assert abs(got[closest] - x_axis) < 0.05  # table has no exact +x member

    def test_signals_positive_and_symmetric(self):
        spec = PhantomSpec(grid=(5, 5, 5), kind="bandlimited", order=4, seed=3)
        scheme = make_scheme(60)
        result = generate_phantom(spec, scheme)
        assert np.all(result.data > 0.0)
        # antipodal symmetry: even basis evaluates identically at -g
        from sphdwi import eval_basis

        g = scheme.directions[scheme.shells[0].indices]
        coeffs = result.truth_coeffs.reshape(-1, 15).T
        assert np.array_equal(eval_basis(g, 4) @ coeffs, eval_basis(-g, 4) @ coeffs)

    def test_tensor_signal_antipodally_exact(self):
        d = np.diag(TENSOR_DIAG)
        g = np.array([[0.6, -0.48, 0.64], [0.0, 0.8, 0.6]])
        plus = np.exp(-1000.0 * np.einsum("ni,ij,nj->n", g, d, g))
        minus = np.exp(-1000.0 * np.einsum("ni,ij,nj->n", -g, d, -g))
        assert np.array_equal(plus, minus)

    def test_seed_reproducibility(self):
        spec = PhantomSpec(grid=(3, 3, 3), kind="bandlimited", seed=42)
        scheme = make_scheme(30)
        a = generate_phantom(spec, scheme)
        b = generate_phantom(spec, scheme)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.truth_coeffs, b.truth_coeffs)

    def test_noise_controlled_by_sigma(self):
        scheme = make_scheme(30)
        clean = generate_phantom(PhantomSpec(grid=(2, 2, 2), kind="constant"), scheme)
        noisy = generate_phantom(
            PhantomSpec(grid=(2, 2, 2), kind="constant", noise_sigma=0.01), scheme
        )
        assert not np.array_equal(clean.data, noisy.data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(grid=(2, 2, 2), kind="wiggly")
        # inputs that would otherwise give a wrong or unusable phantom without an error
        bad_specs = [
            ({"value": float("nan"), "kind": "constant"}, "value must be finite, got nan"),
            ({"noise_sigma": float("nan")}, "noise_sigma must be finite and >= 0, got nan"),
            ({"noise_sigma": -0.1}, "got -0.1"),
        ]
        for kwargs, message in bad_specs:
            with pytest.raises(ValueError, match=message):
                PhantomSpec(grid=(2, 2, 2), **kwargs)
        bad_schemes = [
            ({"bvalue": 30.0}, r"above the b0 cutoff of 50 s/mm\^2, got 30"),
            ({"bvalue": float("nan")}, "got nan"),
            ({"bvalue": float("inf")}, "got inf"),
            ({"n_b0": -1}, "n_b0 must be at least 1, got -1"),
            ({"n_b0": 0}, "got 0"),
        ]
        for kwargs, message in bad_schemes:
            with pytest.raises(ValueError, match=message):
                make_scheme(30, **kwargs)


class TestFileEmission:
    def test_files_consumable_by_io_layer(self, tmp_path):
        spec = PhantomSpec(grid=(3, 3, 3), kind="bandlimited", seed=5)
        scheme = make_scheme(30)
        result = make_phantom(spec, scheme, str(tmp_path / "ph"))
        data, _, _ = read_nifti(result.paths["nifti"])
        np.testing.assert_array_equal(data, result.data)
        parsed = read_bvals_bvecs(result.paths["bvals"], result.paths["bvecs"])
        assert parsed.n == scheme.n
        assert parsed.shells[0].bvalue == 1000.0
        truth = np.load(result.paths["truth"])
        np.testing.assert_array_equal(truth, result.truth_coeffs)

    def test_prefix_that_names_no_file_raises_before_generating(self, tmp_path, monkeypatch):
        def generate(*args):
            raise AssertionError("generated before the prefix was checked")

        monkeypatch.setattr(phantom, "generate_phantom", generate)
        base = str(tmp_path)
        for prefix in ("", base + os.sep, os.path.join(base, os.curdir),
                       os.path.join(base, os.pardir)):
            with pytest.raises(FileNotFoundError, match="names no file") as info:
                make_phantom(PhantomSpec(grid=(2, 2, 2)), make_scheme(30), prefix)
            assert info.value.filename == prefix
        assert list(tmp_path.iterdir()) == []

    def test_refused_rename_of_the_truth_file_leaves_no_partial_file(self, tmp_path,
                                                                      monkeypatch):
        # the other three outputs have writers of their own in test_dwio's ATOMIC_WRITERS
        real = os.replace

        def replace(src, dst):
            if str(dst).endswith("_truth.npy"):
                raise OSError("rename refused")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="rename refused"):
            make_phantom(PhantomSpec(grid=(2, 2, 2), seed=1), make_scheme(30),
                         str(tmp_path / "ph"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ph.bvals", "ph.bvecs", "ph.nii.gz"]
