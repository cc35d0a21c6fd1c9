import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sphdwi import (
    DwiVolume,
    GradientScheme,
    IllPosedFitError,
    MissingB0Error,
    ShBasisSpec,
    ShapeError,
    ShVolume,
    degree_energies,
    detect_shells,
    eval_basis,
    laplace_beltrami_diag,
    make_fit_operator,
    normalize_b0,
    sh_to_signal,
    signal_to_sh,
    unit_sphere_directions,
)
from sphdwi.fitting import _FINITE_PIECE, _all_finite, _apply_affine

from conftest import fibonacci_sphere, random_unit_vectors

TWO_SQRT_PI = 2.0 * np.sqrt(np.pi)


def band_limited_volume(rng, dirs, order, nvox, scale=0.2):
    basis = eval_basis(dirs, order)
    coeffs = rng.normal(size=(basis.shape[1], nvox)) * scale
    coeffs[0] = TWO_SQRT_PI
    signals = basis @ coeffs
    vol = DwiVolume(data=signals.reshape(1, dirs.shape[0], nvox, 1, 1))
    return vol, coeffs


class TestMakeFitOperator:
    def test_unregularized_pseudo_inverse(self):
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.0)
        np.testing.assert_allclose(op.fit_matrix @ op.basis_matrix, np.eye(15), atol=1e-9)

    def test_fit_matrix_shape(self):
        op = make_fit_operator(unit_sphere_directions(60), 8, 0.006)
        assert op.fit_matrix.shape == (45, 60)

    def test_regularization_never_reduces_residual(self, rng):
        dirs = unit_sphere_directions(30)
        basis = eval_basis(dirs, 4)
        signal = rng.normal(size=30)
        residuals = []
        for lam in (0.0, 0.006):
            op = make_fit_operator(dirs, 4, lam)
            coeffs = op.fit_matrix @ signal
            residuals.append(np.linalg.norm(basis @ coeffs - signal))
        assert residuals[1] >= residuals[0] - 1e-12

    def test_underdetermined_rejected(self):
        dirs = unit_sphere_directions(30)[:6]
        with pytest.raises(IllPosedFitError, match="R = 15"):
            make_fit_operator(dirs, 4, 0.0)

    def test_rank_deficient_rejected_with_dimensions(self):
        # 20 copies of the same direction: rank-1 design at order 4
        dirs = np.tile([[0.0, 0.0, 1.0]], (20, 1))
        with pytest.raises(IllPosedFitError, match="cond"):
            make_fit_operator(dirs, 4, 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            make_fit_operator(unit_sphere_directions(30), 4, -1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.006])
    @pytest.mark.parametrize("order", [2, 4, 6, 8, 10, 12])
    def test_fit_matrix_matches_scipy_cho_solve(self, order, lam):
        import scipy.linalg

        op = make_fit_operator(fibonacci_sphere(120), order, lam)
        basis = op.basis_matrix
        normal = basis.T @ basis + lam * np.diag(laplace_beltrami_diag(order))
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(normal), basis.T)
        assert np.max(np.abs(op.fit_matrix - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_cholesky_failure_is_ill_posed(self, monkeypatch):
        def not_positive_definite(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
        with pytest.raises(IllPosedFitError, match="not positive definite.*R = 15"):
            make_fit_operator(unit_sphere_directions(30), 4, 0.006)


class TestSignalToSh:
    @pytest.mark.parametrize("lam", [0.0, 0.006, 0.06])
    def test_constant_signal(self, lam):
        dirs = unit_sphere_directions(30)
        vol = DwiVolume(data=np.ones((1, 30, 3, 2, 1)))
        out = signal_to_sh(vol, make_fit_operator(dirs, 4, lam))
        coeffs = out.data[0, :, 0, 0, 0]
        assert abs(coeffs[0] - TWO_SQRT_PI) <= 1e-10
        assert np.max(np.abs(coeffs[1:])) <= 1e-10

    def test_band_limited_recovery(self, rng):
        dirs = unit_sphere_directions(30)
        vol, truth = band_limited_volume(rng, dirs, 4, 50)
        out = signal_to_sh(vol, make_fit_operator(dirs, 4, 0.0))
        got = out.data[0].reshape(15, 50)
        assert np.max(np.abs(got - truth)) <= 1e-9

    def test_single_voxel_matches_batch_bitwise(self, rng):
        # oracle: feed each voxel through the transform on its own
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.006)
        vol, _ = band_limited_volume(rng, dirs, 4, 17)
        batched = signal_to_sh(vol, op).data[0].reshape(15, 17)
        for v in range(17):
            single = DwiVolume(data=vol.data[:, :, v : v + 1])
            got = signal_to_sh(single, op).data[0].reshape(15)
            assert np.array_equal(got, batched[:, v])

    def test_channel_count_mismatch(self):
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.0)
        vol = DwiVolume(data=np.ones((1, 29, 2, 2, 2)))
        with pytest.raises(ShapeError, match="expected"):
            signal_to_sh(vol, op)

    @pytest.mark.parametrize(
        "ops, message",
        [
            ([(30, 4)] * 3, "got 3 fit operators for 2 shells"),
            ([(30, 4), (30, 2)], "share one SH order"),
            ([(30, 4), (60, 4)], "share one gradient count"),
        ],
        ids=["count", "mixed-order", "mixed-directions"],
    )
    def test_operator_list_rejected(self, ops, message):
        ops = [make_fit_operator(unit_sphere_directions(n), order, 0.006) for n, order in ops]
        vol = DwiVolume(data=np.ones((1, 60, 2, 1, 1)), shells=2)
        with pytest.raises(ShapeError, match=message):
            signal_to_sh(vol, ops)

    def test_noisy_fit_matches_independent_lstsq(self, rng):
        # different algorithm (SVD lstsq) and different basis construction
        from conftest import reference_basis

        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.0)
        signals = rng.normal(size=(30, 40)) * 0.3 + 1.0
        vol = DwiVolume(data=signals.reshape(1, 30, 40, 1, 1))
        mine = signal_to_sh(vol, op).data[0].reshape(15, 40)
        oracle, *_ = np.linalg.lstsq(reference_basis(dirs, 4), signals, rcond=None)
        assert np.max(np.abs(mine - oracle)) <= 1e-10

    def test_linearity(self, rng):
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.006)
        s1 = rng.normal(size=(1, 30, 4, 1, 1))
        s2 = rng.normal(size=(1, 30, 4, 1, 1))
        a, b = 0.7, -2.3
        lhs = signal_to_sh(DwiVolume(data=a * s1 + b * s2), op).data
        rhs = a * signal_to_sh(DwiVolume(data=s1), op).data + b * signal_to_sh(
            DwiVolume(data=s2), op
        ).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_multi_shell_blocks_fit_independently(self, rng):
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.006)
        shell_a = rng.normal(size=(1, 30, 3, 1, 1)) + 1.0
        shell_b = rng.normal(size=(1, 30, 3, 1, 1)) + 1.0
        two = DwiVolume(data=np.concatenate([shell_a, shell_b], axis=1), shells=2)
        out = signal_to_sh(two, op)
        assert out.shells == 2 and out.data.shape[1] == 30
        one_a = signal_to_sh(DwiVolume(data=shell_a), op)
        one_b = signal_to_sh(DwiVolume(data=shell_b), op)
        assert np.array_equal(out.shell_coeffs(0), one_a.data)
        assert np.array_equal(out.shell_coeffs(1), one_b.data)

    def test_per_shell_operator_list(self, rng):
        dirs_a = unit_sphere_directions(30)
        dirs_b = random_unit_vectors(rng, 30)
        ops = [make_fit_operator(dirs_a, 4, 0.006), make_fit_operator(dirs_b, 4, 0.006)]
        data = rng.normal(size=(1, 60, 2, 1, 1)) + 1.0
        out = signal_to_sh(DwiVolume(data=data, shells=2), ops)
        lone = signal_to_sh(DwiVolume(data=data[:, 30:]), ops[1])
        np.testing.assert_allclose(out.shell_coeffs(1), lone.data, atol=1e-14)

    def test_multiple_subjects_fit_independently(self, rng):
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.006)
        data = rng.normal(size=(3, 30, 2, 2, 1)) + 1.0
        batch = signal_to_sh(DwiVolume(data=data), op)
        for subject in range(3):
            alone = signal_to_sh(DwiVolume(data=data[subject : subject + 1]), op)
            assert np.array_equal(batch.data[subject : subject + 1], alone.data)

    def test_operator_arrays_read_only(self):
        op = make_fit_operator(unit_sphere_directions(30), 4, 0.006)
        for arr in (op.fit_matrix, op.basis_matrix, op.gradients):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0


class TestShToSignal:
    def test_constant_coefficients(self):
        coeffs = np.zeros((1, 15, 2, 2, 2))
        coeffs[:, 0] = TWO_SQRT_PI
        sh = ShVolume(data=coeffs, basis_spec=ShBasisSpec(4))
        out = sh_to_signal(sh, unit_sphere_directions(60))
        assert np.max(np.abs(out.data - 1.0)) <= 1e-12

    def test_round_trip_band_limited(self, rng):
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.0)
        vol, _ = band_limited_volume(rng, dirs, 4, 20)
        back = sh_to_signal(signal_to_sh(vol, op), dirs)
        assert np.max(np.abs(back.data - vol.data)) <= 1e-9

    def test_antipodal_evaluation(self, rng):
        coeffs = rng.normal(size=(1, 15, 2, 1, 1))
        sh = ShVolume(data=coeffs, basis_spec=ShBasisSpec(4))
        dirs = random_unit_vectors(rng, 25)
        assert np.array_equal(
            sh_to_signal(sh, dirs).data, sh_to_signal(sh, -dirs).data
        )

    def test_projector_idempotence(self, rng):
        dirs = unit_sphere_directions(30)
        op = make_fit_operator(dirs, 4, 0.0)
        coeffs = rng.normal(size=(1, 15, 10, 1, 1))
        sh = ShVolume(data=coeffs, basis_spec=ShBasisSpec(4))
        again = signal_to_sh(sh_to_signal(sh, dirs), op)
        assert np.max(np.abs(again.data - coeffs)) <= 1e-9


class TestRegularizationPath:
    def test_residual_and_penalty_monotone(self, rng):
        dirs = unit_sphere_directions(30)
        basis = eval_basis(dirs, 4)
        penalty = laplace_beltrami_diag(4)
        lams = (0.0, 1e-3, 1e-2, 1e-1)
        for _ in range(20):
            signal = rng.normal(size=30) + 1.0
            residuals, penalties = [], []
            for lam in lams:
                coeffs = make_fit_operator(dirs, 4, lam).fit_matrix @ signal
                residuals.append(np.linalg.norm(basis @ coeffs - signal))
                penalties.append(coeffs @ (penalty * coeffs))
            assert all(b >= a - 1e-12 for a, b in zip(residuals, residuals[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(penalties, penalties[1:]))

    def test_constant_c0_independent_of_lambda(self):
        dirs = unit_sphere_directions(30)
        ones = np.ones(30)
        values = [
            (make_fit_operator(dirs, 4, lam).fit_matrix @ ones)[0]
            for lam in (0.0, 1e-3, 1e-2, 1e-1)
        ]
        np.testing.assert_allclose(values, TWO_SQRT_PI, atol=1e-10)


class TestNormalizeB0:
    def test_simple_ratio(self):
        raw = np.zeros((2, 2, 2, 3))
        raw[..., 0] = 1000.0
        raw[..., 1] = 500.0
        raw[..., 2] = 250.0
        vol, mask = normalize_b0(raw, [0.0, 1000.0, 1000.0])
        assert not mask.any()
        np.testing.assert_array_equal(vol.data[0, 0], 0.5)
        np.testing.assert_array_equal(vol.data[0, 1], 0.25)

    def test_zero_b0_voxel_masked(self):
        raw = np.ones((2, 1, 1, 2))
        raw[0, 0, 0, 0] = 0.0  # dead background voxel
        raw[..., 1] = 700.0
        raw[1, 0, 0, 0] = 1000.0
        vol, mask = normalize_b0(raw, [0.0, 1000.0])
        assert mask[0, 0, 0] and not mask[1, 0, 0]
        assert vol.data[0, 0, 0, 0, 0] == 0.0
        assert vol.data[0, 0, 1, 0, 0] == 0.7

    def test_division_matches_elementwise_oracle(self, rng):
        raw = rng.uniform(0.5, 2.0, size=(3, 3, 3, 5)) * 800.0
        bvals = [0.0, 0.0, 1000.0, 1000.0, 1000.0]
        vol, _ = normalize_b0(raw, bvals)
        mean_b0 = (raw[..., 0] + raw[..., 1]) / 2.0
        for k, volume in enumerate((2, 3, 4)):
            expected = raw[..., volume] / mean_b0
            np.testing.assert_array_equal(vol.data[0, k], expected)

    def test_b0_mean_sums_rows_in_order_for_any_layout(self, rng):
        # numpy sums 8 or more contiguous values pairwise; the b0 rule sums the
        # b0 volumes one after another whatever the layout or voxel count
        bvals = [0.0] * 12 + [1000.0]
        scattered = rng.uniform(0.5, 2.0, size=(4, 3, 2, 13))
        scattered *= 10.0 ** rng.uniform(-3, 3, size=(4, 3, 2, 13))
        single = np.full((1, 1, 1, 13), 2.0 ** -53)  # 1 + eleven 2**-53 is 1 only in order
        single[..., 0] = 1.0
        for raw in (scattered, single):
            total = raw[..., 0].copy()
            for volume in range(1, 12):
                total += raw[..., volume]
            expected = raw[..., 12] / (total / 12)
            for layout in (np.ascontiguousarray(raw), np.asfortranarray(raw)):
                vol, _ = normalize_b0(layout, bvals)
                np.testing.assert_array_equal(vol.data[0, 0], expected)

    def test_missing_b0_rejected(self):
        with pytest.raises(MissingB0Error):
            normalize_b0(np.ones((2, 2, 2, 2)), [1000.0, 1000.0])

    def test_mean_over_multiple_b0(self):
        raw = np.zeros((1, 1, 1, 3))
        raw[..., 0] = 800.0
        raw[..., 1] = 1200.0
        raw[..., 2] = 500.0
        vol, _ = normalize_b0(raw, [0.0, 0.0, 1000.0])
        assert vol.data[0, 0, 0, 0, 0] == 0.5

    def test_unequal_shell_sizes_need_selection(self):
        raw = np.ones((1, 1, 1, 4)) * 100.0
        bvals = [0.0, 1000.0, 1000.0, 2000.0]
        with pytest.raises(ShapeError, match="unequal"):
            normalize_b0(raw, bvals)
        vol, _ = normalize_b0(raw, bvals, shells=[2000.0])
        assert vol.data.shape[1] == 1

    def test_nan_shell_rejected(self):
        raw = np.ones((1, 1, 1, 3)) * 100.0
        with pytest.raises(ValueError, match="no shell near b=nan; available shells: 1000"):
            normalize_b0(raw, [0.0, 1000.0, 1000.0], shells=[float("nan")])

    def test_two_requests_for_one_shell_rejected(self):
        raw = np.ones((1, 1, 1, 3)) * 100.0
        bvals = [0.0, 1000.0, 1000.0]
        with pytest.raises(ValueError, match="b=1000 and b=990 both select the b=1000 shell"):
            normalize_b0(raw, bvals, shells=[1000.0, 990.0])

    def test_interleaved_acquisition_order_preserved(self):
        # shells blocked in channel order, acquisition order kept inside a block
        raw = np.zeros((1, 1, 1, 5))
        raw[..., 0] = 100.0  # b0
        for volume, value in ((1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)):
            raw[..., volume] = value
        bvals = [0.0, 1000.0, 2000.0, 1000.0, 2000.0]
        vol, _ = normalize_b0(raw, bvals)
        assert vol.shells == 2
        np.testing.assert_allclose(vol.data[0, :, 0, 0, 0], [0.1, 0.3, 0.2, 0.4])

    def test_sub_scheme_shells_index_their_channel_blocks(self, rng):
        # interleaved acquisition, a b0 in the middle, and a selection of two of three shells
        bvals = np.array([1000.0, 2000.0, 0.0, 3000.0, 1000.0, 2000.0, 3000.0, 2000.0,
                          1000.0, 3000.0])
        dirs = random_unit_vectors(rng, bvals.size)
        dirs[2] = 0.0
        b0_idx, shells = detect_shells(bvals)
        scheme = GradientScheme(directions=dirs, bvals=bvals, b0_indices=b0_idx, shells=shells)
        raw = rng.uniform(1.0, 2.0, size=(2, 1, 1, bvals.size))
        vol, _ = normalize_b0(raw, scheme, shells=[3000.0, 1000.0])
        sub = vol.scheme
        assert [s.bvalue for s in sub.shells] == [3000.0, 1000.0]
        for k, shell in enumerate(sub.shells):
            np.testing.assert_array_equal(shell.indices, np.arange(3 * k, 3 * k + 3))
            np.testing.assert_array_equal(
                sub.shell_directions(shell.bvalue), scheme.shell_directions(shell.bvalue)
            )
        np.testing.assert_array_equal(sub.bvals, [3000.0] * 3 + [1000.0] * 3)

    @pytest.mark.parametrize("form", ["bvals", "scheme"])
    @pytest.mark.parametrize(
        "shells",
        [None, [2000.0], [3000.0, 1000.0], [3000.0, 2000.0, 1000.0]],
        ids=["all", "one", "subset-reversed", "all-reversed"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.int16, np.uint16])
    def test_stored_dtype_gives_the_bits_of_its_float64_cast(self, rng, dtype, shells, form):
        # samples upcast exactly in the b0 mean and the divide, so no float64
        # copy of the acquisition is needed for the same bits
        bvals = np.array([1000.0, 2000.0, 0.0, 3000.0, 1000.0, 2000.0, 0.0, 3000.0, 2000.0,
                          1000.0, 3000.0])
        if np.dtype(dtype).kind == "f":
            raw = (rng.uniform(0.5, 2.0, size=(5, 4, 3, bvals.size))
                   * 10.0 ** rng.uniform(-3, 3, size=(5, 4, 3, bvals.size))).astype(dtype)
        else:
            info = np.iinfo(dtype)
            raw = rng.integers(info.min, info.max, size=(5, 4, 3, bvals.size), endpoint=True,
                               dtype=dtype)
            raw[..., bvals == 0.0] = np.abs(raw[..., bvals == 0.0] // 2)
        raw[0, 0, 0, bvals == 0.0] = 0  # an excluded voxel
        arg = bvals
        if form == "scheme":
            b0_idx, table = detect_shells(bvals)
            dirs = random_unit_vectors(rng, bvals.size)
            dirs[b0_idx] = 0.0
            arg = GradientScheme(directions=dirs, bvals=bvals, b0_indices=b0_idx, shells=table)
        got, got_mask = normalize_b0(raw, arg, shells=shells)
        want, want_mask = normalize_b0(raw.astype(np.float64), arg, shells=shells)
        assert got_mask[0, 0, 0]
        np.testing.assert_array_equal(got_mask, want_mask)
        np.testing.assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
        if form == "scheme":
            np.testing.assert_array_equal(got.scheme.directions, want.scheme.directions)

    def test_volume_count_mismatch(self):
        with pytest.raises(ShapeError, match="describes"):
            normalize_b0(np.ones((1, 1, 1, 3)), [0.0, 1000.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_b0_rejected(self, bad):
        # an infinite b0 once made the exclusion threshold infinite, which
        # silently zeroed every voxel
        raw = np.full((6, 6, 4, 3), 500.0)
        raw[..., 0] = 1000.0
        raw[2, 3, 1, 0] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            normalize_b0(raw, [0.0, 1000.0, 1000.0])

    @pytest.mark.parametrize("volume, message", [(0, "b0 volumes"), (2, "DWI volume")],
                             ids=["b0", "dwi"])
    @pytest.mark.parametrize("dtype, bits", [(np.float32, 0x7F800001),
                                             (np.float64, 0x7FF0000000000001)],
                             ids=["float32", "float64"])
    def test_signalling_nan_is_refused_without_a_numpy_warning(self, dtype, bits, volume,
                                                               message):
        raw = np.full((3, 2, 2, 3), 500.0, dtype=dtype)
        raw[..., 0] = 1000.0
        raw.view(f"u{raw.itemsize}")[1, 0, 1, volume] = bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match=f"^{message} contains? non-finite values$"):
                normalize_b0(raw, [0.0, 1000.0, 1000.0])


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestRotationInvariance:
    """The Laplace-Beltrami penalty l^2 (l+1)^2 is the same for every m of one
    degree, so rotating the directions only rotates each degree's block of a
    regularized fit and leaves the per-degree energies unchanged."""

    @settings(max_examples=50, deadline=None)
    @given(
        order=st.sampled_from([2, 4, 6, 8]),
        lam=st.sampled_from([0.0, 0.006, 0.06]),
        n_dirs=st.sampled_from([60, 90]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_degree_energies_unchanged_by_rotation(self, order, lam, n_dirs, seed):
        rng = np.random.default_rng(seed)
        rotation = _random_rotation(rng)
        dirs = unit_sphere_directions(n_dirs)
        signal = rng.normal(size=(n_dirs, 4))
        fit = make_fit_operator(dirs, order, lam).fit_matrix @ signal
        turned = make_fit_operator(dirs @ rotation.T, order, lam).fit_matrix @ signal
        energies = degree_energies(fit, order)
        total = energies.sum(axis=0)
        assert np.all(np.abs(degree_energies(turned, order) - energies) <= 1e-10 * total)


class TestVolumeTypes:
    # each volume type and its message's name for it; 15 channels fit both
    KINDS = [(lambda data: ShVolume(data=data, basis_spec=ShBasisSpec(4)), "SH"),
             (lambda data: DwiVolume(data=data), "DWI")]

    def test_sh_volume_channel_invariant(self):
        with pytest.raises(ShapeError):
            ShVolume(data=np.zeros((1, 14, 2, 2, 2)), basis_spec=ShBasisSpec(4))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("make, kind", KINDS, ids=["sh", "dwi"])
    def test_volume_must_be_finite(self, make, kind, bad):
        # an ShVolume holding NaN once went through lsc_forward silently, and
        # sh_to_signal refused it as a non-finite DWI volume
        data = np.ones((1, 15, 2, 1, 1))
        data[0, 7, 1] = bad
        with pytest.raises(ShapeError, match=f"^{kind} volume contains non-finite values$"):
            make(data)

    @pytest.mark.parametrize("make", [lambda data: ShVolume(data=data, basis_spec=ShBasisSpec(8)),
                                      lambda data: DwiVolume(data=data)], ids=["sh", "dwi"])
    def test_building_a_float64_volume_allocates_nothing_volume_sized(self, make):
        # a bool array of the volume's size would be 3.96 MiB here
        data = np.ones((1, 45, 96, 96, 10))
        make(data[..., :1])  # first use: imports and caches
        tracemalloc.start()
        try:
            vol = make(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vol.data is data
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("make, kind", KINDS, ids=["sh", "dwi"])
    def test_volume_must_be_5d(self, make, kind):
        with pytest.raises(ShapeError, match=f"^{kind} volume must be 5-D"):
            make(np.ones((15, 2, 1, 1)))

    @pytest.mark.parametrize("make, kind", KINDS, ids=["sh", "dwi"])
    def test_volume_data_is_float64_and_c_contiguous(self, make, kind):
        data = np.asfortranarray(np.arange(60, dtype=np.float32).reshape(1, 15, 2, 2, 1))
        vol = make(data)
        assert vol.data.dtype == np.float64 and vol.data.flags.c_contiguous
        np.testing.assert_array_equal(vol.data, data)

    def test_dwi_shell_divisibility(self):
        with pytest.raises(ShapeError):
            DwiVolume(data=np.ones((1, 7, 1, 1, 1)), shells=2)


PIECE = _FINITE_PIECE
SIGNALLING_NAN = {np.float32: 0x7F800001, np.float64: 0x7FF0000000000001}


class TestAllFinite:
    SIZES = [0, 1, PIECE - 1, PIECE, PIECE + 1, 2 * PIECE + 3]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_array(self, dtype, size):
        arr = np.arange(size, dtype=dtype) - 7.5
        assert _all_finite(arr) is True

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "signalling-nan"])
    @pytest.mark.parametrize("size", SIZES[1:])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_non_finite_value_anywhere(self, dtype, size, bad):
        # the first and last index, and each side of the first piece boundary
        for index in sorted(i for i in {0, PIECE - 1, PIECE, size - 1} if i < size):
            arr = np.ones(size, dtype=dtype)
            if bad == "signalling-nan":
                arr.view(f"u{arr.itemsize}")[index] = SIGNALLING_NAN[dtype]
            else:
                arr[index] = float(bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _all_finite(arr)
                assert got is False and got == np.isfinite(arr).all(), index

    def test_multidimensional_array(self):
        arr = np.ones((40, 30, 70))
        assert _all_finite(arr)
        arr[-1, 0, 0] = np.nan
        assert not _all_finite(arr)


class TestApplyAffine:
    def test_shared_matrix_takes_its_groups_from_the_channel_count(self, rng):
        matrix, data = rng.normal(size=(2, 3)), rng.normal(size=(1, 6, 2, 1, 1))
        out = _apply_affine(matrix, data)
        for g in range(2):
            group = data[0, 3 * g : 3 * g + 3].reshape(3, -1)
            np.testing.assert_allclose(out[0, 2 * g : 2 * g + 2].reshape(2, -1), matrix @ group)

    @pytest.mark.parametrize("channels", [0, 2, 7])
    def test_channels_not_a_multiple_of_c_in_raise(self, channels):
        with pytest.raises(ShapeError, match=f"volume has {channels} channels"):
            _apply_affine(np.ones((2, 3)), np.ones((1, channels, 2, 1, 1)))

    def test_stack_of_another_group_count_raises(self):
        # two matrices for three channel groups: no matrix would fill the third
        with pytest.raises(ShapeError, match=r"expected groups \(2\) \* C_in \(3\) = 6"):
            _apply_affine(np.ones((2, 2, 3)), np.ones((1, 9, 2, 1, 1)))


@lru_cache(maxsize=None)
def _chunk_operators(shells, shared):
    """One shared operator, or one per shell on its own random direction set."""
    if shared:
        return make_fit_operator(unit_sphere_directions(30), 4, 0.006)
    rng = np.random.default_rng(shells)
    return tuple(make_fit_operator(random_unit_vectors(rng, 30), 4, 0.006) for _ in range(shells))


def _probe_voxels(nvox, pick):
    """Both ends, both sides of the first block edge and one drawn voxel."""
    return sorted({0, nvox - 1, min(1023, nvox - 1), min(1024, nvox - 1), pick % nvox})


def _split(data, cut):
    cut = min(cut, data.shape[0])
    return [data[lo:hi] for lo, hi in ((0, cut), (cut, data.shape[0])) if hi > lo]


class TestChunkStability:
    """Bitwise contract of the shared GEMM routine: full blocks are views of
    the input, the tail block is zero-padded, and every BLAS call has the
    same shape, so a voxel's result never depends on how the volume is cut."""

    @settings(max_examples=30, deadline=None)
    @example(shells=2, shared=False, subjects=3, nvox=2100, cut=1, pick=1500, seed=0)
    @given(
        shells=st.integers(1, 3),
        shared=st.booleans(),
        subjects=st.integers(1, 3),
        nvox=st.integers(1, 2100),
        cut=st.integers(0, 3),
        pick=st.integers(0, 2**16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_signal_to_sh(self, shells, shared, subjects, nvox, cut, pick, seed):
        ops = _chunk_operators(shells, shared)
        data = np.random.default_rng(seed).normal(size=(subjects, shells * 30, nvox, 1, 1))
        whole = signal_to_sh(DwiVolume(data=data, shells=shells), ops).data
        for v in _probe_voxels(nvox, pick):
            alone = signal_to_sh(DwiVolume(data=data[:, :, v : v + 1], shells=shells), ops)
            assert np.array_equal(alone.data[:, :, 0], whole[:, :, v])
        parts = [signal_to_sh(DwiVolume(data=d, shells=shells), ops) for d in _split(data, cut)]
        assert np.array_equal(np.concatenate([p.data for p in parts]), whole)
        per_shell = ops if not shared else [ops] * shells
        for s, op in enumerate(per_shell):
            lone = signal_to_sh(DwiVolume(data=data[:, s * 30 : (s + 1) * 30]), op)
            assert np.array_equal(lone.data, whole[:, s * 15 : (s + 1) * 15])

    @settings(max_examples=30, deadline=None)
    @example(shells=2, subjects=3, nvox=2100, cut=1, pick=1500, seed=0)
    @given(
        shells=st.integers(1, 3),
        subjects=st.integers(1, 3),
        nvox=st.integers(1, 2100),
        cut=st.integers(0, 3),
        pick=st.integers(0, 2**16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sh_to_signal(self, shells, subjects, nvox, cut, pick, seed):
        dirs = unit_sphere_directions(30)
        data = np.random.default_rng(seed).normal(size=(subjects, shells * 15, nvox, 1, 1))

        def evaluate(arr, n_shells=shells):
            sh = ShVolume(data=arr, basis_spec=ShBasisSpec(4), shells=n_shells)
            return sh_to_signal(sh, dirs).data

        whole = evaluate(data)
        for v in _probe_voxels(nvox, pick):
            assert np.array_equal(evaluate(data[:, :, v : v + 1])[:, :, 0], whole[:, :, v])
        assert np.array_equal(np.concatenate([evaluate(d) for d in _split(data, cut)]), whole)
        for s in range(shells):
            lone = evaluate(data[:, s * 15 : (s + 1) * 15], n_shells=1)
            assert np.array_equal(lone, whole[:, s * 30 : (s + 1) * 30])
