import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sphdwi import (
    KernelMismatchError,
    LscKernel,
    ShBasisSpec,
    ShVolume,
    ShapeError,
    basis_degrees,
    build_lsc_geometry,
    eval_basis,
    high_degree_energy_fraction,
    laplace_beltrami_diag,
    load_kernel_json,
    lsc_forward,
    lsc_operator,
    make_identity_kernel,
    make_moving_average_kernel,
    save_kernel_json,
    unit_sphere_directions,
)

from conftest import reference_basis

TWO_SQRT_PI = 2.0 * np.sqrt(np.pi)


def random_sh_volume(rng, order, nvox, shells=1, scale=0.2):
    r = (order + 1) * (order + 2) // 2
    coeffs = rng.normal(size=(1, shells * r, nvox, 1, 1)) * scale
    for s in range(shells):
        coeffs[0, s * r] = TWO_SQRT_PI
    return ShVolume(data=coeffs, basis_spec=ShBasisSpec(order), shells=shells)


class TestGeometry:
    def test_kernel_length_single_ring(self):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        assert geom.kernel_len == 6
        assert geom.resample_matrix.shape == (6 * 30, 15)

    def test_two_ring_geometry(self):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [4, 8], 0.3, 4, 4, 0.0)
        assert geom.kernel_len == 13
        # recompute every ring angle from dot products
        for r_index, ring in enumerate(geom.rings, start=1):
            for i, u in enumerate(geom.origins):
                dots = ring[i] @ u
                np.testing.assert_allclose(
                    np.arccos(np.clip(dots, -1, 1)), r_index * 0.3, atol=1e-12
                )

    def test_row_blocks_follow_origin_then_rings(self):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        from sphdwi import eval_basis, ring_directions

        i = 7
        rows = geom.resample_matrix[i * 6 : (i + 1) * 6]
        np.testing.assert_array_equal(rows[0], eval_basis(geom.origins[i], 4)[0])
        ring = ring_directions(geom.origins[i], np.pi / 5, 5)
        np.testing.assert_array_equal(rows[1:], eval_basis(ring, 4))

    def test_hemisphere_limit_enforced(self):
        gradients = unit_sphere_directions(30)
        with pytest.raises(ValueError, match="hemisphere"):
            build_lsc_geometry(gradients, [5, 5, 5], 0.6, 4, 4, 0.0)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_lsc_geometry(unit_sphere_directions(30), [], 0.3, 4, 4, 0.0)


class TestKernels:
    def test_moving_average_single_shell(self):
        kernel = make_moving_average_kernel([5])
        assert kernel.weights.shape == (1, 1, 6)
        np.testing.assert_array_equal(kernel.weights, 1.0 / 6.0)
        np.testing.assert_array_equal(kernel.bias, 0.0)

    def test_moving_average_two_input_shells(self):
        kernel = make_moving_average_kernel([5], shells_in=2, shells_out=1)
        assert kernel.weights.shape == (1, 2, 6)
        np.testing.assert_array_equal(kernel.weights, 1.0 / 12.0)

    @pytest.mark.parametrize("sizes,si,so", [([5], 1, 1), ([4, 8], 2, 3), ([1], 3, 2)])
    def test_weights_sum_to_one(self, sizes, si, so):
        kernel = make_moving_average_kernel(sizes, shells_in=si, shells_out=so)
        for o in range(so):
            assert abs(kernel.weights[o].sum() - 1.0) <= 1e-15

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeError):
            LscKernel(weights=np.full((1, 1, 3), np.nan), bias=np.zeros(1))

    # a float or a bool would be truncated to a ring of another size
    @pytest.mark.parametrize("sizes", [[], [0], [-1], [2.7], [True]])
    @pytest.mark.parametrize(
        "make",
        [
            lambda sizes: build_lsc_geometry(unit_sphere_directions(30), sizes, 0.3, 4, 4, 0.0),
            make_moving_average_kernel,
            make_identity_kernel,
        ],
        ids=["geometry", "moving-average", "identity"],
    )
    def test_bad_sizes_rejected_alike(self, make, sizes):
        with pytest.raises(ValueError, match="kernel_sizes must be non-empty positive integers"):
            make(sizes)

    def test_numpy_integer_sizes_accepted(self):
        sizes = np.array([4, 8])
        assert make_moving_average_kernel(sizes).kernel_len == 13
        geom = build_lsc_geometry(unit_sphere_directions(30), sizes, 0.3, 4, 4, 0.0)
        assert geom.kernel_sizes == (4, 8) and type(geom.kernel_sizes[0]) is int


class TestForward:
    def test_moving_average_keeps_constant(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        kernel = make_moving_average_kernel([5])
        coeffs = np.zeros((1, 15, 4, 1, 1))
        coeffs[0, 0] = TWO_SQRT_PI
        sh = ShVolume(data=coeffs, basis_spec=ShBasisSpec(4))
        out = lsc_forward(sh, kernel, geom)
        assert np.max(np.abs(out.data - coeffs)) <= 1e-10

    def test_identity_kernel_reproduces_input(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        kernel = make_identity_kernel([5])
        sh = random_sh_volume(rng, 4, 25)
        out = lsc_forward(sh, kernel, geom)
        assert np.max(np.abs(out.data - sh.data)) <= 1e-9

    def test_smoothing_never_raises_high_degree_fraction(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        kernel = make_moving_average_kernel([5])
        sh = random_sh_volume(rng, 4, 120)
        out = lsc_forward(sh, kernel, geom)
        frac_in = high_degree_energy_fraction(sh.data[0].reshape(15, -1), 4)
        frac_out = high_degree_energy_fraction(out.data[0].reshape(15, -1), 4)
        assert np.all(frac_out <= frac_in + 1e-12)

    def test_linear_in_signal(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        kernel = LscKernel(weights=rng.normal(size=(1, 1, 6)), bias=np.zeros(1))
        c1 = rng.normal(size=(1, 15, 6, 1, 1))
        c2 = rng.normal(size=(1, 15, 6, 1, 1))
        a, b = 1.3, -0.4
        spec = ShBasisSpec(4)
        lhs = lsc_forward(ShVolume(data=a * c1 + b * c2, basis_spec=spec), kernel, geom).data
        rhs = (
            a * lsc_forward(ShVolume(data=c1, basis_spec=spec), kernel, geom).data
            + b * lsc_forward(ShVolume(data=c2, basis_spec=spec), kernel, geom).data
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_linear_in_kernel(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        w1 = rng.normal(size=(1, 1, 6))
        w2 = rng.normal(size=(1, 1, 6))
        sh = random_sh_volume(rng, 4, 9)
        out_sum = lsc_forward(sh, LscKernel(weights=w1 + w2, bias=np.zeros(1)), geom).data
        out_parts = (
            lsc_forward(sh, LscKernel(weights=w1, bias=np.zeros(1)), geom).data
            + lsc_forward(sh, LscKernel(weights=w2, bias=np.zeros(1)), geom).data
        )
        assert np.max(np.abs(out_sum - out_parts)) <= 1e-10

    def test_bias_shifts_constant_term_only(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        sh = random_sh_volume(rng, 4, 11)
        base = lsc_forward(sh, make_moving_average_kernel([5]), geom)
        delta = 0.37
        shifted = lsc_forward(
            sh,
            LscKernel(weights=make_moving_average_kernel([5]).weights, bias=np.array([delta])),
            geom,
        )
        diff = shifted.data - base.data
        np.testing.assert_allclose(diff[0, 0], delta * TWO_SQRT_PI, atol=1e-10)
        assert np.max(np.abs(diff[0, 1:])) <= 1e-10

    def test_multi_shell_zero_cross_weights_reduces_to_single_shell(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        w = rng.normal(size=(1, 1, 6))
        sh2 = random_sh_volume(rng, 4, 13, shells=2)
        weights2 = np.zeros((2, 2, 6))
        weights2[0, 0] = w[0, 0]
        weights2[1, 1] = 2.0 * w[0, 0]
        out2 = lsc_forward(sh2, LscKernel(weights=weights2, bias=np.zeros(2)), geom)
        kern1 = LscKernel(weights=w, bias=np.zeros(1))
        one_a = lsc_forward(
            ShVolume(data=sh2.data[:, :15], basis_spec=ShBasisSpec(4)), kern1, geom
        )
        assert np.max(np.abs(out2.data[:, :15] - one_a.data)) <= 1e-12

    def test_order_mismatch_rejected(self, rng):
        geom = build_lsc_geometry(unit_sphere_directions(30), [5], np.pi / 5, 4, 4, 0.0)
        sh = random_sh_volume(rng, 2, 3)
        with pytest.raises(ShapeError, match="order"):
            lsc_forward(sh, make_moving_average_kernel([5]), geom)

    def test_kernel_length_mismatch_lists_both(self, rng):
        geom = build_lsc_geometry(unit_sphere_directions(30), [5], np.pi / 5, 4, 4, 0.0)
        sh = random_sh_volume(rng, 4, 3)
        with pytest.raises(KernelMismatchError, match="4.*6|6.*4"):
            lsc_forward(sh, make_moving_average_kernel([3]), geom)

    def test_shell_count_mismatch(self, rng):
        geom = build_lsc_geometry(unit_sphere_directions(30), [5], np.pi / 5, 4, 4, 0.0)
        sh = random_sh_volume(rng, 4, 3, shells=1)
        with pytest.raises(ShapeError, match="shell"):
            lsc_forward(sh, make_moving_average_kernel([5], shells_in=2, shells_out=1), geom)

    def test_multiple_subjects_processed_independently(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 4, 0.0)
        kernel = make_moving_average_kernel([5])
        data = rng.normal(size=(2, 15, 3, 1, 1))
        batch = lsc_forward(ShVolume(data=data, basis_spec=ShBasisSpec(4)), kernel, geom)
        for subject in range(2):
            alone = lsc_forward(
                ShVolume(data=data[subject : subject + 1], basis_spec=ShBasisSpec(4)),
                kernel,
                geom,
            )
            assert np.array_equal(batch.data[subject : subject + 1], alone.data)

    def test_output_order_can_differ(self, rng):
        gradients = unit_sphere_directions(30)
        geom = build_lsc_geometry(gradients, [5], np.pi / 5, 4, 2, 0.0)
        sh = random_sh_volume(rng, 4, 5)
        out = lsc_forward(sh, make_moving_average_kernel([5]), geom)
        assert out.basis_spec.order == 2 and out.data.shape[1] == 6


class TestCrossCorrelationSemantics:
    def test_asymmetric_kernel_matches_hand_oracle(self, rng):
        """Pin kernel orientation: no reflection, origin first, ring in phase order.

        The oracle rebuilds every stage with its own machinery: scipy-based
        basis rows, explicit tangent frames and an lstsq refit.
        """
        origins = unit_sphere_directions(30)
        alpha, npts, order = 0.52, 5, 4
        geom = build_lsc_geometry(origins, [npts], alpha, order, order, 0.0)
        weights = np.array([0.9, 0.5, -0.25, 0.125, -0.0625, 0.03125])
        bias = 0.2
        kernel = LscKernel(weights=weights.reshape(1, 1, 6), bias=np.array([bias]))

        coeffs = rng.normal(size=15) * 0.3
        coeffs[0] = TWO_SQRT_PI
        sh = ShVolume(data=coeffs.reshape(1, 15, 1, 1, 1), basis_spec=ShBasisSpec(order))
        got = lsc_forward(sh, kernel, geom).data[0, :, 0, 0, 0]

        # --- independent recomputation ---
        origin_vals = np.empty(30)
        for i, u in enumerate(origins):
            ref = np.array([0.0, 0.0, 1.0]) if abs(u[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
            e1 = np.cross(ref, u)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(u, e1)
            value = weights[0] * float(reference_basis(u, order)[0] @ coeffs)
            for k in range(npts):
                az = 2.0 * np.pi * k / npts
                point = np.cos(alpha) * u + np.sin(alpha) * (
                    np.cos(az) * e1 + np.sin(az) * e2
                )
                value += weights[k + 1] * float(reference_basis(point, order)[0] @ coeffs)
            origin_vals[i] = value + bias
        expected, *_ = np.linalg.lstsq(reference_basis(origins, order), origin_vals, rcond=None)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_two_ring_kernel_matches_hand_oracle(self, rng):
        """Ring-major kernel layout: origin, all ring-1 points, all ring-2 points."""
        origins = unit_sphere_directions(30)
        alpha, sizes, order = 0.35, (4, 8), 4
        geom = build_lsc_geometry(origins, list(sizes), alpha, order, order, 0.0)
        weights = rng.normal(size=1 + sum(sizes))
        kernel = LscKernel(weights=weights.reshape(1, 1, -1), bias=np.zeros(1))

        coeffs = rng.normal(size=15) * 0.3
        coeffs[0] = TWO_SQRT_PI
        sh = ShVolume(data=coeffs.reshape(1, 15, 1, 1, 1), basis_spec=ShBasisSpec(order))
        got = lsc_forward(sh, kernel, geom).data[0, :, 0, 0, 0]

        origin_vals = np.empty(30)
        for i, u in enumerate(origins):
            ref = np.array([0.0, 0.0, 1.0]) if abs(u[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
            e1 = np.cross(ref, u)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(u, e1)
            value = weights[0] * float(reference_basis(u, order)[0] @ coeffs)
            pos = 1
            for ring_index, npts in enumerate(sizes, start=1):
                for k in range(npts):
                    az = 2.0 * np.pi * k / npts
                    point = np.cos(ring_index * alpha) * u + np.sin(ring_index * alpha) * (
                        np.cos(az) * e1 + np.sin(az) * e2
                    )
                    value += weights[pos] * float(reference_basis(point, order)[0] @ coeffs)
                    pos += 1
            origin_vals[i] = value
        expected, *_ = np.linalg.lstsq(reference_basis(origins, order), origin_vals, rcond=None)
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestOperator:
    def test_multi_shell_two_ring_matches_explicit_reference(self, rng):
        """3 input shells, 2 output shells, rings (4, 8), bias, order 6 -> 4, lambda 0.006.

        The reference resamples with the scipy basis at the geometry's
        points, reduces each origin's ring block with the kernel, adds the
        bias and refits by solving the regularized normal equations.
        """
        origins = unit_sphere_directions(30)
        sizes, alpha, order_in, order_out, lam = (4, 8), 0.3, 6, 4, 0.006
        geom = build_lsc_geometry(origins, list(sizes), alpha, order_in, order_out, lam)
        klen = 1 + sum(sizes)
        weights = rng.normal(size=(2, 3, klen)) * 0.3
        bias = np.array([0.7, -1.1])
        r_in, r_out, nvox = 28, 15, 7
        coeffs = rng.normal(size=(3, r_in, nvox)) * 0.3
        coeffs[:, 0] = TWO_SQRT_PI
        sh = ShVolume(
            data=coeffs.reshape(1, 3 * r_in, nvox, 1, 1), basis_spec=ShBasisSpec(order_in), shells=3
        )
        got = lsc_forward(sh, LscKernel(weights=weights, bias=bias), geom)

        points = np.concatenate(
            [geom.origins[:, None, :], *geom.rings], axis=1
        )  # (m, K, 3): origin, ring-1 points, ring-2 points
        resample = reference_basis(points.reshape(-1, 3), order_in)
        sampled = np.stack([resample @ coeffs[s] for s in range(3)]).reshape(3, 30, klen, nvox)
        basis_out = reference_basis(origins, order_out)
        normal = basis_out.T @ basis_out + lam * np.diag(laplace_beltrami_diag(order_out))
        expected = np.empty((2 * r_out, nvox))
        for o in range(2):
            values = np.full((30, nvox), bias[o])
            for s in range(3):
                for k in range(klen):
                    values += weights[o, s, k] * sampled[s, :, k]
            expected[o * r_out : (o + 1) * r_out] = np.linalg.solve(normal, basis_out.T @ values)
        assert got.shells == 2 and got.basis_spec.order == order_out
        np.testing.assert_allclose(got.data.reshape(2 * r_out, nvox), expected, rtol=0, atol=1e-12)

    def test_operator_shapes(self):
        geom = build_lsc_geometry(unit_sphere_directions(30), [5], np.pi / 5, 4, 2, 0.0)
        kernel = make_moving_average_kernel([5], shells_in=3, shells_out=2)
        matrix, offset = lsc_operator(kernel, geom)
        assert matrix.shape == (2 * 6, 3 * 15) and offset.shape == (2 * 6,)
        np.testing.assert_array_equal(offset, 0.0)


@lru_cache(maxsize=None)
def _property_geometry(shells_in, shells_out, seed):
    """A multi-shell geometry and kernel with a nonzero bias, built once per draw."""
    geom = build_lsc_geometry(unit_sphere_directions(30), [4, 8], 0.3, 4, 4, 0.006)
    rng = np.random.default_rng(seed)
    kernel = LscKernel(
        weights=rng.normal(size=(shells_out, shells_in, geom.kernel_len)) * 0.3,
        bias=rng.normal(size=shells_out),
    )
    return geom, kernel


_layouts = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
_seeds = st.integers(0, 2**32 - 1)


def _volume(shells, subjects, grid, seed):
    data = np.random.default_rng(seed).normal(size=(subjects, shells * 15, *grid))
    return ShVolume(data=data, basis_spec=ShBasisSpec(4), shells=shells)


class TestOperatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        layout=_layouts,
        nvox=st.integers(1, 40),
        a=st.floats(-4.0, 4.0),
        b=st.floats(-4.0, 4.0),
        seed=_seeds,
    )
    def test_linear_in_input(self, layout, nvox, a, b, seed):
        geom, kernel = _property_geometry(*layout)
        _, offset = lsc_operator(kernel, geom)
        x = _volume(kernel.shells_in, 1, (nvox, 1, 1), seed)
        y = _volume(kernel.shells_in, 1, (nvox, 1, 1), seed + 1)
        combo = ShVolume(
            data=a * x.data + b * y.data, basis_spec=ShBasisSpec(4), shells=kernel.shells_in
        )

        def linear_part(vol):
            return lsc_forward(vol, kernel, geom).data - offset[None, :, None, None, None]

        lhs = linear_part(combo)
        rhs = a * linear_part(x) + b * linear_part(y)
        scale = 1.0 + np.max(np.abs(lsc_forward(x, kernel, geom).data)) * (1 + abs(a) + abs(b))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    @settings(max_examples=20, deadline=None)
    @given(
        layout=_layouts,
        subjects=st.integers(1, 4),
        nvox=st.integers(1, 2100),
        split=st.integers(0, 4),
        seed=_seeds,
    )
    def test_bitwise_stable_across_subject_splits(self, layout, subjects, nvox, split, seed):
        geom, kernel = _property_geometry(*layout)
        vol = _volume(kernel.shells_in, subjects, (nvox, 1, 1), seed)
        serial = lsc_forward(vol, kernel, geom).data
        cut = min(split, subjects)
        parts = [
            lsc_forward(
                ShVolume(data=vol.data[lo:hi], basis_spec=ShBasisSpec(4), shells=kernel.shells_in),
                kernel,
                geom,
            ).data
            for lo, hi in ((0, cut), (cut, subjects))
            if hi > lo
        ]
        assert np.array_equal(np.concatenate(parts, axis=0), serial)

    @settings(max_examples=20, deadline=None)
    @given(layout=_layouts, subjects=st.integers(1, 3), nvox=st.integers(1, 30))
    def test_zero_input_yields_offset(self, layout, subjects, nvox):
        geom, kernel = _property_geometry(*layout)
        _, offset = lsc_operator(kernel, geom)
        zero = ShVolume(
            data=np.zeros((subjects, kernel.shells_in * 15, nvox, 1, 1)),
            basis_spec=ShBasisSpec(4),
            shells=kernel.shells_in,
        )
        out = lsc_forward(zero, kernel, geom).data
        assert np.array_equal(out, np.broadcast_to(offset[None, :, None, None, None], out.shape))


def _ring_constant_kernel(ring_weights, sizes, bias):
    """The LscKernel whose entries are w0 at the origin and w_r at every point of ring r."""
    w = np.asarray(ring_weights)
    weights = np.concatenate([w[..., :1]] + [np.repeat(w[..., r : r + 1], n, axis=-1)
                                             for r, n in enumerate(sizes, start=1)], axis=-1)
    return LscKernel(weights=weights, bias=bias)


def _funk_hecke_matrix(ring_weights, sizes, geom):
    """The closed form of lsc_operator's matrix for a ring-constant kernel.

    A ring of N_r > order_in points at angle r * alpha sums a degree-l
    harmonic to N_r P_l(cos r alpha) times its value at the origin (the
    Funk-Hecke theorem; Driscoll and Healy, 1994), so block [o, s] is
    M_refit @ B_origins @ diag(g_l) with g_l = w0 + sum_r w_r N_r P_l(cos r alpha).
    """
    legendre = np.array([[np.polynomial.legendre.legval(np.cos(r * geom.alpha), [0] * l + [1])
                          for l in basis_degrees(geom.order_in)]
                         for r in range(1, len(sizes) + 1)])  # P_l(cos r alpha), (rings, R_in)
    w = np.asarray(ring_weights)
    gains = w[..., :1] + np.einsum("osr,r,rj->osj", w[..., 1:], np.asarray(sizes), legendre)
    refit = geom.refit.fit_matrix @ eval_basis(geom.origins, geom.order_in)
    return np.block([[refit * g for g in row] for row in gains])


class TestFunkHeckeOracle:
    """lsc_operator against a closed form that runs none of its resample, reduce or refit steps."""

    @settings(max_examples=12, deadline=None)
    @given(
        orders=st.sampled_from([(4, 4), (8, 8), (6, 4), (8, 6), (4, 8), (0, 2)]),
        extra=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        alpha=st.floats(0.05, 0.7),
        lb_lambda=st.sampled_from([0.0, 0.006, 0.05]),
        shells=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ring_constant_kernel_matches_the_closed_form(self, orders, extra, alpha,
                                                          lb_lambda, shells, seed):
        order_in, order_out = orders
        sizes = tuple(order_in + e for e in extra)  # every ring has more points than order_in
        rng = np.random.default_rng(seed)
        ring_weights = rng.normal(size=(shells[1], shells[0], 1 + len(sizes)))
        bias = rng.normal(size=shells[1])
        geom = build_lsc_geometry(unit_sphere_directions(90), sizes, alpha, order_in, order_out,
                                  lb_lambda)
        matrix, offset = lsc_operator(_ring_constant_kernel(ring_weights, sizes, bias), geom)
        want = _funk_hecke_matrix(ring_weights, sizes, geom)
        assert matrix.shape == want.shape
        assert np.max(np.abs(matrix - want)) <= 1e-12 * np.max(np.abs(want))
        want = np.kron(bias, geom.refit.fit_matrix @ np.ones(geom.m))
        assert np.max(np.abs(offset - want)) <= 1e-12 * np.max(np.abs(want))

    def test_weights_that_vary_within_a_ring_do_not_commute_with_a_rotation(self):
        # rotating the gradient table by Q maps a ring-constant kernel's matrix A
        # to E^T A E, E the SH rotation matrix of Q; a kernel whose weights vary
        # within a ring sees the tangent frame of each origin, which does not rotate
        axis, angle = np.array([1.0, 2.0, 2.0]) / 3.0, 0.7
        cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                          [-axis[1], axis[0], 0.0]])
        rotation = np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * cross @ cross
        dense = unit_sphere_directions(90)
        # Y(Q x) = Y(x) E, solved on a direction set that determines every order-4 harmonic
        spin = np.linalg.lstsq(eval_basis(dense, 4), eval_basis(dense @ rotation.T, 4),
                               rcond=None)[0]
        origins = unit_sphere_directions(60)
        sizes, alpha = (6,), np.pi / 5
        varying = np.random.default_rng(21).normal(size=(1, 1, 7))
        deviation = {}
        for name, weights in (("ring-constant", make_moving_average_kernel(sizes).weights),
                              ("varying", varying)):
            kernel = LscKernel(weights=weights, bias=np.zeros(1))
            plain, rotated = (
                lsc_operator(kernel, build_lsc_geometry(g, sizes, alpha, 4, 4, 0.006))[0]
                for g in (origins, origins @ rotation.T)
            )
            deviation[name] = (np.linalg.norm(rotated - spin.T @ plain @ spin)
                               / np.linalg.norm(plain))
        assert deviation["ring-constant"] < 1e-12, deviation
        assert deviation["varying"] > 0.1, deviation


class TestKernelJson:
    def test_round_trip_exact_fields(self, tmp_path, rng):
        kernel = LscKernel(weights=rng.normal(size=(2, 1, 6)), bias=rng.normal(size=2))
        path = tmp_path / "kernel.json"
        save_kernel_json(str(path), kernel, [5], np.pi / 5)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "shells_in",
            "shells_out",
            "kernel_sizes",
            "angular_distance",
            "weights",
            "bias",
        }
        loaded, sizes, alpha = load_kernel_json(str(path))
        assert sizes == (5,) and alpha == pytest.approx(np.pi / 5)
        np.testing.assert_array_equal(loaded.weights, kernel.weights)
        np.testing.assert_array_equal(loaded.bias, kernel.bias)

    def test_inconsistent_sizes_rejected(self, tmp_path):
        path = tmp_path / "kernel.json"
        doc = {
            "shells_in": 1,
            "shells_out": 1,
            "kernel_sizes": [4],
            "angular_distance": 0.3,
            "weights": [[[0.5, 0.5, 0.0]]],
            "bias": [0.0],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(KernelMismatchError, match="K"):
            load_kernel_json(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps({"shells_in": 1}))
        with pytest.raises(KernelMismatchError, match="missing"):
            load_kernel_json(str(path))
