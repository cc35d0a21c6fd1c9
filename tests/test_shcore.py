import numpy as np
import pytest

from sphdwi import shcore

from conftest import fibonacci_sphere, random_unit_vectors, reference_basis


class TestIndexPacking:
    def test_first_coefficient(self):
        assert shcore.sh_index(0, 0) == 0

    def test_packing_formula(self):
        assert shcore.sh_index(2, -2) == 1
        assert shcore.sh_index(4, 4) == 14

    def test_round_trip_all_valid_pairs(self):
        for l in range(0, 13, 2):
            for m in range(-l, l + 1):
                j = shcore.sh_index(l, m)
                assert shcore.sh_degree_order(j) == (l, m)

    def test_bijection_onto_range(self):
        order = 8
        r = shcore.coeff_count(order)
        seen = {shcore.sh_index(l, m) for l in range(0, order + 1, 2) for m in range(-l, l + 1)}
        assert seen == set(range(r))

    @pytest.mark.parametrize("l,m", [(1, 0), (3, 2), (-2, 0), (2, 3), (4, -5)])
    def test_invalid_arguments(self, l, m):
        with pytest.raises(ValueError):
            shcore.sh_index(l, m)

    def test_coeff_count_values(self):
        assert [shcore.coeff_count(o) for o in (0, 2, 4, 6, 8)] == [1, 6, 15, 28, 45]


class TestEvalBasis:
    def test_constant_term(self, rng):
        dirs = random_unit_vectors(rng, 40)
        basis = shcore.eval_basis(dirs, 4)
        np.testing.assert_allclose(basis[:, 0], 0.28209479, atol=1e-8)

    def test_pole_kills_azimuthal_terms(self):
        row = shcore.eval_basis([[0.0, 0.0, 1.0]], 4)[0]
        for l in (2, 4):
            for m in range(-l, l + 1):
                if m != 0:
                    assert row[shcore.sh_index(l, m)] == 0.0

    def test_against_scipy_oracle(self, rng):
        dirs = random_unit_vectors(rng, 300)
        for order in (0, 2, 4, 8):
            ours = shcore.eval_basis(dirs, order)
            ref = reference_basis(dirs, order)
            np.testing.assert_allclose(ours, ref, atol=1e-13)

    def test_monte_carlo_orthonormality(self):
        # (1/N) B^T B approximates the (1/4pi)-scaled Gram of an orthonormal set
        dirs = fibonacci_sphere(64)
        basis = shcore.eval_basis(dirs, 4)
        gram = basis.T @ basis / 64.0
        target = np.eye(15) / (4.0 * np.pi)
        assert np.max(np.abs(gram - target)) < 5e-2

    def test_antipodal_parity_is_exact(self, rng):
        dirs = random_unit_vectors(rng, 500)
        plus = shcore.eval_basis(dirs, 8)
        minus = shcore.eval_basis(-dirs, 8)
        assert np.array_equal(plus, minus)

    def test_addition_theorem(self, rng):
        dirs = random_unit_vectors(rng, 50)
        basis = shcore.eval_basis(dirs, 8)
        for l in (0, 2, 4, 6, 8):
            idx = [shcore.sh_index(l, m) for m in range(-l, l + 1)]
            total = np.sum(basis[:, idx] ** 2, axis=1)
            np.testing.assert_allclose(total, (2 * l + 1) / (4 * np.pi), atol=1e-10)

    def test_empty_direction_list_rejected(self):
        with pytest.raises(ValueError):
            shcore.eval_basis(np.empty((0, 3)), 4)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            shcore.eval_basis([[0, 0, 1]], 3)


class TestDirections:
    def test_normalization(self):
        dirs = shcore.as_unit_directions([[3.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero direction"):
            shcore.as_unit_directions([[0.0, 0.0, 0.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            shcore.as_unit_directions([[np.nan, 0.0, 1.0]])


class TestLaplaceBeltrami:
    def test_order_zero(self):
        np.testing.assert_array_equal(shcore.laplace_beltrami_diag(0), [0.0])

    def test_degree_two_entries(self):
        diag = shcore.laplace_beltrami_diag(2)
        for m in range(-2, 3):
            assert diag[shcore.sh_index(2, m)] == 36.0

    def test_degree_four_entries(self):
        diag = shcore.laplace_beltrami_diag(4)
        for m in range(-4, 5):
            assert diag[shcore.sh_index(4, m)] == 400.0


class TestTangentBasis:
    @pytest.mark.parametrize("u", [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, -0.48, 0.64)])
    def test_orthonormal_right_handed(self, u):
        e1, e2 = shcore.tangent_basis(u)
        uu = np.asarray(u) / np.linalg.norm(u)
        assert abs(e1 @ e2) <= 1e-12
        assert abs(e1 @ uu) <= 1e-12
        assert abs(e2 @ uu) <= 1e-12
        np.testing.assert_allclose(np.cross(e1, e2), uu, atol=1e-12)
        np.testing.assert_allclose([np.linalg.norm(e1), np.linalg.norm(e2)], 1.0, atol=1e-12)

    def test_determinism(self):
        a = shcore.tangent_basis((0.3, 0.4, 0.866025))
        b = shcore.tangent_basis((0.3, 0.4, 0.866025))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_continuity_away_from_switch(self, rng):
        # numerical sweep: 1e-3 rad perturbations move e1 by at most ~1e-2
        for _ in range(50):
            u = random_unit_vectors(rng, 1)[0]
            if abs(abs(u[2]) - 0.9) < 0.02:
                continue  # reference switch region is explicitly exempt
            axis = random_unit_vectors(rng, 1)[0]
            axis -= (axis @ u) * u
            axis /= np.linalg.norm(axis)
            u_rot = np.cos(1e-3) * u + np.sin(1e-3) * axis
            e1, _ = shcore.tangent_basis(u)
            e1p, _ = shcore.tangent_basis(u_rot)
            assert np.linalg.norm(e1 - e1p) <= 1e-2


class TestRingDirections:
    def test_ring_angle_cosine_is_forced(self):
        ring = shcore.ring_directions((0.0, 0.0, 1.0), np.pi / 5, 5)
        dots = ring @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(dots, 0.8090169943749475, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(ring, axis=1), 1.0, atol=1e-12)

    def test_opposite_points_sum(self, rng):
        u = random_unit_vectors(rng, 1)[0]
        alpha = 0.4
        ring = shcore.ring_directions(u, alpha, 4)
        np.testing.assert_allclose(ring[0] + ring[2], 2.0 * np.cos(alpha) * u, atol=1e-12)

    def test_even_spacing(self):
        ring = shcore.ring_directions((0.0, 0.0, 1.0), np.pi / 5, 5)
        angles = [
            np.arccos(np.clip(ring[k] @ ring[(k + 1) % 5], -1.0, 1.0)) for k in range(5)
        ]
        np.testing.assert_allclose(angles, angles[0], atol=1e-12)

    def test_geometry_invariant_under_origin_choice(self, rng):
        # same set of origin angles and mutual spacings for any origin u
        alpha, n = 0.5, 6
        ref = shcore.ring_directions((0.0, 0.0, 1.0), alpha, n)
        ref_gram = np.sort((ref @ ref.T).round(12), axis=None)
        for _ in range(10):
            u = random_unit_vectors(rng, 1)[0]
            ring = shcore.ring_directions(u, alpha, n)
            np.testing.assert_allclose(ring @ u, np.cos(alpha), atol=1e-12)
            gram = np.sort((ring @ ring.T).round(12), axis=None)
            np.testing.assert_allclose(gram, ref_gram, atol=1e-9)

    def test_phase_origin_is_e1(self):
        u = (0.0, 0.0, 1.0)
        e1, _ = shcore.tangent_basis(u)
        ring = shcore.ring_directions(u, 0.3, 5)
        expected = np.cos(0.3) * np.asarray(u) + np.sin(0.3) * e1
        np.testing.assert_allclose(ring[0], expected, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, np.pi / 2, 2.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            shcore.ring_directions((0, 0, 1), alpha, 5)


class TestDegreeEnergies:
    def test_partition_of_total_energy(self, rng):
        coeffs = rng.normal(size=15)
        en = shcore.degree_energies(coeffs, 4)
        assert en.shape == (3,)
        np.testing.assert_allclose(en.sum(), np.sum(coeffs**2), atol=1e-12)

    @pytest.mark.parametrize(
        "order, shape, axis",
        [(4, (15,), 0), (8, (45, 1024), 0), (8, (45, 7, 5, 3), 0), (4, (30, 15), 1), (6, (7, 28, 9), 1)],
    )
    def test_equals_per_degree_mask_reference(self, rng, order, shape, axis):
        # per-degree sums of the coefficients picked by a degree mask,
        # bitwise: the arithmetic is the same, only the gathering changed
        coeffs = rng.normal(size=shape)
        moved = np.moveaxis(coeffs, axis, 0)
        degs = shcore.basis_degrees(order)
        reference = np.stack(
            [np.sum(moved[degs == l] ** 2, axis=0) for l in range(0, order + 1, 2)]
        )
        got = shcore.degree_energies(coeffs, order, axis=axis)
        np.testing.assert_array_equal(got, np.moveaxis(reference, 0, axis))

    def test_fraction_of_pure_constant_is_zero(self):
        coeffs = np.zeros(15)
        coeffs[0] = 2.0
        assert shcore.high_degree_energy_fraction(coeffs, 4) == 0.0

    @pytest.mark.parametrize(
        "order, shape, axis",
        [(4, (15,), 0), (8, (45, 1024), 0), (8, (45, 7, 5, 3), 0), (4, (30, 15), 1), (6, (7, 28, 9), 1),
         (4, (3, 15), -1)],
    )
    def test_fraction_is_one_minus_degree_zero_share(self, rng, order, shape, axis):
        # 1 - c_0^2 / sum c^2 is the l >= 2 share of the per-degree energies
        coeffs = rng.normal(size=shape)
        en = np.moveaxis(shcore.degree_energies(coeffs, order, axis=axis), axis, 0)
        reference = 1.0 - en[0] / en.sum(axis=0)
        got = shcore.high_degree_energy_fraction(coeffs, order, axis=axis)
        assert got.shape == reference.shape
        np.testing.assert_allclose(got, reference, rtol=0.0, atol=1e-12)
        assert np.all((got >= 0.0) & (got <= 1.0))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_fraction_of_zero_and_of_no_constant(self, axis):
        # three voxels: all zero; c_0 = 0 and every other coefficient set; c_0 only
        coeffs = np.zeros((28, 3))
        coeffs[1:, 1] = 0.5
        coeffs[0, 2] = -3.0
        got = shcore.high_degree_energy_fraction(coeffs if axis == 0 else coeffs.T, 6, axis=axis)
        np.testing.assert_array_equal(got, [0.0, 1.0, 0.0])

    def test_fraction_checks_coefficient_count(self):
        with pytest.raises(ValueError, match="expected 15 coefficients along axis 1"):
            shcore.high_degree_energy_fraction(np.ones((2, 14)), 4, axis=1)
