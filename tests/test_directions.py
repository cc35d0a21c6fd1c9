import numpy as np
import pytest

from sphdwi.directions import SUPPORTED_ORDERS, unit_sphere_directions
from sphdwi.shcore import coeff_count, eval_basis


@pytest.mark.parametrize("n, order", sorted(SUPPORTED_ORDERS.items()))
def test_table_has_full_rank_at_its_supported_order(n, order):
    table = unit_sphere_directions(n)
    assert table.shape == (n, 3)
    np.testing.assert_allclose(np.linalg.norm(table, axis=1), 1.0, atol=1e-12)
    design = eval_basis(table, order)
    assert design.shape == (n, coeff_count(order))
    smallest = np.linalg.svd(design, compute_uv=False)[-1]
    assert smallest > 1e-6
