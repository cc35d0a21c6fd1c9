import sys
from collections import Counter

import numpy as np
import pytest

from sphdwi import (
    DwiVolume,
    IllPosedFitError,
    eval_basis,
    make_fit_operator,
    naive_sh_to_signal,
    naive_signal_to_sh,
    run_bench,
    signal_to_sh,
    sh_to_signal,
    unit_sphere_directions,
)
from sphdwi import bench
from sphdwi.bench import CSV_HEADER
from sphdwi.fitting import ShBasisSpec, ShVolume
from sphdwi.shcore import coeff_count


def band_limited(rng, dirs, order, nvox):
    basis = eval_basis(dirs, order)
    coeffs = rng.normal(size=(basis.shape[1], nvox)) * 0.2
    coeffs[0] = 2.0 * np.sqrt(np.pi)
    return DwiVolume(data=(basis @ coeffs).reshape(1, dirs.shape[0], nvox, 1, 1)), coeffs


class TestNaiveOracle:
    def test_matches_batched_on_100_voxels(self, rng):
        dirs = unit_sphere_directions(30)
        vol, _ = band_limited(rng, dirs, 4, 100)
        batched = signal_to_sh(vol, make_fit_operator(dirs, 4, 0.006))
        naive = naive_signal_to_sh(vol, dirs, 4, 0.006)
        assert np.max(np.abs(batched.data - naive.data)) <= 1e-12

    def test_single_voxel_close_to_batched(self, rng):
        dirs = unit_sphere_directions(30)
        vol, _ = band_limited(rng, dirs, 4, 1)
        batched = signal_to_sh(vol, make_fit_operator(dirs, 4, 0.0))
        naive = naive_signal_to_sh(vol, dirs, 4, 0.0)
        assert np.max(np.abs(batched.data - naive.data)) <= 1e-13

    def test_rank_deficient_raises_like_batched(self):
        dirs = unit_sphere_directions(30)[:6]
        vol = DwiVolume(data=np.ones((1, 6, 2, 1, 1)))
        with pytest.raises(IllPosedFitError):
            naive_signal_to_sh(vol, dirs, 4, 0.0)

    def test_eval_direction_matches_batched(self, rng):
        dirs = unit_sphere_directions(30)
        coeffs = rng.normal(size=(1, 15, 20, 1, 1))
        sh = ShVolume(data=coeffs, basis_spec=ShBasisSpec(4))
        fast = sh_to_signal(sh, dirs)
        slow = naive_sh_to_signal(sh, dirs)
        assert np.max(np.abs(fast.data - slow.data)) <= 1e-12

    def test_multi_shell_supported(self, rng):
        dirs = unit_sphere_directions(30)
        single, _ = band_limited(rng, dirs, 4, 10)
        double = DwiVolume(
            data=np.concatenate([single.data, 2.0 * single.data], axis=1), shells=2
        )
        out = naive_signal_to_sh(double, dirs, 4, 0.006)
        assert out.shells == 2 and out.data.shape[1] == 30


class TestRunBench:
    def test_row_count_and_schema(self):
        report = run_bench([2, 4], voxel_count=400, repeats=3, seed=1)
        # two directions x two orders x {batched, naive}
        assert len(report.rows) == 8
        for direction in ("signal2sh", "sh2signal"):
            for order in (2, 4):
                report.row(direction, order, "batched")
                report.row(direction, order, "naive")
        csv = report.to_csv().strip().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 9
        assert all(len(line.split(",")) == 6 for line in csv[1:])

    def test_deviation_small_and_deterministic(self):
        a = run_bench([4], voxel_count=300, repeats=3, seed=7)
        b = run_bench([4], voxel_count=300, repeats=3, seed=7)
        for row_a in a.rows:
            row_b = b.row(row_a.direction, row_a.order, row_a.method)
            assert row_a.max_dev == row_b.max_dev
            assert row_a.max_dev <= 1e-12

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_bench([4], voxel_count=10, repeats=2)

    def test_naive_oracle_runs_repeats_plus_one_times_per_order(self, monkeypatch):
        # the untimed warm-up result doubles as the reference: no extra oracle runs
        calls = {"fit": Counter(), "eval": Counter()}
        real_fit, real_eval = bench._naive_fit, bench._naive_eval

        def counting_fit(basis, *args, **kwargs):
            calls["fit"][basis.shape[1]] += 1
            return real_fit(basis, *args, **kwargs)

        def counting_eval(basis, *args, **kwargs):
            calls["eval"][basis.shape[1]] += 1
            return real_eval(basis, *args, **kwargs)

        monkeypatch.setattr(bench, "_naive_fit", counting_fit)
        monkeypatch.setattr(bench, "_naive_eval", counting_eval)
        repeats = 4
        report = run_bench([2, 4], voxel_count=80, repeats=repeats, seed=3)
        expected = {coeff_count(2): repeats + 1, coeff_count(4): repeats + 1}
        assert calls["fit"] == expected
        assert calls["eval"] == expected
        assert all(r.max_dev <= 1e-12 for r in report.rows)

    def test_blas_pinning_reported_when_threadpoolctl_missing(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import now fails
        with bench._single_thread_blas() as pinned:
            assert pinned is False
        report = run_bench([2], voxel_count=60, repeats=3, seed=0)
        assert report.blas_pinned is False
        assert report.to_csv().splitlines()[0] == CSV_HEADER

    def test_sixteen_rows_for_four_orders(self):
        report = run_bench([2, 4, 6, 8], voxel_count=120, repeats=3, seed=2)
        assert len(report.rows) == 16
        assert {r.method for r in report.rows} == {"batched", "naive"}
