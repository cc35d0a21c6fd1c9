import errno
import gzip
import json
import os
import resource
import stat
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import sphdwi
from sphdwi import (
    ShBasisSpec,
    ShVolume,
    build_lsc_geometry,
    dwio,
    lsc as lsc_mod,
    lsc_forward,
    make_fit_operator,
    make_moving_average_kernel,
    normalize_b0,
    sh_to_signal,
    signal_to_sh,
)
from sphdwi import cli, fitting
from sphdwi.cli import main
from sphdwi.errors import (
    GradientParseError,
    IllPosedFitError,
    KernelMismatchError,
    MissingB0Error,
    NiftiDatatypeError,
    NiftiError,
    NiftiMagicError,
    NiftiTruncatedError,
    ShapeError,
    SphdwiError,
)
from sphdwi.shcore import high_degree_energy_fraction

from conftest import corrupt_gzip_member

PI_OVER_5 = "0.6283185307"


@pytest.fixture
def phantom_files(tmp_path):
    code = main(
        [
            "phantom",
            "--kind", "bandlimited",
            "--grid", "4,4,3",
            "--dirs", "30",
            "--seed", "9",
            "--out-prefix", str(tmp_path / "ph"),
        ]
    )
    assert code == 0
    return {
        "nifti": str(tmp_path / "ph.nii.gz"),
        "bvals": str(tmp_path / "ph.bvals"),
        "bvecs": str(tmp_path / "ph.bvecs"),
        "truth": str(tmp_path / "ph_truth.npy"),
    }


def fit_args(files, out, extra=()):
    return [
        "signal2sh",
        "--dwi", files["nifti"],
        "--bvals", files["bvals"],
        "--bvecs", files["bvecs"],
        "--order", "4",
        "--lambda", "0",
        "--out", out,
        *extra,
    ]


class TestSignal2Sh:
    def test_writes_r_volumes(self, phantom_files, tmp_path, capsys):
        out = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, out)) == 0
        data, _, _ = dwio.read_nifti(out)
        assert data.shape[3] == 15
        err = capsys.readouterr().err
        assert "R=15" in err and "cond=" in err

    @pytest.mark.parametrize("zeroed", [0, 3])
    def test_reports_the_voxels_the_b0_rule_excluded(self, phantom_files, tmp_path, capsys,
                                                     zeroed):
        raw, _, _ = dwio.read_nifti(phantom_files["nifti"])
        for voxel in [(0, 0, 0), (1, 2, 0), (3, 3, 2)][:zeroed]:
            raw[(*voxel, 0)] = 0.0  # the phantom's one b0 volume comes first
        dwi = str(tmp_path / "zeroed.nii")
        dwio.write_nifti(dwi, raw, dtype=np.float64)
        out = str(tmp_path / "sh.nii")
        assert main(fit_args(dict(phantom_files, nifti=dwi), out)) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"b0: {zeroed} of 48 voxels excluded (mean b0 at or below 1e-6 of its maximum)")

    def test_unknown_shell_exits_2_listing_available(self, phantom_files, tmp_path, capsys):
        out = str(tmp_path / "sh.nii.gz")
        code = main(fit_args(phantom_files, out, extra=["--shell", "2000"]))
        assert code == 2
        assert "1000" in capsys.readouterr().err

    @pytest.mark.parametrize("shells", [("1000", "1000"), ("1000", "990")])
    def test_repeated_shell_exits_2_naming_both(self, phantom_files, tmp_path, capsys, shells):
        out = tmp_path / "sh.nii.gz"
        extra = ["--shell", shells[0], "--shell", shells[1]]
        assert main(fit_args(phantom_files, str(out), extra=extra)) == 2
        err = capsys.readouterr().err
        assert f"b={shells[0]} and b={shells[1]} both select the b=1000 shell" in err
        assert not out.exists()

    def test_missing_file_exits_4(self, phantom_files, tmp_path):
        args = fit_args(phantom_files, str(tmp_path / "o.nii"))
        args[args.index("--dwi") + 1] = str(tmp_path / "nope.nii.gz")
        assert main(args) == 4

    def test_underdetermined_exits_3(self, phantom_files, tmp_path):
        args = fit_args(phantom_files, str(tmp_path / "o.nii"))
        args[args.index("--order") + 1] = "8"  # R=45 > 30 dirs at lambda 0
        assert main(args) == 3

    def test_ill_posed_fit_names_its_shell(self, tmp_path, capsys):
        # b=1000 has 30 directions and b=2000 60, so at order 8 and lambda 0
        # only b=1000 has fewer than R = 45; b=3000's 60 directions are 30
        # distinct ones twice, so its system is rank deficient, and it is the
        # second shell of the b=2000/b=3000 pair
        d30, d60 = sphdwi.unit_sphere_directions(30), sphdwi.unit_sphere_directions(60)
        bvals = np.array([0.0] + [1000.0] * 30 + [2000.0] * 60 + [3000.0] * 60)
        dirs = np.vstack([np.zeros((1, 3)), d30, d60, d30, d30])
        dwi = str(tmp_path / "dwi.nii")
        dwio.write_nifti(dwi, np.full((2, 2, 2, bvals.size), 100.0))
        files = {"nifti": dwi, "bvals": str(tmp_path / "g.bvals"),
                 "bvecs": str(tmp_path / "g.bvecs")}
        dwio.write_bvals_bvecs(bvals, dirs, files["bvals"], files["bvecs"])
        out = tmp_path / "sh.nii"

        def fit(*shells):
            extra = [arg for b in shells for arg in ("--shell", b)]
            args = fit_args(files, str(out), extra=extra)
            args[args.index("--order") + 1] = "8"
            return main(args), capsys.readouterr().err

        assert fit("1000") == (3, "sphdwi: shell b=1000: unregularized fit needs at least "
                                  "R = 45 directions, got N = 30 (cond = inf)\n")
        assert not out.exists()
        code, err = fit("2000", "3000")
        assert code == 3 and err.startswith("sphdwi: shell b=3000: fit system is numerically "
                                            "rank deficient (N = 60, R = 45, cond = ")
        assert fit("2000")[0] == 0  # the 60-direction shell alone fits

    def test_affine_propagates_to_output(self, phantom_files, tmp_path):
        affine = np.array(
            [
                [2.0, 0.0, 0.0, -7.5],
                [0.0, 1.5, 0.0, 3.0],
                [0.0, 0.0, 2.0, -1.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        raw, _, _ = dwio.read_nifti(phantom_files["nifti"])
        dwi = str(tmp_path / "aff.nii.gz")
        dwio.write_nifti(dwi, raw, affine=affine, dtype=np.float64)
        files = dict(phantom_files, nifti=dwi)
        out = str(tmp_path / "sh_aff.nii.gz")
        assert main(fit_args(files, out)) == 0
        _, got, _ = dwio.read_nifti(out)
        np.testing.assert_allclose(got, affine, atol=1e-6)

    def test_three_dimensional_input_exits_2(self, phantom_files, tmp_path, capsys):
        flat = str(tmp_path / "flat.nii.gz")
        dwio.write_nifti(flat, np.ones((3, 3, 3)))
        out = tmp_path / "x.nii"
        for args in (
            fit_args(dict(phantom_files, nifti=flat), str(out)),
            lsc_args(phantom_files, flat, str(out)),
            eval_args(phantom_files, flat, str(out)),
        ):
            assert main(args) == 2, args[0]
            assert "expected a 4-D volume, got 3-D" in capsys.readouterr().err
            assert not out.exists()

    def test_b0_only_acquisition_exits_2(self, tmp_path, capsys):
        dwi = str(tmp_path / "b0.nii")
        dwio.write_nifti(dwi, np.ones((2, 2, 2, 3)))
        bvals, bvecs = str(tmp_path / "b0.bvals"), str(tmp_path / "b0.bvecs")
        dwio.write_bvals_bvecs(np.zeros(3), np.zeros((3, 3)), bvals, bvecs)
        out = tmp_path / "sh.nii"
        files = {"nifti": dwi, "bvals": bvals, "bvecs": bvecs}
        assert main(fit_args(files, str(out))) == 2
        assert "no diffusion-weighted shells selected" in capsys.readouterr().err
        assert not out.exists()


class TestSh2Signal:
    def test_resample_to_sixty_directions(self, phantom_files, tmp_path):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        dirs_path = str(tmp_path / "dirs60.txt")
        from sphdwi import unit_sphere_directions

        np.savetxt(dirs_path, unit_sphere_directions(60))
        out = str(tmp_path / "sig60.nii.gz")
        code = main(
            ["sh2signal", "--sh", sh_path, "--dirs", dirs_path, "--order", "4", "--out", out]
        )
        assert code == 0
        data, _, _ = dwio.read_nifti(out)
        assert data.shape[3] == 60

    def test_wrong_order_exits_2_naming_expected(self, phantom_files, tmp_path, capsys):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        dirs_path = str(tmp_path / "d.txt")
        np.savetxt(dirs_path, np.eye(3))
        code = main(
            ["sh2signal", "--sh", sh_path, "--dirs", dirs_path, "--order", "6", "--out",
             str(tmp_path / "x.nii")]
        )
        assert code == 2
        assert "28" in capsys.readouterr().err

    def test_ragged_dirs_file_exits_2_naming_widths(self, phantom_files, tmp_path, capsys):
        sh_path = str(tmp_path / "sh.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        dirs_path = tmp_path / "ragged.txt"
        dirs_path.write_text("1 0 0\n0 1\n0 0 1\n")
        out = tmp_path / "x.nii"
        code = main(["sh2signal", "--sh", sh_path, "--dirs", str(dirs_path), "--order", "4",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(dirs_path) in err and "row widths [2, 3]" in err
        assert not out.exists()

    def test_dirs_and_bvecs_mutually_exclusive(self, phantom_files, tmp_path, capsys):
        dirs_path = str(tmp_path / "d.txt")
        np.savetxt(dirs_path, np.eye(3))
        out = tmp_path / "x.nii"
        command = ["sh2signal", "--sh", phantom_files["nifti"], "--order", "4", "--out", str(out)]
        with_dirs = ["--dirs", dirs_path]
        cases = [
            ([], "give either --dirs"),
            # --shell 5000 names no shell of the scheme: it must not be silently ignored
            ([*with_dirs, "--bvals", phantom_files["bvals"], "--shell", "5000"],
             "does not combine with --bvals, --shell"),
            ([*with_dirs, "--bvals", phantom_files["bvals"]], "does not combine with --bvals"),
            ([*with_dirs, "--bvecs", phantom_files["bvecs"]], "does not combine with --bvecs"),
            ([*with_dirs, "--shell", "1000"], "does not combine with --shell"),
            (["--bvecs", phantom_files["bvecs"], "--shell", "1000"], "--bvecs needs --bvals"),
        ]
        for extra, message in cases:
            assert main([*command, *extra]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_too_many_dirs_exit_2_before_any_chunk(self, phantom_files, tmp_path, capsys,
                                                   monkeypatch, rng):
        sh_path = str(tmp_path / "sh.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        dirs_path = str(tmp_path / "d.txt")
        np.savetxt(dirs_path, rng.normal(size=(40_000, 3)))

        def step(*args):
            raise AssertionError("sh_to_signal ran for an output NIfTI-1 cannot store")

        monkeypatch.setattr(cli, "sh_to_signal", step)
        before = sorted(tmp_path.iterdir())
        for out in ("x.nii", "x.nii.gz"):
            code = main(["sh2signal", "--sh", sh_path, "--dirs", dirs_path, "--order", "4",
                         "--out", str(tmp_path / out)])
            assert code == 2
            assert "axis 3 has length 40000" in capsys.readouterr().err
            assert sorted(tmp_path.iterdir()) == before

    def test_missing_order_exits_2_without_output(self, tmp_path, capsys):
        """An order-8 file read without --order is not taken as 3 shells of order 4."""
        prefix = str(tmp_path / "ph")
        assert main(["phantom", "--grid", "4,4,3", "--dirs", "60", "--order", "8",
                     "--out-prefix", prefix]) == 0
        grad = ["--bvals", prefix + ".bvals", "--bvecs", prefix + ".bvecs"]
        sh_path = str(tmp_path / "sh.nii")
        assert main(["signal2sh", "--dwi", prefix + ".nii.gz", *grad, "--order", "8",
                     "--out", sh_path]) == 0
        out = tmp_path / "signal.nii"
        evaluate = ["sh2signal", "--sh", sh_path, *grad, "--shell", "1000", "--out", str(out)]
        assert main(evaluate) == 2
        assert "required: --order" in capsys.readouterr().err
        assert not out.exists()
        assert main([*evaluate, "--order", "8"]) == 0
        assert dwio.read_nifti(str(out))[0].shape == (4, 4, 3, 60)

    def test_repeated_shell_exits_2_with_count(self, phantom_files, tmp_path, capsys):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        out = tmp_path / "back.nii.gz"
        code = main(
            [
                "sh2signal", "--sh", sh_path,
                "--bvals", phantom_files["bvals"],
                "--bvecs", phantom_files["bvecs"],
                "--shell", "1000", "--shell", "1000",
                "--order", "4",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_round_trip_through_files(self, phantom_files, tmp_path):
        """SH evaluated back at the acquisition directions returns the signal."""
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        out30 = str(tmp_path / "back30.nii.gz")
        code = main(
            [
                "sh2signal", "--sh", sh_path,
                "--bvals", phantom_files["bvals"],
                "--bvecs", phantom_files["bvecs"],
                "--shell", "1000",
                "--order", "4",
                "--out", out30,
            ]
        )
        assert code == 0
        back, _, _ = dwio.read_nifti(out30)
        raw, _, _ = dwio.read_nifti(phantom_files["nifti"])
        b0 = raw[..., 0]
        expected = raw[..., 1:] / b0[..., None]
        assert np.max(np.abs(back - expected)) <= 1e-6  # float32 files

    def test_resample_30_60_30_round_trip(self, phantom_files, tmp_path):
        """Band-limited phantom survives a 30 -> 60 -> 30 direction resample."""
        from sphdwi import unit_sphere_directions, write_bvals_bvecs

        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0

        # evaluate at 60 fresh directions
        dirs60 = unit_sphere_directions(60)
        dirs_path = str(tmp_path / "d60.txt")
        np.savetxt(dirs_path, dirs60)
        sig60 = str(tmp_path / "sig60.nii.gz")
        assert main(
            ["sh2signal", "--sh", sh_path, "--dirs", dirs_path, "--order", "4", "--out", sig60]
        ) == 0

        # dress the 60-direction signal as an acquisition (unit b0 up front)
        data60, _, _ = dwio.read_nifti(sig60)
        acq = np.concatenate([np.ones(data60.shape[:3] + (1,)), data60], axis=3)
        acq_path = str(tmp_path / "acq60.nii.gz")
        dwio.write_nifti(acq_path, acq, dtype=np.float64)
        bvals60 = np.concatenate([[0.0], np.full(60, 1000.0)])
        vecs60 = np.concatenate([np.zeros((1, 3)), dirs60], axis=0)
        write_bvals_bvecs(bvals60, vecs60, str(tmp_path / "b60"), str(tmp_path / "v60"))

        sh2 = str(tmp_path / "sh2.nii.gz")
        assert main(
            [
                "signal2sh", "--dwi", acq_path, "--bvals", str(tmp_path / "b60"),
                "--bvecs", str(tmp_path / "v60"), "--order", "4", "--lambda", "0",
                "--out", sh2,
            ]
        ) == 0
        back30 = str(tmp_path / "back30.nii.gz")
        assert main(
            [
                "sh2signal", "--sh", sh2,
                "--bvals", phantom_files["bvals"], "--bvecs", phantom_files["bvecs"],
                "--shell", "1000", "--order", "4", "--out", back30,
            ]
        ) == 0

        got, _, _ = dwio.read_nifti(back30)
        raw, _, _ = dwio.read_nifti(phantom_files["nifti"])
        original = raw[..., 1:] / raw[..., :1]
        assert np.max(np.abs(got - original)) <= 1e-6


class TestLsc:
    def test_moving_average_reduces_energy(self, phantom_files, tmp_path, capsys):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        out = str(tmp_path / "smooth.nii.gz")
        code = main(
            [
                "lsc",
                "--sh", sh_path,
                "--bvals", phantom_files["bvals"],
                "--bvecs", phantom_files["bvecs"],
                "--shell", "1000",
                "--moving-average", f"5,{PI_OVER_5}",
                "--lambda", "0",
                "--out", out,
            ]
        )
        assert code == 0
        before, _, _ = dwio.read_nifti(sh_path)
        after, _, _ = dwio.read_nifti(out)
        f_before = high_degree_energy_fraction(before.reshape(-1, 15).T, 4)
        f_after = high_degree_energy_fraction(after.reshape(-1, 15).T, 4)
        assert f_after.mean() < f_before.mean()

    def test_identity_kernel_file_round_trips_volume(self, phantom_files, tmp_path):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        kernel_path = str(tmp_path / "identity.json")
        from sphdwi import make_identity_kernel

        lsc_mod.save_kernel_json(kernel_path, make_identity_kernel([5]), [5], np.pi / 5)
        out = str(tmp_path / "ident.nii.gz")
        code = main(
            [
                "lsc",
                "--sh", sh_path,
                "--bvals", phantom_files["bvals"],
                "--bvecs", phantom_files["bvecs"],
                "--shell", "1000",
                "--kernel", kernel_path,
                "--lambda", "0",
                "--out", out,
            ]
        )
        assert code == 0
        a, _, _ = dwio.read_nifti(sh_path)
        b, _, _ = dwio.read_nifti(out)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_two_shell_kernel_on_single_shell_exits_2(self, phantom_files, tmp_path):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        kernel_path = str(tmp_path / "two.json")
        lsc_mod.save_kernel_json(
            kernel_path, make_moving_average_kernel([5], shells_in=2, shells_out=2), [5], 0.6
        )
        code = main(
            [
                "lsc",
                "--sh", sh_path,
                "--bvals", phantom_files["bvals"],
                "--bvecs", phantom_files["bvecs"],
                "--shell", "1000",
                "--kernel", kernel_path,
                "--out", str(tmp_path / "x.nii"),
            ]
        )
        assert code == 2

    def test_two_shells_resolving_to_one_exit_2(self, phantom_files, tmp_path, capsys):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        data, affine, _ = dwio.read_nifti(sh_path)
        doubled = str(tmp_path / "doubled.nii.gz")  # 2 x 15 volumes fit a 2-shell kernel
        dwio.write_nifti(doubled, np.concatenate([data, data], axis=3), affine=affine)
        out = tmp_path / "smooth.nii.gz"
        code = main(
            [
                "lsc",
                "--sh", doubled,
                "--bvals", phantom_files["bvals"],
                "--bvecs", phantom_files["bvecs"],
                "--shell", "1000", "--shell", "990",
                "--moving-average", f"5,{PI_OVER_5}",
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "b=1000 and b=990 both select the b=1000 shell" in capsys.readouterr().err
        assert not out.exists()

    def test_unequal_shell_sizes_without_shell_exit_2(self, phantom_files, tmp_path, capsys):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        bvals = np.concatenate([[0.0], np.full(30, 1000.0), np.full(20, 2000.0)])
        dirs = np.concatenate([np.zeros((1, 3)), sphdwi.unit_sphere_directions(30),
                               sphdwi.unit_sphere_directions(30)[:20]])
        grad = [str(tmp_path / "uneven.bvals"), str(tmp_path / "uneven.bvecs")]
        dwio.write_bvals_bvecs(bvals, dirs, *grad)
        out = tmp_path / "smooth.nii.gz"
        code = main(["lsc", "--sh", sh_path, "--bvals", grad[0], "--bvecs", grad[1],
                     "--moving-average", f"5,{PI_OVER_5}", "--out", str(out)])
        assert code == 2
        assert "b=1000: 30, b=2000: 20" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"shells_in": 1,', "not valid JSON"),  # a string is the file's text as it is
            (5, "JSON object"),
            ({"kernel_sizes": None}, "kernel_sizes"),
            # truncated to 4, this size would match the 5 weights and run
            ({"kernel_sizes": [4.7], "weights": [[[0.2] * 5]]}, "kernel_sizes"),
            ({"kernel_sizes": []}, "kernel_sizes"),
            ({"shells_in": 0}, "shells_in"),
            ({"shells_out": 1.5}, "shells_out"),
            ({"angular_distance": None}, "angular_distance"),
            ({"angular_distance": [0.6]}, "angular_distance"),
            ({"angular_distance": "0.6"}, "angular_distance"),
            # a bool is an int to Python, and True would run as 1 radian
            ({"angular_distance": True}, "angular_distance"),
            ({"angular_distance": 0}, "angular_distance"),
            ({"angular_distance": -0.6}, "angular_distance"),
            ({"angular_distance": float("nan")}, "angular_distance"),
            ({"angular_distance": float("inf")}, "angular_distance"),
            ({"angular_distance": 10**400}, "angular_distance"),
            # (1, 1, 6) weights for a kernel that declares 2 input shells
            ({"shells_in": 2}, "weights shape (1, 1, 6) does not match declared shells"),
        ],
        ids=["not-json", "not-an-object", "null-sizes", "float-size", "empty-sizes",
             "zero-shells-in", "float-shells-out", "null-alpha", "list-alpha", "string-alpha",
             "bool-alpha", "zero-alpha", "negative-alpha", "nan-alpha", "inf-alpha",
             "huge-int-alpha", "weights-vs-shells"],
    )
    def test_malformed_kernel_json_exits_2(self, phantom_files, tmp_path, capsys, doc, field):
        sh_path = str(tmp_path / "sh.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        valid = {"shells_in": 1, "shells_out": 1, "kernel_sizes": [5],
                 "angular_distance": float(PI_OVER_5), "weights": [[[1 / 6] * 6]], "bias": [0.0]}
        kernel_path = tmp_path / "kernel.json"
        if isinstance(doc, dict):
            doc = {**valid, **doc}
        kernel_path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        out = tmp_path / "x.nii"
        args = lsc_args(phantom_files, sh_path, str(out))
        at = args.index("--moving-average")
        args[at : at + 2] = ["--kernel", str(kernel_path)]
        assert main(args) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["5", "5,0.6,0.7", "five,0.6"])
    def test_malformed_moving_average_exits_2(self, phantom_files, tmp_path, capsys, value):
        out = tmp_path / "x.nii"
        args = lsc_args(phantom_files, phantom_files["nifti"], str(out))
        args[args.index("--moving-average") + 1] = value
        assert main(args) == 2
        assert f"--moving-average expects 'N,ALPHA', got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_volume_count_fitting_no_order_exits_2(self, phantom_files, tmp_path, capsys):
        sh_path = str(tmp_path / "sh16.nii")
        dwio.write_nifti(sh_path, np.ones((2, 2, 2, 16)))  # R = 16 is no even order's count
        out = tmp_path / "x.nii"
        assert main(lsc_args(phantom_files, sh_path, str(out))) == 2
        assert "cannot infer SH order from 16 volumes and 1 shell(s)" in capsys.readouterr().err
        assert not out.exists()

    def test_order_out_writes_the_api_result(self, phantom_files, tmp_path):
        """lsc --order-out 2 on an order-4 file writes the order-2 refit, 6 volumes per shell."""
        sh_path, low_path = str(tmp_path / "sh.nii"), str(tmp_path / "low.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        assert main([*lsc_args(phantom_files, sh_path, low_path), "--order-out", "2"]) == 0
        scheme = dwio.read_bvals_bvecs(phantom_files["bvals"], phantom_files["bvecs"])
        dirs = scheme.shell_directions(1000.0)
        geom = build_lsc_geometry(dirs, (5,), float(PI_OVER_5), 4, 2, 0.0)
        low = lsc_forward(_load_sh(sh_path, 4, 1), make_moving_average_kernel([5]), geom)
        assert low.data.shape[1] == 6
        _assert_payload_equals(low_path, low)

        sig_path = str(tmp_path / "sig.nii")
        args = eval_args(phantom_files, low_path, sig_path)
        args[args.index("--order") + 1] = "2"
        assert main(args) == 0
        _assert_payload_equals(sig_path, sh_to_signal(_load_sh(low_path, 2, 1), dirs))

    def test_kernel_and_moving_average_exclusive(self, phantom_files, tmp_path):
        code = main(
            [
                "lsc",
                "--sh", phantom_files["nifti"],
                "--bvals", phantom_files["bvals"],
                "--bvecs", phantom_files["bvecs"],
                "--out", str(tmp_path / "x.nii"),
            ]
        )
        assert code == 2


class TestMultiShellPipeline:
    def test_two_shell_fit_and_lsc(self, tmp_path):
        """Two shells flow through signal2sh and a 2-in/2-out kernel as blocks."""
        import sphdwi
        from sphdwi import phantom as phantom_mod

        dirs = sphdwi.unit_sphere_directions(30)
        directions = np.concatenate([np.zeros((1, 3)), dirs, dirs], axis=0)
        bvals = np.concatenate([[0.0], np.full(30, 1000.0), np.full(30, 2000.0)])
        b0_idx, shells = dwio.detect_shells(bvals)
        scheme = dwio.GradientScheme(
            directions=directions, bvals=bvals, b0_indices=b0_idx, shells=shells
        )
        spec = phantom_mod.PhantomSpec(grid=(3, 3, 3), kind="bandlimited", seed=21)
        result = phantom_mod.make_phantom(spec, scheme, str(tmp_path / "ms"))

        sh_path = str(tmp_path / "ms_sh.nii.gz")
        code = main(
            [
                "signal2sh",
                "--dwi", result.paths["nifti"],
                "--bvals", result.paths["bvals"],
                "--bvecs", result.paths["bvecs"],
                "--order", "4", "--lambda", "0",
                "--out", sh_path,
            ]
        )
        assert code == 0
        sh_data, _, _ = dwio.read_nifti(sh_path)
        assert sh_data.shape[3] == 30  # 2 shells x R = 15

        kernel_path = str(tmp_path / "ms_kernel.json")
        lsc_mod.save_kernel_json(
            kernel_path,
            make_moving_average_kernel([5], shells_in=2, shells_out=2),
            [5],
            np.pi / 5,
        )
        out_path = str(tmp_path / "ms_out.nii.gz")
        code = main(
            [
                "lsc",
                "--sh", sh_path,
                "--bvals", result.paths["bvals"],
                "--bvecs", result.paths["bvecs"],
                "--shell", "1000", "--shell", "2000",
                "--kernel", kernel_path,
                "--lambda", "0",
                "--out", out_path,
            ]
        )
        assert code == 0
        out_data, _, _ = dwio.read_nifti(out_path)
        assert out_data.shape[3] == 30


# 3 b0 volumes interleaved among two 30-direction shells
TWO_SHELL_BVALS = ([0.0] + [1000.0] * 10 + [2000.0] * 10) * 3
# 10 b0 volumes interleaved among the same shells
MANY_B0_BVALS = ([0.0, 0.0] + [1000.0] * 6 + [2000.0] * 6) * 5
EXCLUDED_VOXEL = (-1, -1, -1)  # b0 = 0 there; the last voxel, in the tail block
POISONED_VOXEL = (1, 2, 3)
# b0 values whose mean is 0 when summed in order and 0.8 when numpy sums them
# pairwise, as it does for 8 or more contiguous values
CANCELLING_B0 = [1e16] + [1.0] * 8 + [-1e16]


def two_shell_acquisition(dest, ext=".nii", grid=(29, 29, 20), stored=np.int16,
                          slope=2.0, inter=10.0, poison=(), bvals=TWO_SHELL_BVALS):
    """Write a two-shell acquisition stored as ``stored`` with scl_slope/scl_inter.

    The default grid has 16,820 voxels: more than one I/O window of the
    CLI stream, and 436 voxels past the last full 1,024-voxel block.
    Each ``(volume, value)`` pair of ``poison`` puts ``value`` into
    POISONED_VOXEL of ``volume``.
    ``bvals`` interleaves b0 volumes with two 30-direction shells.
    """
    dest.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(606)
    bvals = np.array(bvals)
    dirs = sphdwi.unit_sphere_directions(30)
    directions = np.zeros((bvals.size, 3))
    for b in (1000.0, 2000.0):
        directions[bvals == b] = dirs
    b0 = rng.uniform(800.0, 1200.0, size=grid)
    atten = rng.uniform(0.1, 0.9, size=(*grid, bvals.size))
    atten[..., bvals == 0.0] = rng.uniform(0.97, 1.03, size=(*grid, int((bvals == 0.0).sum())))
    atten[(*EXCLUDED_VOXEL, bvals == 0.0)] = 0.0  # its diffusion values stay nonzero
    values = (b0[..., None] * atten - inter) / slope
    if np.dtype(stored).kind in "iu":
        values = np.round(values)
    values = values.astype(stored)
    for volume, value in poison:
        values[(*POISONED_VOXEL, volume)] = value
    plain = str(dest / "dwi.nii")
    dwio.write_nifti(plain, values, dtype=stored)
    blob = bytearray(open(plain, "rb").read())
    hdr = np.frombuffer(bytes(blob[:348]), dtype=dwio.HEADER_DTYPE).copy()
    hdr["scl_slope"] = slope
    hdr["scl_inter"] = inter
    blob[:348] = hdr.tobytes()
    path = plain + ext[len(".nii"):]
    os.unlink(plain)
    with (gzip.open if ext.endswith(".gz") else open)(path, "wb") as fh:
        fh.write(bytes(blob))
    dwio.write_bvals_bvecs(bvals, directions, str(dest / "dwi.bvals"), str(dest / "dwi.bvecs"))
    return {"dwi": path, "bvals": str(dest / "dwi.bvals"), "bvecs": str(dest / "dwi.bvecs")}


def _grad(acq):
    return ["--bvals", acq["bvals"], "--bvecs", acq["bvecs"]]


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float32).view(np.uint32)


def _assert_payload_equals(path, vol):
    """The file's float32 payload is exactly the float32 cast of a 5-D API volume.

    The payload is decoded here from the bytes after vox_offset, not by dwio's reader.
    """
    blob = open(path, "rb").read()
    if path.endswith(".gz"):
        blob = gzip.decompress(blob)
    hdr = np.frombuffer(blob[:348], dtype=dwio.HEADER_DTYPE)[0]
    assert int(hdr["datatype"]) == 16  # float32, little-endian as sphdwi writes it
    raw = np.frombuffer(blob, dtype="<f4", offset=int(hdr["vox_offset"]))
    raw = raw.reshape(vol.data.shape[1], -1)
    # vol.data[0] is (C, X, Y, Z): its F-order (C, V) reshape is the payload matrix
    np.testing.assert_array_equal(_bits(raw), _bits(vol.data[0].reshape(len(raw), -1, order="F")))


def _load_sh(path, order, shells):
    data, _, _ = dwio.read_nifti(path)
    return ShVolume(np.moveaxis(data, 3, 0)[None], ShBasisSpec(order), shells=shells)


def _mean_fraction(vol):
    fracs = [
        high_degree_energy_fraction(vol.shell_coeffs(s)[0], vol.basis_spec.order, axis=0)
        for s in range(vol.shells)
    ]
    return float(np.mean(fracs))


class TestStreamedCommandsMatchApi:
    """The CLI streams the NIfTI payload in voxel blocks; its files must hold
    exactly the float32 cast of what the 5-D API computes on the same data."""

    @pytest.mark.parametrize("ext, ten_b0", [(".nii", False), (".nii.gz", False), (".nii", True)],
                             ids=[".nii", ".nii.gz", "ten-b0"])
    def test_chain_is_bitwise_the_api(self, tmp_path, capsys, ext, ten_b0):
        if ten_b0:
            # a float32 output hides a 1-ulp change of the float64 b0 mean, so
            # one voxel's b0 values cancel: excluded only if both sides sum
            # them in order
            b0_volumes = np.flatnonzero(np.array(MANY_B0_BVALS) == 0.0)
            stored = [(v - 10.0) / 2.0 for v in CANCELLING_B0]  # exact under slope 2, inter 10
            acq = two_shell_acquisition(tmp_path / "in", stored=np.float64, slope=2.0, inter=10.0,
                                        bvals=MANY_B0_BVALS, poison=list(zip(b0_volumes, stored)))
        else:
            acq = two_shell_acquisition(tmp_path / "in", ext)
        shells = ["--shell", "1000", "--shell", "2000"]
        sh_path, lsc_path, sig_path = (str(tmp_path / f"{n}{ext}") for n in ("sh", "lsc", "sig"))
        assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), *shells, "--order", "4",
                     "--lambda", "0.006", "--out", sh_path]) == 0
        # a cross-shell kernel with a bias, so the LSC offset is not zero
        kernel = lsc_mod.LscKernel(
            weights=np.random.default_rng(7).uniform(0.0, 0.2, size=(2, 2, 6)),
            bias=np.array([0.05, -0.02]),
        )
        kernel_path = str(tmp_path / "kernel.json")
        lsc_mod.save_kernel_json(kernel_path, kernel, [5], float(PI_OVER_5))
        assert main(["lsc", "--sh", sh_path, *_grad(acq), *shells, "--kernel", kernel_path,
                     "--lambda", "0.006", "--out", lsc_path]) == 0
        err = capsys.readouterr().err
        assert main(["sh2signal", "--sh", lsc_path, *_grad(acq), "--shell", "2000",
                     "--order", "4", "--out", sig_path]) == 0

        scheme = dwio.read_bvals_bvecs(acq["bvals"], acq["bvecs"])
        data, _, _ = dwio.read_nifti(acq["dwi"])
        vol, excluded = normalize_b0(data, scheme, shells=[1000.0, 2000.0])
        assert excluded.sum() == (2 if ten_b0 else 1) and excluded[EXCLUDED_VOXEL]
        ops = [make_fit_operator(vol.scheme.shell_directions(s.bvalue), 4, 0.006)
               for s in vol.scheme.shells]
        _assert_payload_equals(sh_path, signal_to_sh(vol, ops))

        sh_in = _load_sh(sh_path, 4, 2)
        geom = build_lsc_geometry(scheme.shell_directions(1000.0), (5,), float(PI_OVER_5),
                                  4, 4, 0.006)
        smooth = lsc_forward(sh_in, lsc_mod.load_kernel_json(kernel_path)[0], geom)
        _assert_payload_equals(lsc_path, smooth)
        line = f"mean l>=2 energy fraction: {_mean_fraction(sh_in):.4f} -> {_mean_fraction(smooth):.4f}"
        assert line in err.splitlines()

        signal = sh_to_signal(_load_sh(lsc_path, 4, 2), scheme.shell_directions(2000.0))
        _assert_payload_equals(sig_path, signal)

    def test_b0_threshold_spans_every_window(self, tmp_path, capsys):
        # the largest mean b0 (1e8) is in the last I/O window, and POISONED_VOXEL,
        # in the first, has a mean of 50: above 1e-6 of the first window's
        # largest mean (about 1e-3), at or below 1e-6 of the volume's (100)
        b0_volumes = np.flatnonzero(np.array(TWO_SHELL_BVALS) == 0.0)
        acq = two_shell_acquisition(tmp_path / "in", stored=np.float32, slope=1.0, inter=0.0,
                                    poison=[(v, 50.0) for v in b0_volumes])
        data, affine, _ = dwio.read_nifti(acq["dwi"])
        data[(-2, -1, -1, b0_volumes)] = 1e8
        dwio.write_nifti(acq["dwi"], data, affine=affine, dtype=np.float32)
        mean = data[..., b0_volumes].mean(axis=3).reshape(-1, order="F")
        first = np.ravel_multi_index(POISONED_VOXEL, data.shape[:3], order="F")
        assert first < dwio._STREAM <= data[..., 0].size - 2
        assert 1e-6 * mean[: dwio._STREAM].max() < mean[first] <= 1e-6 * mean.max()

        sh_path = str(tmp_path / "sh.nii")
        assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--order", "4",
                     "--out", sh_path]) == 0
        scheme = dwio.read_bvals_bvecs(acq["bvals"], acq["bvecs"])
        vol, excluded = normalize_b0(data, scheme)
        assert excluded[POISONED_VOXEL] and excluded[EXCLUDED_VOXEL] and excluded.sum() == 2
        ops = [make_fit_operator(vol.scheme.shell_directions(s.bvalue), 4, 0.006)
               for s in vol.scheme.shells]
        _assert_payload_equals(sh_path, signal_to_sh(vol, ops))
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"b0: 2 of {data[..., 0].size} voxels excluded "
            "(mean b0 at or below 1e-6 of its maximum)")

    def test_uint16_input_writes_the_bytes_of_its_float32_copy(self, tmp_path):
        # datatype 512 with a scaling; the excluded voxel stores 2, which scales to b0 = 0
        acq = two_shell_acquisition(tmp_path / "u16", stored=np.uint16, slope=2.0, inter=-4.0)
        data, affine, header = dwio.read_nifti(acq["dwi"])
        assert int(header["datatype"]) == 512
        copy = str(tmp_path / "f32" / "dwi.nii")
        (tmp_path / "f32").mkdir()
        dwio.write_nifti(copy, data, affine=affine, dtype=np.float32)  # integers below 2^24: exact
        outputs = []
        for dwi, out in ((acq["dwi"], tmp_path / "u16" / "sh.nii"), (copy, tmp_path / "sh.nii")):
            assert main(["signal2sh", "--dwi", dwi, *_grad(acq), "--order", "4",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestStagesBuiltOnce:
    """Each volume command builds its stage matrix once, not once per chunk."""

    @staticmethod
    def _counted(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def _four_chunk_sh(tmp_path):
        """An order-4 SH volume of 65,536 voxels (four chunks) and a 30-direction shell."""
        dirs = sphdwi.unit_sphere_directions(30)
        sh_path = str(tmp_path / "sh.nii")
        rng = np.random.default_rng(8)
        dwio.write_nifti(sh_path, rng.normal(size=(64, 64, 16, 15)).astype(np.float32))
        grad = ["--bvals", str(tmp_path / "g.bvals"), "--bvecs", str(tmp_path / "g.bvecs")]
        dwio.write_bvals_bvecs(np.array([0.0] + [1000.0] * 30), np.vstack([[0.0, 0.0, 0.0], dirs]),
                               grad[1], grad[3])
        return sh_path, grad

    def test_sh2signal_evaluates_the_basis_once(self, tmp_path, monkeypatch):
        sh_path, grad = self._four_chunk_sh(tmp_path)
        calls = self._counted(monkeypatch, cli, "eval_basis")
        assert main(["sh2signal", "--sh", sh_path, *grad, "--shell", "1000", "--order", "4",
                     "--out", str(tmp_path / "sig.nii")]) == 0
        assert len(calls) == 1

    def test_lsc_folds_its_operator_once(self, tmp_path, monkeypatch):
        sh_path, grad = self._four_chunk_sh(tmp_path)
        calls = self._counted(monkeypatch, lsc_mod, "lsc_operator")
        assert main(["lsc", "--sh", sh_path, *grad, "--shell", "1000",
                     "--moving-average", f"5,{PI_OVER_5}", "--out", str(tmp_path / "lsc.nii")]) == 0
        assert len(calls) == 1


class TestStreamedFiles:
    @pytest.mark.parametrize("command, ext", [
        *[pytest.param(command, ".nii", id=command) for command in ("lsc", "sh2signal")],
        *[pytest.param(command, ".nii.gz", id=f"{command}-gz") for command in ("lsc", "sh2signal")],
    ])
    def test_out_equal_to_input_writes_the_same_bytes(self, tmp_path, command, ext):
        # two chunks: the input is still being read while the output is written
        acq = two_shell_acquisition(tmp_path / "in")
        sh_path = str(tmp_path / f"sh{ext}")
        assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--shell", "1000",
                     "--order", "4", "--out", sh_path]) == 0

        def args(out):
            if command == "lsc":
                return ["lsc", "--sh", sh_path, *_grad(acq), "--shell", "1000",
                        "--moving-average", f"5,{PI_OVER_5}", "--out", out]
            return ["sh2signal", "--sh", sh_path, *_grad(acq), "--shell", "1000",
                    "--order", "4", "--out", out]

        # the same name in another directory, since a gzip header stores the name
        separate = tmp_path / "separate" / f"sh{ext}"
        separate.parent.mkdir()
        assert main(args(str(separate))) == 0
        assert main(args(sh_path)) == 0
        assert (tmp_path / f"sh{ext}").read_bytes() == separate.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "separate", f"sh{ext}"]
        assert [p.name for p in separate.parent.iterdir()] == [f"sh{ext}"]

    @staticmethod
    def _small_pieces(monkeypatch, ext):
        """Inflate and deflate in 64 KiB pieces on two threads when ``ext`` is .nii.gz.

        The pieces are bounded whatever the volume, but the real ones (4 and
        1 MiB per thread) outweigh these small volumes, which would then not
        show whether a .nii.gz payload is held whole.
        """
        if ext == ".nii.gz":
            monkeypatch.setattr(dwio, "_IO_CHUNK", 1 << 16)
            monkeypatch.setattr(dwio, "_GZIP_SLICE", 1 << 16)
            monkeypatch.setattr(dwio, "_thread_count", lambda: 2)

    @pytest.mark.parametrize("ext", [".nii", ".nii.gz"], ids=["nii", "gz"])
    def test_sh2signal_memory_does_not_grow_with_the_volume(self, tmp_path, monkeypatch, ext):
        self._small_pieces(monkeypatch, ext)
        dirs = tmp_path / "dirs.txt"
        np.savetxt(dirs, sphdwi.unit_sphere_directions(30))
        rng = np.random.default_rng(4)

        def peak(grid):
            sh_path = str(tmp_path / f"sh{ext}")
            dwio.write_nifti(sh_path, rng.normal(size=(*grid, 15)).astype(np.float32))
            args = ["sh2signal", "--sh", sh_path, "--dirs", str(dirs), "--order", "4",
                    "--out", str(tmp_path / f"signal{ext}")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((32, 32, 16))  # first use: imports and caches
        one_chunk = peak((32, 32, 16))  # 16,384 voxels
        four_chunks = peak((64, 64, 16))
        assert four_chunks < 1.5 * one_chunk, (one_chunk, four_chunks)

    @pytest.mark.parametrize("ext", [".nii", ".nii.gz"], ids=["nii", "gz"])
    def test_signal2sh_memory_does_not_grow_with_the_volume(self, tmp_path, monkeypatch, ext):
        # 2,048-column windows, so the buffers (about 0.8 MB here) do not hide
        # a per-voxel array: 9 bytes a voxel would add 0.4 MB from one grid to the next
        self._small_pieces(monkeypatch, ext)
        monkeypatch.setattr(dwio, "_STREAM", 2 * fitting._BLOCK)
        dirs = sphdwi.unit_sphere_directions(30)
        grad = [str(tmp_path / "g.bvals"), str(tmp_path / "g.bvecs")]
        dwio.write_bvals_bvecs(np.array([0.0] + [1000.0] * 30),
                               np.vstack([[0.0, 0.0, 0.0], dirs]), *grad)
        rng = np.random.default_rng(6)

        def peak(grid):
            dwi = str(tmp_path / f"dwi{ext}")
            dwio.write_nifti(dwi, rng.uniform(100.0, 200.0, size=(*grid, 31)))
            args = ["signal2sh", "--dwi", dwi, "--bvals", grad[0], "--bvecs", grad[1],
                    "--out", str(tmp_path / f"sh{ext}")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((32, 32, 16))  # first use: imports and caches
        small = peak((32, 32, 16))  # 16,384 voxels
        large = peak((64, 64, 16))
        assert large < 1.1 * small, (small, large)

    @pytest.mark.parametrize("ext", [".nii", ".nii.gz"], ids=["nii", "gz"])
    def test_signal2sh_memory_does_not_grow_with_the_b0_count(self, tmp_path, monkeypatch, ext):
        self._small_pieces(monkeypatch, ext)
        dirs = sphdwi.unit_sphere_directions(30)
        rng = np.random.default_rng(5)

        def peak(n_b0):
            prefix = str(tmp_path / f"b0x{n_b0}")
            bvals = np.array([0.0] * n_b0 + [1000.0] * 30)
            dwio.write_bvals_bvecs(bvals, np.vstack([np.zeros((n_b0, 3)), dirs]),
                                   prefix + ".bvals", prefix + ".bvecs")
            dwio.write_nifti(prefix + ext,
                             rng.uniform(100.0, 200.0, size=(64, 64, 16, bvals.size)))
            args = ["signal2sh", "--dwi", prefix + ext, "--bvals", prefix + ".bvals",
                    "--bvecs", prefix + ".bvecs", "--out", str(tmp_path / f"sh{ext}")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first use: imports and caches
        one = peak(1)
        twenty = peak(20)  # whole-volume b0 rows would add 20 x 65,536 x 12 bytes
        assert twenty < 1.05 * one, (one, twenty)

    def test_window_is_a_whole_number_of_blocks(self):
        # every float64 block then starts on a fitting._BLOCK boundary and is
        # one BLAS call per channel group, so the CLI's bits are the API's
        assert dwio._STREAM % fitting._BLOCK == 0

    @pytest.mark.parametrize("ext", [".nii", ".nii.gz"], ids=["nii", "gz"])
    @pytest.mark.parametrize("command", ["signal2sh", "sh2signal"])
    def test_peak_is_the_stored_and_float32_windows_and_two_float64_blocks(
            self, tmp_path, monkeypatch, command, ext):
        # 60 rows in and 45 out (or the reverse): the reference chain's stage sizes
        self._small_pieces(monkeypatch, ext)
        grid = (64, 64, 16)  # 65,536 voxels: four windows
        dirs = sphdwi.unit_sphere_directions(60)
        rng = np.random.default_rng(12)
        inp, out = str(tmp_path / f"in{ext}"), str(tmp_path / f"out{ext}")
        if command == "signal2sh":
            grad = ["--bvals", str(tmp_path / "g.bvals"), "--bvecs", str(tmp_path / "g.bvecs")]
            dwio.write_bvals_bvecs(np.array([0.0] + [1000.0] * 60),
                                   np.vstack([[0.0, 0.0, 0.0], dirs]), grad[1], grad[3])
            dwio.write_nifti(inp, rng.uniform(100.0, 200.0, size=(*grid, 61)))
            args = ["signal2sh", "--dwi", inp, *grad, "--order", "8", "--out", out]
            rows_in, rows_out = 60, 45
        else:
            np.savetxt(tmp_path / "dirs.txt", dirs)
            dwio.write_nifti(inp, rng.normal(size=(*grid, 45)))
            args = ["sh2signal", "--sh", inp, "--dirs", str(tmp_path / "dirs.txt"),
                    "--order", "8", "--out", out]
            rows_in, rows_out = 45, 60
        assert main(args) == 0  # first use: imports and caches
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # float32 in and out, one window each, and one float64 block in and out
        buffers = (rows_in * 4 + rows_out * 4) * dwio._STREAM + (rows_in + rows_out) * fitting._BLOCK * 8
        assert peak <= 1.25 * buffers + 2**20, (peak, buffers)


class TestGzipInput:
    @pytest.mark.parametrize("io_chunk", [64, 1 << 22], ids=["pieces", "one-piece"])
    def test_bytes_after_the_member_read_like_the_plain_file(self, phantom_files, tmp_path,
                                                             monkeypatch, io_chunk):
        # the inflate takes the payload's bytes and stops: what follows may be anything
        monkeypatch.setattr(dwio, "_IO_CHUNK", io_chunk)
        packed = open(phantom_files["nifti"], "rb").read()
        inputs = {"plain": gzip.decompress(packed), "trailing": packed + b"not a gzip member"}
        outputs = []
        for name, blob in inputs.items():
            (tmp_path / name).mkdir()
            dwi = tmp_path / name / ("dwi.nii" if name == "plain" else "dwi.nii.gz")
            dwi.write_bytes(blob)
            out = tmp_path / name / "sh.nii"
            assert main(fit_args({**phantom_files, "nifti": str(dwi)}, str(out))) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        left = sorted(p.name for p in (tmp_path / "trailing").iterdir())
        assert left == ["dwi.nii.gz", "sh.nii"]  # no spill file

    @pytest.mark.parametrize("fault", ["flipped-bit", "wrong-isize"])
    def test_failed_trailer_check_exits_4_naming_the_input(self, phantom_files, tmp_path, capsys,
                                                           fault):
        dwi = tmp_path / "bad.nii.gz"
        plain = gzip.decompress(open(phantom_files["nifti"], "rb").read())
        dwi.write_bytes(corrupt_gzip_member(plain, fault))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(fit_args({**phantom_files, "nifti": str(dwi)}, str(out_dir / "sh.nii"))) == 4
        check = "incorrect data check" if fault == "flipped-bit" else "incorrect length check"
        err = capsys.readouterr().err
        assert f"sphdwi: {dwi}: unreadable voxel data (" in err and f"{check})\n" in err
        assert list(out_dir.iterdir()) == []


class TestNonFiniteInput:
    def test_nan_in_selected_shell_exits_2(self, tmp_path, capsys):
        acq = two_shell_acquisition(tmp_path, stored=np.float32, slope=1.0, inter=0.0,
                                    poison=[(TWO_SHELL_BVALS.index(1000.0), np.nan)])
        out = tmp_path / "sh.nii"
        code = main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--shell", "1000",
                     "--out", str(out)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_in_unselected_shell_is_ignored(self, tmp_path):
        outputs = []
        for name, poison in (("clean", []), ("nan", [(TWO_SHELL_BVALS.index(2000.0), np.nan)])):
            acq = two_shell_acquisition(tmp_path / name, stored=np.float32, slope=1.0,
                                        inter=0.0, poison=poison)
            out = tmp_path / name / "sh.nii"
            assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--shell", "1000",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["signal2sh", "lsc"])
    def test_non_finite_lambda_exits_2(self, phantom_files, tmp_path, capsys, command, value):
        sh_path = str(tmp_path / "sh.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        out = tmp_path / "x.nii"
        args = (fit_args(phantom_files, str(out)) if command == "signal2sh"
                else lsc_args(phantom_files, sh_path, str(out)))
        args[args.index("--lambda") + 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        assert "regularization weight must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_b0_exits_2_without_output(self, tmp_path, capsys):
        # the infinite b0 once set the exclusion threshold to inf, and every
        # voxel of the output came out 0 with exit status 0
        acq = two_shell_acquisition(tmp_path, grid=(6, 6, 4), stored=np.float32, slope=1.0,
                                    inter=0.0, poison=[(0, np.inf)])
        out = tmp_path / "sh.nii"
        code = main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--shell", "1000",
                     "--shell", "2000", "--out", str(out)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("command", ["lsc", "sh2signal"])
    def test_non_finite_sh_exits_2_naming_file_volume_and_voxel(self, phantom_files, tmp_path,
                                                                  capsys, command, value):
        sh_path = str(tmp_path / "sh.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        raw, affine, _ = dwio.read_nifti(sh_path)
        raw[3, 2, 1, 7] = value
        raw[0, 3, 2, 9] = value  # an earlier voxel of a later volume
        dwio.write_nifti(sh_path, raw, affine=affine)
        out = tmp_path / "out.nii"
        args = (lsc_args(phantom_files, sh_path, str(out)) if command == "lsc"
                else eval_args(phantom_files, sh_path, str(out)))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{sh_path}: non-finite value in volume 7 at voxel (3, 2, 1)" in err
        assert "energy fraction" not in err
        assert not out.exists()

    def test_non_finite_dwi_message_names_file_volume_and_voxel(self, tmp_path, capsys):
        volume = TWO_SHELL_BVALS.index(2000.0)
        acq = two_shell_acquisition(tmp_path, stored=np.float32, slope=1.0, inter=0.0,
                                    poison=[(volume, np.inf)])
        assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq),
                     "--out", str(tmp_path / "sh.nii")]) == 2
        voxel = ", ".join(str(i) for i in POISONED_VOXEL)
        assert (f"{acq['dwi']}: non-finite value in volume {volume} at voxel ({voxel})"
                in capsys.readouterr().err)

    def test_b0_division_overflow_exits_2_naming_volume_and_voxel(self, tmp_path, capsys):
        # every b0 mean is 1e-5, above the cutoff; 1e305 / 1e-5 overflows float64
        bvals = np.array([0.0] + [1000.0] * 30)
        values = np.full((4, 4, 3, bvals.size), 0.5e-5)
        values[..., 0] = 1e-5
        values[2, 1, 0, 7] = 1e305
        dwi = str(tmp_path / "dwi.nii")
        dwio.write_nifti(dwi, values, dtype=np.float64)
        grad = ["--bvals", str(tmp_path / "dwi.bvals"), "--bvecs", str(tmp_path / "dwi.bvecs")]
        dirs = np.vstack([[0.0, 0.0, 0.0], sphdwi.unit_sphere_directions(30)])
        dwio.write_bvals_bvecs(bvals, dirs, grad[1], grad[3])
        out = tmp_path / "sh.nii"
        assert main(["signal2sh", "--dwi", dwi, *grad, "--out", str(out)]) == 2
        assert f"{dwi}: non-finite value in volume 7 at voxel (2, 1, 0)" in capsys.readouterr().err
        assert not out.exists()

    def test_b0_division_overflow_prints_no_numpy_warning(self, tmp_path, capsys):
        # the case above, with warnings turned into errors: only sphdwi's lines reach stderr
        bvals = np.array([0.0] + [1000.0] * 30)
        values = np.full((4, 4, 3, bvals.size), 0.5e-5)
        values[..., 0] = 1e-5
        values[2, 1, 0, 7] = 1e305
        dwi = str(tmp_path / "dwi.nii")
        dwio.write_nifti(dwi, values, dtype=np.float64)
        grad = ["--bvals", str(tmp_path / "dwi.bvals"), "--bvecs", str(tmp_path / "dwi.bvecs")]
        dirs = np.vstack([[0.0, 0.0, 0.0], sphdwi.unit_sphere_directions(30)])
        dwio.write_bvals_bvecs(bvals, dirs, grad[1], grad[3])
        out = tmp_path / "sh.nii"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["signal2sh", "--dwi", dwi, *grad, "--out", str(out)]) == 2
        info, *errors = capsys.readouterr().err.splitlines()
        assert info.startswith("R=15 cond=")  # printed before the input is read
        assert errors == [f"sphdwi: {dwi}: non-finite value in volume 7 at voxel (2, 1, 0)"]
        assert not out.exists()

    # 21,853 voxels: a window of 16 float64 blocks, then one of 5 blocks and a partial one
    BLOCKS_GRID = (41, 41, 13)

    @pytest.mark.parametrize(
        "column, decoy",
        [(1023, 1024), (1024, 2048), (16384 + 5120 + 7, 16384 + 5120 + 300)],
        ids=["last-of-block-0", "first-of-block-1", "partial-block-of-last-window"],
    )
    def test_nan_is_named_by_its_block(self, tmp_path, capsys, column, decoy):
        # the message names the first voxel holding a non-finite value, then
        # its lowest volume; the decoy is in a lower volume, but in a later
        # block or at a later voxel
        sh = np.random.default_rng(13).normal(size=(*self.BLOCKS_GRID, 15)).astype(np.float32)
        voxel = np.unravel_index(column, self.BLOCKS_GRID, order="F")
        sh[(*voxel, 9)] = np.nan
        lower = 2 if decoy // fitting._BLOCK != column // fitting._BLOCK else 11
        sh[(*np.unravel_index(decoy, self.BLOCKS_GRID, order="F"), lower)] = np.nan
        sh_path = str(tmp_path / "sh.nii")
        dwio.write_nifti(sh_path, sh)
        np.savetxt(tmp_path / "dirs.txt", sphdwi.unit_sphere_directions(30))
        out = tmp_path / "signal.nii"
        assert main(["sh2signal", "--sh", sh_path, "--dirs", str(tmp_path / "dirs.txt"),
                     "--order", "4", "--out", str(out)]) == 2
        named = ", ".join(str(int(i)) for i in voxel)
        assert (f"{sh_path}: non-finite value in volume 9 at voxel ({named})"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dirs.txt", "sh.nii"]

    def test_nan_is_named_by_its_first_voxel_then_its_lowest_volume(self, tmp_path, capsys):
        # volume 11 at column c, volume 2 at column c + 5, in one 1,024-column
        # block: the first voxel in file order is named, not the lowest volume
        column = 16384 + 1024 + 100
        sh = np.random.default_rng(15).normal(size=(*self.BLOCKS_GRID, 15)).astype(np.float32)
        voxel = np.unravel_index(column, self.BLOCKS_GRID, order="F")
        sh[(*voxel, 11)] = np.nan
        sh[(*np.unravel_index(column + 5, self.BLOCKS_GRID, order="F"), 2)] = np.inf
        sh_path = str(tmp_path / "sh.nii")
        dwio.write_nifti(sh_path, sh)
        np.savetxt(tmp_path / "dirs.txt", sphdwi.unit_sphere_directions(30))
        out = tmp_path / "signal.nii"
        assert main(["sh2signal", "--sh", sh_path, "--dirs", str(tmp_path / "dirs.txt"),
                     "--order", "4", "--out", str(out)]) == 2
        named = ", ".join(str(int(i)) for i in voxel)
        assert capsys.readouterr().err == (
            f"sphdwi: {sh_path}: non-finite value in volume 11 at voxel ({named})\n")
        assert not out.exists()

    def test_value_beyond_float32_in_a_later_block_exits_2(self, tmp_path, capsys):
        # the third block of the second window; earlier windows are already written
        sh = np.random.default_rng(14).normal(size=(*self.BLOCKS_GRID, 15))
        sh[(*np.unravel_index(16384 + 2048 + 5, self.BLOCKS_GRID, order="F"), 3)] = 1e40
        sh_path = str(tmp_path / "sh.nii")
        dwio.write_nifti(sh_path, sh, dtype=np.float64)
        np.savetxt(tmp_path / "dirs.txt", sphdwi.unit_sphere_directions(30))
        out = tmp_path / "signal.nii"
        assert main(["sh2signal", "--sh", sh_path, "--dirs", str(tmp_path / "dirs.txt"),
                     "--order", "4", "--out", str(out)]) == 2
        assert f"{out}: the values do not all fit on-disk dtype float32" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dirs.txt", "sh.nii"]

    def test_sh_value_beyond_float32_output_exits_2(self, tmp_path, capsys):
        # the float64 signal is finite, but its float32 cast would hold inf
        sh = np.random.default_rng(3).normal(size=(4, 4, 3, 15))
        sh[1, 2, 0, 3] = 1e40
        sh_path = str(tmp_path / "sh.nii")
        dwio.write_nifti(sh_path, sh, dtype=np.float64)
        np.savetxt(tmp_path / "dirs.txt", sphdwi.unit_sphere_directions(30))
        out = tmp_path / "signal.nii"
        assert main(["sh2signal", "--sh", sh_path, "--dirs", str(tmp_path / "dirs.txt"),
                     "--order", "4", "--out", str(out)]) == 2
        assert f"{out}: the values do not all fit on-disk dtype float32" in capsys.readouterr().err
        assert not out.exists()

    # a signalling NaN: any arithmetic on it, or a cast, raises numpy's "invalid" flag
    SIGNALLING_NAN = {np.float32: 0x7F800001, np.float64: 0x7FF0000000000001}

    def _signalling_nan_file(self, tmp_path, dtype, slope, command, volume=5):
        """The input of ``command`` on a 4x4x3 grid, stored as ``dtype`` with scl_slope ``slope``.

        ``volume`` holds a signalling NaN at voxel (1, 2, 0). Returns the
        input's path and the command's arguments.
        """
        grid, rng = (4, 4, 3), np.random.default_rng(27)
        grad = ["--bvals", str(tmp_path / "g.bvals"), "--bvecs", str(tmp_path / "g.bvecs")]
        dwio.write_bvals_bvecs(np.array([0.0] + [1000.0] * 30),
                               np.vstack([np.zeros(3), sphdwi.unit_sphere_directions(30)]),
                               grad[1], grad[3])
        path = str(tmp_path / "in.nii")
        values = (rng.uniform(100.0, 200.0, size=(*grid, 31)) if command == "signal2sh"
                  else rng.normal(size=(*grid, 15)))
        dwio.write_nifti(path, values, dtype=dtype)
        args = {"signal2sh": ["--dwi", path, *grad],
                "lsc": ["--sh", path, *grad, "--moving-average", f"5,{PI_OVER_5}"],
                "sh2signal": ["--sh", path, *grad, "--shell", "1000", "--order", "4"]}[command]
        itemsize = np.dtype(dtype).itemsize
        with open(path, "r+b") as fh:
            fh.seek(352 + np.ravel_multi_index((1, 2, 0, volume), values.shape, order="F") * itemsize)
            fh.write(self.SIGNALLING_NAN[dtype].to_bytes(itemsize, "little"))
            fh.seek(112)  # scl_slope
            fh.write(np.float32(slope).tobytes())
        return path, [command, *args, "--out", str(tmp_path / "out.nii")]

    @pytest.mark.parametrize("slope", [1.0, 0.0], ids=["scaled", "as-stored"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("command, volume", [("signal2sh", 0), ("signal2sh", 5), ("lsc", 5),
                                                 ("sh2signal", 5)],
                             ids=["signal2sh-b0", "signal2sh", "lsc", "sh2signal"])
    def test_signalling_nan_exits_2_with_only_sphdwi_lines(self, tmp_path, capsys, command,
                                                          volume, dtype, slope):
        # numpy once warned "invalid value encountered in multiply" (or "in cast"
        # when the values are taken as stored) before the exit-2 line
        path, args = self._signalling_nan_file(tmp_path, dtype, slope, command, volume)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(args) == 2
        lines = capsys.readouterr().err.splitlines()
        if command == "signal2sh":
            assert lines.pop(0).startswith("R=15 cond=")
        assert lines == [
            "sphdwi: b0 volumes contain non-finite values" if volume == 0
            else f"sphdwi: {path}: non-finite value in volume 5 at voxel (1, 2, 0)"
        ]
        assert not (tmp_path / "out.nii").exists()

    def test_scaled_value_beyond_float64_exits_2_with_only_sphdwi_lines(self, tmp_path, capsys):
        # 1e300 * scl_slope 1e10 overflows in convert, where numpy once warned
        sh = np.random.default_rng(28).normal(size=(4, 4, 3, 15))
        sh[1, 2, 0, 5] = 1e300
        sh_path = str(tmp_path / "sh.nii")
        dwio.write_nifti(sh_path, sh, dtype=np.float64)
        with open(sh_path, "r+b") as fh:
            fh.seek(112)  # scl_slope
            fh.write(np.float32(1e10).tobytes())
        np.savetxt(tmp_path / "dirs.txt", sphdwi.unit_sphere_directions(30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sh2signal", "--sh", sh_path, "--dirs", str(tmp_path / "dirs.txt"),
                         "--order", "4", "--out", str(tmp_path / "out.nii")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"sphdwi: {sh_path}: non-finite value in volume 5 at voxel (1, 2, 0)"]

    @pytest.mark.parametrize("slope", [1.0, 0.0], ids=["scaled", "as-stored"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_read_nifti_reads_a_signalling_nan_without_a_warning(self, tmp_path, dtype, slope):
        path, _ = self._signalling_nan_file(tmp_path, dtype, slope, "sh2signal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data, _, _ = dwio.read_nifti(path)
        assert np.isnan(data[1, 2, 0, 5])
        assert np.isfinite(np.delete(data.reshape(-1, 15, order="F"), 1 + 2 * 4, axis=0)).all()

    def test_nan_at_excluded_voxel_is_ignored(self, tmp_path):
        # the b0 rule zeroes an excluded voxel, so its diffusion values are never used
        outputs = []
        volume = TWO_SHELL_BVALS.index(1000.0)
        for name, poison in (("clean", []), ("nan", [(volume, np.nan)])):
            acq = two_shell_acquisition(tmp_path / name, stored=np.float32, slope=1.0,
                                        inter=0.0)
            raw, _, _ = dwio.read_nifti(acq["dwi"])
            for vol_index, value in poison:
                raw[(*EXCLUDED_VOXEL, vol_index)] = value
            dwio.write_nifti(acq["dwi"], raw, dtype=np.float32)
            out = tmp_path / name / "sh.nii"
            assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--shell", "1000",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def lsc_args(files, sh, out):
    return [
        "lsc", "--sh", sh,
        "--bvals", files["bvals"], "--bvecs", files["bvecs"], "--shell", "1000",
        "--moving-average", f"5,{PI_OVER_5}", "--lambda", "0",
        "--out", out,
    ]


def eval_args(files, sh, out):
    return [
        "sh2signal", "--sh", sh,
        "--bvals", files["bvals"], "--bvecs", files["bvecs"], "--shell", "1000",
        "--order", "4",
        "--out", out,
    ]


class TestReproducibleOutput:
    COMMANDS = {
        "signal2sh": lambda files, sh, out: fit_args(files, out),
        "lsc": lsc_args,
        "sh2signal": eval_args,
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_two_runs_write_identical_gzip(self, command, phantom_files, tmp_path):
        sh_path = str(tmp_path / "sh.nii.gz")
        assert main(fit_args(phantom_files, sh_path)) == 0
        blobs = []
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            out = tmp_path / run / "out.nii.gz"
            assert main(self.COMMANDS[command](phantom_files, sh_path, str(out))) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestBenchCommand:
    def test_csv_to_stdout(self, capsys):
        code = main(["bench", "--orders", "2", "--voxels", "200", "--repeats", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "direction,order,voxels,method,seconds,max_dev"
        assert len(lines) == 5

    def test_csv_to_file(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main(
            ["bench", "--orders", "2", "--voxels", "150", "--repeats", "3", "--out", out]
        )
        assert code == 0
        text = open(out).read().strip().splitlines()
        assert len(text) == 5

    def test_unpinned_blas_reported_once_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(sphdwi.bench, "_openblas_thread_controls", lambda: [])  # MKL, say
        code = main(["bench", "--orders", "2,4", "--voxels", "50", "--repeats", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.count(
            "BLAS not pinned to one thread: no OpenBLAS thread control found") == 1
        assert captured.out.splitlines()[0] == "direction,order,voxels,method,seconds,max_dev"

    def test_bad_orders_exit_2(self):
        assert main(["bench", "--orders", "two"]) == 2

    @pytest.mark.parametrize("to_file", [False, True])
    def test_no_orders_exit_2_writing_nothing(self, to_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        extra = ["--out", str(out)] if to_file else []
        assert main(["bench", "--orders", ",", "--voxels", "10", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least one SH order" in captured.err
        assert list(tmp_path.iterdir()) == []


ROW_WRITERS = ("signal2sh", "lsc", "sh2signal")


class TestAtomicOutput:
    @pytest.mark.parametrize("command", ["signal2sh", "bench"])
    def test_failed_rename_exits_4_leaving_no_file(self, command, phantom_files, tmp_path,
                                                   monkeypatch, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        if command == "signal2sh":
            args = fit_args(phantom_files, str(out_dir / "sh.nii.gz"))
        else:
            args = ["bench", "--orders", "2", "--voxels", "50", "--repeats", "3",
                    "--out", str(out_dir / "bench.csv")]

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(args) == 4
        assert "rename refused" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("out, message", [
        (os.path.join("nodir", "out.nii.gz"), "output directory does not exist"),
        ("", "--out names no file"),
        ("missing" + os.sep, "--out names no file"),
        (os.path.join("missing", os.curdir), "--out names no file"),
    ], ids=["missing-directory", "empty", "trailing-separator", "trailing-dot"])
    @pytest.mark.parametrize("command", ["signal2sh", "lsc", "sh2signal", "bench"])
    def test_missing_out_directory_exits_4_before_reading(self, command, out, message,
                                                          phantom_files, tmp_path, monkeypatch,
                                                          capsys):
        sh_path = phantom_files["nifti"]  # any 4-D file: nothing may read it
        monkeypatch.chdir(tmp_path)
        args = {
            "signal2sh": fit_args(phantom_files, out),
            "lsc": ["lsc", "--sh", sh_path, "--bvals", phantom_files["bvals"],
                    "--bvecs", phantom_files["bvecs"], "--moving-average", f"5,{PI_OVER_5}",
                    "--out", out],
            "sh2signal": ["sh2signal", "--sh", sh_path, "--bvals", phantom_files["bvals"],
                          "--bvecs", phantom_files["bvecs"], "--shell", "1000",
                          "--order", "4", "--out", out],
            "bench": ["bench", "--orders", "2", "--voxels", "50", "--repeats", "3",
                      "--out", out],
        }[command]

        def no_read(path, *args, **kwargs):
            raise AssertionError(f"read {path} although --out cannot be written")

        monkeypatch.setattr(dwio, "NiftiRows", no_read)
        monkeypatch.setattr(sphdwi.bench, "run_bench", no_read)
        before = sorted(tmp_path.iterdir()), sorted(tmp_path.parent.iterdir())
        assert main(args) == 4
        assert capsys.readouterr() == ("", f"sphdwi: [Errno {errno.ENOENT}] {message}: '{out}'\n")
        assert (sorted(tmp_path.iterdir()), sorted(tmp_path.parent.iterdir())) == before

    @pytest.mark.parametrize("command", ["signal2sh", "bench"])
    def test_out_naming_a_directory_exits_4_before_reading(self, command, phantom_files,
                                                           tmp_path, monkeypatch, capsys):
        out = tmp_path / "taken"
        out.mkdir()
        args = {
            "signal2sh": fit_args(phantom_files, str(out)),
            "bench": ["bench", "--orders", "2", "--voxels", "50", "--repeats", "3",
                      "--out", str(out)],
        }[command]

        def no_read(path, *args, **kwargs):
            raise AssertionError(f"read {path} although --out cannot be written")

        monkeypatch.setattr(dwio, "NiftiRows", no_read)
        monkeypatch.setattr(sphdwi.bench, "run_bench", no_read)
        before = sorted(tmp_path.iterdir())
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err == f"sphdwi: [Errno {errno.EISDIR}] --out names a directory: '{out}'\n"
        assert sorted(tmp_path.iterdir()) == before and list(out.iterdir()) == []

    def test_failed_gzip_write_exits_4_leaving_no_file(self, phantom_files, tmp_path,
                                                       full_disk, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = str(out_dir / "sh.nii.gz")
        assert main(fit_args(phantom_files, out)) == 4
        assert f"{os.strerror(errno.ENOSPC)}: '{out}'" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command, ext", [
        *[pytest.param(command, ".nii", id=command) for command in ROW_WRITERS],
        *[pytest.param(command, ".nii.gz", id=f"{command}-gz") for command in ROW_WRITERS],
    ])
    def test_failed_row_write_exits_4_leaving_no_file(self, command, ext, phantom_files,
                                                      tmp_path, capsys, request):
        sh_path = str(tmp_path / "sh.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = str(out_dir / f"x{ext}")  # a .nii.gz fails writing its rows to the spill file
        args = {"signal2sh": fit_args(phantom_files, out),
                "lsc": lsc_args(phantom_files, sh_path, out),
                "sh2signal": eval_args(phantom_files, sh_path, out)}[command]
        request.getfixturevalue("full_disk")  # from here on, the disk is full
        assert main(args) == 4
        assert f"{os.strerror(errno.ENOSPC)}: '{out}'" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    def test_failed_input_spill_exits_4_naming_the_input(self, phantom_files, tmp_path,
                                                          monkeypatch, capsys, full_disk):
        # 64-byte inflate pieces, so the spill of this small .nii.gz meets the full disk
        monkeypatch.setattr(dwio, "_IO_CHUNK", 64)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(fit_args(phantom_files, str(out_dir / "sh.nii"))) == 4
        err = capsys.readouterr().err
        assert f"{phantom_files['nifti']}: cannot inflate into a temporary file in {out_dir}" in err
        assert os.strerror(errno.ENOSPC) in err and ".sphdwi-" not in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("ext", [".nii", ".nii.gz"])
    def test_failed_b0_spill_exits_4_naming_the_out_directory(self, tmp_path, capsys,
                                                              request, ext):
        # two blocks of plain .nii input: the b0 spill is the only spill until
        # the output, and its second block meets the full disk
        acq = two_shell_acquisition(tmp_path / "in", grid=(16, 16, 8))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        request.getfixturevalue("full_disk")  # from here on, the disk is full
        assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--shell", "1000",
                     "--out", str(out_dir / f"sh{ext}")]) == 4
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"sphdwi: cannot write the mean b0 spill file in {out_dir} "
            f"({os.strerror(errno.ENOSPC)})")
        assert list(out_dir.iterdir()) == []

    def test_short_b0_spill_exits_4_without_output(self, tmp_path, capsys, monkeypatch):
        acq = two_shell_acquisition(tmp_path / "in", grid=(16, 16, 8))
        real = cli._mean_b0

        def lose_the_last_mean(vol, b0_idx, spill):
            real(vol, b0_idx, spill)
            spill._fh.truncate(spill._fh.tell() - 8)

        monkeypatch.setattr(cli, "_mean_b0", lose_the_last_mean)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["signal2sh", "--dwi", acq["dwi"], *_grad(acq), "--shell", "1000",
                     "--out", str(out_dir / "sh.nii")]) == 4
        # the output's temporary file was open, so the message names the output as well
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"sphdwi: {out_dir / 'sh.nii'}: the mean b0 spill file in {out_dir} reads back "
            "short: 8184 of 8192 bytes at voxel 1024")
        assert list(out_dir.iterdir()) == []

    def test_csv_mode_follows_umask(self, tmp_path):
        out = tmp_path / "bench.csv"
        old = os.umask(0o027)
        try:
            code = main(["bench", "--orders", "2", "--voxels", "50", "--repeats", "3",
                         "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == ["bench.csv"]
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640


class TestPhantomCommand:
    def test_bad_grid_exits_2(self, tmp_path):
        assert main(["phantom", "--grid", "4x4x4", "--out-prefix", str(tmp_path / "p")]) == 2

    def test_axis_over_nifti_limit_exits_2_writing_nothing(self, tmp_path, capsys):
        code = main(["phantom", "--grid", "40000,1,1", "--out-prefix", str(tmp_path / "big")])
        assert code == 2
        assert "axis 0 has length 40000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra, message", [
        (["--bvalue", "30"], "got 30"),
        (["--noise", "nan"], "noise_sigma must be finite and >= 0, got nan"),
        (["--value", "nan", "--kind", "constant"], "value must be finite, got nan"),
        (["--n-b0", "-1"], "n_b0 must be at least 1, got -1"),
    ], ids=["bvalue", "noise", "value", "n-b0"])
    def test_bad_value_exits_2_writing_nothing(self, tmp_path, capsys, extra, message):
        assert main(["phantom", *extra, "--grid", "2,2,2", "--out-prefix", str(tmp_path / "p")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("prefix", ["", "sub/", ".", ".."])
    def test_prefix_that_names_no_file_exits_4_writing_nothing(self, tmp_path, monkeypatch, capsys,
                                                               prefix):
        (tmp_path / "work" / "sub").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "work")
        assert main(["phantom", "--grid", "2,2,2", "--out-prefix", prefix]) == 4
        assert "the output prefix names no file" in capsys.readouterr().err
        left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert left == ["work", os.path.join("work", "sub")]

    def test_constant_phantom_files(self, tmp_path):
        code = main(
            [
                "phantom", "--kind", "constant", "--grid", "2,2,2",
                "--out-prefix", str(tmp_path / "c"),
            ]
        )
        assert code == 0
        data, _, _ = dwio.read_nifti(str(tmp_path / "c.nii.gz"))
        assert data.shape == (2, 2, 2, 31)


class TestExitCodes:
    @pytest.mark.parametrize(
        "error, code",
        [
            (SphdwiError, 2),
            (ShapeError, 2),
            (MissingB0Error, 2),
            (GradientParseError, 2),
            (KernelMismatchError, 2),
            (ValueError, 2),
            (IllPosedFitError, 3),
            (NiftiError, 4),
            (NiftiMagicError, 4),
            (NiftiDatatypeError, 4),
            (NiftiTruncatedError, 4),
            (OSError, 4),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
    )
    def test_error_class_sets_the_exit_code(self, error, code, monkeypatch, capsys):
        def fail(args):
            raise error("boom")

        monkeypatch.setitem(cli._HANDLERS, "bench", fail)
        assert main(["bench"]) == code
        assert capsys.readouterr().err == "sphdwi: boom\n"


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_no_arguments_exits_2(self):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "required",
        [
            ["signal2sh", "--dwi", "d", "--bvals", "b", "--bvecs", "v"],
            ["sh2signal", "--sh", "s", "--order", "4"],
            ["lsc", "--sh", "s", "--bvals", "b", "--bvecs", "v"],
        ],
    )
    def test_threads_flag_is_gone(self, required, tmp_path, capsys):
        out = tmp_path / "out.nii"
        assert main([*required, "--out", str(out), "--threads", "2"]) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_rings_past_the_hemisphere_exit_2_before_the_input_is_opened(
            self, phantom_files, tmp_path, monkeypatch, capsys):
        # three rings 0.6 apart reach 1.8 > pi/2; the JSON itself is valid
        kernel_path = str(tmp_path / "kernel.json")
        lsc_mod.save_kernel_json(kernel_path, make_moving_average_kernel([5, 5, 5]), [5, 5, 5], 0.6)
        out = str(tmp_path / "out.nii.gz")
        args = [arg for arg in lsc_args(phantom_files, phantom_files["nifti"], out)
                if arg not in ("--moving-average", f"5,{PI_OVER_5}")]

        def no_read(*args, **kwargs):
            raise AssertionError("the input was opened")

        monkeypatch.setattr(dwio, "NiftiRows", no_read)
        assert main([*args, "--kernel", kernel_path]) == 2
        assert not os.path.exists(out)
        assert capsys.readouterr().err == (
            "sphdwi: rings must stay inside the hemisphere: need 0 < alpha and "
            "alpha * 3 < pi/2, got alpha = 0.6\n"
        )

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("signal2sh", ["--order", "3"], "SH order must be even and >= 0, got 3"),
            ("signal2sh", ["--lambda", "nan"],
             "regularization weight must be finite and >= 0, got nan"),
            ("signal2sh", ["--bvals", "{no_b0}.bvals", "--bvecs", "{no_b0}.bvecs"],
             "acquisition has no b=0 volume to normalize against"),
            ("lsc", ["--order-out", "3"], "SH order must be even and >= 0, got 3"),
            ("lsc", ["--lambda", "-1"],
             "regularization weight must be finite and >= 0, got -1.0"),
            *[("lsc", ["--moving-average", f"5,{alpha}"],
               "rings must stay inside the hemisphere: need 0 < alpha and alpha * 1 < pi/2, "
               f"got alpha = {float(alpha)}") for alpha in ("2.0", "-1", "nan")],
            ("sh2signal", ["--order", "3"], "SH order must be even and >= 0, got 3"),
        ],
        ids=["signal2sh-order", "signal2sh-lambda", "signal2sh-no-b0", "lsc-order-out",
             "lsc-lambda", "lsc-wide-ring", "lsc-negative-ring", "lsc-nan-ring",
             "sh2signal-order"],
    )
    def test_bad_flag_exits_2_before_the_input_is_opened(self, command, flags, message,
                                                         phantom_files, tmp_path, monkeypatch,
                                                         capsys):
        gz = phantom_files["nifti"]  # a .nii.gz: opening it would inflate it into a spill
        out = str(tmp_path / "out.nii.gz")
        # the phantom's gradient table without its b0 entry
        scheme = dwio.read_bvals_bvecs(phantom_files["bvals"], phantom_files["bvecs"])
        keep = scheme.bvals > dwio.B0_THRESHOLD
        no_b0 = str(tmp_path / "no_b0")
        dwio.write_bvals_bvecs(scheme.bvals[keep], scheme.directions[keep],
                               no_b0 + ".bvals", no_b0 + ".bvecs")
        flags = [flag.format(no_b0=no_b0) for flag in flags]
        args = {"signal2sh": fit_args(phantom_files, out),
                "lsc": lsc_args(phantom_files, gz, out),
                "sh2signal": eval_args(phantom_files, gz, out)}[command]
        opened = []
        real = dwio.NiftiRows

        def counting(path, *args, **kwargs):
            opened.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(dwio, "NiftiRows", counting)
        assert main([*args, *flags]) == 2  # a repeated flag's last value is the one used
        assert opened == []
        assert not os.path.exists(out)
        assert capsys.readouterr().err == f"sphdwi: {message}\n"

    @pytest.mark.parametrize("command", ["signal2sh", "lsc", "sh2signal"])
    def test_nan_shell_exits_2_writing_nothing(self, command, phantom_files, tmp_path, capsys):
        # NaN is near no shell; it was once taken as the first shell, with exit 0
        sh_path = str(tmp_path / "sh.nii")
        assert main(fit_args(phantom_files, sh_path)) == 0
        out = tmp_path / "out.nii"
        args = {"signal2sh": fit_args(phantom_files, str(out), extra=["--shell", "1000"]),
                "lsc": lsc_args(phantom_files, sh_path, str(out)),
                "sh2signal": eval_args(phantom_files, sh_path, str(out))}[command]
        args[args.index("--shell") + 1] = "nan"
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err.endswith(
            "sphdwi: no shell near b=nan; available shells: 1000\n")
        assert not out.exists()

    def test_compare_backends_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--orders", "2", "--voxels", "50", "--repeats", "3",
             "--compare-backends", "--out", str(out)]
        )
        assert code == 2
        assert "unrecognized arguments: --compare-backends" in capsys.readouterr().err
        assert not out.exists()


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphdwi.__file__)))
    probe = "import sys, sphdwi.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_thread_pool():
    # the .gz writer imports concurrent.futures (about 12 ms) when it first runs
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphdwi.__file__)))
    probe = (
        "import sys, sphdwi.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


class TestModuleEntryPoint:
    """``python -m sphdwi`` runs cli.entry, which exits with main()'s code."""

    @staticmethod
    def run(*args, cwd, **popen):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sphdwi.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "sphdwi", *args],
            env={**os.environ, "PYTHONPATH": src},
            cwd=cwd,
            capture_output=True,
            text=True,
            **popen,
        )

    def test_help_exits_0(self, tmp_path):
        proc = self.run("--help", cwd=tmp_path)
        assert proc.returncode == 0
        assert "usage: sphdwi" in proc.stdout

    @pytest.mark.parametrize("grid", ["40000,1,1", "40000,40000,1"])
    def test_bad_axis_phantom_exits_2(self, tmp_path, grid):
        # 40000 x 40000 voxels would be 370 GiB: refused before it is generated, so a
        # 3 GB address-space cap costs nothing, and keeps a regression from filling memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        proc = self.run("phantom", "--grid", grid, "--out-prefix", "big", cwd=tmp_path,
                        preexec_fn=cap)
        assert proc.returncode == 2
        assert "axis 0 has length 40000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []
