import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import sphdwi
from sphdwi import dwio, lsc as lsc_mod, make_moving_average_kernel
from sphdwi.cli import main
from sphdwi.shcore import high_degree_energy_fraction

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

    def test_three_dimensional_input_exits_2(self, phantom_files, tmp_path):
        dwi = str(tmp_path / "flat.nii.gz")
        dwio.write_nifti(dwi, np.ones((3, 3, 3)))
        files = dict(phantom_files, nifti=dwi)
        assert main(fit_args(files, str(tmp_path / "x.nii"))) == 2


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

    def test_dirs_and_bvecs_mutually_exclusive(self, phantom_files, tmp_path):
        code = main(
            ["sh2signal", "--sh", phantom_files["nifti"], "--out", str(tmp_path / "x.nii")]
        )
        assert code == 2

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
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import now fails
        code = main(["bench", "--orders", "2,4", "--voxels", "50", "--repeats", "3"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.count("BLAS not pinned to one thread: threadpoolctl not installed") == 1
        assert captured.out.splitlines()[0] == "direction,order,voxels,method,seconds,max_dev"

    def test_bad_orders_exit_2(self):
        assert main(["bench", "--orders", "two"]) == 2


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


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_no_arguments_exits_2(self):
        assert main([]) == 2

    @pytest.mark.parametrize(
        "required",
        [
            ["signal2sh", "--dwi", "d", "--bvals", "b", "--bvecs", "v"],
            ["sh2signal", "--sh", "s"],
            ["lsc", "--sh", "s", "--bvals", "b", "--bvecs", "v"],
        ],
    )
    def test_threads_flag_is_gone(self, required, tmp_path, capsys):
        out = tmp_path / "out.nii"
        assert main([*required, "--out", str(out), "--threads", "2"]) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
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
