import csv
import io
import warnings

import numpy as np
import pytest

from crisscross.cli import main
from crisscross.selftest import run_selftest
from crisscross.tensor_core import save_tensor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err

class TestBench:
    def test_check_paper_passes(self, capsys):
        code, out, _ = run(capsys, "bench", "--h", "97", "--w", "97",
                           "--check-paper")
        assert code == 0
        for token in ("8.269", "16.537", "24.806", "108.422"):
            assert token in out

    def test_degenerate_grid(self, capsys):
        code, out, _ = run(capsys, "bench", "--h", "1", "--w", "1")
        assert code == 0
        assert "RCCA(R=1)" in out

    def test_csv_output_parses(self, capsys):
        code, out, _ = run(capsys, "bench", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["method", "loops", "h", "w", "t", "c", "c_reduced",
                           "gflops", "attn_mb", "ratio_vs_nl"]
        assert len(rows) >= 4

    def test_3d_row_appears_with_temporal_extent(self, capsys):
        code, out, _ = run(capsys, "bench", "--h", "8", "--w", "8", "--t", "4")
        assert code == 0
        assert "RCCA3D" in out

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--bogus"])
        assert exc.value.code == 2


class TestGradcheck:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seeds", "1")
        assert code == 0
        assert "checks passed" in out

    def test_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seeds", "1",
                           "--tol", "1e-15")
        assert code == 1
        assert "worst offender" in out

    def test_seed_count_scales_cases(self, capsys):
        _, out1, _ = run(capsys, "gradcheck", "--seeds", "1")
        _, out2, _ = run(capsys, "gradcheck", "--seeds", "2")
        n1 = sum(line.startswith("ok") for line in out1.splitlines())
        n2 = sum(line.startswith("ok") for line in out2.splitlines())
        assert n2 == 2 * n1


class TestReach:
    def test_r1_density_is_crisscross_fraction(self, capsys):
        code, out, _ = run(capsys, "reach", "--h", "4", "--w", "5",
                           "--loops", "1")
        assert code == 0
        assert "0.4000" in out  # (H+W-1)/(H*W) = 8/20

    def test_r2_fully_dense(self, capsys):
        code, out, _ = run(capsys, "reach", "--h", "4", "--w", "4",
                           "--loops", "2")
        assert code == 0
        assert "density 1.0000" in out

    def test_trivial_grid(self, capsys):
        code, out, _ = run(capsys, "reach", "--h", "1", "--w", "1",
                           "--loops", "1")
        assert code == 0
        assert "density 1.0000" in out

    def test_large_grid_rejected(self, capsys):
        code, _, err = run(capsys, "reach", "--h", "9", "--w", "4")
        assert code == 2
        assert "too large" in err

    @pytest.mark.parametrize("loops", ["0", "-1"])
    def test_loop_count_below_one_exits_2(self, capsys, loops):
        with pytest.raises(SystemExit) as exc:
            main(["reach", "--h", "3", "--w", "3", "--loops", loops])
        assert exc.value.code == 2
        assert "--loops: must be >= 1" in capsys.readouterr().err


class TestAttnDump:
    @pytest.fixture
    def tensor_file(self, tmp_path):
        x = np.random.default_rng(0).normal(size=(4, 5, 6))
        path = tmp_path / "input.cct"
        save_tensor(x, path)
        return path

    def test_writes_pgm_and_csv_per_loop(self, capsys, tmp_path, tensor_file):
        out_prefix = tmp_path / "mass"
        code, _, _ = run(capsys, "attn-dump", "--input", str(tensor_file),
                         "--u", "2,3", "--loops", "2", "--out", str(out_prefix))
        assert code == 0
        for loop in (1, 2):
            pgm = (tmp_path / f"mass_loop{loop}.pgm").read_bytes()
            assert pgm.startswith(b"P5\n6 5\n255\n")
            assert len(pgm) - pgm.index(b"255\n") - 4 == 30
            rows = list(csv.reader(
                io.StringIO((tmp_path / f"mass_loop{loop}.csv").read_text())))
            assert len(rows) == 5 and all(len(r) == 6 for r in rows)

    def test_loop1_mass_confined_to_crisscross(self, capsys, tmp_path,
                                               tensor_file):
        out_prefix = tmp_path / "m"
        run(capsys, "attn-dump", "--input", str(tensor_file), "--u", "2,3",
            "--loops", "1", "--out", str(out_prefix))
        rows = list(csv.reader(
            io.StringIO((tmp_path / "m_loop1.csv").read_text())))
        mass = np.array([[float(v) for v in r] for r in rows])
        for r in range(5):
            for c in range(6):
                if r != 2 and c != 3:
                    assert mass[r, c] == 0.0
                else:
                    assert mass[r, c] > 0.0

    def test_pgm_matches_max_normalized_csv(self, capsys, tmp_path,
                                            tensor_file):
        out_prefix = tmp_path / "q"
        run(capsys, "attn-dump", "--input", str(tensor_file), "--u", "1,1",
            "--loops", "2", "--out", str(out_prefix))
        rows = list(csv.reader(
            io.StringIO((tmp_path / "q_loop2.csv").read_text())))
        mass = np.array([[float(v) for v in r] for r in rows])
        pgm = (tmp_path / "q_loop2.pgm").read_bytes()
        pixels = np.frombuffer(pgm[pgm.index(b"255\n") + 4:],
                               dtype=np.uint8).reshape(5, 6)
        expect = mass / mass.max() * 255.0
        assert np.abs(pixels - expect).max() <= 1.0  # +-1/255 quantization

    def test_constant_input_uniform_over_crisscross(self, capsys, tmp_path):
        x = np.broadcast_to(
            np.random.default_rng(1).normal(size=(4, 1, 1)), (4, 4, 5)).copy()
        path = tmp_path / "const.cct"
        save_tensor(x, path)
        run(capsys, "attn-dump", "--input", str(path), "--u", "1,2",
            "--loops", "1", "--out", str(tmp_path / "c"))
        rows = list(csv.reader(
            io.StringIO((tmp_path / "c_loop1.csv").read_text())))
        mass = np.array([[float(v) for v in r] for r in rows])
        nonzero = mass[mass > 0]
        assert len(nonzero) == 8  # H+W-1 on a 4x5 grid
        assert np.abs(nonzero - 1.0 / 8.0).max() < 1e-9

    def test_out_of_bounds_position_exits_2(self, capsys, tmp_path,
                                            tensor_file):
        code, _, err = run(capsys, "attn-dump", "--input", str(tensor_file),
                           "--u", "9,9", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("loops", ["0", "-2"])
    def test_loop_count_below_one_exits_2(self, capsys, tmp_path, tensor_file,
                                          loops):
        with pytest.raises(SystemExit) as exc:
            main(["attn-dump", "--input", str(tensor_file), "--u", "1,1",
                  "--loops", loops, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "--loops: must be >= 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("x_loop*"))

    def test_precision_f32_is_honoured(self, capsys, tmp_path, tensor_file):
        maps = {}
        for precision in ("f32", "f64"):
            code, _, _ = run(capsys, "attn-dump", "--input", str(tensor_file),
                             "--u", "2,3", "--loops", "2", "--precision", precision,
                             "--out", str(tmp_path / precision))
            assert code == 0
            maps[precision] = np.loadtxt(tmp_path / f"{precision}_loop2.csv",
                                         delimiter=",")
        assert np.abs(maps["f32"] - maps["f64"]).max() < 1e-5
        assert not np.array_equal(maps["f32"], maps["f64"])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_exits_2_naming_it(self, capsys, tmp_path, value):
        x = np.random.default_rng(0).normal(size=(4, 5, 6))
        x[1, 2, 3] = value
        path = tmp_path / "bad.cct"
        save_tensor(x, path)
        code, _, err = run(capsys, "attn-dump", "--input", str(path),
                           "--u", "1,1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert str(path) in err and "non-finite" in err
        assert not list(tmp_path.glob("x_loop*"))

    def test_overflowing_scores_exit_2_without_warnings(self, capsys, tmp_path):
        # finite input whose q.k overflows: the softmax would compute inf - inf
        x = np.random.default_rng(0).normal(size=(4, 5, 6)) * 1e200
        path = tmp_path / "huge.cct"
        save_tensor(x, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "attn-dump", "--input", str(path),
                               "--u", "1,1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert str(path) in err and "overflow" in err
        assert not list(tmp_path.glob("x_loop*"))

    def test_missing_output_directory_exits_2_before_work(self, capsys, tmp_path,
                                                         tensor_file):
        out = tmp_path / "missing" / "o"
        with pytest.raises(SystemExit) as exc:
            main(["attn-dump", "--input", str(tensor_file), "--u", "1,1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--out: directory of" in capsys.readouterr().err

    def test_bad_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.cct"
        bad.write_bytes(b"not a tensor")
        code, _, _ = run(capsys, "attn-dump", "--input", str(bad),
                         "--u", "0,0", "--out", str(tmp_path / "x"))
        assert code == 2

    def test_declared_count_beyond_int64_exits_2(self, capsys, tmp_path):
        huge = tmp_path / "huge.cct"
        extents = b"".join(e.to_bytes(4, "little") for e in (2**31, 2**31, 4))
        huge.write_bytes(b"CCT1" + bytes([8, 3]) + extents)
        code, _, err = run(capsys, "attn-dump", "--input", str(huge),
                           "--u", "0,0", "--out", str(tmp_path / "x"))
        assert code == 2
        assert f"header declares {2**64}" in err


class TestTrainToy:
    def test_zero_epochs_single_row(self, capsys, tmp_path):
        out = tmp_path / "metrics.csv"
        code, _, _ = run(capsys, "train-toy", "--epochs", "0",
                         "--out", str(out))
        assert code == 0
        rows = [r for r in out.read_text().splitlines() if r]
        assert len(rows) == 2  # header + epoch-0 row
        assert rows[0].startswith("epoch,total,seg")

    def test_paired_ccl_runs(self, capsys, tmp_path):
        outs = {}
        for mode in ("on", "off"):
            path = tmp_path / f"ccl_{mode}.csv"
            code, _, _ = run(capsys, "train-toy", "--seed", "0", "--epochs",
                             "40", "--ccl", mode, "--out", str(path))
            assert code == 0
            last = path.read_text().strip().splitlines()[-1]
            outs[mode] = float(last.split(",")[7])  # intra_var column
        assert outs["on"] <= outs["off"]

    def test_missing_output_directory_exits_2_before_training(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train-toy", "--epochs", "1",
                  "--out", str(tmp_path / "missing" / "x.csv")])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "--out: directory of" in out.err
        assert "epoch" not in out.out

    def test_repeat_reports_success_rate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "train-toy", "--epochs", "2", "--repeat",
                           "3", "--out", str(tmp_path / "r.csv"))
        assert code == 0
        assert "success rate: 3/3" in out


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "selftest passed" in out

    def test_corrupted_index_map_fails_oracle_equivalence(self):
        from crisscross.cca2d import build_gather_table_2d

        def corrupted(h, w):
            nbr = build_gather_table_2d(h, w)
            if nbr.size > 1:
                nbr[0, 0], nbr[-1, -1] = nbr[-1, -1], nbr[0, 0]
            return nbr

        results = run_selftest(gather_builder_2d=corrupted)
        by_name = {r.name: r for r in results}
        assert not by_name["oracle-equivalence"].passed


class TestGlobalFlags:
    def test_flags_accepted_before_and_after_subcommand(self, capsys):
        for argv in (["--format", "csv", "bench", "--h", "4", "--w", "4"],
                     ["bench", "--h", "4", "--w", "4", "--format", "csv"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.startswith("method,")

    def test_precision_is_not_global(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--precision", "f32", "selftest"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["--single-thread", "selftest"],
                                      ["bench", "--single-thread"]])
    def test_single_thread_flag_removed(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--single-thread" in capsys.readouterr().err


class TestBadCounts:
    @pytest.mark.parametrize("argv,message", [
        (["bench", "--h", "8", "--w", "8", "--t", "2", "--loops", "0"],
         "--loops: must be >= 1"),
        (["bench", "--h", "0"], "--h: must be >= 1"),
        (["bench", "--c", "4", "--cred", "4"], "--cred 4 must be < --c 4"),
        (["reach", "--h", "0", "--w", "3"], "--h: must be >= 1"),
        (["train-toy", "--epochs", "-1"], "--epochs: must be >= 0"),
        (["train-toy", "--repeat", "0"], "--repeat: must be >= 1"),
        (["gradcheck", "--seeds", "0"], "--seeds: must be >= 1"),
        (["gradcheck", "--tol", "nan"], "--tol: must be a finite positive number"),
        (["gradcheck", "--tol", "inf"], "--tol: must be a finite positive number"),
        (["gradcheck", "--tol", "0"], "--tol: must be a finite positive number"),
        (["gradcheck", "--tol", "-1"], "--tol: must be a finite positive number"),
        (["train-toy", "--seed", "-1"], "--seed: must be >= 0"),
    ])
    def test_exits_2_with_the_reason_on_stderr(self, capsys, argv, message):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert code == 2
        assert message in out.err
        assert "checks passed" not in out.out

    @pytest.mark.parametrize("value", ["x", "-1", "1.5"])
    @pytest.mark.parametrize("argv", [["selftest"], ["train-toy", "--epochs", "0"]])
    def test_bad_cc_seed_exits_2(self, capsys, monkeypatch, value, argv):
        monkeypatch.setenv("CC_SEED", value)
        code = main(argv)
        out = capsys.readouterr()
        assert code == 2
        assert f"CC_SEED must be an integer >= 0, got {value!r}" in out.err
        assert out.out == ""
