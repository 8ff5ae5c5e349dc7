import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None, env=None):
    """`python -m fedsim args` in a child process that imports this checkout's fedsim."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fedsim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def write_config(tmp_path, text):
    path = tmp_path / "experiment.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestRunCommand:
    def test_run_writes_a_results_store(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text)
        out = tmp_path / "results"
        proc = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "run complete" in proc.stdout
        for name in ("manifest.json", "rounds.jsonl", "summary.json", "ledger.csv"):
            assert (out / name).exists()

    def test_seed_override_changes_results(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text)
        a = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1")
        b = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2")
        assert a.returncode == 0 and b.returncode == 0
        assert (tmp_path / "a" / "rounds.jsonl").read_bytes() != (
            tmp_path / "b" / "rounds.jsonl"
        ).read_bytes()

    def test_invalid_config_exits_with_validation_code(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text + "\n[mystery]\nx = 1\n")
        proc = run_cli("run", "--config", str(cfg))
        assert proc.returncode == 2
        assert "validation error" in proc.stderr

    def test_repeated_cluster_id_exits_with_validation_code(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text + "\n[cluster.01]\ngain = 2.0\n")
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "results"))
        assert proc.returncode == 2, proc.stderr
        assert "[cluster.1] and [cluster.01] both set cluster 1" in proc.stderr
        assert not (tmp_path / "results").exists()

    def test_non_finite_config_float_exits_with_validation_code(self, tmp_path, small_config_text):
        text = small_config_text.replace("radius = 1.5, 2.5", "radius = nan, 1", 1)
        cfg = write_config(tmp_path, text)
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "results"))
        assert proc.returncode == 2, proc.stderr
        assert "validation error: [cluster.0] radius: 'nan' is not a finite number" in proc.stderr
        assert not (tmp_path / "results").exists()

    def test_config_that_is_not_utf8_exits_with_validation_code(self, tmp_path):
        cfg = tmp_path / "experiment.ini"
        cfg.write_bytes(b"[run]\nrounds = 2\xff\n")
        proc = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "results"))
        assert proc.returncode == 2, proc.stderr
        assert f"validation error: {cfg}: not UTF-8 text: " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "results").exists()

    def test_run_directory_is_identical_at_one_and_two_blas_threads(
        self, tmp_path, small_config_text
    ):
        cfg = write_config(tmp_path, small_config_text)
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = run_cli("run", "--config", str(cfg), "--out", str(out), env=env)
            assert proc.returncode == 0, proc.stderr
            files = sorted(p for p in out.rglob("*") if p.is_file())
            trees.append({str(p.relative_to(out)): p.read_bytes() for p in files})
        assert len(trees[0]) > 4 and trees[0] == trees[1]

    def test_missing_config_exits_with_io_code(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "nope.ini"))
        assert proc.returncode == 4
        assert "i/o error" in proc.stderr


class TestExportCommand:
    def test_export_after_run(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text)
        out = tmp_path / "results"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)).returncode == 0
        proc = run_cli("export", "--run", str(out), "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        assert (out / "export" / "metrics.csv").exists()
        proc = run_cli("export", "--run", str(out), "--format", "jsonl")
        assert proc.returncode == 0
        assert (out / "export" / "metrics.jsonl").exists()

    def test_export_of_missing_run_fails_with_io_code(self, tmp_path):
        proc = run_cli("export", "--run", str(tmp_path / "ghost"), "--format", "csv")
        assert proc.returncode == 4

    def test_export_of_a_damaged_store_is_a_validation_error(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text.replace("rounds = 3", "rounds = 1"))
        out = tmp_path / "results"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)).returncode == 0
        with open(out / "rounds.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"round": 2, "w"')
        proc = run_cli("export", "--run", str(out), "--format", "csv")
        assert proc.returncode == 2
        assert f"{out / 'rounds.jsonl'}: line 2: " in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSweepCommand:
    def test_depth_sweep(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text.replace("rounds = 3", "rounds = 1"))
        out = tmp_path / "sweep"
        proc = run_cli(
            "sweep", "--config", str(cfg), "--axis", "L", "--values", "1,2", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "L_1" / "rounds.jsonl").exists()
        assert (out / "L_2" / "rounds.jsonl").exists()
        assert (out / "sweep_summary.json").exists()

    def test_partial_failure_is_reported_but_not_fatal(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text.replace("rounds = 3", "rounds = 1"))
        proc = run_cli("sweep", "--config", str(cfg), "--axis", "metric", "--values", "l2_based,bogus")
        assert proc.returncode == 0
        assert "FAILED" in proc.stdout

    def test_a_sweep_whose_every_run_diverged_exits_as_run_does(self, tmp_path, small_config_text):
        text = small_config_text.replace("rounds = 3", "rounds = 1")
        cfg = write_config(tmp_path, text.replace("learning_rate = 0.01", "learning_rate = 1e308"))
        assert run_cli("run", "--config", str(cfg)).returncode == 3
        proc = run_cli("sweep", "--config", str(cfg), "--axis", "beta", "--values", "0.01,0.02")
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout.count("FAILED (NumericError: ") == 2
        assert "\nnumeric error: l2_based similarity" in "\n" + proc.stderr

    def test_a_sweep_of_only_invalid_values_exits_2(self, tmp_path, small_config_text):
        cfg = write_config(tmp_path, small_config_text.replace("rounds = 3", "rounds = 1"))
        proc = run_cli("sweep", "--config", str(cfg), "--axis", "metric", "--values", "bogus,l9")
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout.count("FAILED (ConfigError: ") == 2
        assert "validation error: " in proc.stderr


class TestOracleCheckCommand:
    def test_prints_one_line_per_suite(self):
        proc = run_cli("oracle-check", "--instances", "50", "--gradient-fixtures", "2")
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stdout.strip().split("\n") if line]
        assert len(lines) == 3
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--instances", "0"),
            ("--gradient-fixtures", "0"),
            ("--gradient-fixtures", "-18"),
            ("--gradient-fixtures", "21"),
        ],
    )
    def test_counts_that_check_nothing_or_wrap_around_are_rejected(self, flag, value):
        proc = run_cli("oracle-check", "--instances", "5", "--gradient-fixtures", "1", flag, value)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert f"got {value}" in proc.stderr
