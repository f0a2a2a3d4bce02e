"""Tests for the command-line interface."""

import json

import pytest

from repro.harness.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        args_dict = vars(args)
        assert args_dict["mix"] == "mix07"
        assert args_dict["policy"] == "icount"

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "magic"])


class TestCommands:
    def test_policies_lists_ten(self, capsys):
        code, out = run_cli(capsys, "policies")
        assert code == 0
        assert len(out.strip().splitlines()) == 10
        assert "icount" in out

    def test_policies_json(self, capsys):
        code, out = run_cli(capsys, "policies", "--json")
        assert json.loads(out)["policies"][0] == "icount"

    def test_mixes_lists_thirteen(self, capsys):
        code, out = run_cli(capsys, "mixes")
        assert out.count("mix") >= 13

    def test_run_fixed(self, capsys):
        code, out = run_cli(capsys, "run", "mix09", "--quanta", "2",
                            "--warmup", "1", "--quantum", "512")
        assert code == 0
        assert "IPC" in out

    def test_run_adts_json(self, capsys):
        code, out = run_cli(capsys, "run", "mix09", "--adts", "--quanta", "2",
                            "--warmup", "1", "--quantum", "512", "--json")
        payload = json.loads(out)
        assert payload["ipc"] > 0
        assert payload["mode"] == "adts"

    def test_fastgrid(self, capsys):
        code, out = run_cli(capsys, "fastgrid", "--fast-quanta", "8")
        assert "IPC[type3]" in out

    def test_scaling_small(self, capsys):
        code, out = run_cli(capsys, "scaling", "mix09", "--quanta", "2",
                            "--warmup", "1", "--quantum", "512")
        assert "threads" in out


class TestFlagErrors:
    """A flag value that a command's configuration rejects is a one-line
    usage error with exit 2, reported before anything runs; exit 1 stays
    a failed run (or, for `chaosday`, a failed contract)."""

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--autoscale", "0:4"], "min_workers must be >= 1"),
        (["replay", "--shape", "uniform", "--queue-capacity", "0"],
         "queue_capacity must be >= 1"),
        (["chaosday", "--autoscale-min", "3", "--autoscale-max", "2"],
         "need 1 <= autoscale_min <= autoscale_max"),
        (["chaosday", "--drain-deadline", "0"],
         "drain_deadline_s must be positive"),
        (["run", "mix05", "--quanta", "0"], "invalid quanta=0: must be >= 1"),
    ])
    def test_rejected_value_exits_2_with_one_line(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"repro {argv[0]}: {message}\n"
        assert list(tmp_path.iterdir()) == []  # nothing ran, nothing written


class TestGridInputs:
    """`repro grid` rejects inputs it cannot honour instead of silently
    taking another path."""

    @pytest.mark.parametrize("flags", [
        ["--run-timeout", "5"],
        ["--heartbeat-timeout", "1"],
        ["--retries", "2"],
        ["--workers", "0", "--run-timeout", "5"],
    ])
    def test_hard_limits_need_workers(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--mixes", "mix01", *flags])
        assert exc.value.code != 0
        assert "--workers" in str(exc.value.code)

    def test_negative_batch_is_a_config_error(self):
        from repro.harness.errors import ConfigError

        with pytest.raises(ConfigError, match="batch"):
            main(["grid", "--mixes", "mix01", "--quanta", "1", "--warmup", "0",
                  "--quantum", "64", "--batch", "-1"])

    def test_grid_has_no_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid", "--checkpoint-dir", "d"])

    def test_default_grid_runs_per_mix_batches(self, capsys, monkeypatch):
        """`--batch 0` (the default) means one lockstep batch per mix."""
        import repro.harness.sweep as sweep_mod

        batches = []
        real = sweep_mod.run_batch

        def recording(specs, progress=None):
            batches.append([s.config.mix for s in specs])
            return real(specs, progress=progress)

        monkeypatch.setattr(sweep_mod, "run_batch", recording)
        code, out = run_cli(capsys, "grid", "--mixes", "mix01,mix02",
                            "--quanta", "1", "--warmup", "0", "--quantum", "256",
                            "--json")
        assert code == 0
        assert json.loads(out)["best_cell"]["ipc"] > 0
        assert batches == [["mix01"] * 25, ["mix02"] * 25]
