"""Command line: config parsing, exit codes, report files, subcommands."""

import json

import pytest

from shoal.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)


def read_jsonl(base):
    with open(base + ".jsonl", "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f]


class TestConfigParsing:
    def test_file_comments_blanks_and_override_precedence(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\nepsilon = 8.0\n\nn_agents=20  # trailing\n")
        cfg = load_config(str(p), ["epsilon=4.0", "duration=2.0"])
        assert cfg == {"epsilon": "4.0", "n_agents": "20", "duration": "2.0"}

    def test_missing_file_and_bad_lines(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.cfg"), [])
        bad = tmp_path / "bad.cfg"
        bad.write_text("no equals sign here\n")
        with pytest.raises(ConfigError):
            load_config(str(bad), [])
        with pytest.raises(ConfigError):
            load_config(None, ["also no equals"])

    def test_unknown_key_is_a_config_error(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["simulate", "--out", out, "bogus_key=1"]) == EXIT_CONFIG

    def test_bad_value_is_a_config_error(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["simulate", "--out", out, "epsilon=abc"]) == EXIT_CONFIG

    def test_invalid_domain_value_is_a_config_error(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["simulate", "--out", out, "map_size=-5"]) == EXIT_CONFIG


class TestArchiveOpt:
    ARGS = ["t_rot=0.005", "t_seek=0.005", "r_disk=1e8", "n_o=1000000",
            "k_records=1e4", "s_b=1e8"]

    def test_worked_example_prints_the_optimum(self, tmp_path, capsys):
        out = str(tmp_path / "opt")
        assert main(["archive-opt", "--out", out] + self.ARGS) == EXIT_OK
        got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert got["n_d"] == 100
        assert got["u_d"] == pytest.approx(1.0)
        assert got["r_d"] == pytest.approx(1.0)
        assert not got["constrained"]

    def test_sweep_writes_the_curve(self, tmp_path, capsys):
        out = str(tmp_path / "opt")
        code = main(["archive-opt", "--sweep", "--out", out, "n_d_max=64"] + self.ARGS)
        assert code == EXIT_OK
        lines = open(out + ".csv").read().strip().splitlines()
        assert lines[0].split(",") == ["n_d", "u_d", "r_d", "objective", "t_d", "t_m", "feasible"]
        assert len(lines) == 65

    def test_infeasible_constraint_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "opt")
        code = main(["archive-opt", "--out", out, "update_rate=1e9"] + self.ARGS)
        assert code == EXIT_INFEASIBLE
        got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert got["error"] == "infeasible"


class TestSimulate:
    def test_smoke_run_writes_reports(self, tmp_path, capsys):
        out = str(tmp_path / "sim")
        code = main([
            "simulate", "--seed", "1", "--out", out,
            "n_agents=30", "duration=4.0", "tier_ttl=2.0",
            "interval_max=2.0",  # everyone reports within the 4 s window
            "work_dir=" + str(tmp_path / "wd"),
        ])
        assert code == EXIT_OK
        rows = read_jsonl(out)
        kinds = {r["type"] for r in rows}
        assert {"config", "second", "summary"} <= kinds
        summary = [r for r in rows if r["type"] == "summary"][-1]
        assert summary["received"] > 0
        assert 0.0 <= summary["shed_rate"] <= 1.0
        assert summary["objects"] == 30
        header = open(out + ".csv").readline().strip().split(",")
        assert "os_count" in header and "shed" in header
        assert "shed rate" in capsys.readouterr().out

    def test_threaded_ingest_smoke(self, tmp_path):
        out = str(tmp_path / "sim")
        code = main([
            "simulate", "--seed", "2", "--out", out,
            "n_agents=24", "duration=8.0", "workers=2",  # longer than a 5 s clustering period
            "work_dir=" + str(tmp_path / "wd"),
        ])
        assert code == EXIT_OK
        rows = read_jsonl(out)
        summary = [r for r in rows if r["type"] == "summary"][-1]
        assert summary["received"] > 0
        assert summary["received"] == (summary["shed"] + summary["leader_updates"]
                                       + summary["promotions"] + summary["registrations"])
        clustering = [r for r in rows if r["type"] == "clustering"]
        assert {r["cell"] for r in clustering} == {"L1:%d" % c for c in range(4)}


class TestNnbench:
    def test_smoke_run_is_exact(self, tmp_path):
        out = str(tmp_path / "nnb")
        code = main([
            "nnbench", "--seed", "3", "--out", out,
            "densities=200", "fixed_levels=2,3", "queries=10",
            "exact_sample=20", "query_k=5",
        ])
        assert code == EXIT_OK
        rows = read_jsonl(out)
        summary = [r for r in rows if r["type"] == "summary"][-1]
        assert summary["mismatches"] == 0
        assert summary["exact_checked"] == 20
        assert "200" in summary["flag_vs_best"]
        levels_seen = {r["level"] for r in rows if r["type"] == "nnbench"}
        assert levels_seen == {2, 3, "flag"}


class TestScaling:
    def test_smoke_reports_speedups(self, tmp_path):
        out = str(tmp_path / "sc")
        code = main([
            "scaling", "--seed", "4", "--out", out,
            "n_agents=24", "duration=3.0", "workers=1,2",
        ])
        assert code == EXIT_OK
        rows = [r for r in read_jsonl(out) if r["type"] == "scaling"]
        assert [r["workers"] for r in rows] == [1, 2]
        assert rows[0]["speedup"] == pytest.approx(1.0)


class TestTrace:
    def test_record_then_replay(self, tmp_path, capsys):
        out = str(tmp_path / "tr")
        code = main(["trace", "record", "--seed", "5", "--out", out,
                     "n_agents=20", "duration=3.0"])
        assert code == EXIT_OK
        trace = out + ".trace"
        assert "written to" in capsys.readouterr().out
        code = main(["trace", "replay", trace, "--out", out])
        assert code == EXIT_OK
        assert "replay:" in capsys.readouterr().out

    def test_corrupt_trace_is_a_config_error(self, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("this is not a trace\n")
        assert main(["trace", "replay", str(bad), "--out",
                     str(tmp_path / "r")]) == EXIT_CONFIG
