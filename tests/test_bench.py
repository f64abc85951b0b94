import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mcmpricer
from mcmpricer import bench
from mcmpricer.bench import (TABLE_COLUMNS, RunConfig, _add_common, _config_from_args, main, run,
                             scaling_report, sweep)
from mcmpricer.errors import ConfigError, NonDeterministicResultError


def _tiny(**kw):
    base = dict(log2_paths=7, n_steps=3, replications=2, seed=11)
    base.update(kw)
    return RunConfig(**base)


def _cell_of_degree(config):
    """A priced cell whose replication values depend on the parallelism degree."""
    return {"runtime_ms": 1.0, "price": 0.0, "std": 0.0, "values": (float(config.threads),)}


class TestRunConfig:
    def test_payoff_dimension_mismatch(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(payoff="min_put", dim=5).validate()
        assert err.value.field == "payoff"

    @pytest.mark.parametrize("field,value", [
        ("method", "P9"), ("calibration", "fancy"), ("strike", -1.0),
        ("replications", 0), ("log2_paths", 40),
    ])
    def test_field_validation(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value}).validate()

    def test_from_json_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim": 2, "payoff": "min_put", "log2_paths": 7}))
        cfg = RunConfig.from_json(str(path), {"seed": 3})
        assert cfg.dim == 2 and cfg.seed == 3

    @pytest.mark.parametrize("vol,dim", [
        ([0.2, 0.3], 1),                                      # wrong length
        ({"breaks": [0, 1]}, 1),                              # no matrices
        ({"breaks": [0.0, 0.5], "matrices": [[[0.2]]]}, 1),   # ends before maturity 1
        ([[0.2, 0.1], [0.0, 0.3]], 2),                        # upper triangular
        (float("nan"), 1),                                    # not finite
        ({"breaks": [0.0, 0.5, float("nan")], "matrices": [[[0.2]], [[0.3]]]}, 1),  # a NaN last break
    ])
    def test_bad_vol_is_config_error(self, vol, dim):
        with pytest.raises(ConfigError) as err:
            RunConfig(vol=vol, dim=dim).validate()
        assert err.value.field == "vol"

    @pytest.mark.parametrize("field,value", [
        ("dim", "a"), ("n_steps", 2.5), ("replications", 2.0), ("seed", "x"), ("threads", True),
        ("log2_paths", None), ("strike", "100"), ("rate", float("nan")), ("s0", False),
        ("conditioning", "no"), ("conditioning", 1), ("out", 5),
    ])
    def test_mistyped_field_is_config_error(self, field, value):
        with pytest.raises(ConfigError) as err:
            RunConfig(**{field: value}).validate()
        assert err.value.field == field

    @pytest.mark.parametrize("seed,ok", [(-1, False), (2**64, False), (2**64 + 5, False),
                                         (0, True), (2**64 - 1, True)])
    def test_seed_outside_64_bits_is_config_error(self, seed, ok):
        # rng reduces seeds modulo 2^64: -1 would alias 2^64 - 1, and 2^64 + 5 alias 5
        if ok:
            assert RunConfig(seed=seed).validate().seed == seed
            return
        with pytest.raises(ConfigError) as err:
            RunConfig(seed=seed).validate()
        assert err.value.field == "seed"

    @pytest.mark.parametrize("overrides,field", [
        ({"method": "P9"}, "method"), ({"calibration": "fancy"}, "calibration"),
        ({"payoff": "put"}, "payoff"),
        ({"dim": 0}, "dim"), ({"strike": 0.0}, "strike"), ({"maturity": -1.0}, "maturity"),
        ({"s0": float("inf")}, "s0"), ({"rate": float("inf")}, "rate"), ({"n_steps": 0}, "n_steps"),
        ({"replications": -1}, "replications"), ({"threads": 0}, "threads"), ({"seed": True}, "seed"),
        ({"log2_paths": -1}, "log2_paths"), ({"log2_paths": 27}, "log2_paths"),
        ({"log2_paths": 2.0}, "log2_paths"),
        ({"method": "P1", "payoff": "min_put", "dim": 2, "vol": [[0.2, 0.0], [0.1, 0.2]]}, "vol"),
    ])
    def test_library_error_names_the_config_field(self, overrides, field):
        with pytest.raises(ConfigError) as err:
            RunConfig(**overrides).validate()
        assert err.value.field == field

    def test_from_json_unknown_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dimension": 2}))
        with pytest.raises(ConfigError):
            RunConfig.from_json(str(path))


class TestRunAndSweep:
    def test_single_row(self):
        table = run(_tiny())
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row["paths"] == 2**7 and row["std"] > 0.0

    def test_single_replication_warns_and_reports_zero_std(self, capsys):
        table = run(_tiny(replications=1))
        assert table.rows[0]["std"] == 0.0
        assert "replications=1" in capsys.readouterr().err

    def test_sweep_table1_cardinality(self):
        table = sweep(_tiny(replications=1), {
            "dim": [1, 5, 10], "steps": [2, 3, 4], "log2_paths": [4, 5],
            "method": ["P1", "P2eq", "P2opt"],
        })
        assert len(table.rows) == 54
        assert not table.failures

    def test_sweep_table2_cardinality(self):
        table = sweep(_tiny(replications=1, payoff="min_put", dim=2), {
            "steps": [2, 3, 4], "log2_paths": [4, 5], "method": ["P1", "P2opt"],
        })
        assert len(table.rows) == 12

    def test_sweep_empty_axes_single_run(self):
        table = sweep(_tiny(), {})
        assert len(table.rows) == 1

    def test_sweep_records_failed_cells_and_continues(self):
        table = sweep(_tiny(replications=1, payoff="min_put", dim=2), {"dim": [2, 5]})
        assert len(table.rows) == 1
        assert len(table.failures) == 1
        assert "dim" in str(table.failures[0])

    def test_sweep_records_mistyped_cells(self):
        table = sweep(_tiny(replications=1), {"dim": ["a", 1], "steps": [2, 2.5]})
        assert len(table.rows) == 1
        assert [f["cell"] for f in table.failures] == [
            {"dim": "a", "steps": 2}, {"dim": "a", "steps": 2.5}, {"dim": 1, "steps": 2.5}]

    def test_sweep_rejects_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(_tiny(), {"strike": [90, 100]})

    def test_piecewise_vol_spec_from_config(self):
        # piecewise vol flows through the config; conditioning falls back to
        # the weighted-indicator estimator for non-constant vol
        spec = {"breaks": [0.0, 0.5, 1.0], "matrices": [[[0.2]], [[0.3]]]}
        table = run(_tiny(vol=spec, n_steps=4, log2_paths=9))
        assert table.rows[0]["price"] > 0.0


class TestPersistence:
    def test_write_creates_csv_and_json_mirror(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["price", "--steps", "3", "--log2-paths", "7", "--replications", "2", "--seed", "11",
                     "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        mirror = json.loads((tmp_path / "table.json").read_text())
        columns = [c for c in TABLE_COLUMNS if c != "runtime_ms"]
        want = run(_tiny()).rows
        assert [[r[c] for c in columns] for r in mirror["rows"]] == [[r[c] for c in columns] for r in want]

    def test_identical_config_identical_content(self):
        a, b = (run(_tiny()).rows for _ in range(2))
        columns = [c for c in TABLE_COLUMNS if c != "runtime_ms"]
        assert [[r[c] for c in columns] for r in a] == [[r[c] for c in columns] for r in b]


class TestScaling:
    def test_same_degree_prices_identical(self):
        rows = scaling_report(_tiny(replications=3), [1, 1])
        assert rows[0]["price"] == rows[1]["price"]
        assert rows[1]["speedup"] > 0.0

    def test_multi_degree_determinism(self):
        rows = scaling_report(_tiny(dim=2, payoff="min_put", replications=3), [1, 2])
        assert rows[0]["price"] == rows[1]["price"]

    def test_degrees_that_disagree_raise(self, monkeypatch):
        monkeypatch.setattr(bench, "_run_cell", _cell_of_degree)
        with pytest.raises(NonDeterministicResultError, match="degree 2 changed replication values"):
            scaling_report(_tiny(), [1, 2])

    def test_rejects_bad_degrees(self):
        with pytest.raises(ConfigError):
            scaling_report(_tiny(), [])


class TestCli:
    def test_price_exit_zero_and_output(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["price", "--dim", "1", "--steps", "2", "--log2-paths", "6",
                     "--replications", "2", "--seed", "4", "--out", str(out)])
        assert code == 0
        assert "price" in capsys.readouterr().out
        assert out.exists() and (tmp_path / "t.json").exists()

    def test_config_error_exit_one(self, capsys):
        code = main(["price", "--payoff", "min_put", "--dim", "5"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_p1_without_closed_forms_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"payoff": "min_put", "dim": 2, "vol": [[0.2, 0.0], [0.1, 0.2]],
                                    "n_steps": 2, "log2_paths": 5, "replications": 1}))
        assert main(["price", "--config", str(path), "--method", "P1"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_negative_rate_prices(self, tmp_path, capsys):
        # the model holds for any finite rate, and the library prices one
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rate": -0.01, "n_steps": 2, "log2_paths": 5, "replications": 1}))
        assert main(["price", "--config", str(path)]) == 0

    def test_json_mirror_names_the_estimator_that_ran(self, tmp_path, capsys):
        # asked for conditioning and "closed" on a correlated vol: the raw estimator and the M1 pilot ran
        path, out = tmp_path / "cfg.json", tmp_path / "t.csv"
        path.write_text(json.dumps({"payoff": "min_put", "dim": 2, "vol": [[0.2, 0.0], [0.1, 0.2]],
                                    "n_steps": 2, "log2_paths": 6, "replications": 1, "calibration": "closed"}))
        assert main(["price", "--config", str(path), "--out", str(out)]) == 0
        row = json.loads((tmp_path / "t.json").read_text())["rows"][0]
        assert (row["conditioning"], row["calibration"]) == (False, "M1")
        assert out.read_text().splitlines()[0] == ",".join(TABLE_COLUMNS)

    def test_numerical_failure_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(bench, "_run_cell", _cell_of_degree)
        assert main(["scaling", "--steps", "2", "--log2-paths", "5", "--degrees", "1,2"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_sweep_subcommand(self, capsys):
        code = main(["sweep", "--steps", "2", "--log2-paths", "5", "--replications", "1",
                     "--axes", '{"dim": [1, 2]}'])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
        assert len(lines) == 3  # header + 2 rows

    def test_scaling_subcommand(self, capsys):
        code = main(["scaling", "--steps", "2", "--log2-paths", "5", "--replications", "2",
                     "--degrees", "1,1"])
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_scaling_out_writes_the_printed_csv_and_a_json_mirror(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main(["scaling", "--steps", "2", "--log2-paths", "5", "--replications", "2",
                     "--degrees", "1,1", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("degree,runtime_ms,speedup,price,std\n")
        assert out.read_text() == printed
        rows = json.loads((tmp_path / "t.json").read_text())
        assert [row["degree"] for row in rows] == [1, 1]

    def test_every_flag_sets_a_config_field(self):
        # _config_from_args keeps only the destinations that are RunConfig fields
        parser = argparse.ArgumentParser()
        _add_common(parser)
        dests = {action.dest for action in parser._actions} - {"help", "config"}
        assert dests <= {f.name for f in dataclasses.fields(RunConfig)}
        args = parser.parse_args(["--threads", "3", "--steps", "2", "--no-conditioning"])
        config = _config_from_args(args)
        assert (config.threads, config.n_steps, config.conditioning) == (3, 2, False)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axes", '{"dim": 5}'],
        ["sweep", "--axes", "5"],
        ["scaling", "--degrees", "1,x"],
        ["price", "--threads", "0"],
        ["price", "--threads", "-2"],
        ["sweep", "--axes", "{dim"],
    ])
    def test_malformed_arguments_exit_one(self, argv, capsys):
        assert main(argv + ["--steps", "2", "--log2-paths", "5", "--replications", "1"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code", [
        (["price", "--threads", "abc"], 1),
        (["price", "--dim", "1.5"], 1),
        (["sweep"], 1),
        (["price", "--help"], 0),
    ])
    def test_usage_errors_exit_one_and_help_exits_zero(self, argv, code, capsys):
        # argparse's own code for a usage error is 2, the code of a numerical failure
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        assert ("error:" in capsys.readouterr().err) == (code == 1)

    @pytest.mark.parametrize("data", [
        {"n_steps": 2.5}, {"replications": 2.0}, {"seed": "x"}, {"m2_eps": 0.001},
        {"conditioning": "no"}, {"out": 5},
        '{"n_steps": 2', '[{"n_steps": 2}]',   # a file that is not JSON, and JSON that is not an object
    ])
    def test_mistyped_config_file_exits_one(self, data, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(data if isinstance(data, str) else
                        json.dumps({"n_steps": 2, "log2_paths": 5, "replications": 1, **data}))
        assert main(["price", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(mcmpricer.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-m", "mcmpricer", "price", "--steps", "2", "--log2-paths", "6",
             "--replications", "2", "--seed", "4"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == "method,payoff,dim,steps,paths,price,std,fallbacks,runtime_ms"
        assert out.stderr == ""

    def test_python_dash_m_bench_exits_with_one_line_naming_the_cli(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(mcmpricer.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-W", "default", "-m", "mcmpricer.bench", "price", "--steps", "2"],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode != 0
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and "python -m mcmpricer " in lines[0], out.stderr


def test_every_exported_name_resolves():
    missing = [name for name in mcmpricer.__all__ if not hasattr(mcmpricer, name)]
    assert missing == []
