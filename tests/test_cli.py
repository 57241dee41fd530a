import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rara import cli

# A working argument list per mode, each flag one the mode reads.
MODE_ARGS = {
    "theory": ["--lambda", "0.8", "--m", "2"],
    "sim": ["--lambda", "0.8", "--m", "2", "--sessions", "100"],
    "compare": ["--lambda", "0.8", "--m", "2", "--sessions", "100"],
    "phy": ["--m", "2", "--sessions", "100", "--snr-db", "20"],
}


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestParseGrid:
    def test_comma_list(self):
        assert cli.parse_grid("0.4,0.8") == (0.4, 0.8)
        assert cli.parse_grid("1,5,10", int) == (1, 5, 10)

    def test_range(self):
        assert cli.parse_grid("1:5:1", int) == (1, 2, 3, 4, 5)
        grid = cli.parse_grid("0.1:0.5:0.1")
        assert grid == pytest.approx((0.1, 0.2, 0.3, 0.4, 0.5))
        assert cli.parse_grid("0.05:2.0:0.05") == tuple(
            round(0.05 * i, 12) for i in range(1, 41))
        # each value comes from its index: repeated addition drifts to
        # 46.449999999999 by the 930th step of this grid
        grid = cli.parse_grid("0:50:0.05")
        assert len(grid) == 1001
        assert grid == tuple(round(0.05 * i, 12) for i in range(1001))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            cli.parse_grid("1:5")
        with pytest.raises(ValueError):
            cli.parse_grid("1:5:0")
        with pytest.raises(ValueError):
            cli.parse_grid("0:inf:1")
        # refused from its bounds alone, before any value is built
        with pytest.raises(ValueError, match="more than"):
            cli.parse_grid("0:1e12:1")
        assert len(cli.parse_grid(f"1:{cli.MAX_RANGE_VALUES}:1", int)) == cli.MAX_RANGE_VALUES
        with pytest.raises(ValueError, match="more than"):
            cli.parse_grid(f"0:{cli.MAX_RANGE_VALUES}:1", int)
        with pytest.raises(ValueError):
            cli.parse_grid("2.7", int)
        with pytest.raises(ValueError):
            cli.parse_grid("1:3:0.5", int)


class TestValidateSpec:
    def base(self, **overrides):
        raw = {"mode": "theory", "lambda_grid": "0.8", "m_grid": "10",
               "output_path": "out.csv"}
        raw.update(overrides)
        return raw

    def test_defaults(self):
        spec = cli.validate_spec(self.base())
        assert spec.epsilon == 0.1
        assert spec.format == "csv"
        assert spec.n_sessions == 10**6
        assert spec.seed == 0
        # int fields stay exact where a float would round
        assert cli.validate_spec(self.base(mode="sim", seed=2**53 + 1)).seed == 2**53 + 1

    def test_empty_lambda_grid(self):
        with pytest.raises(cli.SpecValidationError) as exc:
            cli.validate_spec(self.base(lambda_grid=""))
        assert any("lambda_grid" in p for p in exc.value.problems)

    def test_epsilon_out_of_range(self):
        with pytest.raises(cli.SpecValidationError) as exc:
            cli.validate_spec(self.base(epsilon=1.5))
        assert any("epsilon" in p and "(0, 1]" in p for p in exc.value.problems)

    def test_phy_requires_snr(self):
        with pytest.raises(cli.SpecValidationError) as exc:
            cli.validate_spec({"mode": "phy", "m_grid": "2",
                               "output_path": "out.csv"})
        assert any("snr_db" in p for p in exc.value.problems)

    def test_all_failures_reported_at_once(self):
        with pytest.raises(cli.SpecValidationError) as exc:
            cli.validate_spec({"mode": "bogus", "lambda_grid": "",
                               "m_grid": "", "epsilon": 3.0,
                               "output_path": ""})
        fields = " ".join(exc.value.problems)
        for name in ("mode", "lambda_grid", "m_grid", "epsilon", "output_path"):
            assert name in fields


class TestTheoryMode:
    def test_row_count_and_shape(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = cli.main(["theory", "--lambda", "0.8", "--m", "1:30:1",
                       "--epsilon", "0.1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 30
        eta = [float(r["throughput_exact"]) for r in rows]
        assert eta[0] > eta[4] and eta[29] > eta[4]

    def test_zero_rate_all_zero(self, tmp_path):
        out = tmp_path / "z.csv"
        assert cli.main(["theory", "--lambda", "0", "--m", "3,7",
                         "--out", str(out)]) == 0
        for row in read_csv(out):
            for col in ("throughput_exact", "throughput_approx",
                        "outage_exact", "outage_approx"):
                assert float(row[col]) == 0.0

    def test_header_stable(self, tmp_path):
        out = tmp_path / "h.csv"
        cli.main(["theory", "--lambda", "0.8", "--m", "10", "--out", str(out)])
        header = out.read_text().splitlines()[0].split(",")
        assert header == cli.THEORY_COLUMNS

    def test_unit_load_flagged(self, tmp_path):
        out = tmp_path / "u.csv"
        cli.main(["theory", "--lambda", "0.8,1.0", "--m", "10", "--out", str(out)])
        rows = read_csv(out)
        assert rows[0]["u_discontinuity"] == "0"
        assert rows[1]["u_discontinuity"] == "1"
        assert float(rows[1]["asymptotic_throughput"]) == 0.5

    def test_round_trippable_floats(self, tmp_path):
        # the grid is solved in one kernel call; each row must still carry
        # the exact bits of a direct single-point evaluation
        out = tmp_path / "r.csv"
        cli.main(["theory", "--lambda", "0:2:0.25", "--m", "1,10,50,3200",
                  "--out", str(out)])
        rows = read_csv(out)
        assert len(rows) == 36
        from rara import analytic as A
        for row in rows:
            params = A.SystemParams(float(row["lambda"]), int(row["m"]), 0.1)
            met = A.throughput_exact(params)
            pi = A.stationary_closed_form(params).pi
            assert float(row["throughput_exact"]) == met.throughput
            assert float(row["outage_exact"]) == met.outage
            assert float(row["mean_session_length"]) == met.mean_session_length
            assert [float(row[c]) for c in ("pi_0", "pi_1", "pi_S", "pi_U")] \
                == pi.tolist()
            assert float(row["throughput_approx"]) == A.throughput_approx(params)
            assert float(row["outage_approx"]) == A.outage_approx(params)
            assert float(row["asymptotic_throughput"]) \
                == A.asymptotic_throughput(params.lam)
        # the lambda = 0 limit needs no division warning
        with np.errstate(all="raise"):
            zero = A.SystemParams(0.0, 10, 0.1)
            assert A.throughput_approx(zero) == A.outage_approx(zero) == 0.0


class TestSimAndCompareModes:
    def test_compare_error_columns(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = cli.main(["compare", "--lambda", "0.8", "--m", "10",
                       "--sessions", "200000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        row = read_csv(out)[0]
        err = float(row["abs_err_throughput"])
        assert err == pytest.approx(abs(float(row["throughput_hat"])
                                        - float(row["throughput_exact"])))
        assert err < max(3 * float(row["stderr"]), 0.005)

    def test_sim_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        cli.main(["sim", "--lambda", "0.4,0.8", "--m", "5,10",
                  "--sessions", "5000", "--out", str(out)])
        rows = read_csv(out)
        assert len(rows) == 4
        assert all(r["sessions"] == "5000" for r in rows)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sim", "--lambda", "0.8", "--m", "10", "--sessions", "20000",
                "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(args + ["--out", str(a)])
        cli.main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPhyMode:
    def test_rows_sweep_k(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = cli.main(["phy", "--m", "2", "--snr-db", "20", "--sessions",
                       "2000", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert [int(r["k"]) for r in rows] == [1, 2, 3]
        assert all(0.0 <= float(r["ser"]) <= 1.0 for r in rows)

    def test_rows_get_own_seeds(self, tmp_path):
        # each (k, M) row draws its own channels; reruns stay byte-identical
        args = ["phy", "--m", "1,2", "--snr-db", "10", "--sessions", "500",
                "--seed", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        cli.main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        seeds = [int(r["seed"]) for r in read_csv(a)]
        assert len(seeds) == 5 and len(set(seeds)) == 5


class TestJsonFormat:
    def test_mirrors_csv_schema(self, tmp_path):
        out = tmp_path / "t.json"
        cli.main(["theory", "--lambda", "0.8", "--m", "10", "--format", "json",
                  "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["columns"] == cli.THEORY_COLUMNS
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["m"] == 10


class TestHeaders:
    def test_every_mode(self, tmp_path):
        # rows carry their cells in column order, so CSV and JSON agree
        expected = {
            "sim": cli.THEORY_COLUMNS + cli.SIM_COLUMNS,
            "compare": cli.THEORY_COLUMNS + cli.SIM_COLUMNS + cli.ERROR_COLUMNS,
            "phy": cli.PHY_COLUMNS,
        }
        for mode, columns in expected.items():
            args = [mode, *MODE_ARGS[mode]]
            out_csv, out_json = tmp_path / f"{mode}.csv", tmp_path / f"{mode}.json"
            assert cli.main(args + ["--out", str(out_csv)]) == 0
            assert out_csv.read_text().splitlines()[0].split(",") == columns
            assert cli.main(args + ["--format", "json", "--out", str(out_json)]) == 0
            payload = json.loads(out_json.read_text())
            assert payload["columns"] == columns
            assert all(list(row) == columns for row in payload["rows"])


class TestModeSettings:
    @pytest.mark.parametrize("mode, flag, key, value", [
        ("theory", "--sessions", "n_sessions", "5"),
        ("theory", "--seed", "seed", "3"),
        ("theory", "--snr-db", "snr_db", "20"),
        ("sim", "--snr-db", "snr_db", "20"),
        ("compare", "--snr-db", "snr_db", "20"),
        ("phy", "--lambda", "lambda_grid", "0.8"),
        ("phy", "--epsilon", "epsilon", "0.1"),
    ])
    def test_unread_setting_refused(self, capsys, tmp_path, mode, flag, key, value):
        # a setting the mode would not read exits 2, as a flag or a config key
        out = tmp_path / "x.csv"
        args = [mode, *MODE_ARGS[mode], "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + [flag, value])
        assert exc.value.code == 2
        # reported with the usage of the mode, not the root's
        err = capsys.readouterr().err
        assert f"usage: rara {mode}" in err and f"unrecognized arguments: {flag}" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        capsys.readouterr()
        assert cli.main(args + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: {key}: unknown key" in err and "output_path" in err
        # the subcommand is the one place the mode is given, even its own
        cfg.write_text(json.dumps({"mode": mode}))
        assert cli.main(args + ["--config", str(cfg)]) == 2
        assert "mode: not a config key" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(args) == 0

    def test_flags_convert_like_config(self):
        # flags reach validate_spec as strings; an integer string stays exact
        spec = cli.validate_spec({"mode": "sim", "lambda_grid": "0.8", "m_grid": "2",
                                  "seed": "9007199254740993", "n_sessions": "1e3",
                                  "output_path": "x.csv"})
        assert spec.seed == 9007199254740993 and spec.n_sessions == 1000


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_grid": "0.4", "m_grid": "5",
                                   "epsilon": 0.2,
                                   "output_path": str(tmp_path / "x.csv")}))
        rc = cli.main(["theory", "--config", str(cfg), "--lambda", "0.8"])
        assert rc == 0
        row = read_csv(tmp_path / "x.csv")[0]
        assert float(row["lambda"]) == 0.8     # flag wins
        assert float(row["epsilon"]) == 0.2    # file value kept

    def test_validation_exit_code(self, capsys, tmp_path):
        rc = cli.main(["theory", "--lambda", "", "--m", "10", "--out", "x.csv"])
        assert rc == 2
        assert "lambda_grid" in capsys.readouterr().err
        # a fractional relay count is refused, not truncated to M = 2
        rc = cli.main(["theory", "--lambda", "0.8", "--m", "2.7", "--out", "x.csv"])
        assert rc == 2
        assert "m_grid" in capsys.readouterr().err
        rc = cli.main(["theory", "--lambda", "0:1e12:1", "--m", "10", "--out", "x.csv"])
        assert rc == 2
        assert "lambda_grid" in capsys.readouterr().err
        # arrival counts past what the walk tabulates are refused up front
        rc = cli.main(["sim", "--lambda", "0.8,1e7", "--m", "10", "--out", "x.csv"])
        assert rc == 2
        assert "lambda_grid" in capsys.readouterr().err
        with pytest.raises(cli.SpecValidationError) as exc:
            cli.validate_spec({"mode": "theory", "lambda_grid": [0.8, float("nan")],
                               "m_grid": [2.5], "output_path": "x.csv"})
        fields = " ".join(exc.value.problems)
        assert "lambda_grid" in fields and "m_grid" in fields
        # bad scalars are refused, not truncated or left to crash later
        out = tmp_path / "x.csv"
        base = {"lambda_grid": "0.8", "m_grid": "2", "n_sessions": 10,
                "output_path": str(out)}
        cfg = tmp_path / "cfg.json"
        for field, value in [("n_sessions", 2.5), ("seed", 1.5), ("epsilon", "abc"),
                             ("n_sessions", "many"), ("seed", -1)]:
            cfg.write_text(json.dumps({**base, field: value}))
            assert cli.main(["sim", "--config", str(cfg)]) == 2
            assert field in capsys.readouterr().err
        cfg.write_text(json.dumps(base))
        assert cli.main(["sim", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        for snr in ("nan", "-inf", "-4000"):
            rc = cli.main(["phy", "--m", "2", f"--snr-db={snr}", "--out", str(out)])
            assert rc == 2
            assert "snr_db" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert cli.main(["theory", "--config", str(cfg)]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_config_key_typo_named(self, capsys, tmp_path):
        # "sessions" is the flag; the config key is the spec field n_sessions
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_grid": "0.8", "m_grid": "2", "sessions": 50,
                                   "output_path": str(tmp_path / "x.csv")}))
        assert cli.main(["sim", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: sessions: unknown key" in err and "n_sessions" in err
        assert not (tmp_path / "x.csv").exists()

    def test_module_entry_point(self, tmp_path):
        # python -m rara goes through __main__; a bad config is no traceback
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "rara", "theory", "--config", str(cfg)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 2
        assert "not a JSON object" in proc.stderr and "Traceback" not in proc.stderr

    def test_io_exit_code_no_partial_file(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        rc = cli.main(["theory", "--lambda", "0.8", "--m", "10",
                       "--out", str(target)])
        assert rc == 3
        assert not target.exists()
