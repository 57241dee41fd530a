import csv
import dataclasses
import io
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rara import analytic, cli, mpr, sim

# A working argument list per mode, each flag one the mode reads.
MODE_ARGS = {
    "theory": ["--lambda", "0.8", "--m", "2"],
    "sim": ["--lambda", "0.8", "--m", "2", "--sessions", "100"],
    "compare": ["--lambda", "0.8", "--m", "2", "--sessions", "100"],
    "phy": ["--m", "2", "--sessions", "100", "--snr-db", "20"],
}

# The header of each table, pinned: a column renamed, dropped or moved in
# the code shows here.
THEORY_HEADER = ["lambda", "m", "epsilon", "throughput_exact", "throughput_approx",
                 "outage_exact", "outage_approx", "asymptotic_throughput",
                 "pi_0", "pi_1", "pi_S", "pi_U", "mean_session_length", "u_discontinuity"]
SIM_HEADER = THEORY_HEADER + ["throughput_hat", "stderr", "outage_hat", "sessions", "seed"]
HEADERS = {
    "theory": THEORY_HEADER,
    "sim": SIM_HEADER,
    "compare": SIM_HEADER + ["abs_err_throughput", "abs_err_outage"],
    "phy": ["k", "m", "snr_db", "ser", "trials", "seed"],
}


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestParseGrid:
    def test_comma_list(self):
        assert cli.parse_grid("0.4,0.8") == (0.4, 0.8)
        assert cli.parse_grid("1,5,10", int) == (1, 5, 10)

    def test_empty_entry_refused_not_dropped(self):
        # "1,,3" would run 2 rows and "0.8," the one row of "0.8"
        for text, entry in (("1,,3", 2), ("0.8,", 2), (",0.8", 1), ("0.4, ,0.8", 2)):
            with pytest.raises(ValueError, match=f"entry {entry} of comma list .* is empty"):
                cli.parse_grid(text)
        assert cli.parse_grid(" 0.4 , 0.8 ") == (0.4, 0.8)

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
        # steps below the 12-decimal rounding would repeat 0.0 and 1e-12
        with pytest.raises(ValueError, match="repeats"):
            cli.parse_grid("0:1e-12:1e-13")
        assert cli.parse_grid("0:1e-11:1e-12") == tuple(i * 1e-12 for i in range(11))


    def test_integer_range_is_exact(self, tmp_path):
        # an int range is read as ints: through floats these bounds past 2**53
        # gave one value, 2**53 itself, and a refusal as repeated values
        big = 10**20
        assert cli.parse_grid(f"{big + 1}:{big + 3}:1", int) == (big + 1, big + 2, big + 3)
        assert cli.parse_grid("9007199254740993:9007199254740993:1", int) == (2**53 + 1,)
        grid = cli.parse_grid("9007199254740993:9007199254740995:1", int)
        assert grid == (2**53 + 1, 2**53 + 2, 2**53 + 3)
        assert all(type(m) is int for m in grid)
        with pytest.raises(ValueError, match="values must be integers, got inf"):
            cli.parse_grid("1:inf:1", int)
        out = tmp_path / "big.csv"
        assert cli.main(["theory", "--lambda", "0.8", "--m", f"{big + 1}:{big + 3}:1",
                         "--out", str(out)]) == 0
        assert [int(row["m"]) for row in read_csv(out)] == [big + 1, big + 2, big + 3]

    def test_integer_range_counted_in_integers(self, capsys, tmp_path):
        # a float count's 1e-9 slack added a value past stop at steps >= 1e9
        assert cli.parse_grid("1:1000000000:1000000000", int) == (1,)
        assert cli.parse_grid("0:9999999999:10000000000", int) == (0,)
        out = tmp_path / "step.csv"
        assert cli.main(["theory", "--lambda", "0.8", "--m", "1:1000000000:1000000000",
                         "--out", str(out)]) == 0
        assert [row["m"] for row in read_csv(out)] == ["1"]
        # a bound past the float range is refused by the rule it breaks, not by
        # a float conversion of the bound
        huge = "9" * 400
        for m_grid, message in ((f"1:{huge}:1", "more than 100000 values"),
                                (f"{huge}:{huge}:1", "relay counts must fit in a float")):
            out = tmp_path / "huge.csv"
            assert cli.main(["theory", "--lambda", "0.8", "--m", m_grid, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: m_grid: ") and message in err
            assert not out.exists()


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

    @pytest.mark.parametrize("lam, m, message", [
        ("0.8,1e6", "1,10", "can exceed 2097152"),  # an untabulable arrival law
        ("0.8,1e308", "2,10", r"lambda\*\(M\+1\) finite"),  # lambda*(M+1) overflows
    ])
    def test_largest_point_refused_as_its_row(self, lam, m, message):
        # the grid's largest point is refused with the message that building
        # its row raises, though each grid alone is valid
        lams, ms = cli.parse_grid(lam), cli.parse_grid(m, int)
        with pytest.raises(ValueError, match=message) as built:
            sim.SimConfig(analytic.SystemParams(max(lams), max(ms)),
                          sim.PoissonProcess(max(lams)), 10**6)
        with pytest.raises(cli.SpecValidationError) as exc:
            cli.validate_spec(self.base(mode="compare", lambda_grid=lam, m_grid=m))
        assert exc.value.problems == [f"lambda_grid: {built.value}"]

    def test_spec_fields_are_declared_once(self):
        # the spec's fields are the mode, then FIELDS' keys, in that order
        assert [f.name for f in dataclasses.fields(cli.ExperimentSpec)] == ["mode", *cli.FIELDS]
        assert cli.ExperimentSpec.__module__ == "rara.cli"
        spec = cli.validate_spec(self.base(mode="sim"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1
        assert hash(spec) == hash(cli.validate_spec(self.base(mode="sim")))
        assert pickle.loads(pickle.dumps(spec)) == spec

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
        # -0.0 passes lambda >= 0; left as -0.0 it would make the Gaussian
        # approximations nan, and it must give the lambda = 0 rows byte for byte
        out = tmp_path / "z.csv"
        assert cli.main(["theory", "--lambda=-0.0,0", "--m", "3,7",
                         "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[:2] == rows[2:]
        for row in rows:
            for col in ("throughput_exact", "throughput_approx",
                        "outage_exact", "outage_approx", "asymptotic_throughput"):
                assert row[col] == "0.0"

    def test_header_stable(self, tmp_path):
        out = tmp_path / "h.csv"
        cli.main(["theory", "--lambda", "0.8", "--m", "10", "--out", str(out)])
        header = out.read_text().splitlines()[0].split(",")
        assert header == THEORY_HEADER

    def test_unit_load_flagged(self, tmp_path):
        out = tmp_path / "u.csv"
        cli.main(["theory", "--lambda", "0.8,1.0", "--m", "10", "--out", str(out)])
        rows = read_csv(out)
        assert rows[0]["u_discontinuity"] == "0"
        assert rows[1]["u_discontinuity"] == "1"
        assert float(rows[1]["asymptotic_throughput"]) == 0.5

    @pytest.mark.parametrize("eps", ["0.05", "0.1", "0.5"])
    def test_outage_is_pi_u(self, tmp_path, eps):
        # the outage column is pi_U, the same text on every row of the
        # benchmark's six tables
        for m_grid, n_rows in (("1:50:1", 2000), ("100,200,400,800,1600,3200", 240)):
            out = tmp_path / "o.csv"
            assert cli.main(["theory", "--lambda", "0.05:2.0:0.05", "--m", m_grid,
                             "--epsilon", eps, "--out", str(out)]) == 0
            rows = read_csv(out)
            assert len(rows) == n_rows
            assert [r["outage_exact"] for r in rows] == [r["pi_U"] for r in rows]

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

    def test_locked_chain_enters_in_long(self, tmp_path):
        # at lambda = 1e-17, M = 10**20, epsilon = 1 the table rounds the
        # chain into two closed classes, Idle and Long, and theory puts it in
        # Long (pi_S = 1): a run that entered in Idle would count no packet
        out = tmp_path / "c.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["compare", "--lambda", "1e-17", "--m", str(10**20), "--epsilon", "1",
                             "--sessions", "1000", "--seed", "1", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["pi_S"]) == 1.0
        hat, stderr = float(row["throughput_hat"]), float(row["stderr"])
        assert hat > 0 and abs(hat - 1e-17) < 5 * stderr

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


class TestConcurrentRows:
    ARGS = [
        ["phy", "--m", "1,2,4", "--snr-db", "20", "--sessions", "2000", "--seed", "3"],
        ["compare", "--lambda", "0.4,0.8", "--m", "1:5:1", "--sessions", "5000",
         "--seed", "4"],
    ]

    @pytest.mark.parametrize("args", ARGS, ids=["phy", "compare"])
    def test_thread_count_invisible(self, tmp_path, monkeypatch, args):
        default = tmp_path / "default.csv"
        assert cli.main(args + ["--out", str(default)]) == 0
        # one thread, and more threads than this host may have cores
        for cpus in (1, 4):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}.csv"
            assert cli.main(args + ["--out", str(out)]) == 0
            assert out.read_bytes() == default.read_bytes()

    def test_grouping_invisible(self, tmp_path, monkeypatch):
        # simulated rows walked one per group, in the default groups, and
        # all in one group write the same bytes
        args = ["compare", "--lambda", "0.4,0.8", "--m", "1:4:1", "--sessions", "40000",
                "--seed", "4"]
        walked = 40_000
        sizes, run_group = [], sim._run_group
        monkeypatch.setattr(sim, "_run_group",
                            lambda configs: sizes.append(len(configs)) or run_group(configs))
        outputs = []
        for budget in (walked, sim._WALK_BUDGET, 8 * walked):
            monkeypatch.setattr(sim, "_WALK_BUDGET", budget)
            out = tmp_path / f"budget{budget}.csv"
            assert cli.main(args + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert sorted(sizes) == [1] * 8 + [2, 3, 3, 8]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_heaviest_phy_rows_start_first(self, tmp_path, monkeypatch):
        # one thread enters the rows in the order they are handed to the pool:
        # descending K(M+1), ties in grid order; the table stays in grid order
        entered = []
        real = mpr.symbol_error_rate

        def recording(k, m, *rest):
            entered.append((k, m))
            return real(k, m, *rest)

        monkeypatch.setattr(mpr, "symbol_error_rate", recording)
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        out = tmp_path / "out.csv"
        assert cli.main(self.ARGS[0] + ["--out", str(out)]) == 0
        grid = [(k, m) for m in (1, 2, 4) for k in range(1, m + 2)]
        assert entered == sorted(grid, key=lambda cell: cell[0] * (cell[1] + 1), reverse=True)
        assert entered != grid
        assert [(int(row["k"]), int(row["m"])) for row in read_csv(out)] == grid

    # the rows that fail: (k, M) = (2, 2) of phy, and M = 3 of compare, whose
    # config fails as it is built, in the group of rows that it is walked with
    @pytest.mark.parametrize("args, module, name, fails", [
        (ARGS[0], mpr, "symbol_error_rate", lambda k, m, *rest: (k, m) == (2, 2)),
        (ARGS[1], sim, "SimConfig", lambda params, *rest: params.m_relays == 3),
    ], ids=["phy", "compare"])
    def test_failing_row_raises_and_writes_nothing(self, tmp_path, monkeypatch,
                                                   args, module, name, fails):
        real = getattr(module, name)

        def failing(*a):
            if fails(*a):
                raise RuntimeError("row failed")
            return real(*a)

        monkeypatch.setattr(module, name, failing)
        monkeypatch.setattr(cli, "_cpus", lambda: 4)
        with pytest.raises(RuntimeError, match="row failed"):
            cli.main(args + ["--out", str(tmp_path / "out.csv")])
        assert list(tmp_path.iterdir()) == []


class TestMapRows:
    """The row pool's contract on made-up tasks, with one worker and four,
    and the CPU count that sizes it."""

    @pytest.fixture(params=[1, 4], ids=["one-worker", "four-workers"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(cli, "_cpus", lambda: request.param)
        return request.param

    def test_results_in_task_order(self, workers):
        tasks = [(i, 10 * i) for i in range(7)]
        costs = [3, 1, 4, 1, 5, 9, 2]
        assert cli._map_rows(lambda a, b: a + b, tasks, costs) == [11 * i for i in range(7)]

    def test_one_worker_dispatches_heaviest_first(self, monkeypatch):
        # one thread enters the tasks in the order they are handed to the pool
        monkeypatch.setattr(cli, "_cpus", lambda: 1)
        entered = []
        costs = [1, 3, 2, 3, 1, 2]
        assert cli._map_rows(entered.append, [(i,) for i in range(6)], costs) == [None] * 6
        assert entered == [1, 3, 2, 5, 0, 4]

    def test_first_failure_in_task_order_raises(self, workers):
        # task 2 is dispatched first and task 0 last; task 0's error is raised
        def task(i):
            if i in (0, 2):
                raise RuntimeError(f"task {i}")
            return i

        with pytest.raises(RuntimeError, match="task 0"):
            cli._map_rows(task, [(i,) for i in range(4)], [1, 2, 3, 2])

    def test_unstarted_task_never_runs(self, workers, monkeypatch):
        # task 0 fails once every task is submitted, and tasks 1..workers
        # return only once the last task is cancelled: every thread is then
        # busy until the cancellation, so the last task cannot start
        # however the threads are scheduled
        n = workers + 2
        futures, ran, submitted = [], [], threading.Event()

        class Pool(ThreadPoolExecutor):
            def submit(self, *args):
                futures.append(super().submit(*args))
                if len(futures) == n:
                    submitted.set()
                return futures[-1]

        def task(i):
            ran.append(i)
            submitted.wait()
            if i == 0:
                raise RuntimeError("task 0")
            cancelled = threading.Event()
            futures[-1].add_done_callback(lambda future: cancelled.set())
            cancelled.wait(10)  # bounds a hang where nothing cancels it

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        with pytest.raises(RuntimeError, match="task 0"):
            cli._map_rows(task, [(i,) for i in range(n)], [n - i for i in range(n)])
        assert futures[-1].cancelled()
        assert n - 1 not in ran

    def test_cpus_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._cpus() == 1

class TestJsonFormat:
    def test_mirrors_csv_schema(self, tmp_path):
        out = tmp_path / "t.json"
        cli.main(["theory", "--lambda", "0.8", "--m", "10", "--format", "json",
                  "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["columns"] == THEORY_HEADER
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["m"] == 10

    @pytest.mark.parametrize("mode", MODE_ARGS)
    def test_strict_json(self, tmp_path, mode):
        # one session leaves the batch-means stderr NaN, which RFC 8259 has
        # no token for: JSON writes null where CSV keeps nan
        args = [mode, *MODE_ARGS[mode]]
        if mode in ("sim", "compare"):
            args[args.index("--sessions") + 1] = "1"
        out = tmp_path / "t.json"
        assert cli.main(args + ["--format", "json", "--out", str(out)]) == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        if mode in ("sim", "compare"):
            assert payload["rows"][0]["stderr"] is None
            assert cli.main(args + ["--out", str(tmp_path / "t.csv")]) == 0
            assert read_csv(tmp_path / "t.csv")[0]["stderr"] == "nan"


def csv_oracle(columns, rows):
    """The table as csv.writer writes it, the rule render's CSV text keeps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


class TestCsvText:
    def test_edge_values(self):
        columns = ["a", "b", "c"]
        values = [-0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, math.inf, -math.inf,
                  math.nan, 2**63, 0, 1, -7, 1.0, -2.5e-300]
        rows = [tuple(values[i:i + 3]) for i in range(0, len(values), 3)]
        assert cli.render(columns, rows, "csv") == csv_oracle(columns, rows)
        assert cli.render(columns, [], "csv") == csv_oracle(columns, [])

    @pytest.mark.parametrize("argv", [
        ["theory", "--lambda", "0:2:0.25", "--m", "1,10,3200"],
        ["compare", "--lambda", "0.4,0.8", "--m", "1:3:1", "--sessions", "500"],
        ["phy", "--m", "1,3", "--sessions", "50", "--snr-db", "20"],
    ])
    def test_real_tables(self, argv):
        parser, _ = cli._build_parser()
        raw = vars(parser.parse_args([*argv, "--out", "unused.csv"]))
        columns, rows = cli.build_rows(cli.validate_spec(raw))
        # every cell a Python int or float, the case render's text rule covers
        assert {type(value) for row in rows for value in row} <= {int, float}
        assert cli.render(columns, rows, "csv") == csv_oracle(columns, rows)


class TestHeaders:
    def test_every_mode(self, tmp_path):
        # rows carry their cells in column order, so CSV and JSON agree
        for mode, columns in HEADERS.items():
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
        # JSON true is not a count, a rate or a path, though Python reads it as 1
        for field, value in [("n_sessions", 2.5), ("seed", 1.5), ("epsilon", "abc"),
                             ("n_sessions", "many"), ("seed", -1), ("seed", True),
                             ("n_sessions", True), ("epsilon", True),
                             ("lambda_grid", [0.8, True]), ("m_grid", [False]),
                             ("output_path", True), ("format", False)]:
            cfg.write_text(json.dumps({**base, field: value}))
            assert cli.main(["sim", "--config", str(cfg)]) == 2
            assert f"error: {field}: " in capsys.readouterr().err
        cfg.write_text(json.dumps(base))
        assert cli.main(["sim", "--config", str(cfg), "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        for snr in ("nan", "-inf", "-4000"):
            rc = cli.main(["phy", "--m", "2", f"--snr-db={snr}", "--out", str(out)])
            assert rc == 2
            assert "snr_db" in capsys.readouterr().err
        # lambda*(M+1) overflows (every exact column read nan), also when only
        # the largest lambda and M together overflow
        for mode, lam, m in (("theory", "1e308", "10"), ("compare", "0.8,1e308", "10"),
                             ("theory", "1e307", "1,20")):
            rc = cli.main([mode, "--lambda", lam, "--m", m, "--out", str(out)])
            assert rc == 2
            assert "error: lambda_grid: traffic intensities" in capsys.readouterr().err
        assert not out.exists()

    def test_table_row_cap(self, capsys, tmp_path):
        # each range is within the cap, the table is not: counted before any
        # row is built, so a 1e9-row table is refused, not a MemoryError
        out = tmp_path / "x.csv"
        for argv, rows in ((["theory", "--lambda", "0:1:0.001", "--m", "1:101:1"], 101_101),
                           (["theory", "--lambda", "0:1:0.0001", "--m", "1:100000:1"],
                            10_001 * 100_000),
                           (["phy", "--m", "100000000", "--snr-db", "20"], 10**8 + 1)):
            assert cli.main([*argv, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: table: ") and f" {rows} rows" in err
            assert not out.exists()
        # a table of exactly MAX_RANGE_VALUES rows is accepted
        cap = cli.MAX_RANGE_VALUES
        cli.validate_spec({"mode": "theory", "lambda_grid": "0:0.99:0.01",
                           "m_grid": f"1:{cap // 100}:1", "output_path": "x.csv"})
        cli.validate_spec({"mode": "phy", "m_grid": [cap - 1], "snr_db": 20.0,
                           "output_path": "x.csv"})
        with pytest.raises(cli.SpecValidationError, match=f"{cap + 1} rows"):
            cli.validate_spec({"mode": "phy", "m_grid": [cap], "snr_db": 20.0,
                               "output_path": "x.csv"})

    def test_unknown_format(self, capsys, tmp_path):
        out = tmp_path / "x.xml"
        assert cli.main(["theory", "--lambda", "0.8", "--m", "2", "--format", "xml",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: format: must be csv or json, got 'xml'\n"
        assert not out.exists()

    def test_unreadable_or_malformed_config(self, capsys, tmp_path):
        # a file that cannot be read is an I/O error, one that is not JSON a
        # validation error; neither writes the output
        out = tmp_path / "x.csv"
        args = ["theory", "--lambda", "0.8", "--m", "2", "--out", str(out), "--config"]
        assert cli.main([*args, str(tmp_path / "missing.json")]) == 3
        assert "error: cannot read config" in capsys.readouterr().err
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"epsilon": 0.1,')
        assert cli.main([*args, str(cfg)]) == 2
        assert "error: bad config" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_list_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda_grid": [], "m_grid": [2],
                                   "output_path": str(tmp_path / "x.csv")}))
        assert cli.main(["theory", "--config", str(cfg)]) == 2
        assert "error: lambda_grid: grid must be non-empty" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    def test_failed_replace_leaves_no_temp_file(self, capsys, tmp_path):
        # the temp file is written beside --out; when os.replace fails (here
        # --out is an existing directory) it is removed again
        target = tmp_path / "taken"
        target.mkdir()
        assert cli.main(["theory", "--lambda", "0.8", "--m", "10",
                         "--out", str(target)]) == 3
        assert f"error: cannot write {target}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert list(target.iterdir()) == []
