"""tools/bench.py: the tree hash that names each side, and the comparison of
two sides' medians.  Standard library only, like the tool."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "work_per_s", "unit": "items/s", "better": "higher", "bound": 0.25}]


def _checkout(root: Path) -> Path:
    for rel, text in (("src/rara/analytic.py", "x = 1\n"), ("src/rara/__init__.py", ""),
                      ("perfbench/run.py", "print()\n"), ("README.md", "readme\n")):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


class TestTreeHash:
    def test_moves_with_the_source(self, tmp_path):
        root = _checkout(tmp_path)
        before = bench._tree_hash(root)
        assert before == bench._tree_hash(root)
        (root / "src/rara/analytic.py").write_text("x = 2\n")
        assert bench._tree_hash(root) != before

    def test_moves_with_a_new_or_renamed_file(self, tmp_path):
        root = _checkout(tmp_path)
        before = bench._tree_hash(root)
        (root / "perfbench/extra.py").write_text("")
        added = bench._tree_hash(root)
        assert added != before
        (root / "perfbench/extra.py").rename(root / "perfbench/other.py")
        assert bench._tree_hash(root) not in (before, added)

    def test_ignores_what_runs_leave_behind(self, tmp_path):
        root = _checkout(tmp_path)
        before = bench._tree_hash(root)
        for rel in ("src/rara/__pycache__/analytic.cpython-311.pyc",
                    "perfbench/__pycache__/run.cpython-311.pyc",
                    "perfbench/out/theory_grid/theory_eps0.1_0.csv",
                    "perfbench/out/sim_phy-seed1-trace1.json"):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(b"\x00output")
        (root / "README.md").write_text("changed\n")  # outside src/ and perfbench/
        assert bench._tree_hash(root) == before

    def test_describe_needs_a_repository(self, tmp_path):
        assert bench._describe(_checkout(tmp_path)) is None


def _side(values, not_finished=0, correct_false=0):
    metrics = {}
    for spec in END_TO_END:
        vals = values[spec["name"]]
        metrics[spec["name"]] = {"median": vals[1], "q1": vals[0], "q3": vals[2]}
    return {"not_finished": not_finished, "correct_false": correct_false, "metrics": metrics}


class TestVersus:
    PARENT = {"wall_s": (0.9, 1.0, 1.1), "work_per_s": (90.0, 100.0, 110.0)}

    def test_worse_in_each_metrics_direction(self):
        # slower and less work per second: both worse by 10 %
        slower = _side({"wall_s": (1.0, 1.1, 1.2), "work_per_s": (80.0, 90.0, 100.0)})
        out = bench._versus(slower, _side(self.PARENT), END_TO_END)
        assert out["wall_s"]["worse_by"] == pytest.approx(0.1)
        assert out["work_per_s"]["worse_by"] == pytest.approx(0.1)
        assert out["wall_s"]["parent_iqr"] == pytest.approx(0.2)
        # faster and more work per second: both better, so negative
        faster = _side({"wall_s": (0.8, 0.9, 1.0), "work_per_s": (100.0, 110.0, 120.0)})
        out = bench._versus(faster, _side(self.PARENT), END_TO_END)
        assert out["wall_s"]["worse_by"] == pytest.approx(-0.1)
        assert out["work_per_s"]["worse_by"] == pytest.approx(-0.1)
        assert all(m["within_bound"] for m in out.values())

    def test_beyond_the_bound(self):
        slower = _side({"wall_s": (1.2, 1.3, 1.4), "work_per_s": (60.0, 70.0, 80.0)})
        out = bench._versus(slower, _side(self.PARENT), END_TO_END)
        assert not out["wall_s"]["within_bound"]
        assert not out["work_per_s"]["within_bound"]

    @pytest.mark.parametrize("failed", [{"not_finished": 1}, {"correct_false": 1}])
    @pytest.mark.parametrize("which", ["change", "parent"])
    def test_a_failed_run_is_never_within_bound(self, failed, which):
        # the same medians as the parent's, but one run on one side failed
        sides = {"change": _side(self.PARENT), "parent": _side(self.PARENT)}
        sides[which] = _side(self.PARENT, **failed)
        out = bench._versus(sides["change"], sides["parent"], END_TO_END)
        assert all(m["worse_by"] == 0.0 and not m["within_bound"] for m in out.values())

    def test_a_side_with_no_finished_run(self):
        empty = {"not_finished": 10, "correct_false": 0, "metrics": {}}
        out = bench._versus(empty, _side(self.PARENT), END_TO_END)
        assert all(m["worse_by"] is None and not m["within_bound"] for m in out.values())
