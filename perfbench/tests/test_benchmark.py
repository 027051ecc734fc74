"""BENCHMARK.json against the catalogue, tiny smoke runs, and the no-program exit."""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import metrics
from common import Context
from ingest_watch import IngestWatch
from search_paper import SearchPaper

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_catalogue():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in metrics.END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER
    ]
    assert [w["name"] for w in SPEC["workloads"]] == ["search_paper", "ingest_watch"]


def test_benchmark_json_is_within_the_contract_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert SPEC["command"][1].startswith(SPEC["paths"][0] + "/")


def _ctx(tmp_path, trace: bool, seconds: float) -> Context:
    work = tmp_path / ("traced" if trace else "plain")
    work.mkdir()
    return Context(seed=3, seconds=seconds, trace=trace, src=ROOT / "src", work=work)


SMALL = {
    "search_paper": (lambda: SearchPaper(series=60, length=64, setups=1, warmup_requests=1), 1.0),
    "ingest_watch": (lambda: IngestWatch(series=120, length=64, watches=4, round_inserts=24, min_rounds=1), 1.5),
}


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tiny_smoke_run(tmp_path, workload, trace):
    make, seconds = SMALL[workload]
    tally, values = make().run(_ctx(tmp_path, trace, seconds))
    tally.report()
    assert tally.attempted > 0 and tally.failed == 0
    assert set(values) == set(metrics.units(trace))
    if not trace:
        assert all(v > 0 for v in values.values())
    else:
        assert values["trace.ops"] > 0 and values["trace.coverage_pct"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = SPEC["command"] + ["--workload", "search_paper", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable] + command[1:], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
