"""Self-test of the benchmark at tiny sizes: python3 -m pytest bench"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# counts and quality figures that a fixed seed must reproduce exactly
DETERMINISTIC = ("linear_ot.calls", "gw.fw_iters_per_solve", "gw.solves",
                 "failed_frac", "completed_frac", "converged_frac",
                 "gw_distance_mean", "gw_distance_p50", "mean_loss_mean",
                 "block_dev_mean")


def _tiny(workload, trace, seed=3):
    return run.run(workload, seed, 0, trace, scale="tiny",
                   setup_repeats=False)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, key", [(False, "end_to_end"),
                                        (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, key):
    lines, _, result = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"metric {name} ") and
                   line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("env ") for line in lines)
    json.dumps(result)


def test_end_to_end_names_match_the_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_counts_and_quality(workload):
    for trace in (False, True):
        _, first, _ = _tiny(workload, trace)
        _, second, _ = _tiny(workload, trace)
        keys = [k for k in DETERMINISTIC if k in first]
        assert keys
        assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


def test_repeats_do_not_change_the_counts():
    _, _, once = run.run("mean", 3, 0, False, scale="tiny",
                         setup_repeats=False)
    _, _, cycled = run.run("mean", 3, 1, False, scale="tiny",
                           setup_repeats=False)
    assert once["attempted"] == cycled["attempted"] == 2
    assert once["failed"] == cycled["failed"]


def test_another_seed_gives_other_inputs():
    _, a, _ = _tiny("pairs", False, seed=3)
    _, b, _ = _tiny("pairs", False, seed=4)
    assert a["gw_distance_mean"] != b["gw_distance_mean"]


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "pairs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
