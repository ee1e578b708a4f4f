"""Every workload runs to its end at a small size, traced and untraced, and
prints exactly the metrics BENCHMARK.json names."""

import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from tracing import Tracer

SMALL = wl.Sizes(setups=1, train_ops=1, train_steps_per_run_s=100, eval_n=2,
                 probe_n=1, robust_n=1, min_rounds=1, trace_rounds=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_small(workload, trace):
    log = io.StringIO()
    result = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace)], sizes=SMALL, log=log)
    assert json.loads(log.getvalue().strip().splitlines()[-1]) == result
    assert result["correct"], log.getvalue()
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace:
        assert (run.HERE / "out" / f"trace-{workload}-seed3.npz").is_file()
    if trace and workload == "eval":
        # read from the evaluation episodes alone, which never repeat an input
        assert result["metrics"]["experts.encode_rows.repeat_share"]["value"] == 0.0


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


def test_refuses_without_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_layer_metrics_read_the_own_lane():
    t = Tracer()
    t.select("setup")
    t.totals["checkpoint.load_checkpoint"] = [2, 0.5, 0.5]
    t.select("train")
    t.totals["numcore.mlp_infer"] = [99, 9.0, 9.0]
    t.totals["numcore.backward"] = [5, 2.0, 2.0]
    t.select("eval")
    t.totals["numcore.mlp_infer"] = [10, 1.0, 0.5]
    t.totals["checkpoint.load_checkpoint"] = [1, 0.25, 0.25]
    metrics, borrowed = wl._layer_metrics(t, "eval", traced=1.5, untraced=1.0)
    assert metrics["numcore.mlp_infer.calls"][0] == 10
    assert metrics["numcore.mlp_infer.self_s"][0] == 0.5
    # a layer that does not run in the own lane comes from where it runs
    assert metrics["numcore.backward.self_s"][0] == 2.0
    assert borrowed == {"numcore.backward": "train"}
    # set-up layers add up the set-up and the own lane
    assert metrics["checkpoint.load_checkpoint.s"][0] == 0.75
    assert metrics["trace.overhead_share"][0] == 0.5
