"""Quick tests of the benchmark itself, at tiny depth.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import TRACED  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

EXACT = {"simharness.symbols", "simharness.chunks", "simharness.points",
         "simharness.points_at_max_symbols"}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_bench(workload, trace, seed=DEFAULT_SEED, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace), "--depth", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_reference_perturbed_by_one_error_fails_one_point():
    tdcslab = run.import_tdcslab()
    scenarios = run.setup(tdcslab, "windowed_sweep", DEFAULT_SEED, "tiny")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        observed = run.run_pass(tdcslab, scenarios, 2, out)
    reference = copy.deepcopy(run.load_reference("tiny", "windowed_sweep"))
    assert run.point_failures(observed, reference, scenarios) == 0
    reference["mismatch_u8_eta96"]["points"][1][3] += 1
    assert run.point_failures(observed, reference, scenarios) == 1


def test_exact_counts_repeat_between_runs():
    first, second = (result_of(run_bench("multipath", 1, seed=7))["metrics"]
                     for _ in range(2))
    names = [n for n in first if n in EXACT or n.endswith(".calls")]
    assert len(names) == len(EXACT) + len(TRACED)
    assert {n: first[n] for n in names} == {n: second[n] for n in names}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("full_circle", 0, root=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
