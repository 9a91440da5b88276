"""Benchmark of the tdcslab Monte Carlo BER engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload full_circle --seed 1 --seconds 30 --trace 0

A run pins BLAS to one thread through the environment before numpy loads,
measures set-up, runs one untimed check pass at the default seed against
the committed reference records, then timed passes at ``--seed`` for
``--seconds``.  A pass drives the public API: ``run_ber_scenario(cfg,
threads)``, then ``records_to_csv`` and ``emit_results`` for each scenario of
the workload.  With ``--trace 0`` the last line of standard output is the
result with the end-to-end metrics; with ``--trace 1`` the timed passes
alternate between untraced and traced, and the result carries the per-layer
metrics.  ``failed`` counts the grid points whose records differ from the
reference, from each other across passes, or from a property that holds at
any seed.  NOTES.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace

from workloads import DEFAULT_SEED, MUI_FREE_NF_SWEEPS, TINY, TINY_GRID, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 15


def import_tdcslab():
    """Import tdcslab from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    import tdcslab

    if not os.path.abspath(tdcslab.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"tdcslab imported from {tdcslab.__file__}, not {src}")
    return tdcslab


def setup(tdcslab, workload: str, seed: int, depth: str):
    """Parse the workload's scenarios and build each system once.

    Returns ``[(label, cfg, bits_per_symbol)]``.
    """
    out = []
    for label, stem, overrides in WORKLOADS[workload]["scenarios"]:
        cfg = tdcslab.load_scenario(os.path.join(ROOT, "scenarios", stem + ".cfg"))
        fields = dict(overrides, seed=seed, scenario_id=label)
        if depth == "tiny":
            fields.update(TINY)
            fields["ebn0_db"] = fields.get("ebn0_db", cfg.ebn0_db)[:TINY_GRID]
            fields["nf_db"] = cfg.nf_db[:TINY_GRID]
        cfg = replace(cfg, **fields)
        m_order = tdcslab.simharness.build_system(cfg).m_order
        out.append((label, cfg, m_order.bit_length() - 1))
    return out


def measure_setup(workload: str, seed: int, depth: str):
    """Median time to import tdcslab, parse the scenarios and build each system.

    tdcslab is imported afresh ``SETUP_REPEATS`` times; numpy is loaded
    first, so its own import time is not counted.  Returns the median, the
    last imported package and its ``setup`` output.
    """
    import numpy  # noqa: F401

    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m.split(".")[0] == "tdcslab"]:
            del sys.modules[name]
        t0 = time.perf_counter()
        tdcslab = import_tdcslab()
        scenarios = setup(tdcslab, workload, seed, depth)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), tdcslab, scenarios


def run_pass(tdcslab, scenarios, threads: int, out_dir: str) -> dict:
    """Run every scenario once; return ``{label: {"csv", "points"}}``.

    ``points`` lists ``[nf_db, ebn0_db, bits, errors, reached_min_errors]``
    per grid point; a scenario that raised has ``csv`` and ``points`` None.
    """
    observed = {}
    for label, cfg, _ in scenarios:
        try:
            records = tdcslab.run_ber_scenario(cfg, threads)
            csv = tdcslab.simharness.records_to_csv(cfg, records)
            tdcslab.emit_results(records, cfg, out_dir)
        except Exception:  # a failing scenario counts its points as failed
            traceback.print_exc()
            observed[label] = {"csv": None, "points": None}
            continue
        observed[label] = {
            "csv": csv,
            "points": [[r.nf_db, r.ebn0_db, r.bits_sent, r.bit_errors,
                        r.reached_min_errors] for r in records],
        }
    return observed


def n_points(cfg) -> int:
    return len(cfg.nf_db) * len(cfg.ebn0_db)


def csv_sha256(csv: str) -> str:
    return hashlib.sha256(csv.encode()).hexdigest()


def point_failures(observed: dict, expected: dict, scenarios) -> int:
    """Grid points whose ``(bits, errors)`` differ from ``expected``.

    ``expected`` maps each label to ``{"points": [[nf, ebn0, bits, errors],
    ...]}``; a scenario that raised fails all of its points.
    """
    failed = 0
    for label, cfg, _ in scenarios:
        got = observed[label]["points"]
        want = expected[label]["points"]
        if got is None or want is None:
            failed += n_points(cfg)
            continue
        failed += abs(len(got) - len(want))
        failed += sum(1 for g, w in zip(got, want) if list(g[:4]) != list(w[:4]))
    return failed


def invariant_failures(observed: dict, scenarios) -> int:
    """Grid points that break a property holding at any seed.

    Every point stops by the rule (``min_bit_errors`` reached, or exactly
    ``max_symbols`` symbols sent), and in a MUI-free near-far sweep every
    point repeats the first point's counts.
    """
    failed = 0
    for label, cfg, kbits in scenarios:
        points = observed[label]["points"]
        if points is None:
            failed += n_points(cfg)
            continue
        for nf, ebn0, bits, errors, reached in points:
            stopped = (errors >= cfg.min_bit_errors) if reached else (
                bits == kbits * cfg.max_symbols)
            same = label not in MUI_FREE_NF_SWEEPS or (
                [bits, errors] == points[0][2:4])
            if not (stopped and same and 0 <= errors <= bits
                    and bits % kbits == 0):
                failed += 1
    return failed


def symbols_and_chunks(observed: dict, scenarios):
    symbols = chunks = at_max = 0
    for label, cfg, kbits in scenarios:
        for _, _, bits, _, reached in observed[label]["points"] or ():
            symbols += bits // kbits
            chunks += math.ceil(bits // kbits / cfg.chunk_symbols)
            at_max += not reached
    return symbols, chunks, at_max


def git_revision() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def environment(workload: str, seed: int, depth: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "depth": depth,
        "workers": WORKLOADS[workload]["threads"],
        "nproc": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in PINNED_BLAS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": git_revision(),
    }


def load_reference(depth: str, workload: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[depth][workload]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(passes, setup_s: float, peak_rss_mb: float) -> dict:
    wall = statistics.median(p["wall_s"] for p in passes)
    symbols = passes[0]["symbols"]
    return {
        "wall_s": metric(wall, "s"),
        "ksym_per_s": metric(symbols / wall / 1000.0, "ksym/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer_metrics(passes) -> dict:
    traced = [p for p in passes if p["trace"] is not None]
    plain = [p for p in passes if p["trace"] is None]
    first = traced[0]
    engine_self = statistics.median(p["trace"]["engine_self_s"] for p in traced)
    out = {
        "simharness.engine_self.s": metric(engine_self, "s"),
        "simharness.engine_self.us_per_symbol":
            metric(engine_self * 1e6 / first["symbols"], "us"),
        "proc.cpu_s": metric(statistics.median(p["cpu_s"] for p in traced), "s"),
        "proc.cpu_per_wall": metric(
            statistics.median(p["cpu_s"] / p["wall_s"] for p in traced), "ratio"),
        "simharness.symbols": metric(first["symbols"], "count"),
        "simharness.chunks": metric(first["chunks"], "count"),
        "simharness.points": metric(first["points"], "count"),
        "simharness.points_at_max_symbols": metric(first["at_max"], "count"),
    }
    for name, stats in first["trace"].items():
        if name == "engine_self_s":
            continue
        out[f"{name}.calls"] = metric(stats["calls"], "count")
        out[f"{name}.s"] = metric(
            statistics.median(p["trace"][name]["s"] for p in traced), "s")
    out["trace.overhead_ratio"] = metric(
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain), "ratio")
    return out


def timed_pass(tdcslab, scenarios, threads, out_dir, traced: bool) -> tuple:
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(tdcslab)
        tracer.install()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        observed = run_pass(tdcslab, scenarios, threads, out_dir)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    symbols, chunks, at_max = symbols_and_chunks(observed, scenarios)
    return observed, {
        "wall_s": wall, "cpu_s": cpu, "symbols": symbols, "chunks": chunks,
        "at_max": at_max, "points": sum(n_points(cfg) for _, cfg, _ in scenarios),
        "trace": tracer.summary() if tracer is not None else None,
    }


def run(args) -> dict:
    setup_s, tdcslab, scenarios = measure_setup(args.workload, args.seed,
                                                args.depth)
    threads = WORKLOADS[args.workload]["threads"]
    print(json.dumps({"env": environment(args.workload, args.seed, args.depth)}))
    check_scenarios = setup(tdcslab, args.workload, DEFAULT_SEED, args.depth)
    reference = load_reference(args.depth, args.workload)
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        # untimed check pass at the default seed; it also warms the caches
        check = run_pass(tdcslab, check_scenarios, threads, out_dir)
        failed = point_failures(check, reference, check_scenarios)
        failed += invariant_failures(check, check_scenarios)
        sha_ok = True
        for label, _, _ in check_scenarios:
            csv = check[label]["csv"]
            if csv is not None and csv_sha256(csv) != reference[label]["csv_sha256"]:
                sha_ok = False
                print(f"perfbench: {label} CSV body differs from the reference",
                      file=sys.stderr)
        attempted = sum(n_points(cfg) for _, cfg, _ in check_scenarios)

        passes = []
        first = None
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            observed, stats = timed_pass(tdcslab, scenarios, threads, out_dir,
                                         traced)
            passes.append(stats)
            attempted += stats["points"]
            if first is None:
                first = observed
                failed += invariant_failures(observed, scenarios)
                for label, _, _ in scenarios:
                    if observed[label]["csv"] is not None:
                        print(json.dumps({
                            "scenario": label, "seed": args.seed,
                            "csv_sha256": csv_sha256(observed[label]["csv"])}))
            else:
                failed += point_failures(observed, first, scenarios)
            elapsed = time.perf_counter() - start
            enough = not args.trace or len(passes) >= 2
            if enough and elapsed + stats["wall_s"] > args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print(json.dumps({"pass_wall_s": [p["wall_s"] for p in passes],
                      "pass_traced": [p["trace"] is not None for p in passes]}))
    if args.trace:
        metrics = per_layer_metrics(passes)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end_metrics(passes, setup_s, peak_kb / 1024.0)
    return {"correct": failed == 0 and sha_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tdcslab BER benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--depth", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own quick tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (os.path.isfile(os.path.join(ROOT, "src", "tdcslab", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "scenarios"))):
        print(f"perfbench: no tdcslab sources or scenarios under {ROOT}",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy first loads it, below
    os.environ.update(PINNED_BLAS)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
