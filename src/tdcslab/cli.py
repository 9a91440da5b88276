"""Command-line frontend.

Subcommands expose the toolkit end to end: ``design`` (waveforms and their
correlation profiles), ``capacity`` / ``throughput`` (multiuser analytics),
``plan`` (shift windows), ``verify`` (invariant battery), ``ber`` (Monte Carlo
scenario runs), and ``report`` (re-render a results CSV).

Exit codes are a stable scripting contract: 0 success, 2 usage error,
3 validation error (bad config or parameters), 4 runtime failure.
The default output directory is ``--out``, falling back to the
``TDCSLAB_OUT_DIR`` environment variable, then ``./tdcslab_out``.
"""

from __future__ import annotations

import argparse
import csv as _csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, seqcore
from .allocation import plan_shifts, throughput, u_max
from .errors import (CapacityError, DimensionError, ParameterError, ScenarioError,
                     SequenceValidationError, TdcsError)
from .seqcore import (builtin_quadriphase16, export_complex_csv, gen_zadoff_chu,
                      is_perfect_sequence, periodic_xcorr_fft, zero_zone_verify)
from .simharness import (
    ScenarioConfig,
    build_system,
    emit_results,
    load_scenario,
    read_results,
    records_to_csv,
    render_report,
    run_ber_scenario,
)
from .spectrum import mark_from_bands
from .waveform import build_user_fmw

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

OUT_DIR_ENV = "TDCSLAB_OUT_DIR"


def _comma_list(kind):
    """argparse ``type`` for a comma list of ``kind`` values."""
    def parse(text: str) -> list:
        return [kind(x) for x in text.split(",")]
    parse.__name__ = f"comma list of {kind.__name__}"  # names it in usage errors
    return parse


_COMMON = {  # shared flags; a subcommand takes the ones its handler reads
    "--out": dict(help=f"output directory (default ${OUT_DIR_ENV} or ./tdcslab_out)"),
    "--seed": dict(type=int, help="override the root seed"),
    "--threads": dict(type=int, default=1, help="worker count"),
    "--verbose": dict(action="store_true"),
}


def _add_common(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_COMMON[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcslab",
        description="Interference-avoiding TDCS cognitive-radio toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="emit waveforms and correlation profiles")
    p.set_defaults(handler=cmd_design)
    p.add_argument("--config", required=True, help="scenario file")
    _add_common(p, "--out", "--seed")

    p = sub.add_parser("capacity", help="multiuser capacity table")
    p.set_defaults(handler=cmd_capacity)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--l", type=_comma_list(int), default="8,9,12,16",
                   help="comma list of time-code lengths")
    p.add_argument("--ratios", type=_comma_list(float), default="0.25,1,2",
                   help="comma list of M/N ratios")
    _add_common(p, "--out")

    p = sub.add_parser("throughput", help="aggregated throughput curves")
    p.set_defaults(handler=cmd_throughput)
    p.add_argument("--n", type=_comma_list(int), default="64,128",
                   help="comma list of bin counts")
    p.add_argument("--l", type=_comma_list(int), default="8,16",
                   help="comma list of time-code lengths")
    p.add_argument("--beta", type=float, default=0.75,
                   help="available-spectrum fraction")
    _add_common(p, "--out")

    p = sub.add_parser("plan", help="lay out and check shift windows")
    p.set_defaults(handler=cmd_plan)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t-max", type=int, default=0)
    _add_common(p, "--out")

    p = sub.add_parser("verify", help="run the invariant battery")
    p.set_defaults(handler=cmd_verify)
    _add_common(p, "--verbose")

    p = sub.add_parser("ber", help="run a Monte Carlo BER scenario")
    p.set_defaults(handler=cmd_ber)
    p.add_argument("--config", required=True, help="scenario file")
    _add_common(p, "--out", "--seed", "--threads", "--verbose")

    p = sub.add_parser("report", help="re-render a results CSV")
    p.set_defaults(handler=cmd_report)
    p.add_argument("--results", required=True, help="results CSV path")

    return parser


def _out_dir(args) -> str:
    out = (args.out if args.out is not None
           else os.environ.get(OUT_DIR_ENV, "tdcslab_out"))
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(args):
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_design(args) -> int:
    cfg = _load_config(args)
    system = build_system(cfg)   # checks the plan before anything is written
    out = _out_dir(args)
    summary = [f"design summary: {cfg.scenario_id}",
               f"N={cfg.n} L={cfg.l} U={cfg.u} block={system.block_len} "
               f"M={system.m_order}"]
    passed = True
    for j, chip in enumerate(system.chips, start=1):
        export_complex_csv(chip, os.path.join(out, f"fmw_user{j}.csv"))
        # the profile user 1's correlator sees; the summary line checks it
        profile = periodic_xcorr_fft(chip, system.chips[0])
        pair, name = (("user1 ACF", "acf_user1.csv") if j == 1 else
                      (f"user1/user{j} CCF", f"ccf_user1_user{j}.csv"))
        export_complex_csv(profile, os.path.join(out, name))
        if j == 1:
            summary.append(f"user1 ACF peak at shift 0: {abs(profile[0]):.6f} "
                           f"(energy {system.symbol_energy:.6f})")
        if cfg.system != "traditional_tdcs":
            rep = zero_zone_verify(chip, system.chips[0], cfg.n, cfg.l)
            passed = passed and rep.passed
            summary.append(
                f"{pair} zero shifts: {rep.zero_count} (required {rep.required_count}, "
                f"max in zone {rep.max_sidelobe_in_zone:.3e}, residual "
                f"{rep.identity_residual:.3e}, {'ok' if rep.passed else 'FAIL'})")
    if cfg.system == "traditional_tdcs":
        summary.append("no zero zone: the traditional baseline has no time code")
    path = os.path.join(out, "zero_zone_summary.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print("\n".join(summary))
    print(f"wrote {out}")
    return EXIT_OK if passed else EXIT_RUNTIME  # the summary is written first


def _write_csv(args, name: str, header: list, rows) -> str:
    """Write ``header`` and ``rows`` to ``name`` in the output directory."""
    path = os.path.join(_out_dir(args), name)
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def cmd_capacity(args) -> int:
    n = args.n
    rows = []
    for l in args.l:
        for ratio in args.ratios:
            if not np.isfinite(ratio * n):  # M = ratio * N, rounded to an int
                raise ParameterError(f"--ratios times --n must be finite, got {ratio!r}")
            m = int(round(ratio * n))
            rows.append((l, n, m, u_max(l, n, m)))
    header = ["L", "N", "M", "U_max"]
    path = _write_csv(args, "capacity.csv", header, rows)
    for row in [header, *rows]:
        print(",".join(str(v) for v in row))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_throughput(args) -> int:
    if not 0.0 < args.beta <= 1.0:  # also where no user fits and no row is made
        raise ParameterError("beta must lie in (0, 1]")
    rows = []
    for l in args.l:
        for n in args.n:
            # m_max raises CapacityError exactly beyond u_max at M = 2
            for u in range(1, u_max(l, n, 2) + 1):
                tp = throughput(u, l, n, args.beta)
                rows.append((l, n, u, tp.m_order, tp.per_user, tp.aggregate))
    path = _write_csv(args, "throughput.csv",
                      ["L", "N", "U", "M_max", "eta_per_user", "eta_agg"], rows)
    print(f"wrote {path} ({len(rows)} rows, beta={args.beta})")
    return EXIT_OK


def cmd_plan(args) -> int:
    # plan_shifts checks the guard and raises on a violation
    plan = plan_shifts(args.u, args.n, args.l, args.m, t_max=args.t_max)
    print(f"plan: U={args.u} N={args.n} L={args.l} M={args.m} "
          f"T_max={args.t_max} guard={plan.guard} circle={plan.circular_length}")
    for i, w in enumerate(plan.windows, start=1):
        end = (w.start + w.width - 1) % w.circular_length
        print(f"  user {i}: shifts [{w.start}, {end}] width {w.width}")
    print("interference-free: True")
    if args.out is not None:
        path = _write_csv(args, "plan.csv", ["user", "start", "width", "circular_length"],
                          [(i, w.start, w.width, w.circular_length)
                           for i, w in enumerate(plan.windows, start=1)])
        print(f"wrote {path}")
    return EXIT_OK


def _fast_vs_direct():
    rng = np.random.default_rng(0)
    u = np.exp(2j * np.pi * rng.random(64))
    v = np.exp(2j * np.pi * rng.random(64))
    direct = seqcore.periodic_xcorr_direct(u, v)  # the module's, so a test can patch it
    return np.max(np.abs(periodic_xcorr_fft(u, v) - direct)) < 1e-9 * 64


def _zero_zone():
    mark = mark_from_bands(10.0, [(2.5, 3.75), (6.25, 7.5)], 64)
    code = builtin_quadriphase16()
    c1 = build_user_fmw(mark, code, user_seed=1).c
    c2 = build_user_fmw(mark, code, user_seed=2).c
    return zero_zone_verify(c1, c2, 64, 16).passed


def _capacity_table():
    table = {(8, 16): 6, (8, 64): 4, (8, 128): 2,
             (9, 16): 7, (9, 64): 4, (9, 128): 3,
             (12, 16): 9, (12, 64): 6, (12, 128): 4,
             (16, 16): 12, (16, 64): 8, (16, 128): 5}
    for (l, m), cap in table.items():
        if u_max(l, 64, m) != cap:
            return False
        plan_shifts(cap, 64, l, m)
        try:
            plan_shifts(cap + 1, 64, l, m)
            return False
        except CapacityError:
            pass
    return True


def _noiseless_round_trip():
    cfg = ScenarioConfig(n=8, l=8, m=4, u=2, ebn0_db=(float("inf"),),
                         nf_db=(20.0,), max_symbols=1024,
                         chunk_symbols=256, scenario_id="verify")
    rec = run_ber_scenario(cfg)[0]
    return rec.bit_errors == 0


def _determinism():
    cfg = ScenarioConfig(n=16, l=8, m=8, u=2, ebn0_db=(3.0,),
                         max_symbols=8192, scenario_id="verify")
    a = records_to_csv(cfg, run_ber_scenario(cfg, threads=1))
    b = records_to_csv(cfg, run_ber_scenario(cfg, threads=2))
    return a == b


_BATTERY = (
    ("quadriphase16 perfect ACF", lambda: is_perfect_sequence(builtin_quadriphase16())),
    ("zadoff-chu perfect ACF (L=8,9,12,16,64)", lambda: all(
        is_perfect_sequence(gen_zadoff_chu(l, 1)) for l in (8, 9, 12, 16, 64))),
    ("transform correlation matches direct sum", _fast_vs_direct),
    ("Kronecker zero zone (N=64, L=16)", _zero_zone),
    ("capacity table and plan tightness", _capacity_table),
    ("noiseless interference-free decoding", _noiseless_round_trip),
    ("deterministic, worker-count independent runs", _determinism),
)


def cmd_verify(args) -> int:
    """Run ``_BATTERY``, fast self-checks of the library's core guarantees."""
    passed = 0
    for name, check in _BATTERY:
        try:
            ok = bool(check())
        except Exception as exc:  # a failing check, not a crash of the battery
            ok = False
            if args.verbose:
                print(f"  {name}: raised {exc!r}")
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        passed += ok
    print(f"{passed}/{len(_BATTERY)} checks passed")
    return EXIT_OK if passed == len(_BATTERY) else EXIT_RUNTIME


def cmd_ber(args) -> int:
    cfg = _load_config(args)
    # the run checks its inputs (threads, the plan) before anything is written
    records = run_ber_scenario(cfg, threads=args.threads)
    csv_path, report_path = emit_results(records, cfg, _out_dir(args))
    if args.verbose:
        print(render_report(cfg, records))
    else:
        for rec in records:
            print(f"NF={rec.nf_db:g} Eb/N0={rec.ebn0_db:g} dB: ber={rec.ber:.6e} "
                  f"({rec.bit_errors}/{rec.bits_sent})")
    print(f"wrote {csv_path}")
    print(f"wrote {report_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    rows = list(read_results(args.results))
    if not rows:
        print("no data rows")
        return EXIT_OK
    print(f"results: {args.results}")
    print(f"{'scenario':24s} {'system':18s} {'U':>3s} {'NF':>6s} "
          f"{'Eb/N0':>6s} {'BER':>12s} {'errors':>8s} {'bits':>12s}")
    for scenario_id, system, u, rec in rows:  # NF and Eb/N0 as written
        print(f"{scenario_id:24s} {system:18s} {u:3d} "
              f"{rec.nf_db!r:>6} {rec.ebn0_db!r:>6} {rec.ber:12.4e} "
              f"{rec.bit_errors:8d} {rec.bits_sent:12d}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CapacityError, DimensionError, ParameterError, ScenarioError,
            SequenceValidationError, UnicodeDecodeError) as exc:  # not a text file
        what = "invalid scenario: " if isinstance(exc, ScenarioError) else ""
        print(f"error: {what}{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TdcsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
