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
import itertools
import os
import sys

import numpy as np

from . import __version__
from .allocation import plan_shifts, throughput, u_max, verify_mui_free
from .errors import (CapacityError, DimensionError, ParameterError, ScenarioError,
                     SequenceValidationError, TdcsError)
from .seqcore import export_complex_csv, periodic_xcorr, zero_zone_verify
from .simharness import (
    CSV_HEADER,
    build_system,
    emit_results,
    load_scenario,
    render_report,
    run_ber_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

OUT_DIR_ENV = "TDCSLAB_OUT_DIR"


def _default_out() -> str:
    return os.environ.get(OUT_DIR_ENV, "tdcslab_out")


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
    p.add_argument("--config", required=True, help="scenario file (n, l, u, seed, mark)")
    _add_common(p, "--out", "--seed")

    p = sub.add_parser("capacity", help="multiuser capacity table")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--l", type=_comma_list(int), default="8,9,12,16",
                   help="comma list of time-code lengths")
    p.add_argument("--ratios", type=_comma_list(float), default="0.25,1,2",
                   help="comma list of M/N ratios")
    _add_common(p, "--out")

    p = sub.add_parser("throughput", help="aggregated throughput curves")
    p.add_argument("--n", type=_comma_list(int), default="64,128",
                   help="comma list of bin counts")
    p.add_argument("--l", type=_comma_list(int), default="8,16",
                   help="comma list of time-code lengths")
    p.add_argument("--beta", type=float, default=0.75,
                   help="available-spectrum fraction")
    _add_common(p, "--out")

    p = sub.add_parser("plan", help="lay out and check shift windows")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t-max", type=int, default=0)
    _add_common(p, "--out")

    p = sub.add_parser("verify", help="run the invariant battery")
    _add_common(p, "--verbose")

    p = sub.add_parser("ber", help="run a Monte Carlo BER scenario")
    p.add_argument("--config", required=True, help="scenario file")
    _add_common(p, "--out", "--seed", "--threads", "--verbose")

    p = sub.add_parser("report", help="re-render a results CSV")
    p.add_argument("--results", required=True, help="results CSV path")

    return parser


def _out_dir(args) -> str:
    out = args.out if args.out is not None else _default_out()
    os.makedirs(out, exist_ok=True)
    return out


def _load_config(args):
    cfg = load_scenario(args.config)
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    return cfg


def cmd_design(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    system = build_system(cfg)
    n, l = cfg.n, cfg.l
    summary = [f"design summary: {cfg.scenario_id}",
               f"N={n} L={l} U={cfg.u} block={system.block_len} "
               f"M={system.m_order}"]
    for j, chip in enumerate(system.chips, start=1):
        export_complex_csv(chip, os.path.join(out, f"fmw_user{j}.csv"))
    acf = periodic_xcorr(system.chips[0], system.chips[0])
    export_complex_csv(acf.values, os.path.join(out, "acf_user1.csv"))
    peak = abs(acf.values[0])
    summary.append(f"user1 ACF peak at shift 0: {peak:.6f} (energy {system.symbol_energy:.6f})")
    report_zero = zero_zone_verify(system.chips[0], system.chips[0], n, l)
    summary.append(
        f"user1 ACF zero shifts: {report_zero.zero_count} "
        f"(required {report_zero.required_count}, "
        f"max in zone {report_zero.max_sidelobe_in_zone:.3e})"
    )
    for j in range(1, cfg.u):
        ccf = periodic_xcorr(system.chips[j], system.chips[0])
        export_complex_csv(ccf.values, os.path.join(out, f"ccf_user1_user{j + 1}.csv"))
        rep = zero_zone_verify(system.chips[0], system.chips[j], n, l)
        summary.append(
            f"user1/user{j + 1} CCF zero shifts: {rep.zero_count} "
            f"(required {rep.required_count}, residual {rep.identity_residual:.3e}, "
            f"{'ok' if rep.passed else 'FAIL'})"
        )
    path = os.path.join(out, "zero_zone_summary.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(summary) + "\n")
    print("\n".join(summary))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    out = _out_dir(args)
    n = args.n
    rows = []
    for l in args.l:
        for ratio in args.ratios:
            if not np.isfinite(ratio):
                raise ParameterError(f"--ratios values must be finite, got {ratio!r}")
            m = int(round(ratio * n))
            rows.append((l, n, m, u_max(l, n, m)))
    path = os.path.join(out, "capacity.csv")
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["L", "N", "M", "U_max"])
        writer.writerows(rows)
    print("L,N,M,U_max")
    for row in rows:
        print(",".join(str(v) for v in row))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_throughput(args) -> int:
    rows = []
    for l in args.l:
        for n in args.n:
            for u in itertools.count(1):
                try:
                    tp = throughput(u, l, n, args.beta)
                except CapacityError:
                    break
                rows.append((l, n, u, tp.m_order, tp.per_user, tp.aggregate))
    out = _out_dir(args)
    path = os.path.join(out, "throughput.csv")
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["L", "N", "U", "M_max", "eta_per_user", "eta_agg"])
        for row in rows:
            writer.writerow(list(row[:4]) + [repr(row[4]), repr(row[5])])
    print(f"wrote {path} ({len(rows)} rows, beta={args.beta})")
    return EXIT_OK


def cmd_plan(args) -> int:
    plan = plan_shifts(args.u, args.n, args.l, args.m, t_max=args.t_max)
    check = verify_mui_free(plan)
    print(f"plan: U={args.u} N={args.n} L={args.l} M={args.m} "
          f"T_max={args.t_max} guard={plan.guard} circle={plan.circular_length}")
    for i, w in enumerate(plan.windows, start=1):
        end = (w.start + w.width - 1) % w.circular_length
        print(f"  user {i}: shifts [{w.start}, {end}] width {w.width}")
    print(f"interference-free: {check.ok}")
    if args.out is not None:
        out = _out_dir(args)
        path = os.path.join(out, "plan.csv")
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["user", "start", "width", "circular_length"])
            for i, w in enumerate(plan.windows, start=1):
                writer.writerow([i, w.start, w.width, w.circular_length])
        print(f"wrote {path}")
    return EXIT_OK


def _verify_battery(verbose: bool):
    """Fast self-checks of the library's core guarantees."""
    from .seqcore import (
        builtin_quadriphase16,
        gen_zadoff_chu,
        is_perfect_sequence,
        periodic_xcorr_direct,
        periodic_xcorr_fft,
    )
    from .simharness import ScenarioConfig, records_to_csv
    from .spectrum import mark_from_bands
    from .waveform import build_user_fmw

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # a failing check, not a crash of the battery
            ok = False
            if verbose:
                print(f"  {name}: raised {exc!r}")
        checks.append((name, ok))

    check("quadriphase16 perfect ACF", lambda: is_perfect_sequence(builtin_quadriphase16()))
    check("zadoff-chu perfect ACF (L=8,9,12,16,64)", lambda: all(
        is_perfect_sequence(gen_zadoff_chu(l, 1)) for l in (8, 9, 12, 16, 64)
    ))

    def fast_vs_direct():
        rng = np.random.default_rng(0)
        u = np.exp(2j * np.pi * rng.random(64))
        v = np.exp(2j * np.pi * rng.random(64))
        return np.max(np.abs(periodic_xcorr_fft(u, v) - periodic_xcorr_direct(u, v))) < 1e-9 * 64

    check("transform correlation matches direct sum", fast_vs_direct)

    def zero_zone():
        mark = mark_from_bands(10.0, [(2.5, 3.75), (6.25, 7.5)], 64)
        code = builtin_quadriphase16()
        c1 = build_user_fmw(mark, code, user_seed=1).c
        c2 = build_user_fmw(mark, code, user_seed=2).c
        rep = zero_zone_verify(c1, c2, 64, 16)
        return rep.passed and rep.identity_residual < 1e-9 * 1024

    check("Kronecker zero zone (N=64, L=16)", zero_zone)

    def capacity_table():
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

    check("capacity table and plan tightness", capacity_table)

    def noiseless_round_trip():
        cfg = ScenarioConfig(n=8, l=8, m=4, u=2, ebn0_db=(float("inf"),),
                             nf_db=(20.0,), max_symbols=1024,
                             chunk_symbols=256, scenario_id="verify")
        rec = run_ber_scenario(cfg)[0]
        return rec.bit_errors == 0

    check("noiseless interference-free decoding", noiseless_round_trip)

    def determinism():
        cfg = ScenarioConfig(n=16, l=8, m=8, u=2, ebn0_db=(3.0,),
                             max_symbols=8192, scenario_id="verify")
        a = records_to_csv(cfg, run_ber_scenario(cfg, threads=1))
        b = records_to_csv(cfg, run_ber_scenario(cfg, threads=2))
        return a == b

    check("deterministic, worker-count independent runs", determinism)
    return checks


def cmd_verify(args) -> int:
    checks = _verify_battery(args.verbose)
    passed = sum(1 for _, ok in checks if ok)
    for name, ok in checks:
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    print(f"{passed}/{len(checks)} checks passed")
    return EXIT_OK if passed == len(checks) else EXIT_RUNTIME


def cmd_ber(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    records = run_ber_scenario(cfg, threads=args.threads)
    csv_path, report_path = emit_results(records, cfg, out)
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
    try:
        with open(args.results) as fh:
            reader = _csv.DictReader(fh)
            rows = list(reader)
            missing = [c for c in CSV_HEADER.split(",")
                       if c not in (reader.fieldnames or ())]
    except OSError as exc:
        raise TdcsError(f"cannot read results: {exc}") from exc
    if missing:
        raise ParameterError(f"{args.results} is not a results CSV: no "
                             f"column {', '.join(missing)}")
    if not rows:
        print("no data rows")
        return EXIT_OK
    print(f"results: {args.results}")
    print(f"{'scenario':24s} {'system':18s} {'U':>3s} {'NF':>6s} "
          f"{'Eb/N0':>6s} {'BER':>12s} {'errors':>8s} {'bits':>12s}")
    for row in rows:
        values = []
        for column in ("NF_db", "ebn0_db", "ber"):
            try:
                values.append(float(row[column]))
            except (TypeError, ValueError):  # TypeError: a short row
                raise ParameterError(f"{args.results}: {column} value "
                                     f"{row[column]!r} is not a number") from None
        nf, ebn0, ber = values
        print(f"{row['scenario_id']:24s} {row['system']:18s} {row['U']:>3s} "
              f"{nf:6.1f} {ebn0:6.1f} {ber:12.4e} {row['errors']:>8s} {row['bits']:>12s}")
    return EXIT_OK


_HANDLERS = {
    "design": cmd_design,
    "capacity": cmd_capacity,
    "throughput": cmd_throughput,
    "plan": cmd_plan,
    "verify": cmd_verify,
    "ber": cmd_ber,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ScenarioError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CapacityError, DimensionError, ParameterError,
            SequenceValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (TdcsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
