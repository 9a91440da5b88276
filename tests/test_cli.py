"""Command-line interface tests: subcommands, outputs, and exit codes."""

import hashlib
import os

import pytest

from tdcslab import allocation
from tdcslab.allocation import MuiCheck, throughput
from tdcslab.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VALIDATION,
                         build_parser, main)
from tdcslab.simharness import CSV_HEADER

TINY_SCENARIO = """
system = mui_free_tdcs
n = 16
l = 8
m = 8
u = 2
nf_db = 10
ebn0_db = 2, 4
seed = 7
min_bit_errors = 20
max_symbols = 8000
"""

DESIGN_SCENARIO = """
system = mui_free_tdcs
n = 64
l = 16
m = 64
u = 2
seed = 5
"""


@pytest.fixture
def tiny_cfg_file(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_SCENARIO)
    return str(p)


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["ber"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command, flag, value", [
        ("capacity", "--l", "8,x"), ("capacity", "--l", "8,,9"),
        ("capacity", "--ratios", "1,abc"), ("throughput", "--n", "64,y"),
        ("throughput", "--l", "8,1.5"),
    ])
    def test_bad_comma_list_is_usage_error(self, command, flag, value,
                                           tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}: invalid comma list" in capsys.readouterr().err

    # each subcommand takes only the shared flags its handler reads
    @pytest.mark.parametrize("argv, flag", [
        (argv, flag) for argv, flags in [
            (["design", "--config", "x.cfg"], ["--threads", "--verbose"]),
            (["capacity"], ["--seed", "--threads", "--verbose"]),
            (["throughput"], ["--seed", "--threads", "--verbose"]),
            (["plan", "--u", "1", "--n", "16", "--l", "8", "--m", "8"],
             ["--seed", "--threads", "--verbose"]),
            (["verify"], ["--out", "--seed", "--threads"]),
            (["report", "--results", "x.csv"],
             ["--out", "--seed", "--threads", "--verbose"]),
        ] for flag in flags
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_flag_the_subcommand_ignores_is_usage_error(self, argv, flag):
        value = {"--out": ["o"], "--seed": ["1"], "--threads": ["2"]}.get(flag, [])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, flag, *value])
        assert exc.value.code == EXIT_USAGE


class TestCapacity:
    def test_reproduces_capacity_table(self, tmp_path, capsys):
        assert main(["capacity", "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "capacity.csv").read_text().strip().splitlines()
        assert rows[0] == "L,N,M,U_max"
        got = {tuple(map(int, r.split(",")[:3])): int(r.split(",")[3])
               for r in rows[1:]}
        assert got[(8, 64, 16)] == 6
        assert got[(8, 64, 128)] == 2
        assert got[(12, 64, 64)] == 6
        assert got[(16, 64, 16)] == 12
        assert len(got) == 12
        assert list(got.values()) == [6, 4, 2, 7, 4, 3, 9, 6, 4, 12, 8, 5]

    @pytest.mark.parametrize("ratio", ["nan", "inf"])
    def test_non_finite_ratio_is_validation_error(self, ratio, tmp_path, capsys):
        code = main(["capacity", "--ratios", f"1,{ratio}", "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert "--ratios" in capsys.readouterr().err
        assert not (tmp_path / "capacity.csv").exists()


# sha256 of the analytics CSVs at the default flags and at a wider grid, and
# of one multipath plan: the capacity rule, m_max, the planner's guard check
# and the CSV writer must not move them
CSV_DIGESTS = [
    (["capacity"], "capacity.csv",
     "e51160c37189ff275fa2f5a96277393044804f8ccb87e39dfad28d4a45e1e306"),
    (["capacity", "--n", "128", "--l", "2,8,9,12,16,32"], "capacity.csv",
     "dcdb67b91ff0ff838dcb045ea07112240e9bfb35384d175689725f89eb09a448"),
    (["throughput"], "throughput.csv",
     "ef25533b1b032e0837562de540a6fe7a328ed99ff882015cd44f494859fd347f"),
    (["throughput", "--n", "64,128,256", "--l", "8,9,12,16", "--beta", "0.6"],
     "throughput.csv",
     "f828eef27db01ac7436d3fdef3ed46491dea077bf0ed8b43050cfe22d2f937d4"),
    (["plan", "--u", "4", "--n", "64", "--l", "16", "--m", "64", "--t-max", "5"],
     "plan.csv",
     "ef6cc2251da09758080233f24fa82f37fd84f939a76d6f1a9f9f65f027d45655"),
]


@pytest.mark.parametrize("argv, name, digest", CSV_DIGESTS,
                         ids=["capacity", "capacity_grid", "throughput",
                              "throughput_grid", "plan"])
def test_analytics_csv_digest(argv, name, digest, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


class TestThroughput:
    def test_curves_and_spreading_factor_comparison(self, tmp_path):
        assert main(["throughput", "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "throughput.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["L", "N", "U", "M_max", "eta_per_user", "eta_agg"]
        best = {}
        for r in rows[1:]:
            l, n, u, m, per, agg = r.split(",")
            key = (int(l), int(n))
            best[key] = max(best.get(key, 0.0), float(agg))
        # equal spreading factor 1024: fewer bins, more users -> more throughput
        assert best[(16, 64)] > best[(8, 128)]
        # raising N at fixed L lowers the peak
        assert best[(8, 64)] > best[(8, 128)]
        assert best[(16, 64)] > best[(16, 128)]

    def test_rows_are_the_library_throughput(self, tmp_path):
        args = ["--n", "64,128,256", "--l", "8,9,12,16", "--beta", "0.6"]
        assert main(["throughput", *args, "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "throughput.csv").read_text().strip().splitlines()[1:]
        assert rows
        for r in rows:
            l, n, u, m, per, agg = r.split(",")
            tp = throughput(int(u), int(l), int(n), 0.6)
            assert (int(m), per, agg) == (tp.m_order, repr(tp.per_user),
                                          repr(tp.aggregate))

    @pytest.mark.parametrize("beta", ["0", "-0.5", "1.5", "nan"])
    def test_beta_outside_unit_interval_is_validation_error(self, beta, tmp_path):
        code = main(["throughput", "--beta", beta, "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "throughput.csv").exists()

    def test_beta_checked_where_no_user_fits(self, tmp_path):
        # at L = 2, N = 1 no user fits, so no row calls the library's throughput
        code = main(["throughput", "--l", "2", "--n", "1", "--beta", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "throughput.csv").exists()


@pytest.mark.parametrize("argv", [
    ["capacity", "--l", "1"], ["throughput", "--l", "1"],
    ["plan", "--u", "1", "--n", "16", "--l", "1", "--m", "8"]],
    ids=["capacity", "throughput", "plan"])
def test_no_time_code_is_validation_error(argv, tmp_path, capsys):
    # capacity wrote U_max = 0 rows at L = 1 and exited 0
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "time-spreading length must be >= 2" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


class TestPlan:
    def test_feasible_plan(self, capsys):
        assert main(["plan", "--u", "2", "--n", "4", "--l", "8", "--m", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "user 1: shifts [4, 7]" in out
        assert "user 2: shifts [12, 15]" in out
        assert "interference-free: True" in out

    def test_infeasible_plan_is_validation_error(self, capsys):
        code = main(["plan", "--u", "10", "--n", "64", "--l", "12", "--m", "16"])
        assert code == EXIT_VALIDATION
        assert "U_max = 9" in capsys.readouterr().err

    def test_guard_violation_is_runtime_error(self, monkeypatch, capsys):
        def violated(plan):
            return MuiCheck(ok=False, guard=plan.guard,
                            violations=[(1, 2, 7, 12)])

        # plan_shifts looks the check up when it runs
        monkeypatch.setattr(allocation, "verify_mui_free", violated)
        code = main(["plan", "--u", "2", "--n", "4", "--l", "8", "--m", "4"])
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "(1, 2, 7, 12)" in captured.err
        assert "interference-free" not in captured.out


class TestDesign:
    def test_emits_profiles_and_summary(self, tmp_path, capsys):
        cfgp = tmp_path / "design.cfg"
        cfgp.write_text(DESIGN_SCENARIO)
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfgp), "--out", str(out)]) == EXIT_OK
        assert (out / "fmw_user1.csv").exists()
        assert (out / "fmw_user2.csv").exists()
        assert (out / "acf_user1.csv").exists()
        assert (out / "ccf_user1_user2.csv").exists()
        summary = (out / "zero_zone_summary.txt").read_text()
        assert "required 897" in summary
        assert "ok" in summary
        printed = capsys.readouterr().out
        assert "CCF zero shifts" in printed

    def test_traditional_baseline_has_no_zero_zone(self, tmp_path, capsys):
        cfgp = tmp_path / "trad.cfg"
        cfgp.write_text("system = traditional_tdcs\nn = 16\nl = 8\nu = 2\nm = full\n")
        out = tmp_path / "out"
        assert main(["design", "--config", str(cfgp), "--out", str(out)]) == EXIT_OK
        assert (out / "acf_user1.csv").exists()
        assert (out / "ccf_user1_user2.csv").exists()
        summary = (out / "zero_zone_summary.txt").read_text()
        assert "no zero zone" in summary
        assert "zero shifts" not in summary and "FAIL" not in summary

    def test_bad_config_key(self, tmp_path, capsys):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text("tuning = extreme\n")
        assert main(["design", "--config", str(cfgp)]) == EXIT_VALIDATION


class TestBer:
    def test_run_and_outputs(self, tiny_cfg_file, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["ber", "--config", tiny_cfg_file, "--out", str(out)]) == EXIT_OK
        body = (out / "tiny.csv").read_text()
        lines = body.strip().splitlines()
        assert lines[0].startswith("scenario_id,system,U,NF_db")
        assert len(lines) == 3  # two grid points
        assert (out / "tiny_report.txt").exists()

    def test_nan_ebn0_is_validation_error(self, tmp_path, capsys):
        cfgp = tmp_path / "nan.cfg"
        cfgp.write_text(TINY_SCENARIO.replace("ebn0_db = 2, 4", "ebn0_db = nan"))
        code = main(["ber", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "ebn0_db" in capsys.readouterr().err

    # keying the value before range-checking it raised OverflowError at
    # +-1e308; the noise level overflowed at 4000 dB, divided by zero at
    # -4000 and was inf at -3230 (NaN noise), each a traceback and exit 1
    @pytest.mark.parametrize("ebn0_db", ["1e308", "-1e308", "4000", "-4000", "-3230"])
    def test_huge_ebn0_is_validation_error(self, ebn0_db, tmp_path, capsys):
        cfgp = tmp_path / "huge.cfg"
        cfgp.write_text(TINY_SCENARIO.replace("ebn0_db = 2, 4",
                                              f"ebn0_db = {ebn0_db}"))
        code = main(["ber", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "out of range" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()   # before any chunk runs

    @pytest.mark.parametrize("line, key", [
        ("bandwidth_mhz = inf", "bandwidth_mhz"),
        ("bandwidth_mhz = nan\nunavailable_mhz =", "bandwidth_mhz"),
        ("nf_db = 7000", "nf_db"),
        ("nf_db = 10, 10", "nf_db"),  # wrote two identical rows
        # a key that draws nothing beside another key, yet changes the digest
        ("channel = multipath\nphase_model = rayleigh", "phase_model"),
        ("nf_db = 10\nunavailable_mhz = 9:11", "invalid scenario: unavailable_mhz"),
    ], ids=["bandwidth_inf", "bandwidth_nan_no_bands", "nf_amplitude_overflow",
            "nf_duplicate", "multipath_phase_model", "band_outside_bandwidth"])
    def test_out_of_model_value_is_validation_error(self, line, key, tmp_path,
                                                    capsys):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(TINY_SCENARIO.replace("nf_db = 10", line))
        out = tmp_path / "o"
        code = main(["ber", "--config", str(cfgp), "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not (out / "bad.csv").exists()

    @pytest.mark.parametrize("scenario_id", ["../escaped", "a,b", "", '"q'],
                             ids=["path", "comma", "empty", "quote"])
    def test_bad_scenario_id_is_validation_error(self, scenario_id, tmp_path,
                                                 capsys):
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_SCENARIO + f"scenario_id = {scenario_id}\n")
        code = main(["ber", "--config", str(cfgp), "--out", str(tmp_path / "o" / "p")])
        assert code == EXIT_VALIDATION
        assert "scenario_id" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    @pytest.mark.parametrize("line", [
        "measure_all_users = true", "profile = cost207_ra6", "t_g = 32",
        "mark_string = 1101111111111011"])
    def test_removed_key_is_validation_error(self, line, tmp_path, capsys):
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_SCENARIO + "channel = multipath\n" + line + "\n")
        code = main(["ber", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert f"unknown key '{line.split()[0]}'" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_mismatch_seed_without_eta_is_validation_error(self, tmp_path,
                                                           capsys):
        cfgp = tmp_path / "tiny.cfg"
        cfgp.write_text(TINY_SCENARIO + "mismatch_seed = 5\n")
        code = main(["ber", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == EXIT_VALIDATION
        assert "mismatch_seed needs eta < 1" in capsys.readouterr().err
        assert list(tmp_path.rglob("*.csv")) == []

    def test_negative_seed_is_validation_error(self, tiny_cfg_file, tmp_path,
                                               capsys):
        code = main(["ber", "--config", tiny_cfg_file, "--out",
                     str(tmp_path / "o"), "--seed", "-1"])
        assert code == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_is_validation_error(self, threads,
                                                      tiny_cfg_file, tmp_path,
                                                      capsys):
        out = tmp_path / "o"
        code = main(["ber", "--config", tiny_cfg_file, "--out", str(out),
                     "--threads", threads])
        assert code == EXIT_VALIDATION
        assert "threads" in capsys.readouterr().err
        assert not (out / "tiny.csv").exists()

    def test_seed_override_changes_body(self, tiny_cfg_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        main(["ber", "--config", tiny_cfg_file, "--out", str(out_a)])
        main(["ber", "--config", tiny_cfg_file, "--out", str(out_b),
              "--seed", "123"])
        main(["ber", "--config", tiny_cfg_file, "--out", str(out_c),
              "--seed", "123"])
        a = (out_a / "tiny.csv").read_text()
        b = (out_b / "tiny.csv").read_text()
        c = (out_c / "tiny.csv").read_text()
        assert a != b
        assert b == c

    def test_threads_do_not_change_body(self, tiny_cfg_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["ber", "--config", tiny_cfg_file, "--out", str(out_a)])
        main(["ber", "--config", tiny_cfg_file, "--out", str(out_b),
              "--threads", "3"])
        assert (out_a / "tiny.csv").read_text() == (out_b / "tiny.csv").read_text()

    def test_env_var_default_out(self, tiny_cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv("TDCSLAB_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["ber", "--config", tiny_cfg_file]) == EXIT_OK
        assert (tmp_path / "envout" / "tiny.csv").exists()


class TestReport:
    def test_renders_csv(self, tiny_cfg_file, tmp_path, capsys):
        out = tmp_path / "res"
        main(["ber", "--config", tiny_cfg_file, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--results", str(out / "tiny.csv")]) == EXIT_OK
        shown = capsys.readouterr().out
        assert "tiny" in shown and "BER" in shown

    def test_missing_results_is_runtime_error(self, tmp_path):
        assert main(["report", "--results", str(tmp_path / "nope.csv")]) == EXIT_RUNTIME

    @pytest.mark.parametrize("text, named", [
        ("a,b\n1,2\n", "column scenario_id"),
        ("", "column scenario_id"),
        (CSV_HEADER.replace(",ber,", ",BER,") + "\nx,y,1,0.0,0.0,10,1,0.1,0.2\n",
         "column ber"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,abc,0.0,10,1,0.1,0.2\n", "NF_db value 'abc'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0\n", "ebn0_db value None"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,abc,1,0.1,0.2\n", "bits value 'abc'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,10,-5,0.1,0.2\n", "errors value '-5'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,10,11,0.1,0.2\n", "errors value '11'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,abc,0.0,0.0,10,1,0.1,0.2\n", "U value 'abc'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,0,0.0,0.0,10,1,0.1,0.2\n", "U value '0'"),
        (CSV_HEADER + "\nx,nonsense,1,0.0,0.0,10,1,0.1,0.2\n",
         "system value 'nonsense'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,0,0,0.0,0.2\n", "bits value '0'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,10,1,0.5,0.2\n", "ber value '0.5'"),
        (CSV_HEADER + "\nx,nonsense,abc,0.0,0.0,10,1,0.5,0.2\n",
         "system value 'nonsense'"),
        # each of these printed and exited 0 before rows were read back
        # through the writer
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,10,1,0.1,0.196,extra,more\n",
         "ci_halfwidth value '0.196,extra,more'"),
        (CSV_HEADER + ",bogus\nx,mui_free_tdcs,1,0.0,0.0,10,1,0.1,0.196\n",
         "column ci_halfwidth value 'ci_halfwidth,bogus'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,10,1,0.1,np.float64(0.2)\n",
         "ci_halfwidth value 'np.float64(0.2)'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,0.0,0.0,10,1,0.1,0.2\n",
         "ci_halfwidth value '0.2': the writer writes '0.196'"),
        (CSV_HEADER + "\nx/y,mui_free_tdcs,1,nan,0.0,10,1,0.1,0.196\n",
         "scenario_id value 'x/y'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,nan,0.0,10,1,0.1,0.196\n", "NF_db value 'nan'"),
        # non-canonical number text
        (CSV_HEADER + "\nx,mui_free_tdcs,01,0.0,0.0,10,1,0.1,0.196\n",
         "U value '01': the writer writes '1'"),
        (CSV_HEADER + "\nx,mui_free_tdcs,1,10.00,0.0,10,1,0.1,0.196\n",
         "NF_db value '10.00': the writer writes '10.0'"),
    ], ids=["foreign", "empty", "renamed_column", "non_numeric", "short_row",
            "bits_not_integer", "errors_negative", "errors_above_bits",
            "u_not_integer", "u_below_one", "unknown_system", "no_bits",
            "ber_not_errors_over_bits", "every_column_wrong", "extra_fields",
            "extra_header_column", "ci_not_a_number", "ci_not_the_writers",
            "id_and_nf_outside_the_config", "nf_nan", "u_leading_zero",
            "nf_trailing_zero"])
    def test_not_a_results_csv_is_validation_error(self, text, named, tmp_path,
                                                   capsys):
        path = tmp_path / "other.csv"
        path.write_text(text)
        assert main(["report", "--results", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(path) in err and named in err


@pytest.mark.parametrize("argv", [
    ["report", "--results"], ["ber", "--config"], ["design", "--config"]],
    ids=["report", "ber", "design"])
def test_file_that_is_not_text_is_validation_error(argv, tmp_path, capsys):
    # a UnicodeDecodeError escaped as a traceback
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    assert main([*argv, str(path)]) == EXIT_VALIDATION
    assert "can't decode" in capsys.readouterr().err


class TestShippedScenarios:
    def test_all_scenarios_parse(self):
        import glob

        from tdcslab.simharness import load_scenario

        paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                              "..", "scenarios", "*.cfg")))
        assert len(paths) >= 14
        for p in paths:
            cfg = load_scenario(p)
            assert cfg.ebn0_db


VERIFY_STDOUT = """\
  [PASS] quadriphase16 perfect ACF
  [PASS] zadoff-chu perfect ACF (L=8,9,12,16,64)
  [PASS] transform correlation matches direct sum
  [PASS] Kronecker zero zone (N=64, L=16)
  [PASS] capacity table and plan tightness
  [PASS] noiseless interference-free decoding
  [PASS] deterministic, worker-count independent runs
7/7 checks passed
"""


class TestVerify:
    def test_battery_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        assert capsys.readouterr().out == VERIFY_STDOUT

    @pytest.mark.parametrize("verbose", [False, True])
    def test_failing_check_is_runtime_error(self, verbose, monkeypatch, capsys):
        def broken(u, v):
            raise RuntimeError("direct sum broke")

        # the battery looks it up in seqcore when it runs; only one check calls it
        monkeypatch.setattr("tdcslab.seqcore.periodic_xcorr_direct", broken)
        assert main(["verify"] + ["--verbose"] * verbose) == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert "[FAIL] transform correlation matches direct sum" in out
        assert out.count("[FAIL]") == 1
        assert ("direct sum broke" in out) == verbose
