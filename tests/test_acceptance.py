"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Runs the shipped scenario files at their configured depth, so the module
takes about a minute of the whole suite's 100 s on a 2-core host; run with
``-s`` to watch the per-criterion lines appear.  Every random quantity is
fully seeded: a given checkout either always passes or always fails.
"""

import glob
import itertools
import os
import time

import numpy as np
import pytest

from tdcslab.allocation import ShiftPlan, ShiftWindow, plan_shifts, u_max, verify_mui_free
from tdcslab.channel import apply_multipath, apply_single_path, gains_from_nf
from tdcslab.errors import CapacityError
from tdcslab.receiver import demodulate_window, rake_demodulate
from tdcslab.seqcore import (
    aperiodic_xcorr,
    builtin_quadriphase16,
    gen_zadoff_chu,
    periodic_xcorr_direct,
)
from tdcslab.simharness import load_scenario, records_to_csv, run_ber_scenario
from tdcslab.spectrum import SpectrumMark, mark_from_bands
from tdcslab.waveform import (
    add_cyclic_prefix,
    build_user_fmw,
    index_to_bits,
    modulate,
    remove_cyclic_prefix,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

_RECORD_CACHE = {}


def scenario_records(name):
    """Run a shipped scenario once, on every core, and memoize its records
    (criterion 10 requires them to equal the runs at 1 and 4 workers)."""
    if name not in _RECORD_CACHE:
        cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.cfg"))
        _RECORD_CACHE[name] = (cfg, run_ber_scenario(cfg, threads=os.cpu_count() or 1))
    return _RECORD_CACHE[name]


def report(num, ok, message):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {num}: {message}"


def required_ebn0(records, target):
    """Log-linear interpolation of the Eb/N0 reaching the target BER."""
    pts = [(r.ebn0_db, r.ber) for r in records]
    for (e1, b1), (e2, b2) in zip(pts, pts[1:]):
        if b1 >= target >= b2 and b2 > 0:
            frac = (np.log10(b1) - np.log10(target)) / (np.log10(b1) - np.log10(b2))
            return e1 + (e2 - e1) * frac
    raise AssertionError(f"grid does not bracket BER {target}")


def test_criterion_1_perfect_sequence_suite():
    t0 = time.perf_counter()
    cases = [builtin_quadriphase16().elements]
    for length, root in ((8, 1), (9, 2), (12, 5), (16, 3), (63, 5), (64, 7), (2, 1)):
        cases.append(gen_zadoff_chu(length, root).elements)
    worst = 0.0
    for seq in cases:
        length = seq.size
        phi = periodic_xcorr_direct(seq, seq)
        assert abs(phi[0] - length) < 1e-9 * length
        worst = max(worst, float(np.max(np.abs(phi[1:])) / (1e-9 * length)))
        assert np.max(np.abs(phi[1:])) < 1e-9 * length
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 1.0,
           f"{len(cases)} generators keep perfect periodic ACF over all shifts "
           f"(worst off-peak at {worst:.3f} of tolerance, {elapsed:.2f}s)")


def test_criterion_2_zero_zone_counts():
    t0 = time.perf_counter()
    n, l = 64, 16
    ln = n * l
    tol = 1e-9 * ln
    code = builtin_quadriphase16()
    rng = np.random.default_rng(2024)
    checked = 0
    for mark_idx in range(5):
        bits = (rng.random(n) < 0.7).astype(int)
        bits[rng.integers(0, n)] = 1  # never fully occupied
        mark = SpectrumMark(bits)
        for _ in range(2):
            s1, s2 = rng.integers(0, 2 ** 31, size=2)
            c1 = build_user_fmw(mark, code, user_seed=int(s1)).c
            c2 = build_user_fmw(mark, code, user_seed=int(s2)).c
            phi = periodic_xcorr_direct(c1, c2)
            zero_count = int(np.sum(np.abs(phi) < tol))
            assert zero_count >= (l - 2) * n + 1 == 897
            psi = aperiodic_xcorr(c1[:n], c2[:n])
            psi_rev = aperiodic_xcorr(c2[:n], c1[:n])
            res = max(
                float(np.max(np.abs(phi[:n] - l * psi))),
                float(np.max(np.abs(
                    phi[ln - np.arange(1, n)] - l * np.conj(psi_rev[1:n])
                ))),
            )
            assert res < tol
            checked += 1
    elapsed = time.perf_counter() - t0
    report(2, checked == 10 and elapsed < 10.0,
           f"10 random pairs over 5 random marks: >= 897 zero shifts and "
           f"sidelobe identity to 1e-9*1024 ({elapsed:.1f}s)")


def test_criterion_3_capacity_table_exact():
    t0 = time.perf_counter()
    n = 64
    table = [
        (8, 16, 6), (8, 64, 4), (8, 128, 2),
        (9, 16, 7), (9, 64, 4), (9, 128, 3),
        (12, 16, 9), (12, 64, 6), (12, 128, 4),
        (16, 16, 12), (16, 64, 8), (16, 128, 5),
    ]
    values = []
    for l, m, expected in table:
        cap = u_max(l, n, m)
        values.append(cap)
        assert cap == expected
        assert verify_mui_free(plan_shifts(cap, n, l, m)).ok
        with pytest.raises(CapacityError):
            plan_shifts(cap + 1, n, l, m)
    elapsed = time.perf_counter() - t0
    report(3, values == [6, 4, 2, 7, 4, 3, 9, 6, 4, 12, 8, 5] and elapsed < 1.0,
           f"all 12 capacity cells match {{6,4,2,7,4,3,9,6,4,12,8,5}}; plans "
           f"feasible at U_max, infeasible above ({elapsed:.2f}s)")


def test_criterion_4_noiseless_exactness():
    t0 = time.perf_counter()
    n, l, m = 8, 8, 4
    ln = n * l
    mark = mark_from_bands(8.0, [(2.0, 3.0)], n)
    code = gen_zadoff_chu(l, 1)
    users = [build_user_fmw(mark, code, user_seed=s) for s in (5, 6, 7)]
    draw_rng = np.random.default_rng(99)
    total = 0

    for t_max in (0, 2):
        t_g = 8
        for u in (2, 3):
            plan = plan_shifts(u, n, l, m, t_max=t_max)
            assert verify_mui_free(plan).ok
            for msgs in itertools.product(range(m), repeat=u):
                blocks = [
                    modulate(users[j], index_to_bits(msgs[j], 2), plan.windows[j])
                    for j in range(u)
                ]
                for _ in range(20):
                    if t_max == 0:
                        gains = gains_from_nf(u, 10.0, seed=draw_rng)
                        for victim in range(u):
                            r = apply_single_path(blocks, gains, noise=None,
                                                  receiver=victim, seed=0)
                            dec = demodulate_window(r, users[victim].c,
                                                    plan.windows[victim])
                            assert dec.argmax_shift == blocks[victim].shift
                            total += 1
                    else:
                        taps = (draw_rng.standard_normal((u, t_max + 1))
                                + 1j * draw_rng.standard_normal((u, t_max + 1)))
                        pre = [add_cyclic_prefix(b.x, t_g) for b in blocks]
                        for victim in range(u):
                            y = apply_multipath(pre, taps, t_g=t_g,
                                                noise=None, seed=0)
                            r = remove_cyclic_prefix(y, t_g)
                            dec = rake_demodulate(r, users[victim].c,
                                                  plan.windows[victim],
                                                  taps[victim],
                                                  max_delay=plan.t_max)
                            assert dec.argmax_shift == blocks[victim].shift
                            total += 1

    # a guard-violating layout must produce at least one decoding error
    bad = ShiftPlan(windows=(ShiftWindow(8, 4, ln), ShiftWindow(12, 4, ln)),
                    n=n, l=l)
    assert not verify_mui_free(bad).ok
    failures = 0
    for m1, m2 in itertools.product(range(m), repeat=2):
        blocks = [
            modulate(users[0], index_to_bits(m1, 2), bad.windows[0]),
            modulate(users[1], index_to_bits(m2, 2), bad.windows[1]),
        ]
        gains = gains_from_nf(2, 20.0, seed=draw_rng)
        r = apply_single_path(blocks, gains, noise=None, receiver=0, seed=0)
        dec = demodulate_window(r, users[0].c, bad.windows[0])
        failures += dec.argmax_shift != blocks[0].shift
    elapsed = time.perf_counter() - t0
    report(4, failures > 0 and elapsed < 120.0,
           f"{total} noiseless decodes exact on guard-respecting plans "
           f"(U in {{2,3}}, T_max in {{0,2}}); violating layout fails "
           f"{failures}/16 ({elapsed:.1f}s)")


def test_criterion_5_windowed_multiuser_tracks_single_user():
    _, single = scenario_records("single_path_single_user")
    _, multi = scenario_records("single_path_windowed_u4")
    _, trad = scenario_records("single_path_baseline_u4")
    contained = all(
        abs(m.ber - s.ber) <= s.ci_halfwidth for s, m in zip(single, multi)
    )
    trad_8 = next(r for r in trad if r.ebn0_db == 8.0)
    mui_8 = next(r for r in multi if r.ebn0_db == 8.0)
    ratio_ok = trad_8.ber >= 10.0 * mui_8.ber and trad_8.ber > 0
    report(5, contained and ratio_ok,
           f"4-user windowed BER inside single-user CI at all "
           f"{len(single)} points; baseline at 8 dB = {trad_8.ber:.2e} vs "
           f"windowed {mui_8.ber:.2e} (>= 10x)")


def _spearman(values):
    order = np.argsort(np.argsort(values))
    n = len(values)
    d2 = np.sum((order - np.arange(n)) ** 2)
    return 1.0 - 6.0 * d2 / (n * (n ** 2 - 1))


def test_criterion_6_near_far_sweep():
    ok = True
    details = []
    for u in (4, 8):
        _, trad = scenario_records(f"nf_sweep_baseline_u{u}")
        _, mui = scenario_records(f"nf_sweep_windowed_u{u}")
        rho = _spearman([r.ber for r in trad])
        flat = all(
            abs(a.ber - b.ber) <= a.ci_halfwidth + b.ci_halfwidth
            for a, b in itertools.combinations(mui, 2)
        )
        ok = ok and rho > 0.9 and flat
        details.append(f"U={u}: baseline Spearman {rho:.3f}, windowed flat={flat}")
    report(6, ok, "; ".join(details))


def test_criterion_7_full_load_penalty():
    _, ref = scenario_records("full_load_reference_u1")
    _, u4 = scenario_records("full_load_u4")
    _, u8 = scenario_records("full_load_u8")
    e_ref = required_ebn0(ref, 1e-4)
    loss4 = required_ebn0(u4, 1e-4) - e_ref
    loss8 = required_ebn0(u8, 1e-4) - e_ref
    ordering = loss8 > loss4 > 0
    # soft target: expected loss magnitudes, within half a dB at this depth
    soft = abs(loss4 - 0.85) <= 0.5 and abs(loss8 - 1.35) <= 0.5
    report(7, ordering and soft,
           f"full-load Eb/N0 losses at BER 1e-4: U=4 {loss4:.2f} dB, "
           f"U=8 {loss8:.2f} dB (reference {e_ref:.2f} dB; targets "
           f"0.85/1.35 +/- 0.5)")


def test_criterion_8_sensing_mismatch():
    _, p4 = scenario_records("mismatch_u4_perfect")
    _, m4 = scenario_records("mismatch_u4_eta96")
    penalty = required_ebn0(m4, 1e-3) - required_ebn0(p4, 1e-3)
    _, p8 = scenario_records("mismatch_u8_perfect")
    _, m8 = scenario_records("mismatch_u8_eta96")
    ratio = m8[-1].ber / p8[-1].ber
    report(8, penalty <= 0.5 and ratio >= 2.0,
           f"U=4 penalty at BER 1e-3: {penalty:.2f} dB (<= 0.5); U=8 BER "
           f"ratio at {p8[-1].ebn0_db:g} dB: {ratio:.2f}x (>= 2); the U=8 "
           "mismatch run equals its U=1 run (tests/test_mui_free.py), so the "
           "penalty is user 1's own reference mismatch, not leaked MUI")


def test_criterion_9_multipath_rake():
    _, single = scenario_records("multipath_single_user")
    _, multi = scenario_records("multipath_windowed_u4")
    _, trad = scenario_records("multipath_baseline_u4")
    contained = all(
        abs(m.ber - s.ber) <= s.ci_halfwidth for s, m in zip(single, multi)
    )
    ratio = trad[-1].ber / multi[-1].ber
    report(9, contained and ratio >= 10.0,
           f"4-user RAKE BER inside single-user CI at all {len(single)} "
           f"points; equalized baseline at {trad[-1].ebn0_db:g} dB is "
           f"{ratio:.0f}x worse")


def test_criterion_10_determinism_and_worker_independence():
    cfg, base = scenario_records("multipath_windowed_u4")
    body = records_to_csv(cfg, base)
    rerun = records_to_csv(cfg, run_ber_scenario(cfg, threads=1))
    threaded = records_to_csv(cfg, run_ber_scenario(cfg, threads=4))
    ok = body == rerun == threaded
    report(10, ok,
           "CSV body byte-identical across reruns and worker counts "
           f"({len(body.splitlines()) - 1} rows)")


def test_shipped_scenarios_all_run():
    # every shipped scenario file validates; the ones not already exercised
    # above are at least parsed and system-built
    paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.cfg")))
    assert len(paths) >= 14
    from tdcslab.simharness import build_system

    for p in paths:
        cfg = load_scenario(p)
        build_system(cfg)
