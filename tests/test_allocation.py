"""Shift-window planning, capacity arithmetic, and guard-check tests."""

import tracemalloc

import numpy as np
import pytest

from tdcslab import allocation
from tdcslab.allocation import (
    ShiftPlan,
    ShiftWindow,
    m_max,
    plan_shifts,
    throughput,
    u_max,
    verify_mui_free,
)
from tdcslab.errors import CapacityError, ParameterError

# multiuser capability table: rows L in {8, 9, 12, 16}, ratio M/N in {1/4, 1, 2}
CAPACITY_TABLE = {
    (8, 0.25): 6, (8, 1): 4, (8, 2): 2,
    (9, 0.25): 7, (9, 1): 4, (9, 2): 3,
    (12, 0.25): 9, (12, 1): 6, (12, 2): 4,
    (16, 0.25): 12, (16, 1): 8, (16, 2): 5,
}


class TestUMax:
    @pytest.mark.parametrize("l,ratio,expected", [(k[0], k[1], v) for k, v in CAPACITY_TABLE.items()])
    def test_capacity_table(self, l, ratio, expected):
        n = 64
        assert u_max(l, n, int(ratio * n)) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            u_max(0, 64, 64)

    @pytest.mark.parametrize("l", [1, 0])
    def test_rejects_no_time_code(self, l):
        # L = 1 gave U_max = 0 where the planner rejects the length itself
        with pytest.raises(ParameterError, match="time-spreading length"):
            u_max(l, 64, 64)
        with pytest.raises(ParameterError, match="time-spreading length"):
            m_max(l, 64, 1)

    @pytest.mark.parametrize("t_max", [-1, -100, -128, -200])
    def test_rejects_negative_t_max(self, t_max):
        # a negative channel order shrank the guard below N: -128 divided by
        # zero, -200 gave -15 users and -100 gave 36 where 8 fit
        with pytest.raises(ParameterError, match="t_max"):
            u_max(16, 64, 64, t_max=t_max)


class TestMMax:
    def test_reference_values(self):
        assert m_max(16, 64, 4) == 128
        assert m_max(16, 64, 8) == 64

    def test_capacity_error_when_nothing_fits(self):
        with pytest.raises(CapacityError):
            m_max(16, 64, 16)

    def test_rejects_negative_t_max(self):
        with pytest.raises(ParameterError, match="t_max"):
            m_max(16, 64, 2, t_max=-5)

    def test_result_always_feasible(self):
        for u in range(1, 12):
            try:
                order = m_max(16, 64, u)
            except CapacityError:
                continue
            plan = plan_shifts(u, 64, 16, order)
            assert verify_mui_free(plan).ok
            # doubling the order must break the floor bound
            assert 2 * order * u > 16 * 64 - u * 64


class TestThroughput:
    def test_aggregate_values(self):
        t8 = throughput(8, 16, 64, beta=0.75)
        assert t8.aggregate == pytest.approx(8 * 6 / 768)
        t4 = throughput(4, 16, 64, beta=0.75)
        assert t4.aggregate == pytest.approx(4 * 7 / 768)

    def test_decreasing_in_n(self):
        # with U and L fixed, more bins per basis waveform lowers throughput
        for u in (2, 4):
            hi = throughput(u, 16, 64, beta=0.75)
            lo = throughput(u, 16, 128, beta=0.75)
            assert lo.aggregate < hi.aggregate

    def test_rejects_bad_beta(self):
        with pytest.raises(ParameterError):
            throughput(4, 16, 64, beta=0.0)


class TestPlanShifts:
    def test_toy_layout(self):
        plan = plan_shifts(2, 4, 8, 4)
        assert [w.start for w in plan.windows] == [4, 12]
        assert plan.windows[0].shifts().tolist() == [4, 5, 6, 7]
        assert plan.windows[1].shifts().tolist() == [12, 13, 14, 15]
        assert verify_mui_free(plan).ok

    def test_single_user_window(self):
        plan = plan_shifts(1, 8, 8, 4)
        assert plan.windows[0].start == 8
        assert plan.windows[0].width == 4

    def test_single_user_full_range(self):
        plan = plan_shifts(1, 64, 16, 1024)
        assert plan.windows[0].width == 1024
        assert sorted(plan.windows[0].shifts().tolist()) == list(range(1024))

    def test_table_row_feasibility(self):
        plan = plan_shifts(9, 64, 12, 16)
        assert plan.n_users == 9
        with pytest.raises(CapacityError) as err:
            plan_shifts(10, 64, 12, 16)
        assert err.value.u_max == 9

    def test_multipath_guard_reduces_capacity(self):
        # guard inflates to N + T_max
        assert plan_shifts(7, 64, 16, 64, t_max=5).n_users == 7
        with pytest.raises(CapacityError) as err:
            plan_shifts(8, 64, 16, 64, t_max=5)
        assert err.value.u_max == 7

    def test_full_table_tightness(self):
        n = 64
        for (l, ratio), cap in CAPACITY_TABLE.items():
            m = int(ratio * n)
            plan = plan_shifts(cap, n, l, m)
            assert verify_mui_free(plan).ok
            with pytest.raises(CapacityError):
                plan_shifts(cap + 1, n, l, m)

    def test_wraparound_gap_at_full_load(self):
        # first and last windows must respect the guard across the wrap
        for (l, ratio), cap in CAPACITY_TABLE.items():
            n = 64
            m = int(ratio * n)
            plan = plan_shifts(cap, n, l, m)
            first = plan.windows[0].start
            last = plan.windows[-1].start + m - 1
            assert (first - last) % (l * n) >= plan.guard

    @pytest.mark.parametrize("u", [0, -1])
    def test_rejects_no_users(self, u):
        # ShiftPlan rejects the empty plan
        with pytest.raises(ParameterError, match="at least one window"):
            plan_shifts(u, 64, 16, 64)

    def test_rejects_non_power_of_two_order(self):
        with pytest.raises(ParameterError):
            plan_shifts(2, 8, 8, 6)

    def test_large_order_checks_in_little_memory(self):
        # an (M, M) difference matrix per user pair peaked at 100 MiB here
        tracemalloc.start()
        try:
            plan = plan_shifts(2, 256, 32, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.n_users == 2
        assert peak < 2 ** 20

    def test_guard_checked_once_per_full_load_build(self, monkeypatch):
        from tdcslab.simharness import ScenarioConfig, build_system

        calls = []

        def counted(plan):
            calls.append(plan)
            return verify_mui_free(plan)

        monkeypatch.setattr(allocation, "verify_mui_free", counted)
        build_system(ScenarioConfig(n=16, l=8, m="full", u=2, scenario_id="once"))
        assert len(calls) == 1


class TestRakeFingers:
    # finger q reads the window q lags early; a slice unless it wraps
    @pytest.mark.parametrize("start", [0, 2, 5, 62])
    def test_finger_columns(self, start):
        window = ShiftWindow(start=start, width=4, circular_length=64)
        fingers = window.fingers(3)
        lags = np.arange(64)
        assert [lags[cols].tolist() for cols in fingers] == [
            ((window.shifts() - q) % 64).tolist() for q in range(3)]
        assert [isinstance(cols, slice) for cols in fingers] == [
            start - q >= 0 and start - q + 4 <= 64 for q in range(3)]


class TestVerifyMuiFree:
    def test_plan_rejects_negative_t_max(self):
        # t_max = -5 shrank the guard to N - 5: a layout 4 lags apart passed
        windows = (ShiftWindow(0, 2, 64), ShiftWindow(5, 2, 64))
        with pytest.raises(ParameterError, match="t_max"):
            ShiftPlan(windows=windows, n=8, l=8, t_max=-5)

    def test_adjacent_windows_violate(self):
        # second window starts N-1 past the end of the first
        ln = 64
        w1 = ShiftWindow(start=8, width=4, circular_length=ln)
        w2 = ShiftWindow(start=8 + 4 + 7 - 4, width=4, circular_length=ln)
        # distance between w1 end (11) and w2 start (15) is 4 < guard 8
        plan = ShiftPlan(windows=(w1, w2), n=8, l=8)
        check = verify_mui_free(plan)
        assert not check.ok
        assert check.violations
        i, jj, tau_i, tau_j = check.violations[0]
        assert {i, jj} == {1, 2}
        assert abs((tau_i - tau_j) % ln) < ln

    def test_exact_guard_distance_allowed(self):
        # open-interval condition: circular distance exactly N passes
        ln = 64
        w1 = ShiftWindow(start=0, width=2, circular_length=ln)
        w2 = ShiftWindow(start=9, width=2, circular_length=ln)
        plan = ShiftPlan(windows=(w1, w2), n=8, l=8)
        assert verify_mui_free(plan).ok
        w3 = ShiftWindow(start=8, width=2, circular_length=ln)
        plan_bad = ShiftPlan(windows=(w1, w3), n=8, l=8)
        # shifts 1 (of w1) and 8 (of w3) violate: distance 7 < guard 8
        assert not verify_mui_free(plan_bad).ok

    def test_single_user_vacuous(self):
        plan = plan_shifts(1, 8, 8, 4)
        check = verify_mui_free(plan)
        assert check.ok and check.violations == []

    def test_sweep_small_grid(self):
        for n in (4, 8):
            for l in (4, 8):
                for m in (2, 4):
                    for t_max in (0, 2):
                        cap = (l * n) // (n + t_max + m)
                        for u in range(2, cap + 1):
                            plan = plan_shifts(u, n, l, m, t_max=t_max)
                            assert verify_mui_free(plan).ok


class TestGuardAgainstSequences:
    def test_brute_force_oracle_agreement(self, rng):
        """The analytic guard check matches actual correlation leakage."""
        from tdcslab.seqcore import gen_zadoff_chu, periodic_xcorr_fft
        from tdcslab.spectrum import mark_from_bands
        from tdcslab.waveform import build_user_fmw

        n, l = 8, 8
        ln = n * l
        mark = mark_from_bands(8.0, [(2.0, 3.0)], n)
        code = gen_zadoff_chu(l, 1)
        c1 = build_user_fmw(mark, code, user_seed=1).c
        c2 = build_user_fmw(mark, code, user_seed=2).c
        cross = periodic_xcorr_fft(c2, c1)
        tol = 1e-9 * ln

        def leakage(w1, w2):
            # max |phi_{<c2>_t2, c1}(t1)| = |cross(t1 - t2)| over the windows
            worst = 0.0
            for t1 in w1.shifts():
                for t2 in w2.shifts():
                    worst = max(worst, abs(cross[(t1 - t2) % ln]))
            return worst

        good = plan_shifts(2, n, l, 4)
        assert verify_mui_free(good).ok
        assert leakage(*good.windows) < tol

        bad = ShiftPlan(
            windows=(ShiftWindow(8, 4, ln), ShiftWindow(14, 4, ln)), n=n, l=l
        )
        assert not verify_mui_free(bad).ok
        assert leakage(*bad.windows) > tol
