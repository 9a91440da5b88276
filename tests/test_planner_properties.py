"""Property tests of the shift planner and of the zero zone it relies on, over
small random systems drawn from the ranges of test_engine_properties.py."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exhaustive_guard_check
from tdcslab.allocation import ShiftPlan, ShiftWindow, m_max, plan_shifts, verify_mui_free
from tdcslab.errors import CapacityError
from tdcslab.seqcore import zero_zone_verify
from tdcslab.simharness import ScenarioConfig, build_system

N = st.sampled_from([8, 16])
L = st.sampled_from([4, 8])
ORDERS = st.sampled_from([2, 4, 8, 16])
T_MAX = st.integers(0, 6)


@settings(max_examples=80, deadline=None)
@given(n=N, l=L, m=ORDERS, t_max=T_MAX, u=st.integers(1, 4))
def test_accepted_plans_are_mui_free(n, l, m, t_max, u):
    cap = (l * n) // (n + t_max + m)
    try:
        plan = plan_shifts(u, n, l, m, t_max=t_max)
    except CapacityError as exc:
        assert u > max(cap, 1) and exc.u_max == cap
        return
    assert u == 1 or u <= cap
    assert verify_mui_free(plan).ok


@settings(max_examples=80, deadline=None)
@given(n=N, l=L, m=ORDERS, t_max=T_MAX)
def test_one_user_past_capacity_raises_with_the_capacity(n, l, m, t_max):
    cap = (l * n) // (n + t_max + m)
    if cap > 1:  # the table is tight: its last row fits
        assert verify_mui_free(plan_shifts(cap, n, l, m, t_max=t_max)).ok
    try:
        plan_shifts(cap + 1, n, l, m, t_max=t_max)
    except CapacityError as exc:
        assert exc.u_max == cap
    else:
        assert cap == 0  # a single user always fits


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([8, 16, 64]), l=st.integers(2, 16), u=st.integers(1, 12),
       t_max=T_MAX)
def test_m_max_is_the_largest_order_the_planner_accepts(n, l, u, t_max):
    accepted = []
    for m in (2 ** k for k in range(1, (l * n).bit_length())):
        try:
            plan_shifts(u, n, l, m, t_max=t_max)
        except CapacityError:
            continue
        # a lone user's plan admits any order up to the circle; m_max still
        # keeps the window and one guard inside it, its capacity rule at U = 1
        if u > 1 or n + t_max + m <= l * n:
            accepted.append(m)
    try:
        order = m_max(l, n, u, t_max)
    except CapacityError as exc:
        assert accepted == [] and exc.u_max == (l * n) // (n + t_max + 2)
    else:
        assert order == max(accepted)


@st.composite
def shift_plans(draw):
    """Random starts (overlapping and wrapping), or the planner's layout moved
    by -2..+2 lags: guard-short, exact-guard, the planner's one lag of slack
    and more."""
    n, l, u, t_max = (draw(st.integers(1, 16)), draw(st.integers(2, 8)),
                      draw(st.integers(1, 5)), draw(T_MAX))
    ln = l * n
    m = 2 ** draw(st.integers(1, ln.bit_length() - 1))
    if draw(st.booleans()):
        starts = draw(st.lists(st.integers(0, ln - 1), min_size=u, max_size=u))
    else:
        step = n + t_max + draw(st.integers(-2, 2))
        starts = [(i * step + (i - 1) * m) % ln for i in range(1, u + 1)]
    windows = tuple(ShiftWindow(s, m, ln) for s in starts)
    return ShiftPlan(windows=windows, n=n, l=l, t_max=t_max)


@settings(max_examples=500, deadline=None)
@given(plan=shift_plans())
def test_guard_check_equals_the_exhaustive_check(plan):
    # same verdict, guard and witnesses, in the same order
    assert verify_mui_free(plan) == exhaustive_guard_check(plan)


@st.composite
def windowed_systems(draw):
    """A config and the 0/1 mark it states: over ``n`` MHz, one unit band
    per unavailable bin."""
    n, l = draw(N), draw(L)
    mark = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    cfg = ScenarioConfig(
        n=n, l=l, m=2, u=draw(st.integers(2, 3)), bandwidth_mhz=float(n),
        unavailable_mhz=tuple((k, k + 1) for k, bit in enumerate(mark) if not bit),
        seed=draw(st.integers(0, 2 ** 31)), scenario_id="zone",
    )
    return cfg, [int(bit) for bit in mark]


@settings(max_examples=40, deadline=None)
@given(drawn=windowed_systems())
def test_synthesized_pairs_have_the_zero_zone(drawn):
    cfg, mark = drawn
    system = build_system(cfg)
    assert system.mark_tx.bits.tolist() == mark
    for a, b in itertools.permutations(system.chips, 2):
        report = zero_zone_verify(a, b, cfg.n, cfg.l)
        assert report.zero_count >= (cfg.l - 2) * cfg.n + 1
