"""MUI-free as an exact invariant of the shipped windowed scenarios.

User 1's draws carry no user count, and every other user's cross-correlation
on user 1's window is zero up to rounding, so a windowed scenario's records
equal those of the same config at ``u = 1``, point by point.  The equality
alone would also hold for a kernel that skipped the interferers, so every
tile is checked to return the interferers' sum for the point sums, and the
traditional baseline, which has no zero zone, must differ from its ``u = 1``
run.  ``full_load_u4`` is left out: ``m = full`` changes ``M`` with ``u``.
"""

import os
from dataclasses import replace

import pytest

from tdcslab.simharness import _PointSim, load_scenario, run_ber_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

WINDOWED = ["nf_sweep_windowed_u8", "mismatch_u8_eta96",
            "single_path_windowed_u4", "multipath_windowed_u4"]


def shallow(stem):
    """The shipped scenario at 4096 symbols in 2048-symbol chunks, on its
    first two Eb/N0 values."""
    cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
    return replace(cfg, ebn0_db=cfg.ebn0_db[:2], max_symbols=4096,
                   chunk_symbols=2048)


def counts(cfg):
    return [(r.nf_db, r.ebn0_db, r.bits_sent, r.bit_errors)
            for r in run_ber_scenario(cfg, threads=2)]


def spy_interference(monkeypatch):
    """Record, per ``_superpose`` call, whether it returned an interference."""
    seen = []
    superpose = _PointSim._superpose

    def recorded(sim, links, tau, ws):
        out = superpose(sim, links, tau, ws)
        seen.append(out[1] is not None)
        return out

    monkeypatch.setattr(_PointSim, "_superpose", recorded)
    return seen


@pytest.mark.parametrize("stem", WINDOWED)
def test_windowed_records_equal_the_single_user_run(stem, monkeypatch):
    cfg = shallow(stem)
    assert cfg.u > 1 and cfg.system == "mui_free_tdcs"
    seen = spy_interference(monkeypatch)
    multi = counts(cfg)
    assert seen and all(seen)      # every tile summed the interferers
    seen.clear()
    single = counts(replace(cfg, u=1))
    assert seen and not any(seen)
    assert multi == single


def test_traditional_records_differ_from_the_single_user_run():
    cfg = shallow("nf_sweep_baseline_u4")
    assert counts(cfg) != counts(replace(cfg, u=1))
