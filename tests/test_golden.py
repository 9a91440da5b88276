"""Golden CSV bodies of both engines at reduced depth.

Each case runs one shipped scenario on a small grid with a depth whose
chunks are not a multiple of the kernels' row tile and whose last chunk is
short, so full tiles, a ragged last tile and a short last chunk are all
exercised.  The first eleven sha256 digests were recorded from the
whole-chunk (untiled) kernels of each engine, the others from the tiled
kernels while they still kept private copies of the channel and receiver
model; a change that moves any decision changes a digest.  Records must
match for every worker count and for any tile byte budget or row cap.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from tdcslab import simharness
from tdcslab.simharness import (
    _make_sim,
    build_system,
    load_scenario,
    records_to_csv,
    run_ber_scenario,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# chunks of 300 symbols: tiles of 256 + 44 rows for windows of at most 128
# lags, 9 x 32 + 12 rows at L*N = 1024 lags; 700 = 300 + 300 + 100
DEPTH = dict(chunk_symbols=300, max_symbols=700, min_bit_errors=10 ** 9)

# name: (scenario file stem, overrides, CSV-body sha256)
GOLDEN = {
    # u = 1 keys the whole circle: frequency-domain noise over M = L*N lags
    "full_circle_u1": (
        "full_load_reference_u1", dict(ebn0_db=(0.0, 3.5)),
        "a19fca59a2a91fc36ba356a20e3b05a38b3109d626af80ae93db6475245ee4fb",
    ),
    "traditional_u4": (
        "single_path_baseline_u4", dict(ebn0_db=(0.0, 8.0)),
        "f206db27ba64f7c8cef4e6c52cff67266ee6781474e06ff92a84540f7cef5130",
    ),
    # windows of 64 lags: Cholesky noise; the mismatch rebuilds the reference
    "windowed_cholesky_u8": (
        "mismatch_u8_eta96", dict(ebn0_db=(2.0, 6.0)),
        "317925590d4d976bb505bb1017a7486fb309d27f7e6e80b5e86d12668807da99",
    ),
    "rake_u4": (
        "multipath_windowed_u4", dict(ebn0_db=(0.0, 6.0)),
        "6702edbf502966d4f617bc007a8a308a38ae82deb482c5fd38fcb87a5374f9a3",
    ),
    # M = L*N plus the channel order: frequency-domain noise on wrapped lags
    "rake_full_circle_u1": (
        "multipath_single_user", dict(m="full", ebn0_db=(3.0,)),
        "79df3f9b2f39b09e923f31f677a4e286dccdb76f30459ed5d326b9dfc72b3a3f",
    ),
    "traditional_multipath_fde_u4": (
        "multipath_baseline_u4", dict(ebn0_db=(0.0, 12.0, float("inf"))),
        "089ee1e8bbffea3d638c52b18456bcd18e51f8277a408ec535b2311c61788031",
    ),
    # the literal modulate -> channel -> demodulate pipeline
    "signal_windowed_u4": (
        "single_path_windowed_u4", dict(engine="signal", ebn0_db=(0.0, 6.0)),
        "43de6e88f891d23b34d69ed55891cb9925a6664a9097a732874429f1e63ae87c",
    ),
    "signal_traditional_u4": (
        "single_path_baseline_u4", dict(engine="signal", ebn0_db=(0.0, 8.0)),
        "3eaf783c13bb76ea517ed1c581513f93c485b41bcfb5ee62c9b66218a02b4b4e",
    ),
    "signal_rake_u4": (
        "multipath_windowed_u4", dict(engine="signal", ebn0_db=(0.0, 6.0)),
        "13b289222e5b601476126e249eba30ce2f240d98810845e4162fad9667572c60",
    ),
    "signal_multipath_fde_u4": (
        "multipath_baseline_u4",
        dict(engine="signal", ebn0_db=(0.0, 12.0, float("inf"))),
        "c99d5230cdc3d7fea8f29bd07ef95637164d3300da6f3df0ff023cfe8f5ae2fb",
    ),
    "signal_mismatch_u8": (
        "mismatch_u8_eta96", dict(engine="signal", ebn0_db=(2.0,)),
        "2fce9f35602206a53d0037eab299c4c44980173ae62bc3c8283328aea8b299db",
    ),
    # the remaining shipped scenarios; full loading of four users keys a
    # 128-lag window
    "full_load_u4": (
        "full_load_u4", dict(ebn0_db=(4.5, 6.0)),
        "c8191a1588a5080bedd03e013adccb3ef77bb9ccb1491f8e44090ac8c62ef5d2",
    ),
    "full_load_u8": (
        "full_load_u8", dict(ebn0_db=(5.0,)),
        "670c4bee3a9f456fd13474dba69c5f849c1aab9a0e3b797bc43f0cc5d9a4d0d1",
    ),
    "mismatch_u4_eta96": (
        "mismatch_u4_eta96", dict(ebn0_db=(3.0,)),
        "c113132e17287d9145912c529ccd5215646d8f5246e6adb9f47d871793841ed3",
    ),
    "mismatch_u4_perfect": (
        "mismatch_u4_perfect", dict(ebn0_db=(3.0,)),
        "271b5e5a7d188842ebcd9d96075185c0327c04aba02be016ece138ed7c4cc6cf",
    ),
    "mismatch_u8_perfect": (
        "mismatch_u8_perfect", dict(ebn0_db=(2.0,)),
        "bc6cd3685a378330d4d05c4e7572761cf1e679fb1f0266b9ca2716210af509a8",
    ),
    "single_user_u1": (
        "single_path_single_user", dict(ebn0_db=(0.0, 4.0)),
        "359f1a56c56f77a9e066adf8c44d33f268f9d9b6382be933be8eb930218b920e",
    ),
    # near-far sweeps at a finite error target, so that their points stop
    # at different chunks (the windowed sweeps repeat their counts at every
    # NF value, so they get a second Eb/N0 that stops earlier)
    "nf_sweep_baseline_u4": (
        "nf_sweep_baseline_u4", dict(min_bit_errors=50),
        "583b6577a59f6b95de0843e7832c268bafda16460dfa3da4202b7df41e439c08",
    ),
    "nf_sweep_baseline_u8": (
        "nf_sweep_baseline_u8", dict(min_bit_errors=100),
        "92a033a9dc0e9153a5f10689ede13499a7003bb05a405e077bb065c0269d996f",
    ),
    "nf_sweep_windowed_u4": (
        "nf_sweep_windowed_u4", dict(ebn0_db=(0.0, 5.0), min_bit_errors=100),
        "8f9bd38a1b3ec14608f0fe7b95d982e10b0b72444d3408a3597e2b4739b81a5f",
    ),
    "nf_sweep_windowed_u8": (
        "nf_sweep_windowed_u8", dict(ebn0_db=(0.0, 5.0), min_bit_errors=100),
        "60efad1f430312e16d4902775e4ef53999158158e30b0723f6b7de66ec2aaaf3",
    ),
    # the gain and tap branches no shipped scenario selects: Rayleigh and
    # fixed-phase gains, and every user as the victim (pair-keyed streams)
    "rayleigh_all_users_u4": (
        "single_path_windowed_u4",
        dict(phase_model="rayleigh", measure_all_users=True, ebn0_db=(0.0, 6.0)),
        "a4464b1074475999456189fdd5fbc933fa75b8c53602bb06c4d6217a6e9b2f88",
    ),
    "signal_rayleigh_all_users_u4": (
        "single_path_windowed_u4",
        dict(engine="signal", phase_model="rayleigh", measure_all_users=True,
             ebn0_db=(0.0, 6.0)),
        "4920191225dead40a92352252856426fc99b7f1b7d4e47db8d868d3fdb8b3fd6",
    ),
    "fixed_phase_traditional_u4": (
        "single_path_baseline_u4",
        dict(phase_model="fixed-phase", ebn0_db=(0.0, 8.0)),
        "aaa8de30cf2522ce39d8817dc2657533dde37d0bbec06bb6f47b18c2a7640fcf",
    ),
    "signal_fixed_phase_traditional_u4": (
        "single_path_baseline_u4",
        dict(engine="signal", phase_model="fixed-phase", ebn0_db=(0.0, 8.0)),
        "0a92fc1ef394af201681db294ff84b81c9bb2339efdff5da63cb48efa8bc7537",
    ),
    "rake_all_users_u4": (
        "multipath_windowed_u4", dict(measure_all_users=True, ebn0_db=(3.0,)),
        "62764b02dfe3d7df82d0160c91cd047a1e23f8dbbb772b4b0442c28d3e291a2b",
    ),
    "signal_rake_all_users_u4": (
        "multipath_windowed_u4",
        dict(engine="signal", measure_all_users=True, ebn0_db=(3.0,)),
        "c6725af0f7b7aa8f9fa9aaf3d6aafe7512da55106a05150bc31fc61201ed10f4",
    ),
    "fde_all_users_u4": (
        "multipath_baseline_u4", dict(measure_all_users=True, ebn0_db=(6.0,)),
        "f10f48fa28602925be8c1a042227ae9a7db8d4fc027b5f470ca9c94512339905",
    ),
    "signal_fde_all_users_u4": (
        "multipath_baseline_u4",
        dict(engine="signal", measure_all_users=True, ebn0_db=(6.0,)),
        "f93f638ca0dd467f6cb6881b11ffcb71d3d810bcd5df38cae3b42f097e27f580",
    ),
}

NF_SWEEPS = [name for name in GOLDEN if name.startswith("nf_sweep_")]


def golden_config(name):
    stem, overrides, _ = GOLDEN[name]
    cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
    return replace(cfg, **{**DEPTH, **overrides})


def body_sha256(cfg, threads):
    body = records_to_csv(cfg, run_ber_scenario(cfg, threads=threads))
    return hashlib.sha256(body.encode()).hexdigest()


def tile_heights(name):
    """The tile height of each point simulator the golden case runs."""
    cfg = golden_config(name)
    system = build_system(cfg)
    return {_make_sim(cfg, system, 0, ebn0_db, cfg.nf_db[0]).tile_rows
            for ebn0_db in cfg.ebn0_db}


@pytest.mark.parametrize("name", NF_SWEEPS)
def test_sweep_points_stop_at_different_chunks(name):
    # 300, 600 and 700 symbols are one, two and three chunks
    symbols = {rec.bits_sent for rec in run_ber_scenario(golden_config(name))}
    assert len(symbols) > 1


def test_depth_makes_ragged_tiles_and_chunks():
    heights = set().union(*(tile_heights(name) for name in GOLDEN))
    assert {32, 256} <= heights
    for rows in heights:
        assert DEPTH["chunk_symbols"] % rows != 0, rows
    assert DEPTH["max_symbols"] % DEPTH["chunk_symbols"] != 0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_records(name, threads):
    assert body_sha256(golden_config(name), threads) == GOLDEN[name][2]


# (byte budget, row cap): 1-row tiles; tiles of 37 rows (36 for the 1029-lag
# full-circle RAKE window); whole-chunk tiles
TILINGS = [(1, 256), (37 * 16 * 1024, 37), (2 ** 40, 4096)]
TILING_IDS = ["1", "37", "4096"]


def patch_tiling(monkeypatch, tiling):
    budget, cap = tiling
    monkeypatch.setattr(simharness, "_TILE_BYTES", budget)
    monkeypatch.setattr(simharness, "_TILE_ROWS", cap)


def test_tilings_span_one_row_to_whole_chunk(monkeypatch):
    heights = []
    for tiling in TILINGS:
        patch_tiling(monkeypatch, tiling)
        heights.append(tile_heights("full_circle_u1") | tile_heights("rake_u4"))
    assert heights == [{1}, {37}, {4096}]


@pytest.mark.parametrize("tile", TILINGS, ids=TILING_IDS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_do_not_depend_on_tile_size(name, tile, monkeypatch):
    patch_tiling(monkeypatch, tile)
    assert body_sha256(golden_config(name), 1) == GOLDEN[name][2]
