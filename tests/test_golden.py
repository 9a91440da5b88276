"""Golden CSV bodies of both engines at reduced depth.

Each case runs one shipped scenario on a small grid with a depth whose
chunks are not a multiple of the kernels' row tile and whose last chunk is
short, so full tiles, a ragged last tile and a short last chunk are all
exercised.  The sha256 digests were recorded from the whole-chunk
(untiled) kernels of each engine; a change that moves any decision changes
a digest.  Records must match for every worker count and for any tile byte
budget or row cap.
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
}


def golden_config(name):
    stem, overrides, _ = GOLDEN[name]
    cfg = load_scenario(os.path.join(SCENARIO_DIR, f"{stem}.cfg"))
    return replace(cfg, **DEPTH, **overrides)


def body_sha256(cfg, threads):
    body = records_to_csv(cfg, run_ber_scenario(cfg, threads=threads))
    return hashlib.sha256(body.encode()).hexdigest()


def tile_heights(name):
    """The tile height of each point simulator the golden case runs."""
    cfg = golden_config(name)
    system = build_system(cfg)
    return {_make_sim(cfg, system, 0, ebn0_db, cfg.nf_db[0]).tile_rows
            for ebn0_db in cfg.ebn0_db}


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
@pytest.mark.parametrize("name", ["full_circle_u1", "rake_u4",
                                  "traditional_multipath_fde_u4",
                                  "signal_windowed_u4", "signal_traditional_u4",
                                  "signal_rake_u4", "signal_multipath_fde_u4",
                                  "signal_mismatch_u8"])
def test_records_do_not_depend_on_tile_size(name, tile, monkeypatch):
    patch_tiling(monkeypatch, tile)
    assert body_sha256(golden_config(name), 1) == GOLDEN[name][2]
