"""Golden CSV bodies of both engines at reduced depth.

Each case runs one shipped scenario on a small grid with a depth whose
chunks leave a ragged last tile at each kernel's tile height and whose last
chunk is short, so full tiles, a ragged last tile and a short last chunk are
all exercised.  The first eleven sha256 digests were recorded from the
whole-chunk (untiled) kernels of each engine, the others from the tiled
kernels while they still kept private copies of the channel and receiver
model, the near-far sweeps' from one simulator per near-far point; a change
that moves any decision changes a digest.  Records must match for every
worker count and for any tile byte budget or row cap (so for any slab of
draws), and a near-far sweep, run as one point group, must equal its points
run one at a time.
"""

import hashlib
import os
from dataclasses import asdict, replace

import pytest

from tdcslab import simharness
from tdcslab.cli import EXIT_OK, main
from tdcslab.simharness import (
    _make_sim,
    build_system,
    load_scenario,
    read_results,
    records_to_csv,
    run_ber_scenario,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

# chunks of 300 symbols: tiles of 256 + 44 rows for windows of at most 64
# lags, 2 x 128 + 44 rows at M = 128, 18 x 16 + 12 rows at L*N = 1024 lags;
# 700 = 300 + 300 + 100
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
    # fixed-phase gains.  The "all_users" cases keep the names of the
    # every-receiver runs they replaced (so do their test ids); they measure
    # user 1 on the Rayleigh, RAKE and FDE branches of both engines, with
    # digests recorded from the engine that still had every-receiver runs
    "rayleigh_all_users_u4": (
        "single_path_windowed_u4",
        dict(phase_model="rayleigh", ebn0_db=(0.0, 6.0)),
        "fcea1cdc2904fabbb24cbf0e3441e7158f23fd95a30a63b7af9052ad4e596a42",
    ),
    "signal_rayleigh_all_users_u4": (
        "single_path_windowed_u4",
        dict(engine="signal", phase_model="rayleigh", ebn0_db=(0.0, 6.0)),
        "604469f421d01956898391bbdb32f0fe791ca328a573fd16aad8747c56035214",
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
        "multipath_windowed_u4", dict(ebn0_db=(3.0,)),
        "1a0b65675cdbd403388241dbc1c49360c1a05ad0be3e695df0c6cf0de4a5c284",
    ),
    "signal_rake_all_users_u4": (
        "multipath_windowed_u4", dict(engine="signal", ebn0_db=(3.0,)),
        "36832788ba26a6134638f746273b35beba5f5d94599127f0d0470727ddf9dea8",
    ),
    "fde_all_users_u4": (
        "multipath_baseline_u4", dict(ebn0_db=(6.0,)),
        "902f70b1b7980da64f9251d1d32e94ffb122f4d7ad8938cbfb2ea520f60da459",
    ),
    "signal_fde_all_users_u4": (
        "multipath_baseline_u4", dict(engine="signal", ebn0_db=(6.0,)),
        "9915b775ddc6bba3c3739800139e99d27e2ee7cdc0152d44041b34d862d31ca8",
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


def case_sim(name):
    """The simulator the golden case runs."""
    cfg = golden_config(name)
    return _make_sim(cfg, build_system(cfg))


def tile_heights(name):
    """The tile height of the simulator the golden case runs, as a set."""
    return {case_sim(name).tile_rows}


@pytest.mark.parametrize("name", NF_SWEEPS)
def test_sweep_points_stop_at_different_chunks(name):
    # 300, 600 and 700 symbols are one, two and three chunks
    symbols = {rec.bits_sent for rec in run_ber_scenario(golden_config(name))}
    assert len(symbols) > 1


# at 3 threads chunks run speculatively, in flight together while the
# points stop after one, two and three of them
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("name", NF_SWEEPS)
def test_point_group_equals_single_point_runs(name, threads):
    cfg = golden_config(name)
    singles = [rec for nf_db in cfg.nf_db
               for rec in run_ber_scenario(replace(cfg, nf_db=(nf_db,)), threads)]
    grouped = run_ber_scenario(cfg, threads)
    assert [asdict(rec) for rec in grouped] == [asdict(rec) for rec in singles]


def test_depth_makes_ragged_tiles_and_chunks():
    heights = set().union(*(tile_heights(name) for name in GOLDEN))
    assert {16, 128, 256} <= heights
    # every tile height leaves a ragged last tile in a full or the short
    # chunk (the 15-row tiles of the 1029-lag window in the short one only)
    sizes = (DEPTH["chunk_symbols"], DEPTH["max_symbols"] % DEPTH["chunk_symbols"])
    for rows in heights:
        assert any(size % rows for size in sizes), rows
    assert DEPTH["max_symbols"] % DEPTH["chunk_symbols"] != 0


# at 3 threads the tail of each run computes speculative chunks
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_records(name, threads):
    assert body_sha256(golden_config(name), threads) == GOLDEN[name][2]


def test_golden_bodies_pass_report(tmp_path, capsys):
    # the golden cases hold no negative value, so one more body has them
    cfgs = [golden_config(name) for name in sorted(GOLDEN)]
    cfgs.append(replace(cfgs[-1], nf_db=(-3.0, 0.5), ebn0_db=(-2.5,)))
    bodies = ""
    for cfg in cfgs:
        records = run_ber_scenario(cfg)
        path = tmp_path / f"{cfg.scenario_id}.csv"
        path.write_text(records_to_csv(cfg, records))
        bodies += path.read_text()
        assert [(sid, system, u, r.nf_db, r.ebn0_db, r.bits_sent, r.bit_errors)
                for sid, system, u, r in read_results(path)] == [
            (cfg.scenario_id, cfg.system, cfg.u, r.nf_db, r.ebn0_db, r.bits_sent,
             r.bit_errors) for r in records]
        capsys.readouterr()
        assert main(["report", "--results", str(path)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 2 + len(records)
    # the writer's less usual texts, read back as they are
    assert ",inf," in bodies and ",-3.0," in bodies and "np.float64(" in bodies


# (byte budget, row cap): 1-row tiles, whose draws come in 1-row slabs;
# tiles of 37 rows (36 for the 1029-lag full-circle RAKE window); whole-chunk
# tiles
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
    patch_tiling(monkeypatch, TILINGS[0])
    assert {case_sim(name).slab_rows for name in GOLDEN} == {1}


@pytest.mark.parametrize("tile", TILINGS, ids=TILING_IDS)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_do_not_depend_on_tile_size(name, tile, monkeypatch):
    patch_tiling(monkeypatch, tile)
    assert body_sha256(golden_config(name), 1) == GOLDEN[name][2]
