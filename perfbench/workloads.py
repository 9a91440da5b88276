"""Workload definitions of the benchmark (standard library only).

Each workload is a set of shipped scenario files, each with overrides that
cap its Monte Carlo depth, plus the worker count passed to
``run_ber_scenario``.  The caps are chosen so that the work a pass does does
not depend on the seed: at ``threads=1`` every grid point runs exactly one
chunk, and at ``threads=2`` every grid point runs exactly one wave of two
chunks, whichever chunk the stopping rule fires in.  NOTES.md gives the
reasons for each workload.
"""

DEFAULT_SEED = 42          # root seed of every shipped scenario file

# depth used by the benchmark's own quick tests: every point runs one or two
# small chunks on at most two Eb/N0 and two near-far values
TINY = {"chunk_symbols": 256, "max_symbols": 512}
TINY_GRID = 2

WORKLOADS = {
    "full_circle": {
        "threads": 1,
        "scenarios": (
            # (label, scenario file stem, overrides)
            ("full_load_reference_u1", "full_load_reference_u1",
             {"ebn0_db": (3.5, 5.0), "max_symbols": 8192}),
            ("single_path_baseline_u4", "single_path_baseline_u4",
             {"ebn0_db": (0.0, 8.0), "max_symbols": 8192}),
        ),
    },
    "windowed_sweep": {
        "threads": 2,
        "scenarios": (
            ("nf_sweep_windowed_u8", "nf_sweep_windowed_u8",
             {"max_symbols": 16384}),
            ("mismatch_u8_eta96", "mismatch_u8_eta96",
             {"max_symbols": 16384}),
            ("full_load_u4", "full_load_u4",
             {"max_symbols": 16384}),
        ),
    },
    "multipath": {
        "threads": 1,
        "scenarios": (
            ("multipath_baseline_u4", "multipath_baseline_u4",
             {"ebn0_db": (0.0, 12.0), "max_symbols": 4096}),
            ("multipath_windowed_u4", "multipath_windowed_u4",
             {"max_symbols": 8192}),
            ("multipath_baseline_u4_signal", "multipath_baseline_u4",
             {"ebn0_db": (12.0,), "max_symbols": 4096, "engine": "signal"}),
        ),
    },
}

# scenarios whose interference is exactly zero, so every near-far point must
# repeat the same (bits, errors) at any seed (common random numbers)
MUI_FREE_NF_SWEEPS = {"nf_sweep_windowed_u8"}
