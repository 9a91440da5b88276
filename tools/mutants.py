"""The mutant table: each mutant must fail its killing tests on their own.

Run from the root of a checkout (numpy, pytest and hypothesis installed):

    python tools/mutants.py

For each entry, a copy of the checkout gets one edit, a text that occurs
exactly once replaced, and the entry's killing tests run on the copy at
every Hypothesis seed in ``SEEDS``.  Each run must stop at a failing test
(pytest's exit status 1); the script exits non-zero and names every
mutant that survives a run.  The mutants are a wrong noise law or
superposition, a broken input, capacity or zero-zone rule, a value not
read as its text, windows planned without the channel's delay spread, a
broken scheduler or stopping rule, and an FFT noise sampler that reads a
tile's rows out of order.  The golden byte digests would catch most of
them too; the table shows that the named tests do without them.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 9, 11)

MUTANTS = [  # (file, text found exactly once, replacement, killing tests)
    ("src/tdcslab/simharness.py",  # the conjugated window-noise covariance
     "offsets[:, None] - offsets[None, :]", "offsets[None, :] - offsets[:, None]",
     ["tests/test_noise_law.py"]),
    ("src/tdcslab/simharness.py", "(w.start + msg)", "(w.start - msg)",
     ["tests/test_engine_properties.py::test_chunk_equals_the_per_block_reference"]),
    ("src/tdcslab/simharness.py", "acc += term", "acc -= term",
     ["tests/test_engine_properties.py::test_chunk_equals_the_per_block_reference"]),
    ("src/tdcslab/channel.py",  # the Eb/N0 range reduced to NaN and -inf
     "-1000.0 <= ebn0_db <= 1000.0", "-np.inf < ebn0_db",
     ["tests/test_channel.py::TestNoiseSpec"]),
    ("src/tdcslab/spectrum.py",  # touching bands left apart
     "lo <= union[-1][1]", "lo < union[-1][1]",
     ["tests/test_spectrum.py::TestBandUnion"]),
    ("src/tdcslab/simharness.py",  # the tap index of a user's term
     "(tau - p) % self.ln", "(tau + p) % self.ln",
     ["tests/test_engine_properties.py::test_chunk_equals_the_per_block_reference"]),
    ("src/tdcslab/simharness.py",  # every point computed, not those open
     "yield ebn0_db, size, idx, points",
     "yield ebn0_db, size, idx, [*range(len(cfg.nf_db))]",
     ["tests/test_simharness.py::TestScheduler"]),
    ("src/tdcslab/simharness.py",  # a point still open at its error floor
     "if err < cfg.min_bit_errors]", "if err <= cfg.min_bit_errors]",
     ["tests/test_simharness.py::TestScheduler"]),
    ("src/tdcslab/simharness.py",  # one chunk more in flight than threads
     "len(queue) == threads", "len(queue) > threads",
     ["tests/test_simharness.py::TestScheduler::test_at_most_threads_chunks_are_in_flight"]),
    ("src/tdcslab/seqcore.py",  # the negative lags of the padded correlation
     "psi[lags % (2 * n_bins)]", "psi[lags % n_bins]",
     ["tests/test_seqcore.py::TestZeroZone"]),
    ("src/tdcslab/allocation.py",  # the guard check's arc one short
     "p < m + 2 * g - 2", "p < m + 2 * g - 3",
     ["tests/test_planner_properties.py::test_guard_check_equals_the_exhaustive_check"]),
    ("src/tdcslab/spectrum.py",  # a mark with no bin left accepted
     "int(arr.sum()) < 1", "int(arr.sum()) < 0",
     ["tests/test_spectrum.py::TestMarkFromBands::test_full_band_unavailable"]),
    ("src/tdcslab/simharness.py",  # the planner's load unchecked: one window for all
     "plan_shifts, cfg.u, cfg.n", "plan_shifts, 1, cfg.n",
     ["tests/test_simharness.py::TestInputValidation::test_a_config_that_constructs_builds"]),
    ("src/tdcslab/simharness.py",  # the seed not read as its text
     "object.__setattr__(self, key, parse(fmt(value)))",
     'object.__setattr__(self, key, value if key == "seed" else parse(fmt(value)))',
     ["tests/test_simharness.py::TestInputValidation::test_value_not_its_text_rejected"]),
    ("src/tdcslab/simharness.py",  # the windows planned without the multipath T_max
     "plan_shifts, cfg.u, cfg.n, cfg.l, order, t_max)",
     "plan_shifts, cfg.u, cfg.n, cfg.l, order, 0)",
     ["tests/test_mui_free.py::test_the_guard_is_tight_on_the_statistic"]),
    ("src/tdcslab/simharness.py",  # a tile's FFT-sampled noise rows reversed
     "xcorr_from_spectrum(g, self.cref)", "xcorr_from_spectrum(g[::-1], self.cref)",
     ["tests/test_kernel_cells.py"]),
]


def survivors(workdir: str) -> list:
    """The runs in which a mutant's killing tests did not fail."""
    mutant = os.path.join(workdir, "mutant")
    out = []
    for path, text, replacement, killers in MUTANTS:
        shutil.rmtree(mutant, ignore_errors=True)
        shutil.copytree(ROOT, mutant, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", "__pycache__", ".pytest_cache"))
        with open(os.path.join(mutant, path)) as fh:
            source = fh.read()
        if source.count(text) != 1:
            sys.exit(f"{path}: {text!r} occurs {source.count(text)} times, not once")
        with open(os.path.join(mutant, path), "w") as fh:
            fh.write(source.replace(text, replacement))
        for seed in SEEDS:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", *killers, "-x", "-q",
                 "-p", "no:cacheprovider", f"--hypothesis-seed={seed}"],
                cwd=mutant, env={**os.environ, "PYTHONPATH": "src"})
            if run.returncode != 1:  # 1: tests ran and one failed
                out.append(f"{path}: {text!r} -> {replacement!r} "
                           f"at seed {seed} (exit {run.returncode})")
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        left = survivors(tmp)
    sys.exit("\n".join(["surviving mutants:"] + left) if left else 0)
