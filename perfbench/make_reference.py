"""Regenerate reference.json: the records of every workload at the default seed.

    python3 perfbench/make_reference.py

Only for a change that declares new records; a speed-up must leave the
reference unchanged.
"""

import json
import os
import re
import tempfile

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    os.environ.update(run.PINNED_BLAS)
    tdcslab = run.import_tdcslab()
    reference = {}
    for depth in ("full", "tiny"):
        reference[depth] = {}
        for name, spec in WORKLOADS.items():
            scenarios = run.setup(tdcslab, name, DEFAULT_SEED, depth)
            with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                             dir=run.ROOT) as out_dir:
                observed = run.run_pass(tdcslab, scenarios, spec["threads"],
                                           out_dir)
            if any(obs["points"] is None for obs in observed.values()):
                raise SystemExit(f"{name}: a scenario raised; no reference written")
            reference[depth][name] = {
                label: {"csv_sha256": run.csv_sha256(obs["csv"]),
                        "points": [p[:4] for p in obs["points"]]}
                for label, obs in observed.items()
            }
    # one line per grid point
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(reference, indent=1))
    with open(run.REFERENCE_PATH, "w") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
