"""Pin the digests of every stored result for seeds 0 to 10.

    PYTHONPATH=src python3 perfbench/pin.py

Runs each workload once per seed at its benchmark size and writes
``perfbench/digests.json``.  ``run.py`` then compares every repetition
of a pinned seed against these digests.  Re-pin only when a change is
meant to alter stored results, and say so in the change.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[0] = str(HERE.parent)

from perfbench.workloads import WORKLOADS, run_rep  # noqa: E402

SEEDS = range(0, 11)


def main() -> int:
    work = HERE.parent / ".perfbench_work" / "pin"
    pins = {}
    try:
        for name in sorted(WORKLOADS):
            for seed in SEEDS:
                rep_dir = work / f"{name}-{seed}"
                rep_dir.mkdir(parents=True)
                [call] = run_rep(name, seed, rep_dir)["calls"]
                if call["failures"]:
                    print(f"{name} seed {seed}: {call['failures']}",
                          file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = call["digests"]
                print(f"{name} seed {seed}: {len(call['digests'])} results")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "digests.json", "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
