"""Write one workload's inputs for one seed.

Usage: ``python3 perfbench/generate.py SRC SIZE WORKLOAD SEED DEST``. Runs in
its own process so that phantom generation (seconds and hundreds of MB on
the reference grid) stays out of the measured process. Writes ``meta.json``
last; a directory without it is incomplete.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list[str]) -> int:
    src, size, name, seed, dest = argv
    sys.path.insert(0, src)
    import workloads

    wl = workloads.WORKLOADS[size][name]
    gen_s = workloads.generate(wl, int(seed), dest)
    # flush now, so writeback of hundreds of MB does not run during the measurement
    for entry in os.listdir(dest):
        with open(os.path.join(dest, entry), "rb") as fh:
            os.fsync(fh.fileno())
    with open(os.path.join(dest, "meta.json"), "w") as fh:
        json.dump({"workload": name, "size": size, "seed": int(seed),
                   "generate_phantom_s": gen_s}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
