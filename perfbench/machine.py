"""Memory-bandwidth reference: a numpy copy of an array well beyond the LLC.

Usage: ``python3 perfbench/machine.py CAP_MIB``; prints one JSON object.
Bytes moved per copy count the read and the write. The array is four times
the last-level cache, at least 64 MiB and at most CAP_MIB; both sizes are
reported, so a capped run shows.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

MIB = 2**20


def llc_bytes() -> tuple[int, str]:
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            size = int(out.stdout.strip() or 0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            size = 0
        if size > 0:
            return size, level
    return 32 * MIB, "assumed"


def main(argv: list[str]) -> int:
    import numpy as np

    llc, source = llc_bytes()
    nbytes = min(max(4 * llc, 64 * MIB), int(argv[0]) * MIB)
    a = np.ones(nbytes // 8)
    b = np.empty_like(a)
    np.copyto(b, a)  # fault in the destination pages
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(b, a)
        times.append(time.perf_counter() - t0)
    t = statistics.median(times)
    print(json.dumps({
        "copy_gbps": 2 * a.nbytes / t / 1e9,
        "copy_array_mib": a.nbytes / MIB,
        "llc_mib": llc / MIB,
        "llc_source": source,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
