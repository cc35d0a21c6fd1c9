"""Measured process: runs the passes of one workload and checks each output.

Usage: ``python3 perfbench/worker.py CONFIG.json RESULT.json``. The config
comes from ``run.py``. This process only reads inputs that another process
generated, so its peak RSS is the pipeline's. Passes run back to back in a
closed loop: the next pass starts when the previous one (and its oracle
check) is done.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext

# Warm passes of each kind a run makes at least: untraced ones in a plain
# run; untraced and traced ones (alternating) in a traced run. Two keeps a
# brain-gz run (about 11 s a pass) short enough for repeated runs.
MIN_PASSES = 2


def _environment() -> dict:
    import importlib.util

    import numpy as np

    import sphdwi

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    env = {
        "backend": sphdwi.default_backend(),
        "numba": importlib.util.find_spec("numba") is not None,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if env["threadpoolctl"]:
        from threadpoolctl import threadpool_info

        env["blas_threads"] = [pool.get("num_threads") for pool in threadpool_info()
                               if pool.get("user_api") == "blas"]
    return env


def _run(cfg: dict) -> dict:
    import oracle
    import workloads
    from metrics import layer_metrics, median, self_time_table
    from spans import Tracer, tiling_errors

    wl = workloads.WORKLOADS[cfg["size"]][cfg["workload"]]
    run = workloads.runner(wl, cfg["inputs"], cfg["run_dir"])
    tracer = Tracer() if cfg["trace"] else None
    passes: list[dict] = []

    def one(pass_id: int, traced: bool) -> dict:
        rec = {"id": pass_id, "traced": traced, "ok": False, "error": None}
        try:
            if traced:
                with tracer.patched(), tracer.traced_pass(pass_id) as root:
                    run.run_pass(tracer.span)
                rec["seconds"] = root["end"] - root["start"]
            else:
                t0 = time.perf_counter()
                run.run_pass(lambda name: nullcontext())
                rec["seconds"] = time.perf_counter() - t0
            rec["output_bytes"] = run.output_bytes()
            voxels = oracle.sample_voxels(run.voxels, cfg["seed"], pass_id)
            raw, got = run.sample(voxels)
            verdict = oracle.compare(got, oracle.rebuild(run.chain, raw), run.tolerance)
            rec["oracle"] = dataclasses.asdict(verdict)
            rec["ok"] = verdict.ok
            if not verdict.ok:
                rec["error"] = f"oracle mismatch: max |dev| {verdict.max_abs_dev:.3e} > {verdict.tol:.3e}"
            if traced:
                problems = tiling_errors([s for s in tracer.spans if s["pass"] == pass_id])
                if problems:
                    rec["ok"] = False
                    rec["error"] = "trace does not tile the pass: " + "; ".join(problems)
        except Exception as exc:  # a failed pass is counted, and the loop goes on
            traceback.print_exc()
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            run.release()
        if rec["error"]:
            print(f"pass {pass_id} failed: {rec['error']}", file=sys.stderr, flush=True)
        passes.append(rec)
        return rec

    start = time.perf_counter()
    deadline = start + cfg["budget_s"]
    first = one(0, False)
    longest = first.get("seconds", 0.0)
    kinds = itertools.cycle([True, False]) if cfg["trace"] else itertools.repeat(False)
    measure_start = time.perf_counter()
    cut = False
    needed = (False, True) if cfg["trace"] else (False,)
    for pass_id in itertools.count(1):
        counts = [sum(1 for p in passes[1:] if p["traced"] == k) for k in needed]
        if time.perf_counter() - measure_start >= cfg["seconds"] and min(counts) >= MIN_PASSES:
            break
        if time.perf_counter() + 1.5 * longest > deadline:
            cut = True
            break
        rec = one(pass_id, next(kinds))
        longest = max(longest, rec.get("seconds", 0.0))

    timed = [p for p in passes[1:] if not p["traced"] and p["ok"]]
    result = {
        "passes": passes,
        "cut_by_deadline": cut,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pipeline_s": median(p["seconds"] for p in timed),
        "output_mb": median(p["output_bytes"] / 2.0**20 for p in timed),
        "samples": len(timed),
        "env": _environment(),
        "voxels": run.voxels,
    }
    if cfg["trace"]:
        tracer.write_jsonl(os.path.join(cfg["run_dir"], "spans.jsonl"))
        traced_ok = {p["id"] for p in passes if p["traced"] and p["ok"]}
        spans = [s for s in tracer.spans if s["pass"] in traced_ok]
        layers = layer_metrics(spans, first.get("seconds", 0.0), [p["seconds"] for p in timed])
        result["per_layer"] = layers
        result["traced_samples"] = len(traced_ok)
        result["self_time_table"] = self_time_table(layers)
    return result


def main(argv: list[str]) -> int:
    config_path, result_path = argv
    with open(config_path) as fh:
        cfg = json.load(fh)
    sys.path.insert(0, cfg["src"])
    import sphdwi

    if not os.path.abspath(sphdwi.__file__).startswith(os.path.abspath(cfg["src"]) + os.sep):
        print(f"sphdwi imported from {sphdwi.__file__}, not from {cfg['src']}", file=sys.stderr)
        return 2
    result = _run(cfg)
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
