"""Pipeline benchmark for sphdwi: phantom -> signal2sh -> lsc -> sh2signal.

Usage (from the repository root):

    python3 perfbench/run.py --workload brain-nii --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every pass is checked against an independent rebuild of its output on a
seeded voxel sample; any failed pass makes the exit code 1.

Processes, all started and awaited here:
  * ``generate.py`` writes the seed's inputs once into ``.perfbench/inputs``;
  * fresh interpreters time ``import sphdwi.cli`` (``setup_s``), three
    before and three after the worker;
  * ``machine.py`` measures copy bandwidth (traced runs only);
  * ``worker.py`` runs the passes; its peak RSS is ``peak_rss_mb``.
Everything is read and written inside the repository checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# Fresh-import probes, half before and half after the worker, so that a
# burst of load from other tenants moves only some of them.
IMPORT_PROBES = 3
KEEP_INPUTS = 3  # seeds kept per size; a full-size brain seed takes about 225 MB
COPY_CAP_MIB = {"full": 1536, "smoke": 64}
TIME_LIMIT_S = 170.0

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import sphdwi.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env.pop("PYTHONPATH", None)
    return env


def _call(cmd: list[str], deadline: float, log: str | None = None) -> str:
    """Run a child to completion (killed at the deadline); returns its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {os.path.basename(cmd[1])}")
    stderr = open(log, "w") if log else subprocess.PIPE
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True,
                              env=_child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[:2])} did not finish in {timeout:.0f} s") from exc
    finally:
        if log:
            stderr.close()
    if proc.returncode != 0:
        detail = proc.stderr if not log else f"see {log}"
        raise BenchError(f"{' '.join(cmd[:2])} exited with {proc.returncode}: {detail}")
    return proc.stdout


def ensure_inputs(size: str, workload: str, seed: int, deadline: float) -> tuple[str, dict]:
    """Inputs for (size, workload, seed), generated once and kept for reuse."""
    root = os.path.join(WORK, "inputs")
    dest = os.path.join(root, f"{size}-{workload}-seed{seed}")
    meta_path = os.path.join(dest, "meta.json")
    if not os.path.exists(meta_path):
        os.makedirs(root, exist_ok=True)
        tmp = os.path.join(root, f".partial-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        try:
            _call([sys.executable, os.path.join(HERE, "generate.py"), SRC, size, workload,
                   str(seed), tmp], deadline)
            shutil.rmtree(dest, ignore_errors=True)
            os.replace(tmp, dest)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(meta_path)
    entries = sorted(
        (e for e in os.listdir(root)
         if e.startswith(f"{size}-") and os.path.exists(os.path.join(root, e, "meta.json"))),
        key=lambda e: os.path.getmtime(os.path.join(root, e, "meta.json")),
    )
    for stale in entries[:-KEEP_INPUTS]:
        shutil.rmtree(os.path.join(root, stale), ignore_errors=True)
    with open(meta_path) as fh:
        return dest, json.load(fh)


def measure_setup(deadline: float) -> list[float]:
    """Seconds of ``import sphdwi.cli`` in IMPORT_PROBES fresh interpreters."""
    return [
        float(_call([sys.executable, "-c", IMPORT_PROBE, SRC], deadline))
        for _ in range(IMPORT_PROBES)
    ]


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "single sample"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}"


def run(args) -> int:
    from metrics import END_TO_END, PER_LAYER, UNITS

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    run_dir = os.path.join(WORK, "runs", f"{args.size}-{args.workload}-trace{args.trace}")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)

    inputs, meta = ensure_inputs(args.size, args.workload, args.seed, deadline)
    setup = measure_setup(deadline)
    machine = {}
    if args.trace:
        machine = json.loads(_call([sys.executable, os.path.join(HERE, "machine.py"),
                                    str(COPY_CAP_MIB[args.size])], deadline))

    config = {
        "src": SRC, "size": args.size, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace), "inputs": inputs,
        "run_dir": run_dir, "budget_s": max(1.0, deadline - time.monotonic() - 10.0),
    }
    config_path = os.path.join(run_dir, "config.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)
    if os.path.exists(result_path):
        os.unlink(result_path)
    _call([sys.executable, os.path.join(HERE, "worker.py"), config_path, result_path],
          deadline, log=os.path.join(run_dir, "worker.log"))
    setup += measure_setup(deadline)
    with open(result_path) as fh:
        result = json.load(fh)

    passes = result["passes"]
    failed = sum(1 for p in passes if not p["ok"])
    timed = [p["seconds"] for p in passes[1:] if not p["traced"] and p["ok"]]
    print(f"workload {args.workload} (size {args.size}, seed {args.seed}): "
          f"{result['voxels']} voxels, closed loop, 1 caller, threads=1")
    print("env: " + json.dumps({**result["env"], **{f"machine.{k}": v for k, v in machine.items()}},
                               sort_keys=True))
    if result["cut_by_deadline"]:
        print(f"note: passes stopped early to end within {TIME_LIMIT_S:.0f} s")

    if args.trace:
        layers = dict(result["per_layer"])
        layers["setup.import_s"] = statistics.median(setup)
        layers["phantom.generate_phantom.s"] = meta["generate_phantom_s"]
        layers["machine.copy_gbps"] = machine["copy_gbps"]
        print(f"self time per pass, median of {result['traced_samples']} traced passes "
              f"(spans: {os.path.relpath(os.path.join(run_dir, 'spans.jsonl'), ROOT)}):")
        for line in result["self_time_table"]:
            print("  " + line)
        print(f"tracing overhead: {layers['trace.overhead_s']:+.4f} s per pass "
              f"(traced {layers['bench.pass.s']:.4f} s vs untraced {result['pipeline_s']:.4f} s)")
        metrics = {name: layers[name] for name, _unit, _better in PER_LAYER}
    else:
        metrics = {
            "pipeline_s": result["pipeline_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "output_mb": result["output_mb"],
        }
        counts = {
            "pipeline_s": f"median of {len(timed)} warm passes, {_quartiles(timed)}; "
                          f"first pass {passes[0].get('seconds', float('nan')):.4f} s",
            "setup_s": f"median of {len(setup)} fresh imports, {_quartiles(setup)}",
            "peak_rss_mb": "1 measured process",
            "output_mb": f"median of {len(timed)} passes",
        }
        for name, unit, _better, _bound in END_TO_END:
            print(f"  {name:12s} {metrics[name]:12.4f} {unit:4s} {counts[name]}")
    print(f"  failed_frac  {failed}/{len(passes)} passes (oracle check on every pass)")

    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump({"args": vars(args), "env": result["env"], "machine": machine,
                   "setup_s": setup, "inputs": meta, "passes": passes, "metrics": metrics}, fh,
                  indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload for quick tests")
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "sphdwi", "__init__.py")):
        print(f"perfbench: no sphdwi sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
