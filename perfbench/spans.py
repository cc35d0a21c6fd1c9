"""Span recorder that times package layers from outside.

``Tracer.patched()`` replaces the public functions the CLI and the API
call with wrappers that record a span (name, start, end, parent, pass id)
and, for the functions that move volumes, the work done as computed from
array shapes. Spans stay in memory and are written as JSON lines when the
run ends. Nothing in the package itself is modified on disk.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

MB = 1024.0 * 1024.0
ROOT = "bench.pass"


def _voxels(grid) -> int:
    return int(np.prod(grid))


def _work_read_nifti(args, kwargs, result) -> dict:
    data, _affine, header = result
    return {"bytes": int(data.size * int(header["bitpix"]) // 8)}


def _work_write_nifti(args, kwargs, result) -> dict:
    arr = np.asarray(args[1] if len(args) > 1 else kwargs["data"])
    dtype = np.dtype(args[3] if len(args) > 3 else kwargs.get("dtype", np.float32))
    path = args[0] if args else kwargs["path"]
    return {"bytes": int(arr.size * dtype.itemsize), "bytes_on_disk": os.path.getsize(path)}


def _work_normalize_b0(args, kwargs, result) -> dict:
    raw = np.asarray(args[0])
    vol = result[0]
    nvox = _voxels(raw.shape[:3])
    n_out = vol.data.shape[1]
    n_b0 = raw.shape[3] - n_out
    # mean over the b0 volumes, one division per kept sample
    return {
        "flop": nvox * (n_b0 + n_out),
        "bytes": nvox * (raw.shape[3] * raw.itemsize + n_out * 8),
    }


def _work_signal_to_sh(args, kwargs, result) -> dict:
    vol = args[0]
    n = vol.data.shape[1] // vol.shells
    r = result.basis_spec.coeff_count
    cols = vol.data.shape[0] * vol.shells * _voxels(vol.data.shape[2:])
    return {"flop": 2 * r * n * cols, "bytes": 8 * (n + r) * cols}


def _work_sh_to_signal(args, kwargs, result) -> dict:
    sh = args[0]
    r = sh.basis_spec.coeff_count
    n = result.data.shape[1] // result.shells
    cols = sh.data.shape[0] * sh.shells * _voxels(sh.data.shape[2:])
    return {"flop": 2 * r * n * cols, "bytes": 8 * (n + r) * cols}


def _work_lsc_forward(args, kwargs, result) -> dict:
    sh = args[0]
    return {"voxels": sh.data.shape[0] * _voxels(sh.data.shape[2:])}


# (module, attribute, span name, work counter). A function bound in several
# modules gets one wrapper, so every call site records the same span name.
TARGETS = (
    ("sphdwi.dwio", "read_nifti", "dwio.read_nifti", _work_read_nifti),
    ("sphdwi.dwio", "write_nifti", "dwio.write_nifti", _work_write_nifti),
    ("sphdwi.dwio", "read_bvals_bvecs", "dwio.read_bvals_bvecs", None),
    ("sphdwi.fitting", "normalize_b0", "fitting.normalize_b0", _work_normalize_b0),
    ("sphdwi.fitting", "make_fit_operator", "fitting.make_fit_operator", None),
    ("sphdwi.fitting", "signal_to_sh", "fitting.signal_to_sh", _work_signal_to_sh),
    ("sphdwi.fitting", "sh_to_signal", "fitting.sh_to_signal", _work_sh_to_signal),
    ("sphdwi.fitting", "eval_basis", "shcore.eval_basis", None),
    ("sphdwi.lsc", "build_lsc_geometry", "lsc.build_lsc_geometry", None),
    ("sphdwi.lsc", "lsc_forward", "lsc.lsc_forward", _work_lsc_forward),
    ("sphdwi.lsc", "make_fit_operator", "fitting.make_fit_operator", None),
    ("sphdwi.lsc", "eval_basis", "shcore.eval_basis", None),
    ("sphdwi.cli", "normalize_b0", "fitting.normalize_b0", _work_normalize_b0),
    ("sphdwi.cli", "make_fit_operator", "fitting.make_fit_operator", None),
    ("sphdwi.cli", "signal_to_sh", "fitting.signal_to_sh", _work_signal_to_sh),
    ("sphdwi.cli", "sh_to_signal", "fitting.sh_to_signal", _work_sh_to_signal),
    ("sphdwi.cli", "high_degree_energy_fraction", "shcore.high_degree_energy_fraction", None),
)

SPAN_NAMES = (
    ROOT,
    "cli.signal2sh",
    "cli.lsc",
    "cli.sh2signal",
    "dwio.read_nifti",
    "dwio.write_nifti",
    "dwio.read_bvals_bvecs",
    "fitting.normalize_b0",
    "fitting.make_fit_operator",
    "fitting.signal_to_sh",
    "fitting.sh_to_signal",
    "lsc.build_lsc_geometry",
    "lsc.lsc_forward",
    "shcore.eval_basis",
    "shcore.high_degree_energy_fraction",
)


class _Frame:
    __slots__ = ("record", "base", "peak")

    def __init__(self, record: dict, base: int) -> None:
        self.record = record
        self.base = base
        self.peak = base


class Tracer:
    """Collects spans of the current pass; only records inside a pass."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._pass_id: int | None = None
        self._t0 = time.perf_counter()

    @contextmanager
    def traced_pass(self, pass_id: int):
        """Root span of one pass, with tracemalloc running inside it; yields its record."""
        self._pass_id = pass_id
        tracemalloc.start()
        try:
            with self.span(ROOT) as root:
                yield root
        finally:
            tracemalloc.stop()
            self._pass_id = None

    @contextmanager
    def span(self, name: str):
        if self._pass_id is None:
            yield {}
            return
        cur, peak = tracemalloc.get_traced_memory()
        if self._stack:
            parent = self._stack[-1]
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1].record["id"] if self._stack else None,
            "pass": self._pass_id,
            "error": None,
        }
        self.spans.append(record)
        frame = _Frame(record, cur)
        self._stack.append(frame)
        record["start"] = time.perf_counter() - self._t0
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter() - self._t0
            _, peak = tracemalloc.get_traced_memory()
            frame.peak = max(frame.peak, peak)
            record["peak_alloc_mb"] = (frame.peak - frame.base) / MB
            self._stack.pop()
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, frame.peak)
            tracemalloc.reset_peak()

    def wrap(self, name: str, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None and record:
                record.update(work(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Install the layer wrappers for the duration of the block."""
        import importlib

        wrappers: dict[int, object] = {}
        saved = []
        for mod_name, attr, name, work in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(name, original, work)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrappers[id(original)])
        try:
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def tiling_errors(spans: list[dict], rel_tol: float = 1e-9) -> list[str]:
    """Problems that stop the self times of one pass from tiling it.

    Each pass must have exactly one root; every child must lie inside its
    parent; siblings must not overlap; and the self times (all >= 0) must
    sum to the root's duration.
    """
    problems = []
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != ROOT:
        problems.append(f"expected one {ROOT} root, found {[r['name'] for r in roots]}")
        return problems
    root = roots[0]
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is None:
            continue
        parent = by_id.get(s["parent"])
        if parent is None or parent["pass"] != s["pass"]:
            problems.append(f"span {s['id']} ({s['name']}) has no parent in its pass")
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} ({s['name']}) escapes its parent {parent['name']}")
        children.setdefault(parent["id"], []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                problems.append(f"spans {a['name']} and {b['name']} overlap")
    own = self_times(spans)
    duration = root["end"] - root["start"]
    if min(own.values()) < -rel_tol * duration:
        problems.append("a span has negative self time")
    if abs(sum(own.values()) - duration) > rel_tol * max(duration, 1e-9):
        problems.append("self times do not sum to the pass time")
    return problems
