"""Metric catalogue: every name the benchmark prints, with unit and direction.

``BENCHMARK.json`` at the repository root must list exactly these metrics;
``tests/test_perfbench.py`` checks that. ``MOVES`` records, for each
per-layer metric, which end-to-end metric it should move and on which
workload, so a change to one layer can be traced to the number it claims.
"""

from __future__ import annotations

import statistics

from spans import SPAN_NAMES

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("pipeline_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("output_mb", "MiB", "lower", 0.1),
)

_BRAIN = "brain-nii, brain-gz"
_ALL = "all"

# per-layer metric -> (unit, better, end-to-end metric it moves, workloads where it matters)
_EXTRA = {
    "dwio.read_nifti.mb_per_s": ("MB/s", "higher", "pipeline_s", "brain-gz, brain-nii"),
    "dwio.write_nifti.mb_per_s": ("MB/s", "higher", "pipeline_s, output_mb", "brain-gz"),
    "dwio.write_nifti.bytes_on_disk": ("B", "lower", "output_mb", "brain-gz"),
    "fitting.normalize_b0.gflops": ("GFLOP/s", "higher", "pipeline_s", "brain-nii, patches-3shell"),
    "fitting.normalize_b0.bytes": ("B", "lower", "pipeline_s", "brain-nii, patches-3shell"),
    "fitting.normalize_b0.peak_alloc_mb": ("MiB", "lower", "peak_rss_mb", "brain-nii, patches-3shell"),
    "fitting.signal_to_sh.gflops": ("GFLOP/s", "higher", "pipeline_s", "brain-nii"),
    "fitting.signal_to_sh.bytes": ("B", "lower", "pipeline_s", "brain-nii"),
    "fitting.signal_to_sh.peak_alloc_mb": ("MiB", "lower", "peak_rss_mb", "brain-nii"),
    "fitting.sh_to_signal.gflops": ("GFLOP/s", "higher", "pipeline_s", "brain-nii"),
    "fitting.sh_to_signal.bytes": ("B", "lower", "pipeline_s", "brain-nii"),
    "fitting.sh_to_signal.peak_alloc_mb": ("MiB", "lower", "peak_rss_mb", "brain-nii"),
    "lsc.lsc_forward.voxels_per_s": ("1/s", "higher", "pipeline_s", "patches-3shell, brain-nii"),
    "lsc.lsc_forward.peak_alloc_mb": ("MiB", "lower", "peak_rss_mb", "patches-3shell, brain-nii"),
    "pipeline.first_pass_s": ("s", "lower", "none (cold CLI pass, not gated)", _ALL),
    "trace.overhead_s": ("s", "lower", "none (traced minus untraced pipeline_s)", _ALL),
    "trace.errors": ("count", "lower", "none (spans that raised)", _ALL),
    "setup.import_s": ("s", "lower", "setup_s", _ALL),
    "phantom.generate_phantom.s": ("s", "lower", "none (input preparation)", _ALL),
    "machine.copy_gbps": ("GB/s", "higher", "none (reference for .bytes)", _ALL),
}

# where each layer's time shows (calls, s and self_s share the row)
_SPAN_MOVES = {
    "bench.pass": ("pipeline_s", "all (benchmark glue between calls)"),
    "cli.signal2sh": ("pipeline_s, peak_rss_mb", _BRAIN),
    "cli.lsc": ("pipeline_s, peak_rss_mb", _BRAIN),
    "cli.sh2signal": ("pipeline_s, peak_rss_mb", _BRAIN),
    "dwio.read_nifti": ("pipeline_s", "brain-gz (little on brain-nii, none on patches-3shell)"),
    "dwio.write_nifti": ("pipeline_s, output_mb", "brain-gz"),
    "dwio.read_bvals_bvecs": ("pipeline_s (negligible)", _BRAIN),
    "fitting.normalize_b0": ("pipeline_s, peak_rss_mb", "brain-nii, patches-3shell (64 calls)"),
    "fitting.make_fit_operator": ("pipeline_s", "patches-3shell (3 operators per pass)"),
    "fitting.signal_to_sh": ("pipeline_s, peak_rss_mb", "brain-nii"),
    "fitting.sh_to_signal": ("pipeline_s, peak_rss_mb", "brain-nii"),
    "lsc.build_lsc_geometry": ("pipeline_s", "patches-3shell (two rings)"),
    "lsc.lsc_forward": ("pipeline_s, peak_rss_mb", "patches-3shell, then brain-nii"),
    "shcore.eval_basis": ("pipeline_s (small)", _ALL),
    "shcore.high_degree_energy_fraction": ("pipeline_s", _BRAIN),
}

PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    [(f"{span}.{field}", unit, "lower")
     for span in SPAN_NAMES
     for field, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [(name, unit, better) for name, (unit, better, _m, _w) in _EXTRA.items()]
)

MOVES: dict[str, tuple[str, str]] = {
    **{f"{span}.{field}": _SPAN_MOVES[span] for span in SPAN_NAMES for field in ("calls", "s", "self_s")},
    **{name: (moves, where) for name, (_u, _b, moves, where) in _EXTRA.items()},
}

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[dict], first_pass_s: float, untraced_s: list[float]) -> dict:
    """Per-layer metrics from the spans of the traced passes (medians over passes)."""
    from spans import ROOT, self_times

    own = self_times(spans)
    passes = sorted({s["pass"] for s in spans})
    per_pass: dict[int, dict[str, float]] = {p: {} for p in passes}
    for s in spans:
        acc = per_pass[s["pass"]]
        dur = s["end"] - s["start"]
        name = s["name"]
        acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0) + 1
        acc[f"{name}.s"] = acc.get(f"{name}.s", 0.0) + dur
        acc[f"{name}.self_s"] = acc.get(f"{name}.self_s", 0.0) + own[s["id"]]
        for key in ("bytes", "flop", "voxels", "bytes_on_disk"):
            if key in s:
                acc[f"{name}.{key}"] = acc.get(f"{name}.{key}", 0) + s[key]
        peak = f"{name}.peak_alloc_mb"
        acc[peak] = max(acc.get(peak, 0.0), s.get("peak_alloc_mb", 0.0))

    def med(key: str) -> float:
        return median(acc.get(key, 0.0) for acc in per_pass.values())

    def rate(num: str, scale: float) -> float:
        return median(
            acc[num] / acc[f"{num.rsplit('.', 1)[0]}.s"] / scale if acc.get(num) else 0.0
            for acc in per_pass.values()
        )

    out = {}
    for span in SPAN_NAMES:
        for field in ("calls", "s", "self_s"):
            out[f"{span}.{field}"] = med(f"{span}.{field}")
    out["dwio.read_nifti.mb_per_s"] = rate("dwio.read_nifti.bytes", 1e6)
    out["dwio.write_nifti.mb_per_s"] = rate("dwio.write_nifti.bytes", 1e6)
    out["dwio.write_nifti.bytes_on_disk"] = med("dwio.write_nifti.bytes_on_disk")
    for fn in ("fitting.normalize_b0", "fitting.signal_to_sh", "fitting.sh_to_signal"):
        out[f"{fn}.gflops"] = rate(f"{fn}.flop", 1e9)
        out[f"{fn}.bytes"] = med(f"{fn}.bytes")
        out[f"{fn}.peak_alloc_mb"] = med(f"{fn}.peak_alloc_mb")
    out["lsc.lsc_forward.voxels_per_s"] = rate("lsc.lsc_forward.voxels", 1.0)
    out["lsc.lsc_forward.peak_alloc_mb"] = med("lsc.lsc_forward.peak_alloc_mb")
    out["pipeline.first_pass_s"] = first_pass_s
    out["trace.overhead_s"] = med(f"{ROOT}.s") - median(untraced_s)
    out["trace.errors"] = sum(1 for s in spans if s["error"] is not None)
    return out


def self_time_table(metrics: dict) -> list[str]:
    """Per-layer self-time rows of one workload, largest first."""
    total = metrics.get("bench.pass.s", 0.0) or 1.0
    rows = sorted(SPAN_NAMES, key=lambda n: -metrics.get(f"{n}.self_s", 0.0))
    lines = [f"{'layer':38s} {'calls':>6s} {'s/pass':>9s} {'self s':>9s} {'self %':>7s}"]
    for name in rows:
        calls = metrics.get(f"{name}.calls", 0.0)
        if not calls:
            continue
        own = metrics[f"{name}.self_s"]
        lines.append(
            f"{name:38s} {calls:6.0f} {metrics[f'{name}.s']:9.4f} {own:9.4f} {100 * own / total:6.1f}%"
        )
    return lines
