"""Metric names, units, and the per-layer numbers derived from traced spans.

End-to-end metrics come from untraced runs; per-layer metrics from a traced
run.  Names marked computed are derived from array shapes and counts, not
measured.  Stdlib only: the parent process imports this without numpy.
"""

from __future__ import annotations

import statistics

from spans import ROOT, Tracer, percentile

END_TO_END = {
    "rtf": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "frame_ms_p50": "ms",
    "frame_ms_p90": "ms",
}

# Outcomes that only some workloads have; printed in the report line.
OUTCOMES = {
    "error_rate": "fraction",
    "bytes_written_mb": "MB",
    "reflectors_resolved": "count",
    "rank1": "fraction",
}

LAYERS = ("scenefile", "simulate", "csif", "sanitize", "music", "imaging", "export", "reid")

PER_LAYER = {
    "scenefile.load_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.other_s": "s",
    "csif.read_s": "s",
    "csif.write_s": "s",
    "csif.bytes": "bytes",
    "music.windows_s": "s",
    "music.windows_mb_copied": "MB",
    "music.subspace_ms_p50": "ms",
    "music.subspace_ms_p90": "ms",
    "music.s_hat_mean": "count",
    "music.s_hat_max": "count",
    "music.scan_ms_p50": "ms",
    "music.scan_ms_p90": "ms",
    "music.scan_gflop": "GFLOP",
    "music.scan_gflops": "GFLOP/s",
    "music.pair_table_mb": "MB",
    "music.peaks_s": "s",
    "imaging.enhance_s": "s",
    "imaging.enhance_frames": "count",
    "imaging.aggregate_s": "s",
    "export.csv_write_s": "s",
    "export.pgm_write_s": "s",
    "export.files": "count",
    "export.bytes": "bytes",
    "reid.features_s": "s",
    "reid.rank_s": "s",
    "reid.cmc_s": "s",
    "music.subspace_share_pct": "%",
    "music.scan_share_pct": "%",
    "export.share_pct": "%",
    "trace.overhead_pct": "%",
}

COMPUTED = {
    "csif.bytes", "music.windows_mb_copied", "music.s_hat_mean", "music.s_hat_max",
    "music.scan_gflop", "music.pair_table_mb", "imaging.enhance_frames",
    "export.files", "export.bytes",
}

# Summed span time per traced iteration.
_SPAN_TOTALS = {
    "csif.read_s": "csif.read",
    "csif.write_s": "csif.write",
    "music.windows_s": "music.windows",
    "music.peaks_s": "music.peaks",
    "imaging.enhance_s": "imaging.enhance_track",
    "imaging.aggregate_s": "imaging.aggregate",
    "export.csv_write_s": "export.csv",
    "export.pgm_write_s": "export.pgm",
    "reid.features_s": "reid.features",
    "reid.rank_s": "reid.rank",
    "reid.cmc_s": "reid.cmc",
}


def frame_streams_ms(tracer: Tracer) -> list[list[float]]:
    """Per-window image latency, one list per stream of windows.

    A window's latency is its subspace call plus the scan that follows it; a
    stream is everything cut from one ``music.windows`` call, i.e. one
    capture or one Re-ID track.
    """
    streams: list[list[float]] = []
    subspace = 0.0
    for name, start, end, _ in tracer.spans:
        if name == "music.windows":
            streams.append([])
        elif name == "music.subspace":
            subspace = end - start
        elif name == "music.scan":
            streams[-1].append((subspace + end - start) * 1e3)
    return [s for s in streams if s]


def _iteration_metrics(t: Tracer) -> dict[str, float]:
    wall = t.durations(ROOT)[0]
    layers = t.layer_self_times()
    m = {f"{layer}.self_s": layers.get(layer, 0.0) for layer in LAYERS}
    m["cli.other_s"] = layers.get("cli", 0.0)
    for key, span in _SPAN_TOTALS.items():
        m[key] = sum(t.durations(span))
    m["csif.bytes"] = sum(t.values.get("csif.bytes", []))
    m["music.windows_mb_copied"] = sum(t.values.get("windows_bytes", [])) / 1e6
    m["imaging.enhance_frames"] = sum(t.values.get("enhance_frames", []))
    m["export.files"] = len(t.values.get("export.bytes", []))
    m["export.bytes"] = sum(t.values.get("export.bytes", []))
    m["music.subspace_share_pct"] = 100 * sum(t.durations("music.subspace")) / wall
    m["music.scan_share_pct"] = 100 * sum(t.durations("music.scan")) / wall
    m["export.share_pct"] = 100 * m["export.self_s"] / wall
    return m


def _pooled_ms(tracers, span: str, q: float) -> float:
    samples = [d * 1e3 for t in tracers for d in t.durations(span)]
    return percentile(samples, q) if samples else 0.0


def per_layer(tracers: list[Tracer], untraced_s: list[float], *, scene_load_s: float,
              grid_points: int, n_rx: int) -> dict[str, float]:
    """Per-layer metrics: medians over traced iterations, percentiles pooled."""
    rows = [_iteration_metrics(t) for t in tracers]
    m = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    bins, pairs = 180 * 180, n_rx * (n_rx - 1) // 2
    s_hat = [s for t in tracers for s in t.values.get("s_hat", [])]
    traced_s = [t.durations(ROOT)[0] for t in tracers]
    m.update({
        "scenefile.load_s": scene_load_s,
        "music.subspace_ms_p50": _pooled_ms(tracers, "music.subspace", 50),
        "music.subspace_ms_p90": _pooled_ms(tracers, "music.subspace", 90),
        "music.scan_ms_p50": _pooled_ms(tracers, "music.scan", 50),
        "music.scan_ms_p90": _pooled_ms(tracers, "music.scan", 90),
        "music.s_hat_mean": statistics.fmean(s_hat),
        "music.s_hat_max": max(s_hat),
        # two real GEMMs of (bins x pairs) by (pairs x grid) per window
        "music.scan_gflop": 4 * bins * pairs * grid_points / 1e9,
        # real and imaginary float64 tables of the rx pair products
        "music.pair_table_mb": 2 * bins * pairs * 8 / 1e6,
        "trace.overhead_pct": 100 * (statistics.median(traced_s)
                                     / statistics.median(untraced_s) - 1),
    })
    m["music.scan_gflops"] = m["music.scan_gflop"] / (m["music.scan_ms_p50"] / 1e3)
    return {key: m[key] for key in PER_LAYER}
