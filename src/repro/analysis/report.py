"""Run reporting: ASCII tables and the self-contained HTML report.

Two layers share this module:

* the plain-text table helpers every figure-reproduction benchmark
  prints through, so EXPERIMENTS.md rows can be regenerated verbatim;
* the **zero-dependency HTML report** behind ``repro report`` — one
  file, no external assets or scripts, rendering inline-SVG delay CDFs,
  per-path timelines with fault overlays, the span-tree delay
  decomposition, and a causal span waterfall for the worst frames (see
  docs/telemetry.md for the "why was this frame late?" walkthrough).

Everything is deterministic: the same seeded run renders byte-identical
HTML (no wall clock, no randomness, stable float formatting).
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "format_table",
    "format_qoe_rows",
    "render_cdf_svg",
    "render_hist_cdf_svg",
    "render_series_svg",
    "render_timeline_svg",
    "render_waterfall_svg",
    "render_html_report",
    "write_html_report",
    "render_fleet_html_report",
    "write_fleet_html_report",
    "render_diff_html_report",
    "write_diff_html_report",
]

#: Stage palette (lifecycle order, matches repro.obs.aggregate.STAGES).
STAGE_COLORS = {
    "packetise": "#8da0cb",
    "queue": "#fc8d62",
    "recovery": "#e78ac3",
    "flight": "#66c2a5",
}

#: Per-path line palette (cycled by path id).
PATH_COLORS = ("#4e79a7", "#f28e2b", "#59a14f", "#b07aa1", "#e15759", "#76b7b2")

#: Fault-window overlay fill.
FAULT_FILL = "#d62728"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: Optional[str] = None
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_qoe_rows(results: Dict[str, "object"]) -> str:
    """Standard QoE table: one row per transport."""
    headers = ["transport", "avg FPS", "stall %", "SSIM", "redundancy %"]
    rows = []
    for name, r in results.items():
        rows.append(
            [
                name,
                "%.2f" % r.qoe.avg_fps,
                "%.2f" % (r.qoe.stall_ratio * 100),
                "%.3f" % r.qoe.ssim,
                "%.2f" % (r.redundancy_ratio * 100),
            ]
        )
    return format_table(headers, rows)


# -- SVG primitives ---------------------------------------------------------
#
# All coordinates are formatted with %.2f so renders are byte-stable and
# diffs stay readable; every chart is a standalone <svg> element with its
# own coordinate box (no CSS dependencies beyond the inline stylesheet).

def _fmt(x: float) -> str:
    return ("%.2f" % x).rstrip("0").rstrip(".")


def _svg_open(width: int, height: int) -> str:
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d" font-family="sans-serif" font-size="11">'
            % (width, height, width, height))


def _axis_label(x: float, y: float, text: str, anchor: str = "middle") -> str:
    return ('<text x="%s" y="%s" text-anchor="%s" fill="#555">%s</text>'
            % (_fmt(x), _fmt(y), anchor, escape(text)))


def render_cdf_svg(
    series: Dict[str, Sequence[float]],
    width: int = 460,
    height: int = 240,
    x_label: str = "delay (s)",
) -> str:
    """Empirical CDFs of one or more samples as an inline SVG.

    The x axis is linear from 0 to the global p99.9 (clipping the extreme
    tail keeps the body readable); each series is a step-free polyline
    with a legend entry.  Empty input renders a placeholder box.
    """
    pad_l, pad_r, pad_t, pad_b = 46, 12, 10, 32
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    named = [(name, sorted(float(v) for v in vals))
             for name, vals in series.items() if len(vals)]
    parts = [_svg_open(width, height)]
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="#fafafa" '
                 'stroke="#ccc"/>' % (pad_l, pad_t, plot_w, plot_h))
    if not named:
        parts.append(_axis_label(width / 2, height / 2, "(no samples)"))
        parts.append("</svg>")
        return "".join(parts)
    all_sorted = sorted(v for _, vals in named for v in vals)
    x_max = all_sorted[min(len(all_sorted) - 1,
                           int(0.999 * (len(all_sorted) - 1)))]
    if x_max <= 0:
        x_max = 1.0

    def sx(v: float) -> float:
        return pad_l + min(1.0, v / x_max) * plot_w

    def sy(p: float) -> float:
        return pad_t + (1.0 - p) * plot_h

    for frac in (0.0, 0.5, 0.95, 0.99, 1.0):
        y = sy(frac)
        parts.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#ddd"/>'
                     % (pad_l, _fmt(y), pad_l + plot_w, _fmt(y)))
        parts.append(_axis_label(pad_l - 4, y + 4, "%.2f" % frac, "end"))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = pad_l + frac * plot_w
        parts.append(_axis_label(x, height - pad_b + 14, _fmt(frac * x_max)))
    parts.append(_axis_label(pad_l + plot_w / 2, height - 4, x_label))
    for i, (name, vals) in enumerate(named):
        color = PATH_COLORS[i % len(PATH_COLORS)]
        n = len(vals)
        pts = []
        step = max(1, n // 256)  # cap polyline size; endpoints always kept
        for j in range(0, n, step):
            pts.append("%s,%s" % (_fmt(sx(vals[j])), _fmt(sy((j + 1) / n))))
        pts.append("%s,%s" % (_fmt(sx(vals[-1])), _fmt(sy(1.0))))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (" ".join(pts), color))
        ly = pad_t + 14 + 14 * i
        parts.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="%s" '
                     'stroke-width="2"/>' % (pad_l + 8, _fmt(ly - 4),
                                             pad_l + 28, _fmt(ly - 4), color))
        parts.append(_axis_label(pad_l + 32, ly, name, "start"))
    parts.append("</svg>")
    return "".join(parts)


def render_hist_cdf_svg(
    hists: Dict[str, "object"],
    width: int = 460,
    height: int = 240,
    x_label: str = "delay (s)",
) -> str:
    """CDFs straight from bucketed histograms (no sample expansion).

    Fleet-scale aggregates carry millions of observations as sparse
    bucket tables; this renders their CDFs from
    :meth:`~repro.obs.metrics.Histogram.iter_cdf` points directly, so
    the chart cost is O(buckets), not O(samples).  Layout matches
    :func:`render_cdf_svg`.
    """
    pad_l, pad_r, pad_t, pad_b = 46, 12, 10, 32
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    named = [(name, list(h.iter_cdf())) for name, h in hists.items()
             if h is not None and h.count]
    parts = [_svg_open(width, height)]
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="#fafafa" '
                 'stroke="#ccc"/>' % (pad_l, pad_t, plot_w, plot_h))
    if not named:
        parts.append(_axis_label(width / 2, height / 2, "(no samples)"))
        parts.append("</svg>")
        return "".join(parts)
    # clip the extreme tail like render_cdf_svg: x axis to the global ~p99.9
    x_max = 0.0
    for _, pts in named:
        for v, frac in pts:
            if frac <= 0.999:
                x_max = max(x_max, v)
    if x_max <= 0:
        x_max = max(v for _, pts in named for v, _ in pts) or 1.0

    def sx(v: float) -> float:
        return pad_l + min(1.0, v / x_max) * plot_w

    def sy(p: float) -> float:
        return pad_t + (1.0 - p) * plot_h

    for frac in (0.0, 0.5, 0.95, 0.99, 1.0):
        y = sy(frac)
        parts.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="#ddd"/>'
                     % (pad_l, _fmt(y), pad_l + plot_w, _fmt(y)))
        parts.append(_axis_label(pad_l - 4, y + 4, "%.2f" % frac, "end"))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = pad_l + frac * plot_w
        parts.append(_axis_label(x, height - pad_b + 14, _fmt(frac * x_max)))
    parts.append(_axis_label(pad_l + plot_w / 2, height - 4, x_label))
    for i, (name, pts) in enumerate(named):
        color = PATH_COLORS[i % len(PATH_COLORS)]
        poly = ["%s,%s" % (_fmt(sx(0.0)), _fmt(sy(0.0)))]
        poly.extend("%s,%s" % (_fmt(sx(v)), _fmt(sy(frac)))
                    for v, frac in pts)
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (" ".join(poly), color))
        ly = pad_t + 14 + 14 * i
        parts.append('<line x1="%d" y1="%s" x2="%d" y2="%s" stroke="%s" '
                     'stroke-width="2"/>' % (pad_l + 8, _fmt(ly - 4),
                                             pad_l + 28, _fmt(ly - 4), color))
        parts.append(_axis_label(pad_l + 32, ly, name, "start"))
    parts.append("</svg>")
    return "".join(parts)


def render_series_svg(
    points: Sequence[Tuple[float, float]],
    width: int = 680,
    height: int = 180,
    y_label: str = "",
    x_label: str = "control time (s)",
    color: str = "#4e79a7",
) -> str:
    """One ``(x, y)`` series as a simple filled step chart."""
    pad_l, pad_r, pad_t, pad_b = 52, 10, 8, 30
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    parts = [_svg_open(width, height)]
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="#fafafa" '
                 'stroke="#ccc"/>' % (pad_l, pad_t, plot_w, plot_h))
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        parts.append(_axis_label(width / 2, height / 2, "(no samples)"))
        parts.append("</svg>")
        return "".join(parts)
    x0, x1 = pts[0][0], pts[-1][0]
    if x1 <= x0:
        x1 = x0 + 1.0
    y_max = max(y for _, y in pts) or 1.0

    def sx(x: float) -> float:
        return pad_l + (x - x0) / (x1 - x0) * plot_w

    def sy(y: float) -> float:
        return pad_t + (1.0 - y / y_max) * plot_h

    for frac in (0.0, 0.5, 1.0):
        y = pad_t + (1.0 - frac) * plot_h
        parts.append(_axis_label(pad_l - 4, y + 4, _fmt(frac * y_max), "end"))
        x = pad_l + frac * plot_w
        parts.append(_axis_label(x, height - pad_b + 14,
                                 _fmt(x0 + frac * (x1 - x0))))
    parts.append(_axis_label(pad_l + plot_w / 2, height - 4,
                             y_label or x_label))
    poly = ["%s,%s" % (_fmt(sx(x0)), _fmt(sy(0.0)))]
    prev_y = None
    for x, y in pts:
        if prev_y is not None:
            poly.append("%s,%s" % (_fmt(sx(x)), _fmt(sy(prev_y))))
        poly.append("%s,%s" % (_fmt(sx(x)), _fmt(sy(y))))
        prev_y = y
    poly.append("%s,%s" % (_fmt(sx(x1)), _fmt(sy(0.0))))
    parts.append('<polygon points="%s" fill="%s" fill-opacity="0.25" '
                 'stroke="%s" stroke-width="1.5"/>'
                 % (" ".join(poly), color, color))
    parts.append("</svg>")
    return "".join(parts)


def _fault_rects(fault_windows, t0: float, t1: float, sx, pad_t: int,
                 plot_h: int) -> List[str]:
    """Translucent overlay rectangles for fault windows inside [t0, t1]."""
    out = []
    for start, end, kind in fault_windows:
        if end <= t0 or start >= t1:
            continue
        a, b = max(start, t0), min(end, t1)
        w = max(sx(b) - sx(a), 1.0)
        out.append('<rect x="%s" y="%d" width="%s" height="%d" fill="%s" '
                   'fill-opacity="0.15"><title>%s</title></rect>'
                   % (_fmt(sx(a)), pad_t, _fmt(w), plot_h, FAULT_FILL,
                      escape("%s %.2f-%.2fs" % (kind, start, end))))
    return out


def render_timeline_svg(
    timelines: Dict[int, Sequence[object]],
    field: str = "srtt",
    scale: float = 1000.0,
    y_label: str = "srtt (ms)",
    fault_windows: Sequence[Tuple[float, float, str]] = (),
    width: int = 680,
    height: int = 200,
) -> str:
    """Per-path timelines of one :class:`PathSample` field as an SVG.

    ``fault_windows`` (``(start, end, kind)`` triples, e.g. from the
    run's fault spans) are shaded under the lines so "the RTT spike *is*
    the injected blackout" reads directly off the chart.
    """
    pad_l, pad_r, pad_t, pad_b = 52, 10, 8, 30
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    parts = [_svg_open(width, height)]
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="#fafafa" '
                 'stroke="#ccc"/>' % (pad_l, pad_t, plot_w, plot_h))
    series = {pid: s for pid, s in timelines.items() if len(s)}
    if not series:
        parts.append(_axis_label(width / 2, height / 2, "(no samples)"))
        parts.append("</svg>")
        return "".join(parts)
    t0 = min(s[0].t for s in series.values())
    t1 = max(s[-1].t for s in series.values())
    if t1 <= t0:
        t1 = t0 + 1.0
    vals = [getattr(p, field) * scale
            for s in series.values() for p in s
            if getattr(p, field) is not None]
    v_max = max(vals) if vals else 1.0
    if v_max <= 0:
        v_max = 1.0

    def sx(t: float) -> float:
        return pad_l + (t - t0) / (t1 - t0) * plot_w

    def sy(v: float) -> float:
        return pad_t + (1.0 - min(1.0, v / v_max)) * plot_h

    parts.extend(_fault_rects(fault_windows, t0, t1, sx, pad_t, plot_h))
    for frac in (0.0, 0.5, 1.0):
        y = pad_t + (1.0 - frac) * plot_h
        parts.append(_axis_label(pad_l - 4, y + 4, _fmt(frac * v_max), "end"))
        x = pad_l + frac * plot_w
        parts.append(_axis_label(x, height - pad_b + 14,
                                 _fmt(t0 + frac * (t1 - t0)) + "s"))
    parts.append(_axis_label(pad_l + plot_w / 2, height - 4, y_label))
    for pid in sorted(series):
        samples = series[pid]
        color = PATH_COLORS[pid % len(PATH_COLORS)]
        n = len(samples)
        step = max(1, n // 512)
        pts = []
        for j in range(0, n, step):
            p = samples[j]
            v = getattr(p, field)
            if v is None:
                continue
            pts.append("%s,%s" % (_fmt(sx(p.t)), _fmt(sy(v * scale))))
        if pts:
            parts.append('<polyline points="%s" fill="none" stroke="%s" '
                         'stroke-width="1.2"/>' % (" ".join(pts), color))
            parts.append('<text x="%d" y="%s" fill="%s">path %d</text>'
                         % (pad_l + plot_w - 48,
                            _fmt(pad_t + 12 + 13 * (pid % len(PATH_COLORS))),
                            color, pid))
    parts.append("</svg>")
    return "".join(parts)


def render_waterfall_svg(
    spans,
    frame_entry: dict,
    max_packets: int = 10,
    width: int = 680,
) -> str:
    """Causal span waterfall for one decomposed frame.

    Rows: the frame span, then its slowest ``max_packets`` packet spans
    (slowest first), each with the wire transmissions that carried it
    overlaid as darker ticks.  The worst packet — the one that completed
    the frame — gets its critical-path stage split colored per
    :data:`STAGE_COLORS`; hovering any bar shows exact times.
    """
    frame_sid = spans.lookup("frame", frame_entry["frame_id"])
    frame = spans.get(frame_sid) if frame_sid else None
    if frame is None or frame.end is None:
        return "<p>(frame %s has no span)</p>" % escape(str(frame_entry["frame_id"]))
    pkts = [p for p in spans.children(frame.span_id) if p.end is not None]
    pkts.sort(key=lambda p: (-(p.end - p.start), p.span_id))
    pkts = pkts[:max_packets]
    tx_by_cause: Dict[int, List] = {}
    for t in spans.spans("tx"):
        cause = (t.attrs or {}).get("cause", 0)
        if cause:
            tx_by_cause.setdefault(cause, []).append(t)
    t0, t1 = frame.start, frame.end
    for p in pkts:
        for t in tx_by_cause.get(p.span_id, ()):
            if t.end is not None and t.end > t1:
                t1 = t.end
    if t1 <= t0:
        t1 = t0 + 1e-3
    pad_l, pad_r, row_h = 88, 10, 18
    plot_w = width - pad_l - pad_r
    rows = 1 + len(pkts)
    height = rows * row_h + 34

    def sx(t: float) -> float:
        return pad_l + (t - t0) / (t1 - t0) * plot_w

    def bar(y: float, a: float, b: float, color: str, title: str,
            h: float = 10.0) -> str:
        w = max(sx(b) - sx(a), 1.0)
        return ('<rect x="%s" y="%s" width="%s" height="%s" fill="%s" rx="2">'
                '<title>%s</title></rect>'
                % (_fmt(sx(a)), _fmt(y), _fmt(w), _fmt(h), color, escape(title)))

    parts = [_svg_open(width, height)]
    y = 4.0
    parts.append(_axis_label(pad_l - 6, y + 9, "frame %s" % frame_entry["frame_id"], "end"))
    parts.append(bar(y, frame.start, frame.end, "#888",
                     "frame %s: %.1f ms" % (frame_entry["frame_id"],
                                            (frame.end - frame.start) * 1000)))
    worst_key = frame_entry.get("worst_packet")
    for p in pkts:
        y += row_h
        pid = (p.attrs or {}).get("packet", p.span_id)
        parts.append(_axis_label(pad_l - 6, y + 9, "pkt %s" % pid, "end"))
        txs = sorted(tx_by_cause.get(p.span_id, ()),
                     key=lambda t: (t.start, t.span_id))
        if pid == worst_key and "flight" in frame_entry:
            # stage split along the critical path (sums to the frame total)
            edges = [frame.start,
                     p.start,
                     txs[0].start if txs else p.start,
                     txs[-1].start if txs else p.start,
                     p.end]
            for (a, b), stage in zip(zip(edges, edges[1:]),
                                     ("packetise", "queue", "recovery", "flight")):
                if b > a:
                    parts.append(bar(y, a, b, STAGE_COLORS[stage],
                                     "%s: %.1f ms" % (stage, (b - a) * 1000)))
        else:
            parts.append(bar(y, p.start, p.end, "#b8c4d9",
                             "pkt %s: %.1f ms" % (pid, (p.end - p.start) * 1000)))
        for t in txs:
            end = t.end if t.end is not None else t.start
            parts.append(bar(y + 2, t.start, end, "#44597a",
                             "tx path %s pn %s" % ((t.attrs or {}).get("path", "?"),
                                                   (t.attrs or {}).get("pn", "?")),
                             h=6.0))
    y += row_h + 14
    parts.append(_axis_label(pad_l, y, "%ss" % _fmt(t0), "start"))
    parts.append(_axis_label(pad_l + plot_w, y, "%ss" % _fmt(t1), "end"))
    parts.append("</svg>")
    return "".join(parts)


# -- HTML assembly ----------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 24px;
       color: #222; max-width: 980px; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 28px;
     border-bottom: 1px solid #ddd; padding-bottom: 4px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile { background: #f5f7fa; border: 1px solid #dde3ea; border-radius: 6px;
        padding: 8px 14px; min-width: 90px; }
.tile .v { font-size: 18px; font-weight: 600; }
.tile .k { font-size: 11px; color: #667; text-transform: uppercase; }
table.data { border-collapse: collapse; font-size: 13px; }
table.data th, table.data td { border: 1px solid #ccd; padding: 3px 10px;
                               text-align: right; }
table.data th { background: #eef1f5; }
.legend span { display: inline-block; margin-right: 14px; font-size: 12px; }
.legend i { display: inline-block; width: 12px; height: 12px;
            border-radius: 2px; vertical-align: -2px; margin-right: 4px; }
figure { margin: 10px 0; }
figcaption { font-size: 12px; color: #667; }
"""


def _tile(key: str, value: str) -> str:
    return ('<div class="tile"><div class="v">%s</div><div class="k">%s</div>'
            '</div>' % (escape(value), escape(key)))


def _fault_windows_from_spans(sp) -> List[Tuple[float, float, str]]:
    out = []
    for f in sp.spans("fault"):
        end = f.end if f.end is not None else f.start
        out.append((f.start, end, (f.attrs or {}).get("fault", "fault")))
    out.sort()
    return out


def render_html_report(result, title: str = "CellFusion run report",
                       worst_k: int = 3) -> str:
    """One :class:`StreamRunResult` as a self-contained HTML page.

    Sections degrade gracefully with what the run recorded: QoE tiles
    always render; delay CDFs need packet delays; timelines need
    telemetry sampling; the decomposition table and span waterfalls need
    span tracing (``spans=True``).  The output embeds no scripts and
    fetches nothing — a single file is the whole artifact.
    """
    from ..obs.aggregate import STAGES, decompose_spans, worst_frames

    tel = getattr(result, "telemetry", None)
    sp = tel.spans if (tel is not None and tel.enabled) else None
    if sp is not None and not sp.enabled:
        sp = None

    html: List[str] = []
    html.append("<!DOCTYPE html><html><head><meta charset='utf-8'>")
    html.append("<title>%s</title><style>%s</style></head><body>"
                % (escape(title), _CSS))
    html.append("<h1>%s</h1>" % escape(title))

    q = result.qoe
    html.append('<div class="tiles">')
    html.append(_tile("transport", result.transport))
    html.append(_tile("duration", "%.1f s" % result.duration))
    html.append(_tile("frames", str(result.frames_sent)))
    html.append(_tile("avg fps", "%.2f" % q.avg_fps))
    html.append(_tile("stall", "%.2f%%" % (q.stall_ratio * 100)))
    html.append(_tile("ssim", "%.3f" % q.ssim))
    html.append(_tile("delivery", "%.2f%%" % (result.delivery_ratio * 100)))
    html.append(_tile("redundancy", "%.2f%%" % (result.redundancy_ratio * 100)))
    if result.fault_summary:
        html.append(_tile("faults", "%d applied" % result.fault_summary["applied"]))
    if result.terminal_error:
        html.append(_tile("terminal", result.terminal_error))
    html.append("</div>")

    dec = decompose_spans(sp) if sp is not None else []
    series: Dict[str, Sequence[float]] = {}
    if result.packet_delays:
        series["packet delay"] = result.censored_packet_delays()
    frame_totals = [e["total"] for e in dec if e.get("complete")]
    if frame_totals:
        series["frame delay"] = frame_totals
    html.append("<h2>Delay CDFs</h2>")
    html.append("<figure>%s<figcaption>Empirical CDFs; packet delays are "
                "censored at 1 s for never-delivered packets.</figcaption>"
                "</figure>" % render_cdf_svg(series))

    fault_windows = _fault_windows_from_spans(sp) if sp is not None else []
    timelines = tel.timelines if tel is not None and tel.enabled else {}
    if timelines:
        html.append("<h2>Per-path timelines</h2>")
        html.append("<figure>%s</figure>" % render_timeline_svg(
            timelines, "srtt", 1000.0, "srtt (ms)", fault_windows))
        html.append("<figure>%s</figure>" % render_timeline_svg(
            timelines, "cwnd", 1.0, "cwnd (bytes)", fault_windows))
        if fault_windows:
            html.append('<p class="legend"><span><i style="background:%s;'
                        'opacity:.3"></i>injected fault window</span></p>'
                        % FAULT_FILL)

    if dec:
        complete = [e for e in dec if e.get("complete") and "flight" in e]
        html.append("<h2>Frame delay decomposition</h2>")
        if complete:
            n = len(complete)
            rows = []
            for stage in STAGES:
                vals = sorted(e[stage] for e in complete)
                rows.append("<tr><td style='text-align:left'>"
                            "<i style='display:inline-block;width:10px;"
                            "height:10px;background:%s'></i> %s</td>"
                            "<td>%.1f</td><td>%.1f</td><td>%.1f</td></tr>"
                            % (STAGE_COLORS[stage], stage,
                               sum(vals) / n * 1000,
                               vals[n // 2] * 1000,
                               vals[min(n - 1, int(0.99 * (n - 1)))] * 1000))
            html.append('<table class="data"><tr><th>stage</th><th>mean ms'
                        '</th><th>p50 ms</th><th>p99 ms</th></tr>%s</table>'
                        % "".join(rows))
            incomplete = len(dec) - len(complete)
            with_retx = sum(1 for e in complete if e.get("retx"))
            html.append("<p>%d frames decomposed (%d incomplete at end of "
                        "run); %d needed retransmission or recovery.</p>"
                        % (len(dec), incomplete, with_retx))
        html.append("<h2>Worst frames (span waterfall)</h2>")
        for entry in worst_frames(dec, k=worst_k):
            html.append("<h3 style='font-size:13px'>frame %s — %.1f ms total "
                        "(packetise %.1f / queue %.1f / recovery %.1f / "
                        "flight %.1f), %d packets, %d retx</h3>"
                        % (entry["frame_id"], entry["total"] * 1000,
                           entry["packetise"] * 1000, entry["queue"] * 1000,
                           entry["recovery"] * 1000, entry["flight"] * 1000,
                           entry["packets"], entry["retx"]))
            html.append("<figure>%s</figure>" % render_waterfall_svg(sp, entry))
        html.append('<p class="legend">%s</p>' % "".join(
            '<span><i style="background:%s"></i>%s</span>'
            % (STAGE_COLORS[s], s) for s in STAGES))
    elif sp is None:
        html.append("<p>(span tracing was off — run with spans enabled for "
                    "delay decomposition and waterfalls)</p>")

    html.append("</body></html>")
    return "".join(html)


def write_html_report(path: str, result, title: str = "CellFusion run report",
                      worst_k: int = 3) -> int:
    """Render and write the HTML report; returns the byte count."""
    doc = render_html_report(result, title=title, worst_k=worst_k)
    data = doc.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def render_fleet_html_report(report, title: str = "CellFusion fleet report") -> str:
    """A :class:`~repro.fleet.report.FleetReport` as one HTML page.

    Same zero-dependency contract as :func:`render_html_report`: inline
    SVG only, deterministic output (the page embeds the report's content
    digest, so two pages differ iff the runs differ).  Sections: fleet
    tiles, delay CDFs straight from the merged histograms, per-vehicle
    QoE CDFs, the fleet concurrency timeline, per-PoP peaks, and the
    control-plane accounting (autoscaler / SNAT / controller).
    """
    agg = report.fleet_aggregate()
    qoe = report.qoe_summary()
    ctl = report.control
    cfg = report.config

    html: List[str] = []
    html.append("<!DOCTYPE html><html><head><meta charset='utf-8'>")
    html.append("<title>%s</title><style>%s</style></head><body>"
                % (escape(title), _CSS))
    html.append("<h1>%s</h1>" % escape(title))

    html.append('<div class="tiles">')
    html.append(_tile("vehicles", str(len(report.vehicles))))
    html.append(_tile("mode", str(cfg.get("mode", "?"))))
    html.append(_tile("transport", str(cfg.get("transport", "?"))))
    html.append(_tile("mean fps", "%.2f" % qoe["avg_fps"]))
    html.append(_tile("mean stall", "%.2f%%" % (qoe["stall_ratio"] * 100)))
    html.append(_tile("mean ssim", "%.3f" % qoe["ssim"]))
    html.append(_tile("delivery", "%.2f%%" % (agg.delivery_ratio * 100)))
    html.append(_tile("peak conc.", str(ctl["concurrency"]["peak_total"])))
    html.append(_tile("failovers", str(ctl["controller"]["failovers"])))
    if ctl["controller"]["unplaced"]:
        html.append(_tile("unplaced", str(ctl["controller"]["unplaced"])))
    html.append("</div>")

    html.append("<h2>Fleet delay CDFs</h2>")
    hists = {name: agg.metrics._histograms.get(name)
             for name in ("delay.packet", "delay.e2e")}
    html.append("<figure>%s<figcaption>Merged across all %d vehicles from "
                "lossless histogram buckets; e2e adds each vehicle's "
                "PoP access delay; never-delivered packets are censored "
                "at 1 s.</figcaption></figure>"
                % (render_hist_cdf_svg(hists), len(report.vehicles)))

    html.append("<h2>Per-vehicle QoE</h2>")
    html.append("<figure>%s</figure>" % render_cdf_svg(
        {"avg fps": [v["qoe"]["avg_fps"] for v in report.vehicles]},
        x_label="per-vehicle average fps"))
    html.append("<figure>%s</figure>" % render_cdf_svg(
        {"ssim": [v["qoe"]["ssim"] for v in report.vehicles]},
        x_label="per-vehicle SSIM"))

    samples = ctl["concurrency"]["samples"]
    html.append("<h2>Fleet concurrency</h2>")
    html.append("<figure>%s<figcaption>Connected vehicles per control "
                "tick (joins staggered over %.0f s, %.0f s sessions)."
                "</figcaption></figure>"
                % (render_series_svg([(s["t"], s["total"]) for s in samples],
                                     y_label="connected vehicles"),
                   cfg.get("join_window", 0.0), cfg.get("session_time", 0.0)))

    peaks = sorted(ctl["concurrency"]["per_pop_peak"].items(),
                   key=lambda kv: (-kv[1], kv[0]))
    if peaks:
        html.append("<h2>Per-PoP peak concurrency</h2>")
        shown = peaks[:12]
        rows = "".join("<tr><td style='text-align:left'>%s</td><td>%d</td>"
                       "</tr>" % (escape(pid), n) for pid, n in shown)
        html.append('<table class="data"><tr><th>pop</th><th>peak sessions'
                    '</th></tr>%s</table>' % rows)
        if len(peaks) > len(shown):
            html.append("<p>(%d more PoPs held sessions)</p>"
                        % (len(peaks) - len(shown)))

    html.append("<h2>Control plane</h2>")
    asc, snat = ctl["autoscaler"], ctl["snat"]
    rows = [
        ("autoscaler scale-ups", asc["ups"]),
        ("autoscaler scale-downs", asc["downs"]),
        ("containers final / peak", "%d / %d" % (asc["final_containers"],
                                                 asc["peak_containers"])),
        ("SNAT ports (pool)", snat["port_count"]),
        ("SNAT peak live", snat["peak_live"]),
        ("SNAT idle evictions", snat["evictions"]),
        ("SNAT denials", snat["denials"]),
        ("health failures", ctl["controller"]["health_failures"]),
        ("failovers", ctl["controller"]["failovers"]),
    ]
    if ctl["controller"]["outage_pops"]:
        rows.append(("outage", "%d PoP(s) at t=%.0fs"
                     % (len(ctl["controller"]["outage_pops"]),
                        ctl["controller"]["outage_time"])))
    html.append('<table class="data">%s</table>' % "".join(
        "<tr><td style='text-align:left'>%s</td><td>%s</td></tr>"
        % (escape(str(k)), escape(str(v))) for k, v in rows))

    html.append("<p style='color:#667;font-size:11px'>fleet seed %s — "
                "digest <code>%s</code></p>"
                % (cfg.get("seed", "?"), report.digest))
    html.append("</body></html>")
    return "".join(html)


def write_fleet_html_report(path: str, report,
                            title: str = "CellFusion fleet report") -> int:
    """Render and write the fleet HTML report; returns the byte count."""
    doc = render_fleet_html_report(report, title=title)
    data = doc.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


_VERDICT_PASS = "#2e7d32"
_VERDICT_FAIL = "#c62828"


def render_diff_html_report(matrix, title: Optional[str] = None) -> str:
    """A :class:`~repro.scenarios.diff.DiffMatrix` as one HTML page.

    The centrepiece is the **verdict matrix** — transports as rows, the
    named invariant oracles as columns, each cell a pass/fail mark whose
    hover title carries the oracle's detail string — followed by the
    per-transport delivery table and overlaid packet-delay CDFs (the
    soak keeps raw delay samples, so no rerun is needed).  Same
    zero-dependency, byte-deterministic contract as the other reports.
    """
    from ..scenarios.oracles import ORACLE_NAMES

    title = title or ("CellFusion differential verdicts — %s" % matrix.scenario)
    grid = matrix.verdict_grid()
    passed = sum(1 for r in matrix.results if r.passed)

    html: List[str] = []
    html.append("<!DOCTYPE html><html><head><meta charset='utf-8'>")
    html.append("<title>%s</title><style>%s</style></head><body>"
                % (escape(title), _CSS))
    html.append("<h1>%s</h1>" % escape(title))

    html.append('<div class="tiles">')
    html.append(_tile("scenario", matrix.scenario))
    html.append(_tile("seed", str(matrix.seed)))
    html.append(_tile("duration", "%.1f s" % matrix.duration))
    html.append(_tile("transports", str(len(matrix.results))))
    html.append(_tile("all oracles pass", "%d / %d" % (passed, len(matrix.results))))
    html.append("</div>")

    html.append("<h2>Verdict matrix</h2>")
    header = "".join("<th>%s</th>" % escape(name) for name in ORACLE_NAMES)
    rows = []
    for r in matrix.results:
        cells = []
        for name in ORACLE_NAMES:
            v = grid[r.transport].get(name)
            if v is None:
                cells.append("<td>&mdash;</td>")
                continue
            mark, color = ("&#10003;", _VERDICT_PASS) if v.ok \
                else ("&#10007;", _VERDICT_FAIL)
            cells.append('<td style="color:%s" title="%s">%s</td>'
                         % (color, escape(v.detail), mark))
        rows.append("<tr><td style='text-align:left'>%s</td>%s</tr>"
                    % (escape(r.transport), "".join(cells)))
    html.append('<table class="data"><tr><th>transport</th>%s</tr>%s</table>'
                % (header, "".join(rows)))
    html.append("<p style='font-size:12px;color:#667'>Hover a failing cell "
                "for the oracle's detail. Baseline failures under zoo "
                "adversity are diagnostic, not regressions.</p>")

    html.append("<h2>Delivery under identical adversity</h2>")
    drows = "".join(
        "<tr><td style='text-align:left'>%s</td><td>%.2f%%</td><td>%d</td>"
        "<td>%d</td><td>%s</td></tr>"
        % (escape(r.transport), r.report.delivery_ratio * 100,
           r.report.packets_sent, r.report.packets_received,
           escape(r.report.terminal_error or "-"))
        for r in matrix.results)
    html.append('<table class="data"><tr><th>transport</th><th>delivery</th>'
                '<th>sent</th><th>received</th><th>terminal</th></tr>%s'
                '</table>' % drows)

    series = {r.transport: r.report.packet_delays
              for r in matrix.results if r.report.packet_delays}
    html.append("<h2>Packet-delay CDFs</h2>")
    html.append("<figure>%s<figcaption>Delivered-packet delays per "
                "transport under the same traces, seed, and fault plan."
                "</figcaption></figure>" % render_cdf_svg(series))

    html.append("<p style='color:#667;font-size:11px'>scenario seed %d"
                "</p>" % matrix.seed)
    html.append("</body></html>")
    return "".join(html)


def write_diff_html_report(path: str, matrix, title: Optional[str] = None) -> int:
    """Render and write the differential report; returns the byte count."""
    doc = render_diff_html_report(matrix, title=title)
    data = doc.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
