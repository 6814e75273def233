"""Terminal plots: overlaid CDFs for the figure outputs.

The paper's figures are gnuplot artifacts; this renders the same data as
plain text so the CLI can show *shapes* (CDF crossovers) without a
display server.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ascii_cdf",
]

DEFAULT_WIDTH = 64
DEFAULT_HEIGHT = 12
_MARKS = "*o+x#@%&"


def _scale(value: float, lo: float, hi: float, steps: int) -> int:
    if hi <= lo:
        return 0
    return min(steps - 1, max(0, int((value - lo) / (hi - lo) * (steps - 1))))


def ascii_cdf(
    series: Dict[str, Sequence[float]],
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
    x_label: str = "value",
    log_x: bool = False,
) -> str:
    """Overlaid empirical CDFs (the Fig. 10(a)/13(a) style plot).

    Each named series gets its own mark; the x-axis optionally log-scales
    (packet delays span decades).
    """
    cleaned = {k: np.sort(np.asarray(list(v), dtype=float)) for k, v in series.items() if len(v)}
    if not cleaned:
        return "(no data)"
    all_values = np.concatenate(list(cleaned.values()))
    positive = all_values[all_values > 0]
    if log_x and positive.size:
        lo, hi = float(np.log10(positive.min())), float(np.log10(positive.max()))
    else:
        log_x = False
        lo, hi = float(all_values.min()), float(all_values.max())
    grid = [[" "] * width for _ in range(height)]
    for idx, (name, vals) in enumerate(cleaned.items()):
        mark = _MARKS[idx % len(_MARKS)]
        probs = np.arange(1, vals.size + 1) / vals.size
        for value, p in zip(vals, probs):
            xv = np.log10(value) if log_x and value > 0 else value
            x = _scale(float(xv), lo, hi, width)
            y = _scale(float(p), 0.0, 1.0, height)
            grid[height - 1 - y][x] = mark
    lines = ["CDF (y: 0..1, x: %s%s)" % (x_label, ", log scale" if log_x else "")]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    legend = "  ".join("%s=%s" % (_MARKS[i % len(_MARKS)], k) for i, k in enumerate(cleaned))
    lines.append(legend)
    return "\n".join(lines)
