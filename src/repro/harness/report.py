"""Plain-text report formatting: the harness prints the same rows/series
the paper's figures plot, as aligned tables."""

from __future__ import annotations

from typing import List, Sequence, Union

Number = Union[int, float]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
) -> str:
    """Aligned monospace table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence, ys: Sequence[Number]) -> str:
    """One figure series as `name: x=y` pairs."""
    pairs = "  ".join(f"{x}={_fmt(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def print_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> None:
    """Print an aligned table to stdout."""
    print(format_table(headers, rows, title))
