"""Plain-text SVG scatter plots of root clouds, one file per d.

Data-faithful output only: fixed canvas, strip boundaries drawn at Re = 0
and Re = -n/d for the largest n in the group, points as small circles.  The
generated markup is deterministic for identical input data.
"""

import csv
import math
from pathlib import Path

from .errors import InvalidParams

WIDTH = 640
HEIGHT = 480
MARGIN = 50


def _svg_header():
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )


def _axes(x0, y0, x1, y1):
    return (
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>\n'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>\n'
    )


def emit_svg(points, out_path, d=None, n_max=None):
    """Write one scatter; `points` is an iterable of (re, im) pairs.

    When d and n_max are given, dashed guides mark the strip boundaries
    Re = 0 and Re = -n_max/d.  Without data the plot shows axes only.
    """
    points = list(points)
    x0, y0 = MARGIN, MARGIN
    x1, y1 = WIDTH - MARGIN, HEIGHT - MARGIN
    parts = [_svg_header()]

    if points:
        res = [p[0] for p in points]
        ims = [p[1] for p in points]
        lo_x = min(res + [0.0])
        hi_x = max(res + [0.0])
        if d is not None and n_max is not None:
            lo_x = min(lo_x, -n_max / d)
        span_x = (hi_x - lo_x) or 1.0
        lo_x -= 0.05 * span_x
        hi_x += 0.05 * span_x
        hi_y = max(max(abs(v) for v in ims), 1e-9) * 1.1
        lo_y = -hi_y

        def sx(v):
            return x0 + (v - lo_x) / (hi_x - lo_x) * (x1 - x0)

        def sy(v):
            return y1 - (v - lo_y) / (hi_y - lo_y) * (y1 - y0)

        parts.append(_axes(x0, y0, x1, y1))
        if d is not None and n_max is not None:
            for bound, label in ((0.0, "Re=0"), (-n_max / d, f"Re=-{n_max}/{d}")):
                px = sx(bound)
                parts.append(
                    f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y1}" '
                    f'stroke="red" stroke-dasharray="4 3"/>\n'
                    f'<text x="{px:.2f}" y="{y0 - 8}" font-size="12" fill="red" '
                    f'text-anchor="middle">{label}</text>\n'
                )
        if d is not None:
            parts.append(
                f'<text x="{(x0 + x1) / 2}" y="{HEIGHT - 12}" font-size="13" '
                f'text-anchor="middle">root scatter, d={d}</text>\n'
            )
        for re, im in points:
            parts.append(
                f'<circle cx="{sx(re):.2f}" cy="{sy(im):.2f}" r="2" '
                f'fill="steelblue" fill-opacity="0.7"/>\n'
            )
    else:
        parts.append(_axes(x0, y0, x1, y1))

    parts.append("</svg>\n")
    Path(out_path).write_text("".join(parts))
    return Path(out_path)


def write_group_svgs(roots_csv, out_dir):
    """One SVG per d from a roots CSV (schema d,n,root_index,re,im,residual);
    InvalidParams on a row that lacks a column, has a value that does not
    parse, a pair outside 1 <= d < n, or a non-finite re or im."""
    groups = {}
    n_max = {}
    with open(roots_csv, newline="") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            try:
                d, n = int(record["d"]), int(record["n"])
                point = (float(record["re"]), float(record["im"]))
            except (KeyError, TypeError, ValueError) as exc:  # TypeError: a short row
                raise InvalidParams(
                    f"{roots_csv}, line {reader.line_num}: "
                    f"need integers d, n and numbers re, im ({exc!r})"
                ) from None
            if not (1 <= d < n and all(map(math.isfinite, point))):
                raise InvalidParams(
                    f"{roots_csv}, line {reader.line_num}: need 1 <= d < n and "
                    f"finite re, im, got d={d}, n={n}, re={point[0]}, im={point[1]}"
                )
            groups.setdefault(d, []).append(point)
            n_max[d] = max(n_max.get(d, 0), n)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if not groups:
        written.append(emit_svg([], out_dir / "roots_empty.svg"))
        return written
    for d in sorted(groups):
        path = out_dir / f"roots_d{d}.svg"
        written.append(emit_svg(groups[d], path, d=d, n_max=n_max[d]))
    return written
