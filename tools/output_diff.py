"""Compare two ``raloc`` output files field group by field group.

Usage:

    python3 tools/output_diff.py A B

Both files are ``estimate`` or ``batch`` outputs in the layouts of README.md
("Log format"): trajectory lines ``stamp tx ty tz qx qy qz qw``, bias lines
``stamp id mean sigma``, or ``metrics.txt`` lines ``key: value``. The script
prints whether the files are byte-identical and the largest absolute
difference between them per column group: stamp, position and quaternion
for trajectory lines; stamp, bias (the mean) and covariance (its sigma) for
bias lines; for metrics, every key whose value differs. The anchor id of a
bias line, a metric's key and a non-numeric metric value must match
exactly.

Exit code: 0 when the files are byte-identical, 1 when they differ only in
the values of the column groups, 2 when their lines do not pair up (a
different line count, layout or exact field).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# column groups per line layout, keyed by field count; a layout's other
# fields are compared as text
LAYOUTS = {
    8: {"stamp": [0], "position": [1, 2, 3], "quaternion": [4, 5, 6, 7]},
    4: {"stamp": [0], "bias": [2], "covariance": [3]},
}


class Mismatch(ValueError):
    """The two files' lines do not pair up."""


def _layout(fields: list[str]) -> dict:
    if len(fields) == 2 and fields[0].endswith(":"):
        # a metrics line: a numeric value is its key's own group
        try:
            float(fields[1])
        except ValueError:
            return {}
        return {fields[0][:-1]: [1]}
    groups = LAYOUTS.get(len(fields))
    if groups is None:
        raise Mismatch(f"unknown line layout: {' '.join(fields)!r}")
    return groups


def compare(a: Path, b: Path) -> dict:
    """Byte identity, line count and per-group max |A - B| of two output files."""
    text_a, text_b = Path(a).read_bytes(), Path(b).read_bytes()
    lines_a = text_a.decode("utf-8").splitlines()
    lines_b = text_b.decode("utf-8").splitlines()
    if len(lines_a) != len(lines_b):
        raise Mismatch(f"line counts differ: {len(lines_a)} vs {len(lines_b)}")
    worst: dict[str, float] = {}
    differing = 0
    for lineno, (la, lb) in enumerate(zip(lines_a, lines_b), start=1):
        fa, fb = la.split(), lb.split()
        groups = _layout(fa)
        if _layout(fb) != groups:
            raise Mismatch(f"line {lineno}: layouts differ")
        numeric = {c for cols in groups.values() for c in cols}
        if any(x != y for i, (x, y) in enumerate(zip(fa, fb)) if i not in numeric):
            raise Mismatch(f"line {lineno}: exact fields differ")
        differing += la != lb
        if la == lb and fa[0].endswith(":"):
            continue  # metrics are listed only where their values differ
        for name, cols in groups.items():
            diff = max(abs(float(fa[c]) - float(fb[c])) for c in cols)
            worst[name] = max(worst.get(name, 0.0), diff)
    return {
        "identical": text_a == text_b,
        "lines": len(lines_a),
        "differing_lines": differing,
        "max_abs_diff": worst,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    try:
        out = compare(args.a, args.b)
    except Mismatch as err:
        print(f"{args.a} vs {args.b}: {err}")
        return 2
    verdict = "byte-identical" if out["identical"] else (
        f"differ on {out['differing_lines']} of {out['lines']} lines")
    print(f"{args.a} vs {args.b}: {verdict}")
    for name, value in out["max_abs_diff"].items():
        print(f"  {name:<10} max |diff| {value:.3g}")
    return 0 if out["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
