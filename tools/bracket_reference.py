"""40-digit mpmath references of the angular closed form at its panel edges.

quadrature._bracket_angular reads B(1/2, b) F(x) from tables with one panel
per half octave of log2 x below 1/16 and 64 equal panels of [1/16, 1]
(quadrature._chebyshev_table); at an even p it sums Beta terms.  This
script writes, for every p and b of
tests/test_quadrature.py::TestBracketAngular::test_matches_40_digit_mpmath_at_every_panel_edge
and for both branches, the value

    B(1/2, b) F(-p/2, bb; b + 1/2; 1 - x),  bb = 1/2 (branch 0, C >= A)
                                            or b (branch 1, A > C),

to 40 significant digits at x = 0, 2^-1074 and every panel edge of the
tables, from 2^-110 to 1, computed by mpmath at 40 digits.  The test reads
them from the table instead of recomputing them, and recomputes a few
seeded entries with reference() here, which must match the table exactly.
The table is JSON: "x", the points as float.hex in increasing order;
"refs", per key "p b branch" (each float by its repr) one decimal string
per point.

Run from the repository root, after a change of the table layout
(_FLOOR_EXP, _PER_OCTAVE, _X0, _PANELS) or of the test's p and b:

    python tools/bracket_reference.py [--out PATH]

It takes about 20 s.  The library is imported from the src directory next
to this script.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from anisohardy import quadrature  # noqa: E402

#: The p and b of the test; 1.6 + 1e-9 and 3 + 1e-8 put m near an integer.
PS = (1.0, 1.5, 1.6, 1.6 + 1e-9, 3.0, 3.0 + 1e-8, 9.0, 20.0, 30.0, 31.0, 99.0, 100.0)
BS = (1e-6, 1e-4, 0.05, 0.4)
DIGITS = 40
TABLE = ROOT / "tests" / "data" / "bracket_edges_40_digits.json"


def panel_edges() -> np.ndarray:
    """Every panel edge of the tables: from 2^_FLOOR_EXP to 1/16 in steps of
    1/_PER_OCTAVE in log2 x, then the equal panels of [1/16, 1]."""
    q = quadrature
    logs = 2.0 ** (q._FLOOR_EXP + np.arange(q._LOG_PANELS + 1) / q._PER_OCTAVE)
    return np.concatenate([logs, q._X0 + (1.0 - q._X0) / q._PANELS * np.arange(1, q._PANELS + 1)])


def points() -> list[float]:
    """x = 0, 2^-1074 and every panel edge, increasing."""
    return [0.0, 2.0 ** -1074, *panel_edges().tolist()]


def key(pw: float, b: float, branch: int) -> str:
    return f"{pw!r} {b!r} {branch}"


def reference(pw: float, b: float, branch: int, x: float) -> str:
    """B(1/2, b) F(-p/2, bb; b + 1/2; 1 - x) to DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        a, c, scale = -mpmath.mpf(pw) / 2, mpmath.mpf(b) + 0.5, mpmath.beta(0.5, b)
        bb = 0.5 if branch == 0 else b
        return mpmath.nstr(scale * mpmath.hyp2f1(a, bb, c, 1 - mpmath.mpf(x)), DIGITS)


def table() -> dict:
    xs = points()
    return {"x": [x.hex() for x in xs],
            "refs": {key(pw, b, branch): [reference(pw, b, branch, x) for x in xs]
                     for pw in PS for b in BS for branch in (0, 1)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=TABLE,
                        help=f"where to write the table (default {TABLE.relative_to(ROOT)})")
    args = parser.parse_args(argv)
    data = table()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("{\"x\": " + json.dumps(data["x"]) + ",\n\"refs\": {\n")
        handle.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                for k, v in data["refs"].items()))
        handle.write("\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
