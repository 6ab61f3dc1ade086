"""Writes ``src/reset_sde/_erfcx_table.py``, the polynomial table behind
``reset_sde._special.erfcx``, from mpmath at 40 digits.

    python tools/erfcx_table.py

Row j holds the polynomial of degree DEGREE in s that interpolates
erfcx(400 STEPS / (j + s) - 4) at the DEGREE + 1 Chebyshev nodes of s in
[-1/2, 1/2], as monomial coefficients rounded to doubles; the rows run
from j = FIRST (x = 50) to j = 100 STEPS (x = 0).  DEGREE is even, so
the middle node is s = 0 and the last row gives erfcx(0) = 1 exactly.
The script also prints the table's largest relative error, rounding of
its coefficients included, on a grid of nine points a row.
``tests/test_special.py`` checks that the committed table is what this
script writes.
"""

import binascii
import pathlib

import mpmath as mp
import numpy as np

STEPS = 1               # u = STEPS * 400 / (4 + x)
DEGREE = 6              # even: the middle node, s = 0, gives erfcx(0) = 1
TAIL = 50.0             # past this x, erfcx is the continued fraction
FIRST = round(STEPS * 400 / (4 + TAIL))  # the row that holds x = 50
LAST = STEPS * 100                       # the row that holds x = 0
TARGET = pathlib.Path(__file__).resolve().parents[1] / "src" / "reset_sde" / "_erfcx_table.py"

HEADER = '''"""Polynomial table of ``_special.erfcx``, written by
``tools/erfcx_table.py`` (mpmath {mpmath}); do not edit by hand.

Row j, for j from FIRST to {last}, holds the {terms} monomial coefficients,
lowest first, of erfcx({scale} / (j + s) - 4) for s in [-1/2, 1/2]: little-
endian float64, base64.  Largest relative error on a grid of nine points
a row, the rounding of the coefficients included: {error:.3g}.
"""

STEPS = {steps}
DEGREE = {degree}
FIRST = {first}
COEFFICIENTS = """
'''


def erfcx(x):
    return mp.exp(x * x) * mp.erfc(x)


def rows():
    """The table's rows as an array, and its largest relative error."""
    if DEGREE % 2:
        raise ValueError(f"DEGREE {DEGREE} is odd: only an even degree puts a Chebyshev "
                         "node at s = 0, which makes erfcx(0) = 1 exactly")
    mp.mp.dps = 40
    scale = mp.mpf(400 * STEPS)
    nodes = [mp.cos(mp.pi * (2 * i + 1) / (2 * (DEGREE + 1))) / 2 for i in range(DEGREE + 1)]
    nodes[DEGREE // 2] = mp.mpf(0)  # cos(pi/2), exactly
    inverse = mp.matrix([[s ** k for k in range(DEGREE + 1)] for s in nodes]) ** -1
    grid = [mp.mpf(i) / 8 - mp.mpf(1) / 2 for i in range(9)]
    table, worst = [], mp.mpf(0)
    for j in range(FIRST, LAST + 1):
        c = inverse * mp.matrix([erfcx(scale / (j + s) - 4) for s in nodes])
        row = [float(c[k]) for k in range(DEGREE + 1)]
        table.append(row)
        for s in grid:
            exact = erfcx(scale / (j + s) - 4)
            value = sum(mp.mpf(a) * s ** k for k, a in enumerate(row))
            worst = max(worst, abs(value / exact - 1))
    return np.array(table), float(worst)


def module_text():
    table, worst = rows()
    encoded = binascii.b2a_base64(table.astype("<f8").tobytes(), newline=False).decode()
    lines = [encoded[i:i + 76] for i in range(0, len(encoded), 76)]
    return HEADER.format(mpmath=mp.__version__, last=LAST, terms=DEGREE + 1, error=worst,
                         scale=400 * STEPS, steps=STEPS, degree=DEGREE, first=FIRST) \
        + "\n".join(lines) + '\n"""\n', worst


def main():
    text, worst = module_text()
    print(f"rows {FIRST}..{LAST}, degree {DEGREE}: largest relative error {worst:.3g}")
    TARGET.write_text(text)
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
