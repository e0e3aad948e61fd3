"""Independent test oracles.

These deliberately avoid the package's own algorithms: the resultant oracle
expands a Sylvester determinant, the root oracle scans signs on a fine grid,
the group-order oracle enumerates matrices directly over Z/m, and the dyadic
square oracle tries every residue in the Hensel box with FieldElement
arithmetic, reading valuations off the Sylvester determinant. Slow and
simple on purpose.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction


def sylvester_resultant(a: list[Fraction], b: list[Fraction]) -> Fraction:
    """Resultant via Laplace expansion of the Sylvester matrix.

    Coefficient lists are constant-term first, nonzero leading coefficient.
    """
    m = len(a) - 1
    n = len(b) - 1
    if m < 0 or n < 0:
        raise ValueError("nonzero polynomials only")
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    arev = list(reversed(a))  # leading first for the classical layout
    brev = list(reversed(b))
    for i in range(n):
        rows.append([Fraction(0)] * i + arev + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + brev + [Fraction(0)] * (size - n - 1 - i))

    @functools.lru_cache(maxsize=None)
    def det(cols: tuple[int, ...]) -> Fraction:
        # Laplace expansion along the first of the remaining rows, over the
        # remaining columns; minors repeat, so each is expanded only once.
        row = rows[size - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        total = 0
        for pos, col in enumerate(cols):
            if row[col] == 0:
                continue
            term = row[col] * det(cols[:pos] + cols[pos + 1:])
            total += term if pos % 2 == 0 else -term
        return total

    return Fraction(det(tuple(range(size))))


def sign_scan_roots(
    coeffs: list[Fraction], lo: Fraction, hi: Fraction, step: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Bracket every sign change of the polynomial on a uniform grid.

    Exact rational evaluation; a grid point that is itself a root becomes a
    degenerate bracket. Misses nothing as long as the step is below the
    minimal root gap and roots are simple.
    """

    def value(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    out = []
    x = lo
    prev_x, prev_v = lo, value(lo)
    if prev_v == 0:
        out.append((lo, lo))
    while x < hi:
        x = x + step
        v = value(x)
        if v == 0:
            out.append((x, x))
        elif (prev_v < 0 < v) or (v < 0 < prev_v):
            out.append((prev_x, x))
        prev_x, prev_v = x, v
    return out


def count_matrices_with_det_one(modulus: int, size: int) -> int:
    """|SL_size(Z/modulus)| by brute enumeration (tiny cases only)."""
    cells = size * size
    count = 0
    for entries in itertools.product(range(modulus), repeat=cells):
        mat = [list(entries[i * size:(i + 1) * size]) for i in range(size)]
        if _det_mod(mat, modulus) == 1 % modulus:
            count += 1
    return count


def _det_mod(mat: list[list[int]], m: int) -> int:
    k = len(mat)
    if k == 1:
        return mat[0][0] % m
    total = 0
    for col in range(k):
        minor = [row[:col] + row[col + 1:] for row in mat[1:]]
        term = mat[0][col] * _det_mod(minor, m)
        total += term if col % 2 == 0 else -term
    return total % m


def dyadic_square_scan(field, block: list[int], e: int, f: int, w: Fraction) -> bool:
    """Whether the odd rational w is a square at a place of the field above 2.

    The place has ramification e and residue degree f, and `block` is its
    factor of the defining polynomial over Z_2, constant term first (the
    polynomial itself when the place is alone above 2, otherwise a lift
    correct mod 2^64).  Every y in the box of integer coordinates of degree
    < e*f with coefficients mod 2^t, t*e >= 2e+1, is tried: w is a square
    exactly when some y^2 - w has valuation at least 2e+1 (Hensel's bound
    for x^2 - w).  Arithmetic is FieldElement multiplication, and the
    valuation is ord_2 of the Sylvester resultant against the block over f.
    """
    target = 2 * e + 1
    t = -(-target // e)
    pad = field.degree - e * f
    w_elem = field.from_rational(w)
    for coeffs in itertools.product(range(2**t), repeat=e * f):
        y = field.element(tuple(Fraction(c) for c in coeffs) + (Fraction(0),) * pad)
        g = y * y - w_elem
        if g.is_zero():
            return True
        # w's denominator d is odd, so d*g has the valuation of g
        coords = [int(c * w.denominator) for c in g.coords]
        while coords[-1] == 0:
            coords.pop()
        order = _ord2(sylvester_resultant(list(block), coords).numerator)
        assert order < 60, "the block is only known mod 2^64"
        if order // f >= target:
            return True
    return False


def _ord2(n: int) -> int:
    return (n & -n).bit_length() - 1
