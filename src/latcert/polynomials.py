"""Exact univariate polynomials over the rationals and their integer core.

Everything here is exact and deterministic: resultants and discriminants
are Bareiss determinants on the integer core, a polynomial has only simple
real roots when the leading minors of Hermite's form are positive, real
roots are isolated with Sturm counts plus exact extraction of rational
roots (the integer roots of the monic transform, by the l-adic lift
below), and squarefree monic integer polynomials are factored over Z at the
first prime not dividing the discriminant (integer roots by l-adic Newton
lifting; a quartic cofactor whose resolvent cubic has no integer root, found
by the same lift, is irreducible; else Zassenhaus's algorithm: factor modulo
that prime, Hensel-lift, recombine), which also decides irreducibility over
Q. No floating point anywhere.

Hermite's test is two steps, the Newton power sums (`_power_sums`) and
the pivots of their Hankel matrix (`_hankel_run`), written out as closed
forms up to size 4 and a loop above. The sums are affine in the constant
term, which enters them from t_m on, so a scan over that term, as in
`search.candidate_polynomials`, takes the sums, their slope and the
leading pivots once per scan, and per value only the trailing pivots,
up to size 4 as numerators with no call. A monic polynomial's rational
roots are integers: the search's drops only ask whether there is one
(`_has_integer_root`), by trial divisors of a constant term that its
coefficient box bounds, and factor no integer.

`Polynomial` and `Interval` are the rational boundary; the work runs on
an integer core of int tuples with content removed. Gcds and Sturm chains
come from the primitive remainder sequence over Z (Collins 1967; Brown &
Traub 1971), built on a pseudo-remainder whose multiplier |lc|^(delta+1)
is positive, and the sign of f at num/den comes from homogeneous Horner,
den^n f(num/den) for den > 0. A real root is bracketed by an integer cell
[a, b, d], the interval [a/d, b/d], with d a denominator times a power of
two (Collins & Akritas 1976; Rouillier & Zimmermann 2004); bisection
(`_halve`) and interval Horner enclosures (`_enclosure`) act on the cell
directly, which is how `number_field` keeps its real places. Every
real-root decision is a sign that does not change when the polynomial is
scaled by a positive constant, so the isolating intervals are the same
rationals as those of plain Fraction arithmetic. Res(P, z) for monic P is
the determinant of multiplication by z on Z[x]/(P), taken by
fraction-free elimination (Bareiss 1968).

Coefficients are stored constant term first; the string form of
x^3 - x^2 - 3x + 1 is "1,-3,-1,1".
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Union

from . import modular
from .errors import InvalidInputError
from .frozen import Frozen
from .intfactor import is_prime

Scalar = Union[int, Fraction]


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidInputError(f"expected an exact rational, got {type(value).__name__}")


class Polynomial(Frozen):
    """Immutable rational polynomial, coefficients constant-term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "Polynomial":
        """Parse "1,-3,-1,1" (rationals like "3/2" allowed)."""
        parts = [p.strip() for p in text.split(",")]
        if parts == [""]:
            raise InvalidInputError("empty polynomial string")
        try:
            return cls(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad polynomial string {text!r}: {exc}") from exc

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return self.to_string()

    # -- normal forms --------------------------------------------------------

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def int_coeffs(self) -> tuple[int, ...]:
        """Coefficients as plain ints; error if any is fractional."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise InvalidInputError("polynomial has non-integer coefficients")
            out.append(c.numerator)
        return tuple(out)


def resultant(a: Polynomial, b: Polynomial) -> Fraction:
    """Resultant Res(a, b) = lc(a)^deg b times the product of b over the
    roots of a.

    Res(a, b) = lc(b)^deg a when b is a nonzero constant; zero when the
    inputs share a root; Res(f, 0) = 0 by convention here (both zero is an
    error). The integer associates f and g of a and b carry the rational
    scale; with A = lc(f), Res(f, g) is resultant_int of the monic
    transform A^(m-1) f(x/A) and A^n g(x/A), over A^(n(m-1)).

    >>> resultant(Polynomial((-2, 1)), Polynomial((-3, 1)))
    Fraction(-1, 1)
    >>> resultant(Polynomial((-1, 2)), Polynomial((1, 0, 1)))
    Fraction(5, 1)
    """
    if a.is_zero() and b.is_zero():
        raise InvalidInputError("resultant of zero with zero")
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    f, g = _integer_associate(a), _integer_associate(b)
    m, n = len(f) - 1, len(g) - 1
    scale = (a.leading_coefficient() / f[-1]) ** n * (b.leading_coefficient() / g[-1]) ** m
    if m == 0:
        return scale * f[0] ** n
    lead = f[-1]
    moved = tuple(c * lead ** (n - k) for k, c in enumerate(g))
    return scale * Fraction(resultant_int(_monic_transform(f), moved), lead ** (n * (m - 1)))


def discriminant(p: Polynomial) -> Fraction:
    """Discriminant of p, degree >= 1, exact.

    >>> discriminant(Polynomial.from_string("1,-3,-1,1"))
    Fraction(148, 1)
    """
    n = p.degree()
    if n < 1:
        raise InvalidInputError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    if p.is_monic() and all(c.denominator == 1 for c in p.coeffs):
        f = p.int_coeffs()
        return Fraction(sign * resultant_int(f, _derivative(f)))
    return sign * resultant(p, p.derivative()) / p.leading_coefficient()


# ---------------------------------------------------------------------------
# Real root machinery


class Interval(Frozen):
    """Closed rational interval; degenerate (lo == hi) pins an exact root."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Scalar, hi: Scalar):
        lo, hi = _coerce(lo), _coerce(hi)
        if lo > hi:
            raise InvalidInputError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def isolate_real_roots(p: Polynomial) -> tuple[Interval, ...]:
    """Pairwise-disjoint closed intervals, one per distinct real root.

    Rational roots come back as exact degenerate intervals; irrational
    roots get open-interior brackets with rational endpoints that are
    never roots themselves. Sorted ascending. The rational roots are the
    integer roots of the squarefree part's monic transform over its leading
    coefficient, found by the ell-adic lift at the first prime ell not
    dividing its discriminant, so no integer is factored. The irrational
    roots are bracketed by bisecting Cauchy's interval (-B, B) of the
    squarefree part with the rational roots divided out, so every bracket
    endpoint is B times a dyadic rational.

    >>> for iv in isolate_real_roots(Polynomial.from_string("1,-3,-1,1")):
    ...     print(iv)
    [-2, -1]
    [0, 1]
    [2, 4]
    """
    if p.is_zero():
        raise InvalidInputError("cannot isolate roots of the zero polynomial")
    if p.degree() < 1:
        return ()
    q = _squarefree(_integer_associate(p))
    # The monic transform g is squarefree, and its roots are lead times
    # those of q, so the rational roots of q are its integer roots over lead.
    g, lead = _monic_transform(q), q[-1]
    rats = []
    for r in _integer_roots(g, _good_prime(resultant_int(g, _derivative(g)))):
        d = math.gcd(r, lead) if lead > 0 else -math.gcd(r, lead)
        rats.append((r // d, lead // d))
    reduced = q
    for num, den in rats:
        reduced = _exact_div(reduced, (-num, den))
    cells = _isolating_cells(reduced, rats)
    return tuple(Interval(Fraction(a, d), Fraction(b, d)) for a, b, d in cells)


def refine_interval(p: Polynomial, interval: Interval, width: Scalar) -> Interval:
    """Shrink an isolating interval for a single root of p below width.

    Exact rational bisection on the squarefree part; if the bisection ever
    lands on the root itself the degenerate exact interval is returned.
    """
    width = _coerce(width)
    if width <= 0:
        raise InvalidInputError("target width must be positive")
    if p.is_zero() or p.degree() < 1:
        raise InvalidInputError("refinement needs a nonconstant polynomial")
    q = _squarefree(_integer_associate(p))
    if interval.lo == interval.hi:
        if _value(q, interval.lo.numerator, interval.lo.denominator) != 0:
            raise InvalidInputError("degenerate interval is not a root")
        return interval
    lo, hi, d = _over_common_denominator(interval.lo, interval.hi)
    qlo, qhi = _value(q, lo, d), _value(q, hi, d)
    if qlo == 0:
        return Interval(interval.lo, interval.lo)
    if qhi == 0:
        return Interval(interval.hi, interval.hi)
    if (qlo > 0) == (qhi > 0):
        raise InvalidInputError("interval does not bracket a sign change of the squarefree part")
    while (hi - lo) * width.denominator > width.numerator * d:
        m, lo, hi, d = lo + hi, 2 * lo, 2 * hi, 2 * d
        qm = _value(q, m, d)
        if qm == 0:
            return Interval(Fraction(m, d), Fraction(m, d))
        if (qlo > 0) != (qm > 0):
            hi = m
        else:
            lo, qlo = m, qm
    return Interval(Fraction(lo, d), Fraction(hi, d))


def interval_value_range(p: Polynomial, interval: Interval) -> tuple[Fraction, Fraction]:
    """Exact interval-arithmetic enclosure of p over a closed interval.

    Horner's scheme on intervals, run by `_enclosure` on D p, where D is the
    common denominator of the coefficients, over the endpoints written on a
    common denominator e; the pair comes back divided by D e^(deg p + 1).
    """
    l, h, e = _over_common_denominator(interval.lo, interval.hi)
    den = math.lcm(*(c.denominator for c in p.coeffs))
    lo, hi = _enclosure([c.numerator * (den // c.denominator) for c in p.coeffs], l, h, e)
    scale = den * e ** len(p.coeffs)
    return Fraction(lo, scale), Fraction(hi, scale)


# Integer core. Polynomials are int tuples, constant term first, as in
# `modular`; the Fraction functions above hand it a primitive integer
# associate. Every root decision it makes is a sign, and the associate is a
# positive multiple of the rational input, so the answers are the ones an
# exact Fraction computation gives; `resultant` scales its value back
# exactly. A rational point is a pair (num, den) with den > 0, and a cell
# [a, b, d] is the interval [a/d, b/d].


def _integer_associate(p: Polynomial) -> tuple[int, ...]:
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _primitive(tuple(c.numerator * (den // c.denominator) for c in p.coeffs))


def _primitive(f: tuple[int, ...]) -> tuple[int, ...]:
    """f over its content; the content is positive, so signs are kept."""
    g = math.gcd(*f)
    return f if g <= 1 else tuple(c // g for c in f)


def _derivative(f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(f) if i)


def _monic_transform(f: tuple[int, ...]) -> tuple[int, ...]:
    """a^(n-1) f(x/a) for f of degree n >= 1 and leading coefficient a: a
    monic integer polynomial whose roots are a times those of f; a monic f
    is returned as it is."""
    lead, n = f[-1], len(f) - 1
    if lead == 1:
        return f
    return tuple(c * lead ** (n - 1 - k) for k, c in enumerate(f[:-1])) + (1,)


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _reduce_monic(a, p: tuple[int, ...]) -> list[int]:
    """a mod the monic integer polynomial p, as exactly deg p integers."""
    n = len(p) - 1
    r = list(a) + [0] * (n - len(a))
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        if c:
            for i in range(n):
                r[k - n + i] -= c * p[i]
    return r[:n]


def resultant_int(p: tuple[int, ...], z: tuple[int, ...]) -> int:
    """Res(P, z) for monic integer P of degree n >= 1 and any integer z.

    This is the determinant of multiplication by z on Z[x]/(P), whose column
    k is z * x^k mod P, taken by Bareiss elimination; it equals the product
    of z over the roots of P, and Res(P, 0) = 0.
    """
    if len(p) < 2 or p[-1] != 1:
        raise InvalidInputError("resultant_int needs a monic modulus of degree >= 1")
    return _bareiss_det(_multiplication_columns(p, z))


def _multiplication_columns(p: tuple[int, ...], z) -> list[list[int]]:
    """Column k is z * x^k mod the monic integer polynomial p, k < deg p."""
    column = _reduce_monic(z, p)
    columns = [column]
    for _ in range(len(p) - 2):
        top = column[-1]
        column = [0] + column[:-1]
        if top:
            column = [c - top * q for c, q in zip(column, p)]
        columns.append(column)
    return columns


def _bareiss_det(rows: list[list[int]]) -> int:
    # Fraction-free Gaussian elimination (Bareiss 1968): after step k every
    # entry is a (k+1)-minor, so each division by the previous pivot is exact.
    n = len(rows)
    sign, previous = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // previous
        previous = pivot
    return sign * rows[-1][-1]


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Pseudo-remainder |lc(b)|^(deg a - deg b + 1) a mod b: a positive
    multiple of the remainder over Q."""
    if b[-1] < 0:
        b = tuple(-c for c in b)
    lead, n = b[-1], len(b) - 1
    r = list(a)
    for top in range(len(r) - 1, n - 1, -1):
        c = r.pop()
        if lead != 1:
            r = [x * lead for x in r]
        if c:
            for j in range(n):
                r[top - n + j] -= c * b[j]
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _exact_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a / b for a primitive divisor b of a; the quotient is integral by
    Gauss's lemma, so every step divides exactly."""
    lead, n = b[-1], len(b) - 1
    r = list(a)
    quot = [0] * (len(a) - n)
    for top in range(len(r) - 1, n - 1, -1):
        c = r.pop() // lead
        quot[top - n] = c
        if c:
            for j in range(n):
                r[top - n + j] -= c * b[j]
    assert not any(r), "exact division left a remainder"
    return tuple(quot)


def _gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd with positive leading coefficient of primitive a, b,
    by the primitive remainder sequence (Collins 1967; Brown & Traub 1971)."""
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a if not a or a[-1] > 0 else tuple(-c for c in a)


def _squarefree(f: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive squarefree part f / gcd(f, f'), with f's leading sign."""
    if len(f) < 3:
        return f
    g = _gcd(f, _primitive(_derivative(f)))
    return f if len(g) == 1 else _exact_div(f, g)


def _sturm_chain(q: tuple[int, ...]) -> list[tuple[int, ...]]:
    # q of degree >= 1; each member is the negated remainder of the two
    # before it, scaled to primitive form by a positive constant. The chain
    # stops at a constant multiple of gcd(q, q'), which is 1 for squarefree q.
    chain = [q, _primitive(_derivative(q))]
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive(tuple(-c for c in r)))
    return chain


def _value(f: tuple[int, ...], num: int, den: int) -> int:
    """den^deg(f) f(num/den) by homogeneous Horner; for den > 0 it has the
    sign of f(num/den)."""
    acc, scale = 0, 1
    for c in reversed(f):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _enclosure(f, l: int, h: int, e: int) -> tuple[int, int]:
    """Interval Horner enclosure of the integer polynomial f over the cell
    [l/e, h/e], times e^len(f): (lo, hi) <- (min, max) of the products
    of (lo, hi) with the endpoints, plus the next coefficient. After k
    coefficients the pair is kept times e^k, a positive constant, which
    keeps every min and max."""
    lo = hi = 0
    scale = 1
    for c in reversed(f):
        scale *= e
        products = (lo * l, lo * h, hi * l, hi * h)
        lo, hi = min(products) + c * scale, max(products) + c * scale
    return lo, hi


def _sign_variations(chain: list[tuple[int, ...]], num: int, den: int) -> int:
    count, last = 0, 0
    for member in chain:
        v = _value(member, num, den)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def has_only_simple_real_roots(f: tuple[int, ...]) -> bool:
    """Whether the integer polynomial f of degree m >= 1, constant term
    first, has m distinct real roots: it is then squarefree and totally real.

    Hermite's criterion (1856; Basu, Pollack & Roy, ch. 4): this holds
    exactly when the Hankel matrix (t_{i+j}) of the root power sums is
    positive definite. The sums are taken for the monic transform, whose
    roots are lc(f) times those of f, so they are integers (Newton's
    identities) and the matrix is congruent to Hermite's. Its leading
    principal minors are the pivots of fraction-free elimination with no
    pivoting (Bareiss 1968), in closed form up to m = 4, and the test stops
    at the first one <= 0 (Sylvester's criterion). f must end in its
    nonzero leading coefficient.

    >>> has_only_simple_real_roots((-2, 4, -1, -2, 1))  # (x - 1)^2 (x^2 - 2)
    False
    >>> has_only_simple_real_roots((2, 1, 2, 1))  # (x + 2)(x^2 + 1)
    False
    >>> has_only_simple_real_roots((-1, 1, 0))
    Traceback (most recent call last):
    ...
    latcert.errors.InvalidInputError: the real-root test needs a nonzero leading coefficient
    """
    if len(f) < 2:
        raise InvalidInputError("the real-root test needs a nonconstant polynomial")
    if f[-1] == 0:
        raise InvalidInputError("the real-root test needs a nonzero leading coefficient")
    return _hankel_is_positive_definite(_power_sums(_monic_transform(f)))


def _power_sums(g: tuple[int, ...]) -> list[int]:
    """The power sums t_0 ... t_{2m-2} of the roots of the monic integer
    polynomial g of degree m >= 1, by Newton's identities. The constant term
    g_0 first enters at t_m, and only linearly: each product g_0 t_j with
    j <= m - 2 stays clear of g_0, so every t_k is affine in g_0."""
    m = len(g) - 1
    t = [m]
    for k in range(1, 2 * m - 1):
        s = -k * g[m - k] if k <= m else 0
        for i in range(1, min(k, m + 1)):
            s -= g[m - i] * t[k - i]
        t.append(s)
    return t


def _hankel_is_positive_definite(t: list[int]) -> bool:
    """Whether the Hankel matrix (t_{i+j}) of t_0 ... t_{2m-2} is positive
    definite: `_hankel_run` on the one matrix."""
    return bool(_hankel_run(t, [0] * len(t), (0,)))


def _hankel_run(base: list[int], slope: list[int], values: Iterable[int]) -> list[int]:
    """The values a, in the given order and up to the end of their first
    run, for which the m x m Hankel matrix (t_{i+j}) of t = base + a slope
    is positive definite. slope_i = 0 for i < m, so t_0 ... t_{m-1} are the
    same for every a.

    The test is Bareiss elimination with no pivoting, stopped at the first
    leading principal minor <= 0 (Sylvester's criterion). Up to m = 4 the
    pivots are written out: b_ij = t_0 t_{i+j} - t_i t_j are the 2 x 2
    minors on rows and columns {0, i} and {0, j}, c_ij the 3 x 3 ones on
    {0, 1, i} and {0, 1, j}, and the pivots are t_0, b_11,
    c_22 = (b_11 b_22 - b_12^2) / t_0 and (c_22 c_33 - c_23^2) / b_11. The
    pivots that read only t_0 ... t_{m-1}, t_0 and from m = 3 b_11, are
    taken once, and no value passes when one is <= 0. Each trailing pivot
    is read as its numerator over the positive t_0 or t_0^2 b_11, which has
    its sign. The terms those numerators are built from, b_12 and b_11 b_22
    at m = 3, and t_0 c_22, t_0 c_23, b_13 and b_11 b_33 at m = 4, are
    affine in a. So their values at a = 0 and their slopes, and with them
    every product of the fixed sums, are taken once per scan, and the loop
    over the values forms only the numerators, with no list and no call.
    Above m = 4 the first step, whose entries b_ij are affine in a, is
    taken once, and the rest of the elimination runs per value.

    In `search.candidate_polynomials` t are the power sums of a prefix
    h + a whose derivative h' passed the test, so has m - 1 simple real
    roots. By Rolle's theorem h + a has m of them exactly when -a lies
    above every local minimum of h and below every local maximum, and
    those a form one run: stopping at its end loses none.
    """
    m = (len(base) + 1) // 2
    t0 = base[0]
    if t0 <= 0:
        return []
    if m == 1:
        return list(values)
    run = []
    t1 = base[1]
    if m == 2:
        b11, db11 = t0 * base[2] - t1 * t1, t0 * slope[2]
        for a in values:
            if b11 + a * db11 > 0:
                run.append(a)
            elif run:
                break
        return run
    if m <= 4:
        t2 = base[2]
        b11 = t0 * t2 - t1 * t1
        if b11 <= 0:
            return []
        if m == 3:
            # t_0 c_22 = b_11 b_22 - b_12^2, with b_12 and b_22 affine in a
            b12, db12 = t0 * base[3] - t1 * t2, t0 * slope[3]
            b11b22, db11b22 = b11 * (t0 * base[4] - t2 * t2), b11 * t0 * slope[4]
            for a in values:
                b = b12 + a * db12
                if b11b22 + a * db11b22 > b * b:
                    run.append(a)
                elif run:
                    break
            return run
        # c22 and c23 are t_0 c_22 and t_0 c_23, and c33 is
        # t_0 c_33 + b_13^2, its part affine in a; b_13 and b_22 share the
        # slope t_0 s_4
        t3 = base[3]
        b12 = t0 * t3 - t1 * t2
        t0t4, dt4, dt5, dt6 = t0 * base[4], t0 * slope[4], t0 * slope[5], t0 * slope[6]
        b13 = t0t4 - t1 * t3
        b23 = t0 * base[5] - t2 * t3
        c22, dc22 = b11 * (t0t4 - t2 * t2) - b12 * b12, b11 * dt4
        c23, dc23 = b11 * b23 - b12 * b13, b11 * dt5 - b12 * dt4
        c33, dc33 = b11 * (t0 * base[6] - t3 * t3), b11 * dt6
        for a in values:
            pivot = c22 + a * dc22
            if pivot > 0:
                # b_13 and t_0 c_23 at a
                b = b13 + a * dt4
                c = c23 + a * dc23
                if pivot * (c33 + a * dc33 - b * b) > c * c:
                    run.append(a)
                    continue
            if run:
                break
        return run
    # The matrix stays symmetric, so only its upper triangle is kept: after
    # the first step, rows[i - 1] holds b_ij for j = i ... m - 1.
    fixed = [[t0 * base[i + j] - base[i] * base[j] for j in range(i, m)] for i in range(1, m)]
    moving = [[t0 * slope[i + j] for j in range(i, m)] for i in range(1, m)]

    def passes(a):
        rows = [[f + a * g for f, g in zip(fs, gs)] for fs, gs in zip(fixed, moving)]
        previous = t0
        for k, pivot_row in enumerate(rows):
            pivot = pivot_row[0]
            if pivot <= 0:
                return False
            for i in range(k + 1, m - 1):
                row, shift = rows[i], i - k
                lead = pivot_row[shift]
                for j in range(m - 1 - i):
                    row[j] = (row[j] * pivot - lead * pivot_row[j + shift]) // previous
            previous = pivot
        return True

    for a in values:
        if passes(a):
            run.append(a)
        elif run:
            break
    return run


def _bisect_cells(chain: list[tuple[int, ...]], lo: int, hi: int, den: int) -> list[list[int]]:
    # chain[0] is squarefree with no rational roots, so midpoints are never
    # roots and every Sturm count on (a, b] is trustworthy with untouched
    # endpoints. The count of a cell is V(a) - V(b).
    out = []
    stack = [(lo, hi, den, _sign_variations(chain, lo, den), _sign_variations(chain, hi, den))]
    while stack:
        a, b, d, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            out.append([a, b, d])
            continue
        m = a + b
        vm = _sign_variations(chain, m, 2 * d)
        stack.append((2 * a, m, 2 * d, va, vm))
        stack.append((m, 2 * b, 2 * d, vm, vb))
    return out


def _isolating_cells(reduced: tuple[int, ...], rats: list[tuple[int, int]]) -> list[list[int]]:
    """Ascending, pairwise-disjoint cells in lowest terms: the point cell
    [num, num, den] for each rational root (num, den) in rats, and one
    bracket per real root of reduced, a squarefree integer polynomial with
    no rational root."""
    cells: list[list[int]] = []
    if len(reduced) > 1:
        # Cauchy's bound B = 1 + max |c_i| / |lead| = bound / lead, so every
        # real root lies strictly inside (-B, B).
        lead = abs(reduced[-1])
        bound = lead + max(abs(c) for c in reduced[:-1])
        cells = _bisect_cells(_sturm_chain(reduced), -bound, bound, lead)
        # Shrink each bracket until it traps no rational root; the bracketed
        # root is irrational, so bisection always separates.
        for cell in cells:
            while any(cell[0] * den <= num * cell[2] <= cell[1] * den for num, den in rats):
                _halve(reduced, cell)

    items = [[num, num, den] for num, den in rats] + cells
    items.sort(key=_ASCENDING)
    # Closed intervals must be pairwise disjoint; keep halving offenders.
    done = False
    while not done:
        done = True
        for i in range(len(items) - 1):
            (a, b, d), (a2, b2, d2) = items[i], items[i + 1]
            if b * d2 >= a2 * d:
                done = False
                target = i if (b - a) * d2 >= (b2 - a2) * d else i + 1
                if items[target][0] == items[target][1]:
                    target = i + 1 if target == i else i
                _halve(reduced, items[target])
        items.sort(key=_ASCENDING)
    for cell in items:
        g = math.gcd(*cell)
        cell[:] = (c // g for c in cell)
    return items


def _halve(q: tuple[int, ...], cell: list[int]) -> None:
    # Replace the cell [a/d, b/d] by the half where q changes sign; q is
    # nonzero at the midpoint (a + b) / 2d.
    a, b, d = cell
    m = a + b
    qa, qm = _value(q, a, d), _value(q, m, 2 * d)
    assert qm != 0, "midpoint cannot be a root: rational roots were deflated"
    cell[:] = (2 * a, m, 2 * d) if (qa > 0) != (qm > 0) else (m, 2 * b, 2 * d)


def _has_integer_root(q: tuple[int, ...]) -> bool:
    """Whether the monic integer polynomial q, constant term first, has an
    integer root; q is monic, so these are all its rational roots.

    0 is a root exactly when q_0 = 0. Any other root r divides q_0, and one
    of |r| and |q_0| / |r| is at most isqrt|q_0|: the test tries +-d and
    +-|q_0| / d for each divisor d <= isqrt|q_0|, and stops at the first
    root. Its cost is about sqrt|q_0| trial divisions, and it factors no
    integer. So its only inputs are the field filter's, whose box bounds
    |q_0|: by B for a candidate f, and by B^3 + 5B^2 for a quartic's
    resolvent cubic (`_resolvent`).

    >>> _has_integer_root((6, -5, 1))  # (x - 2)(x - 3)
    True
    >>> _has_integer_root((-7, 1, -7, 1))  # (x - 7)(x^2 + 1): 7 = 7 / 1
    True
    >>> _has_integer_root((-5, 0, -4, 0, 1))  # (x^2 - 5)(x^2 + 1)
    False
    """
    q0 = abs(q[0])
    if q0 == 0:
        return True
    for d in range(1, math.isqrt(q0) + 1):
        if q0 % d == 0:
            e = q0 // d
            for x in (d, -d, e, -e):
                if _value(q, x, 1) == 0:
                    return True
    return False


def _over_common_denominator(x: Fraction, y: Fraction) -> tuple[int, int, int]:
    d = math.lcm(x.denominator, y.denominator)
    return x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d


def _ascending(x: list[int], y: list[int]) -> int:
    # Order cells [a, b, d] by (a/d, b/d).
    lhs, rhs = x[0] * y[2], y[0] * x[2]
    if lhs == rhs:
        lhs, rhs = x[1] * y[2], y[1] * x[2]
    return (lhs > rhs) - (lhs < rhs)


_ASCENDING = functools.cmp_to_key(_ascending)


# ---------------------------------------------------------------------------
# Factoring over Z and irreducibility over Q


def squarefree_factors(f: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Irreducible factors over Z of a monic integer polynomial, or None
    when it has a repeated factor.

    f has a repeated factor exactly when Res(f, f') = 0. Otherwise ell is
    the first prime that does not divide Res(f, f'), which for monic f is
    the first prime that keeps f squarefree mod ell. The integer roots come
    first, by the ell-adic Newton lift of each root mod ell (`_integer_roots`;
    Loos 1983). A cofactor of degree <= 3 is then irreducible, and so is a
    quartic one whose resolvent cubic R (`_resolvent`) has no integer root,
    since with no integer root it could only split into two monic integer
    quadratics. disc R = disc f, so R is squarefree mod the same ell and its
    integer roots come from the same lift: no integer is factored, whatever
    the size of the coefficients. Any other goes
    through Zassenhaus's algorithm (1969; Cohen, GTM 138, 3.5) at the same
    ell: factor it mod ell (a single factor proves it irreducible),
    Hensel-lift every factor past twice a Mignotte-type bound on the
    coefficients of any factor over Z, and combine subsets of the lifted
    factors, keeping a product only when it divides what is left exactly.
    Coefficient tuples are constant term first; the factors are monic,
    sorted by (degree, coefficients).

    >>> squarefree_factors((-1, 0, 0, 0, 1))
    [(-1, 1), (1, 1), (1, 0, 1)]
    >>> squarefree_factors((2, -3, -3, 2, 1))  # resolvent without an integer root
    [(2, -3, -3, 2, 1)]
    >>> squarefree_factors((1, 2, 1)) is None
    True
    """
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise InvalidInputError("factoring over Z needs a monic polynomial of degree >= 1")
    f = tuple(f)
    if n == 1:
        return [f]
    disc = resultant_int(f, _derivative(f))
    if disc == 0:
        return None
    ell = _good_prime(disc)
    factors = [(-r, 1) for r in _integer_roots(f, ell)]
    for g in factors:
        f = _exact_div(f, g)
    n = len(f) - 1
    # Without an integer root a monic cubic or quadratic is irreducible, and
    # so is a quartic whose resolvent has no integer root, or a cofactor
    # that stays one block mod ell.
    if n <= 3 or (n == 4 and not _integer_roots(_resolvent(f), ell)):
        blocks = [f]
    else:
        blocks = [g for g, _ in modular.factor_monic(f, ell)]
    if len(blocks) == 1:
        return sorted(factors + [f] * (n > 0), key=lambda g: (len(g), g))
    # A proper monic factor g of f has |g_j| <= C(deg g, j) M(g) <= 2^(n-1) |f|_2
    # (Mignotte; the Mahler measure M(g) is at most M(f) <= |f|_2).
    bound = 2 ** (n - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    precision = 1
    while ell**precision <= 2 * bound:
        precision += 1
    modulus = ell**precision
    lifted = modular.hensel_lift_blocks(f, blocks, ell, precision)

    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            g = (1,)
            for i in subset:
                g = modular.mul(g, lifted[i], modulus)
            g = tuple(c - modulus if 2 * c > modulus else c for c in g)
            if not _prem(f, g):  # g is monic: the plain remainder
                factors.append(g)
                f = _exact_div(f, g)
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    factors.append(f)
    return sorted(factors, key=lambda g: (len(g), g))


def _good_prime(disc: int) -> int:
    """The first prime that does not divide disc != 0: a monic integer
    polynomial of discriminant disc stays squarefree modulo it."""
    return next(p for p in itertools.count(2) if disc % p and is_prime(p))


def _integer_roots(f: tuple[int, ...], ell: int) -> list[int]:
    # The integer roots of a monic integer f that is squarefree mod the prime
    # ell (Loos 1983): each root mod ell is simple, so Newton's iteration
    # lifts it past twice the Cauchy bound 1 + max|a_i| on |root|, and its
    # symmetric residue is kept when it is a root over Z.
    cauchy = 1 + max(map(abs, f))
    df = _derivative(f)
    roots = []
    for r in range(ell):
        if _value(f, r, 1) % ell:
            continue
        m = ell
        while m <= 2 * cauchy:
            m *= m
            r = (r - _value(f, r, 1) * pow(_value(df, r, 1), -1, m)) % m
        r = r - m if 2 * r > m else r
        if _value(f, r, 1) == 0:
            roots.append(r)
    return roots


def _resolvent(p: tuple[int, ...]) -> tuple[int, ...]:
    """The resolvent cubic
    R(x) = x^3 - b x^2 + (ac - 4e) x - (a^2 e - 4be + c^2) of the monic
    integer quartic p = x^4 + a x^3 + b x^2 + c x + e, both constant term
    first. The roots of R are a1 a2 + a3 a4, a1 a3 + a2 a4 and a1 a4 + a2 a3
    over the roots a_i of p, so disc R = disc p, and R is monic, so a
    rational root is an integer. If p = g h with g, h monic integer
    quadratics, g(0) + h(0) is one.
    """
    e, c, b, a, _ = p
    return (-(a * a * e - 4 * b * e + c * c), a * c - 4 * e, -b, 1)


def is_irreducible(p: Polynomial) -> bool:
    """Exact irreducibility over Q for degree >= 1.

    A polynomial of degree >= 2 is irreducible exactly when its primitive
    integer associate f, of leading coefficient a, turns into a single
    factor over Z under the monic transform a^(n-1) f(x/a), which is
    squarefree_factors' job. Never probabilistic.
    """
    n = p.degree()
    if n < 1:
        raise InvalidInputError("irreducibility is about degree >= 1")
    if n == 1:
        return True
    factors = squarefree_factors(_monic_transform(_integer_associate(p)))
    return factors is not None and len(factors) == 1
