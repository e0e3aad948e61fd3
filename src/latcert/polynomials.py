"""Exact univariate polynomial arithmetic over the rationals.

Everything here is exact and deterministic: resultants and discriminants
come from a sign-tracked Euclidean remainder sequence over Q, real roots
are isolated with Sturm counts plus exact extraction of rational roots, and
squarefree monic integer polynomials are factored over Z by Zassenhaus's
algorithm (factor modulo a prime, Hensel-lift, recombine), which also
decides irreducibility over Q. No floating point anywhere.

Coefficients are stored constant term first; the string form of
x^3 - x^2 - 3x + 1 is "1,-3,-1,1".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from . import modular
from .errors import InvalidInputError
from .intfactor import divisors, is_prime

Scalar = Union[int, Fraction]


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidInputError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class Polynomial:
    """Immutable rational polynomial, coefficients constant-term first."""

    coeffs: tuple[Fraction, ...]

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

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

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

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return self.to_string()

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(
            tuple(x + y for x, y in zip(a, b)) + a[len(b):]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    out[i + j] += x * y
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise InvalidInputError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise InvalidInputError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = len(other.coeffs)
        qdeg = len(rem) - dd
        if qdeg < 0:
            return Polynomial(), self
        inv = 1 / other.leading_coefficient()
        quot = [Fraction(0)] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            c = rem[i + dd - 1] * inv
            if c:
                quot[i] = c
                for j, y in enumerate(other.coeffs):
                    rem[i + j] -= c * y
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    # -- calculus and evaluation --------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- normal forms --------------------------------------------------------

    def monic(self) -> "Polynomial":
        if self.is_zero():
            raise InvalidInputError("cannot make the zero polynomial monic")
        return self * (1 / self.leading_coefficient())

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def primitive_integer(self) -> "Polynomial":
        """Integer-coefficient associate with content 1, leading sign kept."""
        if self.is_zero():
            return self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        return Polynomial(tuple(Fraction(c, g) for c in ints))

    def int_coeffs(self) -> tuple[int, ...]:
        """Coefficients as plain ints; error if any is fractional."""
        out = []
        for c in self.coeffs:
            if c.denominator != 1:
                raise InvalidInputError("polynomial has non-integer coefficients")
            out.append(c.numerator)
        return tuple(out)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q (gcd with zero returns the monic other operand)."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_part(p: Polynomial) -> Polynomial:
    """p with repeated roots collapsed: p / gcd(p, p').

    The gcd is monic, so the result keeps p's leading sign.
    """
    if p.is_zero():
        raise InvalidInputError("squarefree part of zero is undefined")
    if p.degree() < 1:
        return p
    g = polynomial_gcd(p, p.derivative())
    return p // g


def resultant(a: Polynomial, b: Polynomial) -> Fraction:
    """Resultant via a sign-carrying Euclidean remainder sequence.

    Res(a, b) = lc(b)^deg a when b is a nonzero constant; zero when the
    inputs share a root; Res(f, 0) = 0 by convention here (both zero is an
    error).

    >>> resultant(Polynomial((-2, 1)), Polynomial((-3, 1)))
    Fraction(-1, 1)
    """
    if a.is_zero() and b.is_zero():
        raise InvalidInputError("resultant of zero with zero")
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    acc = Fraction(1)
    while True:
        m, n = a.degree(), b.degree()
        if n == 0:
            return acc * b.leading_coefficient() ** m
        if m < n:
            if m & n & 1:
                acc = -acc
            a, b = b, a
            continue
        r = a % b
        if r.is_zero():
            return Fraction(0)
        acc *= b.leading_coefficient() ** (m - r.degree())
        if m & n & 1:
            acc = -acc
        a, b = b, r


def discriminant(p: Polynomial) -> Fraction:
    """Discriminant of p, degree >= 1, exact.

    >>> discriminant(Polynomial.from_string("1,-3,-1,1"))
    Fraction(148, 1)
    """
    n = p.degree()
    if n < 1:
        raise InvalidInputError("discriminant needs degree >= 1")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading_coefficient()


# ---------------------------------------------------------------------------
# Real root machinery


@dataclass(frozen=True)
class Interval:
    """Closed rational interval; degenerate (lo == hi) pins an exact root."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = _coerce(self.lo), _coerce(self.hi)
        if lo > hi:
            raise InvalidInputError(f"interval endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _sturm_chain(q: Polynomial) -> list[Polynomial]:
    # q must be squarefree. Members are scaled to primitive integer form;
    # positive scaling leaves every sign evaluation unchanged.
    chain = [q.primitive_integer()]
    d = q.derivative()
    if not d.is_zero():
        chain.append(d.primitive_integer())
        while chain[-1].degree() > 0:
            r = -(chain[-2] % chain[-1])
            if r.is_zero():
                break
            chain.append(r.primitive_integer())
    return chain


def _sign_variations(chain: list[Polynomial], x: Fraction) -> int:
    signs = []
    for member in chain:
        v = member(x)
        if v:
            signs.append(v > 0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_count(p: Polynomial, interval: Interval) -> int:
    """Number of distinct real roots of p in the half-open (lo, hi].

    Roots sitting exactly on an endpoint are handled by deflating the
    rational linear factor, so endpoint hits are counted exactly (hi in,
    lo out) rather than perturbed away.
    """
    if p.is_zero():
        raise InvalidInputError("root counting needs a nonzero polynomial")
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return 0
    q = squarefree_part(p)
    extra = 0
    if q(lo) == 0:
        q = q // Polynomial((-lo, 1))
    if q(hi) == 0:
        q = q // Polynomial((-hi, 1))
        extra = 1
    if q.degree() < 1:
        return extra
    chain = _sturm_chain(q)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi) + extra


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """B with every real root of p strictly inside (-B, B)."""
    if p.degree() < 1:
        raise InvalidInputError("root bound needs degree >= 1")
    lead = abs(p.leading_coefficient())
    return 1 + max(abs(c) / lead for c in p.coeffs[:-1])


def rational_roots(p: Polynomial) -> list[Fraction]:
    """Sorted distinct rational roots of nonzero p, by exact testing."""
    if p.is_zero():
        raise InvalidInputError("rational roots of the zero polynomial")
    q = squarefree_part(p).primitive_integer()
    roots: set[Fraction] = set()
    if q.degree() >= 1 and q(0) == 0:
        roots.add(Fraction(0))
        q = q // Polynomial.x()
    if q.degree() >= 1:
        ints = q.int_coeffs()
        for num in divisors(ints[0]):
            for den in divisors(ints[-1]):
                if math.gcd(num, den) != 1:
                    continue
                cand = Fraction(num, den)
                if q(cand) == 0:
                    roots.add(cand)
                if q(-cand) == 0:
                    roots.add(-cand)
    return sorted(roots)


def _bisect_cells(q: Polynomial, chain: list[Polynomial], lo: Fraction, hi: Fraction) -> list[list[Fraction]]:
    # q squarefree with no rational roots, so midpoints are never roots and
    # every Sturm count on (lo, hi] is trustworthy with untouched endpoints.
    def count(a: Fraction, b: Fraction) -> int:
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    out = []
    stack = [(lo, hi, count(lo, hi))]
    while stack:
        a, b, c = stack.pop()
        if c == 0:
            continue
        if c == 1:
            out.append([a, b])
            continue
        m = (a + b) / 2
        cl = count(a, m)
        stack.append((a, m, cl))
        stack.append((m, b, c - cl))
    return out


def _halve_toward_root(q: Polynomial, cell: list[Fraction]) -> None:
    # One bisection step keeping the sign change of q; q has exactly one
    # root strictly inside the cell and is nonzero at rational points.
    a, b = cell
    m = (a + b) / 2
    qa, qm = q(a), q(m)
    assert qm != 0, "midpoint cannot be a root: rational roots were deflated"
    if (qa > 0) != (qm > 0):
        cell[1] = m
    else:
        cell[0] = m


def isolate_real_roots(p: Polynomial) -> tuple[Interval, ...]:
    """Pairwise-disjoint closed intervals, one per distinct real root.

    Rational roots come back as exact degenerate intervals; irrational
    roots get open-interior brackets with rational endpoints that are
    never roots themselves. Sorted ascending.
    """
    if p.is_zero():
        raise InvalidInputError("cannot isolate roots of the zero polynomial")
    if p.degree() < 1:
        return ()
    q = squarefree_part(p)
    rats = rational_roots(q)
    reduced = q
    for r in rats:
        reduced = reduced // Polynomial((-r, 1))

    cells: list[list[Fraction]] = []
    if reduced.degree() >= 1:
        bound = cauchy_root_bound(reduced)
        chain = _sturm_chain(reduced)
        cells = _bisect_cells(reduced, chain, -bound, bound)
        # Shrink each bracket until it traps no rational root of p; the
        # bracketed root is irrational, so bisection always separates.
        for cell in cells:
            while any(cell[0] <= r <= cell[1] for r in rats):
                _halve_toward_root(reduced, cell)

    items: list[Interval] = [Interval(r, r) for r in rats]
    items.extend(Interval(a, b) for a, b in cells)
    items.sort(key=lambda iv: (iv.lo, iv.hi))

    # Closed intervals must be pairwise disjoint; keep halving offenders.
    done = False
    while not done:
        done = True
        for i in range(len(items) - 1):
            left, right = items[i], items[i + 1]
            if left.hi >= right.lo:
                done = False
                target = i if left.width >= right.width else i + 1
                if items[target].is_point():
                    target = i + 1 if target == i else i
                cell = [items[target].lo, items[target].hi]
                _halve_toward_root(reduced, cell)
                items[target] = Interval(cell[0], cell[1])
        items.sort(key=lambda iv: (iv.lo, iv.hi))
    return tuple(items)


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
    if interval.is_point():
        if p(interval.lo) != 0:
            raise InvalidInputError("degenerate interval is not a root")
        return interval
    q = squarefree_part(p)
    lo, hi = interval.lo, interval.hi
    qlo, qhi = q(lo), q(hi)
    if qlo == 0:
        return Interval(lo, lo)
    if qhi == 0:
        return Interval(hi, hi)
    if (qlo > 0) == (qhi > 0):
        raise InvalidInputError("interval does not bracket a sign change of the squarefree part")
    while hi - lo > width:
        m = (lo + hi) / 2
        qm = q(m)
        if qm == 0:
            return Interval(m, m)
        if (qlo > 0) != (qm > 0):
            hi = m
        else:
            lo, qlo = m, qm
    return Interval(lo, hi)


def interval_value_range(p: Polynomial, interval: Interval) -> tuple[Fraction, Fraction]:
    """Exact interval-arithmetic enclosure of p over a closed interval."""
    lo = hi = Fraction(0)
    for c in reversed(p.coeffs):
        products = (
            lo * interval.lo,
            lo * interval.hi,
            hi * interval.lo,
            hi * interval.hi,
        )
        lo, hi = min(products) + c, max(products) + c
    return lo, hi


# ---------------------------------------------------------------------------
# Factoring over Z and irreducibility over Q

_FACTOR_PRIMES = 5  # usable primes compared before one is chosen


def squarefree_factors(f: tuple[int, ...]) -> list[tuple[int, ...]] | None:
    """Irreducible factors over Z of a monic integer polynomial, or None
    when it has a repeated factor.

    Zassenhaus's algorithm (1969; Cohen, GTM 138, 3.5): among the first few
    primes modulo which f stays squarefree, take the one where f has the
    fewest irreducible factors; factor f there, Hensel-lift every factor to
    a modulus above twice a Mignotte-type bound on the coefficients of any
    factor over Z, and combine subsets of the lifted factors, keeping a
    product only when it divides what is left of f exactly. Coefficient
    tuples are constant term first; the factors are monic, sorted by
    (degree, coefficients).

    >>> squarefree_factors((-1, 0, 0, 0, 1))
    [(-1, 1), (1, 1), (1, 0, 1)]
    >>> squarefree_factors((1, 2, 1)) is None
    True
    """
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise InvalidInputError("factoring over Z needs a monic polynomial of degree >= 1")
    f = tuple(f)
    if n == 1:
        return [f]
    # A proper monic factor g of f has |g_j| <= C(deg g, j) M(g) <= 2^(n-1) |f|_2
    # (Mignotte; the Mahler measure M(g) is at most M(f) <= |f|_2).
    bound = 2 ** (n - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    best = None
    ell, usable = 1, 0
    squarefree = False
    while usable < _FACTOR_PRIMES:
        ell += 1
        if not is_prime(ell):
            continue
        fbar = modular.normalize(f, ell)
        if modular.degree(modular.gcd_poly(fbar, modular.deriv(fbar, ell), ell)) > 0:
            # Squarefree modulo one prime proves f squarefree over Q; until
            # such a prime turns up, settle it once by an exact gcd.
            if not squarefree:
                fq = Polynomial(f)
                if polynomial_gcd(fq, fq.derivative()).degree() > 0:
                    return None
                squarefree = True
            continue
        squarefree = True
        count = len(modular.degree_pattern(fbar, ell))
        if count == 1:
            return [f]
        usable += 1
        if best is None or count < best[0]:
            best = (count, ell)
    ell = best[1]
    precision = 1
    while ell**precision <= 2 * bound:
        precision += 1
    modulus = ell**precision
    blocks = [g for g, _ in modular.factor_monic(f, ell)]
    lifted = modular.hensel_lift_blocks(f, blocks, ell, precision)

    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            g = (1,)
            for i in subset:
                g = modular.mul(g, lifted[i], modulus)
            g = tuple(c - modulus if 2 * c > modulus else c for c in g)
            quotient, remainder = divmod(Polynomial(f), Polynomial(g))
            if remainder.is_zero():
                factors.append(g)
                f = quotient.int_coeffs()  # g is monic, so the quotient is integral
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    factors.append(f)
    return sorted(factors, key=lambda g: (len(g), g))


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
    ints = p.primitive_integer().int_coeffs()
    lead = ints[-1]
    monic = tuple(c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])) + (1,)
    factors = squarefree_factors(monic)
    return factors is not None and len(factors) == 1
