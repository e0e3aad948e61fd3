"""Number fields presented by a monic irreducible integer polynomial.

A field is its integer polynomial (int_poly) and an element its power-basis
coordinates as integer numerators over one positive denominator in lowest
terms (num, den), so all arithmetic is exact on the integer core of
polynomials: the norm is the determinant of the multiplication matrix (Cohen,
GTM 138, 4.2) and the inverse solves it by Cramer's rule. The real places are
the isolated real roots of the defining polynomial in ascending order, and a
real place is its index j in that order. Each is one immutable integer cell
(a, b, d) = [a/d, b/d], a function of the polynomial alone: the isolating
cell (Collins & Akritas 1976), halved until 0 lies outside it. The sign of
an element at a place is decided by an integer interval enclosure of its
numerators over a private copy of that cell, halving the copy while the
enclosure straddles zero; rational intervals are built only for
`real_place_intervals`. A CM extension F(sqrt(delta)) is carried as its
totally real base field and a totally negative delta in it.

Automorphism counts are exact too. Degrees up to 3 are decided by the
discriminant. From degree 4 on a sieve bounds the count from above by the
number of roots of the defining polynomial in F_l, found by evaluating it at
0, ..., l - 1, for small unramified primes l, and a bound of 1 settles it.
Otherwise Trager's norm method counts the roots of the defining polynomial
in the field by factoring one integer polynomial over Z.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InvalidInputError
from .frozen import Frozen
from .polynomials import (
    Interval,
    Polynomial,
    _bareiss_det,
    _coerce,
    _enclosure,
    _halve,
    _isolating_cells,
    _multiplication_columns,
    _poly_mul,
    _reduce_monic,
    _value,
    discriminant,
    is_irreducible,
    resultant_int,
    squarefree_factors,
)

# Primes tried by the automorphism sieve (Cohen, GTM 138, ch. 6); those
# dividing the discriminant are skipped.
_AUTOMORPHISM_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_set = object.__setattr__


def is_rational_square(q: Union[int, Fraction]) -> bool:
    """Exact test for q being the square of a rational."""
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def _real_root_cells(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # One integer cell (a, b, d) = [a/d, b/d] per real root of the monic
    # irreducible p, ascending (the canonical place indexing).
    if len(p) == 2:
        # p is x + c, whose one root -c is the point cell.
        return ((-p[0], -p[0], 1),)
    # Irreducible of degree >= 2: squarefree and without a rational root,
    # so halving each isolating cell until 0 lies outside it terminates.
    # That is where the generator's sign at the place is decided.
    cells = _isolating_cells(p, [])
    for cell in cells:
        while cell[0] <= 0 <= cell[1]:
            _halve(p, cell)
    return tuple(tuple(cell) for cell in cells)


class NumberField(Frozen):
    """Q[x]/(min_poly) for monic irreducible min_poly with integer coefficients.

    Equality and hashing read `int_poly`, min_poly as integers, constant term
    first; the other fields follow from it and are set once, on construction.
    """

    __slots__ = ("min_poly", "int_poly", "discriminant", "_root_cells", "_hash")

    def __init__(self, min_poly: Polynomial):
        p = min_poly
        if p.degree() < 1:
            raise InvalidInputError("defining polynomial must have degree >= 1")
        if not p.is_monic():
            raise InvalidInputError("defining polynomial must be monic")
        ints = p.int_coeffs()  # raises on fractional coefficients
        if not is_irreducible(p):
            raise InvalidInputError("defining polynomial is reducible over Q")
        _set(self, "min_poly", p)
        _set(self, "int_poly", ints)
        _set(self, "discriminant", discriminant(p))
        _set(self, "_root_cells", _real_root_cells(ints))
        _set(self, "_hash", hash((ints,)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.int_poly == other.int_poly

    def __hash__(self):
        return self._hash

    @property
    def degree(self) -> int:
        return len(self.int_poly) - 1

    @property
    def real_place_count(self) -> int:
        return len(self._root_cells)

    def real_place_intervals(self) -> tuple[Interval, ...]:
        """Isolating interval per real place, ascending, with 0 outside each
        one of a field of degree >= 2; sign evaluations never change them."""
        return tuple(Interval(Fraction(a, d), Fraction(b, d)) for a, b, d in self._root_cells)

    def is_totally_real(self) -> bool:
        return self.real_place_count == self.degree

    # -- element constructors ------------------------------------------------

    def element(self, coords) -> "FieldElement":
        coords = [_coerce(c) for c in coords]
        den = math.lcm(*(c.denominator for c in coords))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in coords), den)

    def from_rational(self, c: Union[int, Fraction]) -> "FieldElement":
        return self.element((c,) + (0,) * (self.degree - 1))

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def _coerce(self, value) -> "FieldElement":
        """value as an element of this field: an element of it, or a rational."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise InvalidInputError("elements of different fields")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_rational(value)
        raise InvalidInputError(f"cannot coerce {type(value).__name__} into the field")

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            return self.from_rational(-self.int_poly[0])
        return self.element((0, 1) + (0,) * (self.degree - 2))

    def __str__(self) -> str:
        return f"Q[x]/({self.min_poly})"


class FieldElement(Frozen):
    """Element of a NumberField: power-basis coordinates num/den in lowest
    terms with den > 0, the one form that equality and hashing read.
    `NumberField.element` builds one from rational coordinates."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        if len(num) != field.degree:
            raise InvalidInputError(f"expected {field.degree} coordinates, got {len(num)}")
        if type(num) is not tuple or any(type(c) is not int for c in (den, *num)):
            raise InvalidInputError("an element is a tuple of int numerators over an int")
        if den <= 0 or math.gcd(den, *num) != 1:
            raise InvalidInputError("an element needs den > 0 and gcd(den, *num) == 1")
        _set(self, "field", field)
        _set(self, "num", num)
        _set(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.field == other.field

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates num[i] / den as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _reduced(self, num, den: int) -> "FieldElement":
        """num/den for den != 0, as an element of this field in lowest terms.

        num holds field.degree ints, so the result meets every check of the
        constructor, which it skips."""
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        out = object.__new__(FieldElement)
        _set(out, "field", self.field)
        _set(out, "num", tuple(c // g for c in num))
        _set(out, "den", den // g)
        return out

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- ring structure --------------------------------------------------------

    def __add__(self, other) -> "FieldElement":
        o = self.field._coerce(other)
        m, k = self.den, o.den
        return self._reduced([a * k + b * m for a, b in zip(self.num, o.num)], m * k)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        return self + (-self.field._coerce(other))

    def __rsub__(self, other) -> "FieldElement":
        return self.field._coerce(other) - self

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other) -> "FieldElement":
        o = self.field._coerce(other)
        prod = _reduce_monic(_poly_mul(self.num, o.num), self.field.int_poly)
        return self._reduced(prod, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise InvalidInputError("inverting zero")
        # Cramer's rule on M w = e_0 for the multiplication matrix M of num,
        # so w = 1/num; _bareiss_det overwrites its rows, hence fresh copies.
        columns = _multiplication_columns(self.field.int_poly, self.num)
        det = _bareiss_det([c[:] for c in columns])
        num = []
        for i in range(len(columns)):
            rows = [c[:] for c in columns]
            rows[i] = [1] + [0] * (len(columns) - 1)
            num.append(self.den * _bareiss_det(rows))
        return self._reduced(num, det)

    def __truediv__(self, other) -> "FieldElement":
        return self * self.field._coerce(other).inverse()

    def __rtruediv__(self, other) -> "FieldElement":
        return self.field._coerce(other) / self

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- arithmetic invariants ---------------------------------------------------

    def norm(self) -> Fraction:
        """Field norm to Q: the product of all conjugate values, exact."""
        return Fraction(resultant_int(self.field.int_poly, self.num), self.den**self.field.degree)

    def is_unit(self) -> bool:
        """Unit of the polynomial order: integral coordinates, norm +-1."""
        if self.den != 1:
            raise InvalidInputError("unit test requires integral coordinates")
        return abs(self.norm()) == 1

    def sign_at(self, j: int) -> int:
        """Exact sign of this element under the j-th real embedding; j is a
        plain int (not a bool) in range(real_place_count)."""
        if type(j) is not int or not 0 <= j < self.field.real_place_count:
            raise InvalidInputError(f"no real place with index {j!r}")
        # The numerators are a positive multiple of the element, so they have
        # the same signs.
        z = self.num
        if not any(z):
            return 0
        # Over a point cell, the root of a degree-1 field, the enclosure is
        # the exact value and decides at once.
        cell = list(self.field._root_cells[j])
        while True:
            lo, hi = _enclosure(z, *cell)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # The enclosure straddles zero: halve this call's copy of the
            # cell; the field's cells never change. A nonzero element never
            # evaluates to zero at a root of an irreducible polynomial, so
            # this terminates; irreducibility also keeps every rational
            # midpoint off the root.
            _halve(self.field.int_poly, cell)

    def signs(self) -> tuple[int, ...]:
        return tuple(self.sign_at(j) for j in range(self.field.real_place_count))

    def is_totally_negative(self) -> bool:
        return all(s == -1 for s in self.signs())

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


# ---------------------------------------------------------------------------
# Automorphism counting


def automorphism_count(field: NumberField) -> int:
    """Number of field automorphisms, as roots of min_poly inside the field.

    Degrees 1-3 are decided exactly (an irreducible cubic is Galois exactly
    when its discriminant is a rational square). From degree 4 on the exact
    mod-l sieve (`_automorphism_upper_bound`) bounds the count from above,
    and a bound of 1 is returned at once. Otherwise the count comes from
    Trager's norm method (Trager 1976; Cohen, GTM 138, 3.6.2): when
    N_s(x) = Res_y(p(y), p(x - s*y)) is squarefree, the factors of p over F
    of degree k correspond one to one to the factors of N_s over Q of degree
    n*k. So, for the smallest shift s >= 2 with N_s squarefree, the count is
    the number of degree-n factors of N_s over Q. Exact at every degree,
    with or without real places.
    """
    d = field.degree
    if d == 1:
        return 1
    if d == 2:
        return 2
    if d == 3:
        return 3 if is_rational_square(field.discriminant) else 1
    if _automorphism_upper_bound(field) == 1:
        return 1
    p = field.int_poly
    # s = 1 never works: alpha_i + alpha_j is symmetric in i and j. Only
    # finitely many s make two of the roots alpha_j + s*alpha_i collide.
    s = 2
    while (factors := squarefree_factors(_shifted_norm(p, s))) is None:
        s += 1
    return sum(1 for g in factors if len(g) == d + 1)


def _automorphism_upper_bound(field: NumberField) -> int:
    """Exact upper bound on the automorphism count of a degree >= 2 field.

    For a prime l not dividing the discriminant, min_poly is squarefree mod
    l, so each of its roots mod l, found by evaluating it at 0, ..., l - 1,
    is simple and, by Hensel's lemma, lifts to exactly one root in Q_l. If
    there is such a root, F has a degree-1 place at l and embeds in Q_l,
    which maps the roots of min_poly in F injectively to roots in Q_l.
    Their number, the automorphism count, is then at most the number of
    roots mod l. Primes without a root mod l say nothing and are skipped.
    """
    disc = field.discriminant.numerator
    ints = field.int_poly
    bound = field.degree
    for ell in _AUTOMORPHISM_SIEVE_PRIMES:
        if disc % ell == 0:
            continue
        roots = sum(1 for x in range(ell) if _value(ints, x, 1) % ell == 0)
        if roots:
            bound = min(bound, roots)
            if bound == 1:
                break
    return bound


def _shifted_norm(p: tuple[int, ...], s: int) -> tuple[int, ...]:
    """N_s(x) = Res_y(p(y), p(x - s*y)) for monic integer p of degree n.

    N_s is monic of degree n^2, with roots alpha_j + s*alpha_i over all
    pairs of roots of p, so N_s(x) - x^(n^2) is interpolated exactly from
    the integer values N_s(x0) = Res(p, p(x0 - s*y)) at x0 = 0, ..., n^2 - 1
    (Newton's forward differences; the k-th difference of an integer
    polynomial at consecutive integers is divisible by k!).
    """
    size = (len(p) - 1) ** 2
    values = []
    for x0 in range(size):
        z = [p[-1]]
        for c in reversed(p[:-1]):
            z = _poly_mul(z, (x0, -s))
            z[0] += c
        values.append(resultant_int(p, z) - x0**size)
    newton = []
    for k in range(size):
        newton.append(values[0] // math.factorial(k))
        values = [b - a for a, b in zip(values, values[1:])]
    low = [newton[-1]]
    for k in reversed(range(size - 1)):
        low = _poly_mul(low, (-k, 1))
        low[0] += newton[k]
    return tuple(low) + (1,)


# ---------------------------------------------------------------------------
# CM extensions E = F(sqrt(delta))


class CMExtension(Frozen):
    """Totally imaginary quadratic extension of a totally real field.

    delta must be totally negative, which already forces x^2 - delta to be
    irreducible over the base (a square would be totally nonnegative).
    """

    __slots__ = ("base", "delta", "_hash")

    def __init__(self, base: NumberField, delta: FieldElement):
        if delta.field != base:
            raise InvalidInputError("delta must live in the base field")
        if not base.is_totally_real():
            raise InvalidInputError("base field must be totally real")
        if delta.is_zero() or not delta.is_totally_negative():
            raise InvalidInputError("delta must be totally negative")
        _set(self, "base", base)
        _set(self, "delta", delta)
        _set(self, "_hash", hash((base, delta)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.delta == other.delta and self.base == other.base)

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        return f"{self.base}(sqrt({self.delta}))"


# ---------------------------------------------------------------------------
# Galois closure data


class GaloisClosure(Frozen):
    """A closure field plus claimed embeddings of the base generator into it."""

    __slots__ = ("base", "closure", "embeddings")

    def __init__(self, base: NumberField, closure: NumberField, embeddings):
        # a tuple, so the images checked below cannot change afterwards
        try:
            embeddings = tuple(embeddings)
        except TypeError:
            raise InvalidInputError("embedding images must be a sequence") from None
        if not embeddings:
            raise InvalidInputError("at least one embedding image is required")
        for e in embeddings:
            if e.field != closure:
                raise InvalidInputError("embedding images must live in the closure field")
        if len(set(embeddings)) != len(embeddings):
            raise InvalidInputError("embedding images must be pairwise distinct")
        _set(self, "base", base)
        _set(self, "closure", closure)
        _set(self, "embeddings", embeddings)

    def verify_embedding(self, index: int) -> bool:
        """Exact check that base.min_poly vanishes on the index-th image."""
        if not 0 <= index < len(self.embeddings):
            raise InvalidInputError(f"no embedding with index {index}")
        image = self.embeddings[index]
        acc = self.closure.zero()
        for c in reversed(self.base.min_poly.coeffs):
            acc = acc * image + c
        return acc.is_zero()

    def verify_all(self) -> tuple[bool, ...]:
        return tuple(self.verify_embedding(j) for j in range(len(self.embeddings)))
