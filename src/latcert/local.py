"""Exact local arithmetic at finite places of a number field.

A finite place of F = Q[x]/(p) above a rational prime l is an irreducible
factor of p mod l. Places exist here only when l passes the maximal-order
criterion (the Dedekind test); otherwise factor_prime refuses loudly, since
every valuation formula below would silently be wrong.

The completion F_v is never built as a power-series tower. Instead the factor
block of p belonging to v is Hensel-lifted to Z/l^M for adaptive M, and
valuations and norm square-classes are read off integer resultants against
the lifted block: ord_l Res(P_v, z) = f * v(z) for l-integral z. When l has a
single place the block is p itself and everything is exact outright.

Every block is monic with integer coefficients, so Res(P_v, z) is the
determinant of multiplication by z on Z[x]/(P_v), an integer matrix; it is
resultant_int, borrowed with the other integer helpers from the integer core
of polynomials, which takes it by fraction-free (Bareiss) elimination.
Elements enter as their integer numerators and denominator (num, den), and
the field as its int_poly; no rational arithmetic sits between a place's
representatives and their norm orders.

Norm tests for a CM extension E = F(sqrt(delta)) reduce, at ramified places
with rational delta, to classical Hilbert symbols over Q_l through the
projection formula (delta, u)_{F_v} = (delta, N_{F_v/Q_l}(u))_{Q_l}. At a
place over 2, how rational delta of even 2-order splits is read off one
digit-by-digit lift of a square root of its odd part. The few
corners this leaves open (non-rational delta at a ramified place with a
non-unit argument, and similar dyadic cases) raise InconclusiveError rather
than guessing; callers report them as UNKNOWN.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from . import modular
from .errors import (
    InconclusiveError,
    InvalidInputError,
    UnsupportedPlaceError,
)
from .frozen import Frozen
from .intfactor import is_prime, prime_factors
from .modular import FiniteField
from .number_field import (
    CMExtension,
    FieldElement,
    NumberField,
    RealPlace,
)
from .polynomials import _poly_mul, _reduce_monic, resultant_int

_MAX_LIFT_PRECISION = 8192
_DYADIC_ENUMERATION_CAP = 2_000_000

_set = object.__setattr__


class FinitePlace(Frozen):
    """A prime of F above l: one irreducible factor of min_poly mod l.

    `factor` is monic irreducible mod l, constant term first, and `index`
    the position in the canonical (degree, coefficients) ordering.
    """

    __slots__ = ("field", "prime", "factor", "ramification", "index", "_hash")

    def __init__(self, field: NumberField, prime: int, factor: tuple[int, ...],
                 ramification: int, index: int):
        _set(self, "field", field)
        _set(self, "prime", prime)
        _set(self, "factor", factor)
        _set(self, "ramification", ramification)
        _set(self, "index", index)
        _set(self, "_hash", hash((field, prime, factor, ramification, index)))

    def __hash__(self):
        return self._hash

    @property
    def residue_degree(self) -> int:
        return len(self.factor) - 1

    def label(self) -> str:
        return f"{self.prime}#{self.index}"

    def __str__(self) -> str:
        e, f = self.ramification, self.residue_degree
        return f"place {self.label()} (e={e}, f={f})"


Place = Union[FinitePlace, RealPlace]


@lru_cache(maxsize=None)
def factor_prime(field: NumberField, ell: int) -> tuple[FinitePlace, ...]:
    """All places of the field above l, canonically ordered.

    Raises UnsupportedPlaceError when l divides the index of Z[x]/(p) in the
    maximal order (Dedekind criterion), because local data computed from the
    polynomial order would then be unreliable.
    """
    if not is_prime(ell):
        raise InvalidInputError(f"{ell} is not prime")
    p_ints = field.int_poly
    factors = modular.factor_monic(p_ints, ell)

    gbar: tuple[int, ...] = (1,)
    hbar: tuple[int, ...] = (1,)
    for g, e in factors:
        gbar = modular.mul(gbar, g, ell)
        for _ in range(e - 1):
            hbar = modular.mul(hbar, g, ell)
    # gbar * hbar and p are monic of the same degree and agree mod l
    lifted = zip(_poly_mul(gbar, hbar), p_ints)
    cbar = modular.normalize(tuple((a - b) // ell for a, b in lifted), ell)
    common = modular.gcd_poly(modular.gcd_poly(cbar, gbar, ell), hbar, ell)
    if modular.degree(common) > 0:
        raise UnsupportedPlaceError(
            f"prime {ell} divides the index of the polynomial order "
            f"(common factor of degree {modular.degree(common)})"
        )
    return tuple(
        FinitePlace(field, ell, g, e, idx) for idx, (g, e) in enumerate(factors)
    )


@lru_cache(maxsize=None)
def residue_field(place: FinitePlace) -> FiniteField:
    return FiniteField(place.prime, place.factor)


def _ord_int(n: int, ell: int) -> int:
    if n == 0:
        raise InvalidInputError("valuation of zero")
    o = 0
    n = abs(n)
    while n % ell == 0:
        n //= ell
        o += 1
    return o


# Lifted blocks per (field, prime, precision); each entry is one int-tuple
# factor per place, in place order, with product = min_poly mod l^M.
_BLOCK_CACHE: dict[tuple, list[tuple[int, ...]]] = {}


def _block_resultant(place: FinitePlace, z: tuple[int, ...], precision: int) -> tuple[int, bool]:
    """Res(P_v-lift, z) as an integer, and whether it is exact.

    With a single place above l (e * f = n) the block is min_poly itself, exact
    at any precision; otherwise the resultant is correct mod l^precision.
    """
    field, ell = place.field, place.prime
    p = field.int_poly
    if place.ramification * place.residue_degree == field.degree:
        return resultant_int(p, z), True
    key = (p, ell, precision)
    blocks = _BLOCK_CACHE.get(key)
    if blocks is None:
        raw = []
        for v in factor_prime(field, ell):
            b: tuple[int, ...] = (1,)
            for _ in range(v.ramification):
                b = modular.mul(b, v.factor, ell)
            raw.append(b)
        blocks = modular.hensel_lift_blocks(p, raw, ell, precision)
        _BLOCK_CACHE[key] = blocks
    return resultant_int(blocks[place.index], z), False


def _norm_ord_and_unit(place: FinitePlace, z: tuple[int, ...], unit_mod: int) -> tuple[int, int]:
    """(ord_l, unit residue mod unit_mod) of Res(P_v, z) for l-integral z.

    Adaptive precision: the answer is accepted once the l-order sits far
    enough below the lifting precision for both the order and the residue to
    be stable.
    """
    ell = place.prime
    precision = 16
    while True:
        r, exact = _block_resultant(place, z, precision)
        if r != 0:
            o = _ord_int(r, ell)
            if exact or o + 4 <= precision:
                unit = (r // ell**o) % unit_mod
                return o, unit
        elif exact:
            raise AssertionError("nonzero element has nonzero exact resultant")
        precision *= 2
        if precision > _MAX_LIFT_PRECISION:
            raise InconclusiveError(
                f"p-adic precision exceeded {_MAX_LIFT_PRECISION} digits at {place}"
            )


def valuation(place: FinitePlace, elem: FieldElement) -> int:
    """Exact normalized valuation v(elem) at the place (v(uniformizer) = 1)."""
    if elem.field != place.field:
        raise InvalidInputError("element belongs to a different field")
    if elem.is_zero():
        raise InvalidInputError("the zero element has no finite valuation")
    return _int_valuation(place, elem.num) - place.ramification * _ord_int(elem.den, place.prime)


def _int_valuation(place: FinitePlace, z: tuple[int, ...]) -> int:
    f = place.residue_degree
    o, _ = _norm_ord_and_unit(place, z, 2)
    assert o % f == 0, "norm order must be divisible by the residue degree"
    return o // f


def residue_image(place: FinitePlace, elem: FieldElement) -> tuple[int, ...]:
    """Image of an l-integral element in the residue field of the place.

    Requires coordinate denominators coprime to l (then the element is
    automatically integral at every place above l).
    """
    z, m = elem.num, elem.den
    ell = place.prime
    if m % ell == 0:
        raise InvalidInputError(
            "coordinate denominators share a factor with the residue characteristic"
        )
    k = residue_field(place)
    zbar = k.embed(z)
    m_inv = pow(m % ell, -1, ell)
    return k.mul(zbar, k.from_int(m_inv))


# ---------------------------------------------------------------------------
# Classical Hilbert symbols over Q_l and R


def _split_prime_part(x: Fraction, ell: int) -> tuple[int, Fraction]:
    n, d = x.numerator, x.denominator
    on, od = _ord_int(n, ell), _ord_int(d, ell)
    return on - od, Fraction(n // ell**on, d // ell**od)


def _legendre(u: Fraction, ell: int) -> int:
    val = u.numerator % ell * pow(u.denominator % ell, -1, ell) % ell
    assert val != 0, "unit part cannot vanish mod l"
    return 1 if pow(val, (ell - 1) // 2, ell) == 1 else -1


def _odd_residue_mod8(u: Fraction) -> int:
    # The denominator is odd, and d ≡ d^{-1} mod 8 for odd d.
    return u.numerator % 8 * (u.denominator % 8) % 8


def hilbert_symbol_qq(a, b, prime: Optional[int]) -> int:
    """Hilbert symbol (a, b) over Q_prime, or over R when prime is None.

    Exact for arbitrary nonzero rationals, by the classical closed formulas.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise InvalidInputError("Hilbert symbol arguments must be nonzero")
    if prime is None:
        return -1 if a < 0 and b < 0 else 1
    if not is_prime(prime):
        raise InvalidInputError(f"{prime} is not prime")
    alpha, s = _split_prime_part(a, prime)
    beta, t = _split_prime_part(b, prime)
    if prime == 2:
        s8, t8 = _odd_residue_mod8(s), _odd_residue_mod8(t)
        eps_s, eps_t = s8 % 4 == 3, t8 % 4 == 3
        omega_s, omega_t = s8 in (3, 5), t8 in (3, 5)
        exponent = (eps_s and eps_t) + alpha * omega_t + beta * omega_s
        return -1 if exponent % 2 else 1
    result = 1
    if alpha % 2 and beta % 2 and prime % 4 == 3:
        result = -result
    if beta % 2:
        result *= _legendre(s, prime)
    if alpha % 2:
        result *= _legendre(t, prime)
    return result


def _symbol_vs_rational(place: FinitePlace, w: Fraction, u: FieldElement) -> int:
    """(w, N_{F_v/Q_l}(u))_{Q_l} for rational w, exactly.

    The norm square-class is reconstructed from the l-order and unit residue
    of the block resultant; the residue mod 8 (mod l for odd l) pins the
    class of a unit, so the rebuilt small rational is in the right class.
    """
    ell = place.prime
    unit_mod = 8 if ell == 2 else ell
    m = u.den
    o, r = _norm_ord_and_unit(place, u.num, unit_mod)
    ef = place.ramification * place.residue_degree
    mo = _ord_int(m, ell)
    mm = m // ell**mo
    beta = o - ef * mo
    r_n = r * pow(pow(mm, ef, unit_mod), -1, unit_mod) % unit_mod
    small = Fraction(ell ** (beta % 2) * r_n)
    return hilbert_symbol_qq(w, small, ell)


# ---------------------------------------------------------------------------
# Splitting of places in E = F(sqrt(delta))


class SplittingResult(Frozen):
    __slots__ = ("kind", "method")

    def __init__(self, kind: str, method: str):
        _set(self, "kind", kind)  # "split" | "inert" | "ramified"
        _set(self, "method", method)

    def __str__(self) -> str:
        return f"{self.kind} ({self.method})"


def _residue_square_test(place: FinitePlace, elem: FieldElement) -> bool:
    k = residue_field(place)
    return k.is_square(residue_image(place, elem))


def _dyadic_approximable(place: FinitePlace, w: Fraction, k: int) -> bool:
    """Whether some y in O_v has v(y^2 - w) >= k, for an odd rational w = n/d.

    The coordinates of y over 1, alpha, ..., alpha^(e*f - 1) are found one
    binary digit at a time.  Two y that agree mod 2^s differ by an element of
    2^s O_v = pi^(e*s) O_v, so the truncation mod 2^s of a solution has
    v(d*y^2 - n) >= min(k, e*s) (d is odd, so this is v(y^2 - w)); only such
    nodes are extended, and the first node that reaches k is a solution.
    Every node counts against the enumeration cap.
    """
    n, d = w.numerator, w.denominator
    e, width = place.ramification, place.ramification * place.residue_degree
    p = place.field.int_poly
    nodes = 0
    stack = [((0,) * width, 0)]
    while stack:
        y, s = stack.pop()
        for bits in itertools.product((0, 1), repeat=width):
            nodes += 1
            if nodes > _DYADIC_ENUMERATION_CAP:
                raise InconclusiveError(
                    f"dyadic square lift at {place} exceeds the cap of "
                    f"{_DYADIC_ENUMERATION_CAP} nodes"
                )
            child = tuple(c + (b << s) for c, b in zip(y, bits))
            g = [d * c for c in _reduce_monic(_poly_mul(child, child), p)]
            g[0] -= n
            if not any(g):
                return True
            o = _int_valuation(place, tuple(g))
            if o >= k:
                return True
            if o >= e * (s + 1):
                stack.append((child, s + 1))
    return False


@lru_cache(maxsize=None)
def splitting_in_E(ext: CMExtension, place: FinitePlace) -> SplittingResult:
    """How a finite place of F behaves in E = F(sqrt(delta)).

    Decides split/inert/ramified exactly wherever the engine reaches:
    odd valuation of delta is always ramified; unit delta at odd places is a
    residue-field square test; at a place over 2, rational delta of even
    2-order with odd part w splits when some y has v(y^2 - w) >= 2e + 1, is
    inert when, failing that, some y has v(y^2 - w) >= 2e, and is ramified
    otherwise, each found by one digit-by-digit lift. The method strings
    "unit square enumeration" and "unit symbol scan" name these two lifts in
    format "1". The remaining corners raise InconclusiveError.
    """
    delta = ext.delta
    if place.field != ext.base:
        raise InvalidInputError("place and extension refer to different base fields")
    ell = place.prime
    v_delta = valuation(place, delta)
    if v_delta % 2 == 1:
        return SplittingResult("ramified", "odd valuation of delta")

    if ell != 2:
        if v_delta == 0:
            if delta.den % ell != 0:
                square = _residue_square_test(place, delta)
                return SplittingResult(
                    "split" if square else "inert", "residue square test"
                )
        if delta.is_rational():
            c = delta.coords[0]
            k_ord, unit_part = _split_prime_part(c, ell)
            if k_ord % 2 == 0:
                k = residue_field(place)
                res = k.from_int(
                    unit_part.numerator % ell
                    * pow(unit_part.denominator % ell, -1, ell)
                )
                square = k.is_square(res)
                return SplittingResult(
                    "split" if square else "inert", "unit-part residue square test"
                )
        raise InconclusiveError(
            f"cannot classify delta's square class at {place} without a uniformizer"
        )

    # Dyadic places: for rational delta of even 2-order with odd part w, E_v
    # is F_v(sqrt(w)); w is a square exactly when it is a square mod
    # 4*pi = pi^(2e+1), and F_v(sqrt(w)) is unramified exactly when w is a
    # square mod 4 = pi^(2e) (the quadratic defect; O'Meara, section 63).
    if delta.is_rational():
        k_ord, unit_part = _split_prime_part(delta.coords[0], 2)
        if k_ord % 2 == 0:
            e = place.ramification
            if _dyadic_approximable(place, unit_part, 2 * e + 1):
                return SplittingResult("split", "unit square enumeration")
            if _dyadic_approximable(place, unit_part, 2 * e):
                return SplittingResult("inert", "unit symbol scan")
            return SplittingResult("ramified", "unit symbol scan")
    raise InconclusiveError(
        f"dyadic splitting with non-rational delta is out of reach at {place}"
    )


# ---------------------------------------------------------------------------
# Local norm tests


class LocalNormResult(Frozen):
    __slots__ = ("is_norm", "method", "place")

    def __init__(self, is_norm: bool, method: str, place: Place):
        _set(self, "is_norm", is_norm)
        # "split" | "unramified-valuation" | "hensel-lift" | "archimedean-sign"
        _set(self, "method", method)
        _set(self, "place", place)

    def __bool__(self) -> bool:
        return self.is_norm


def local_norm_test(ext: CMExtension, u, place: Place) -> LocalNormResult:
    """Whether u in F* is a local norm from E at the given place.

    Every returned verdict is exact; undecidable corners raise
    InconclusiveError instead of guessing.
    """
    u = ext.base._coerce(u)
    if u.is_zero():
        raise InvalidInputError("norm test needs a nonzero element")

    if isinstance(place, RealPlace):
        # delta is totally negative: the local extension is C/R and the
        # norms are exactly the positive reals.
        return LocalNormResult(u.sign_at(place.index) > 0, "archimedean-sign", place)

    split = splitting_in_E(ext, place)
    if split.kind == "split":
        return LocalNormResult(True, "split", place)
    if split.kind == "inert":
        return LocalNormResult(valuation(place, u) % 2 == 0, "unramified-valuation", place)

    # Ramified places.
    delta = ext.delta
    if delta.is_rational():
        symbol = _symbol_vs_rational(place, delta.coords[0], u)
        return LocalNormResult(symbol == 1, "hensel-lift", place)
    if place.prime != 2 and valuation(place, u) == 0:
        # Tame ramification with a unit argument: quadratic residue character
        # of the residue of u (the symbol reduces to chi(u-bar)^v(delta),
        # v(delta) odd here).
        is_sq = _residue_square_test(place, u)
        return LocalNormResult(is_sq, "hensel-lift", place)
    raise InconclusiveError(
        f"norm test at ramified {place} with non-rational delta and non-unit argument"
    )


# ---------------------------------------------------------------------------
# Product-formula reports


class PlaceSymbolEntry(Frozen):
    __slots__ = ("label", "symbol", "method")

    def __init__(self, label: str, symbol: Optional[int], method: str):
        _set(self, "label", label)
        _set(self, "symbol", symbol)  # +1 / -1, or None when unknown
        _set(self, "method", method)


class HilbertReport(Frozen):
    __slots__ = ("element", "entries", "unknown_labels", "minus_count")

    def __init__(self, element: str, entries: tuple[PlaceSymbolEntry, ...],
                 unknown_labels: tuple[str, ...], minus_count: int):
        _set(self, "element", element)
        _set(self, "entries", entries)
        _set(self, "unknown_labels", unknown_labels)
        _set(self, "minus_count", minus_count)

    @property
    def conclusive(self) -> bool:
        return not self.unknown_labels

    @property
    def minus_count_even(self) -> Optional[bool]:
        return self.minus_count % 2 == 0 if self.conclusive else None


def relevant_primes(ext: CMExtension, u: FieldElement) -> tuple[int, ...]:
    """Primes that can carry a nontrivial local symbol (delta, u).

    Computed from cleared-denominator norm resultants, so valuation
    cancellation inside the norm cannot hide a relevant prime; 2 is always
    included.
    """
    out = {2}
    for elem in (ext.delta, u):
        r = resultant_int(ext.base.int_poly, elem.num)
        out |= set(prime_factors(r))
        if elem.den > 1:
            out |= set(prime_factors(elem.den))
    return tuple(sorted(out))


def hilbert_product_check(ext: CMExtension, u) -> HilbertReport:
    """Per-place symbols of (delta, u) over every relevant place of F.

    The product over all places is 1 for any global element, so a conclusive
    report must contain an even number of -1 entries; this is the
    self-checking identity the engine is tested against.
    """
    u = ext.base._coerce(u)
    if u.is_zero():
        raise InvalidInputError("product check needs a nonzero element")
    entries: list[PlaceSymbolEntry] = []
    unknown: list[str] = []

    for rp in ext.base.real_places():
        res = local_norm_test(ext, u, rp)
        entries.append(
            PlaceSymbolEntry(str(rp), 1 if res.is_norm else -1, res.method)
        )

    for ell in relevant_primes(ext, u):
        try:
            places = factor_prime(ext.base, ell)
        except UnsupportedPlaceError as exc:
            label = f"prime {ell}"
            entries.append(PlaceSymbolEntry(label, None, f"unsupported: {exc}"))
            unknown.append(label)
            continue
        for place in places:
            label = place.label()
            try:
                res = local_norm_test(ext, u, place)
            except InconclusiveError as exc:
                entries.append(PlaceSymbolEntry(label, None, f"inconclusive: {exc}"))
                unknown.append(label)
                continue
            entries.append(
                PlaceSymbolEntry(label, 1 if res.is_norm else -1, res.method)
            )

    minus = sum(1 for e in entries if e.symbol == -1)
    return HilbertReport(str(u), tuple(entries), tuple(unknown), minus)


def norm_class_equal(ext: CMExtension, a: FieldElement, b: FieldElement) -> bool:
    """Whether a and b agree in F*/N(E*), i.e. a/b is a global norm from E.

    By the Hasse norm theorem for the quadratic extension E/F this is
    equivalent to being a norm at every place, which the product check
    decides; an inconclusive place raises rather than guessing.
    """
    if a.is_zero() or b.is_zero():
        raise InvalidInputError("norm classes are defined for nonzero elements")
    report = hilbert_product_check(ext, a / b)
    if not report.conclusive:
        raise InconclusiveError(
            "norm class comparison undecided at: " + ", ".join(report.unknown_labels)
        )
    return report.minus_count == 0
