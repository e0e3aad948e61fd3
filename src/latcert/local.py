"""Exact local arithmetic at finite places of a number field.

A finite place of F = Q[x]/(p) above a rational prime l is an irreducible
factor of p mod l. Places exist here only when l passes the maximal-order
criterion (the Dedekind test); otherwise factor_prime refuses loudly, since
every valuation formula below would silently be wrong.

The completion F_v is never built as a power-series tower. Instead
valuations and norm square-classes are read off integer resultants against
the factor P_v of p over Z_l belonging to v: ord_l Res(P_v, z) = f * v(z) for
l-integral z. When l has a single place, P_v is p itself and the resultant is
exact. Otherwise the exact norm N = Res(p, z) is the product of the l-adic
integers Res(P_w, z) over the places w above l, so ord_l Res(P_v, z) is at
most ord_l N, and the factor blocks of p mod l, Hensel-lifted to
Z/l^(ord_l N + 3), fix both that order and the unit part mod 8.

Every block is monic with integer coefficients, so Res(P_v, z) is the
determinant of multiplication by z on Z[x]/(P_v), an integer matrix; it is
resultant_int, borrowed with the other integer helpers from the integer core
of polynomials, which takes it by fraction-free (Bareiss) elimination.
Elements enter as their integer numerators and denominator (num, den), and
the field as its int_poly; no rational arithmetic sits between a place's
representatives and their norm orders.

No residue field is built either. Over odd l the quadratic character of the
residue field k of v is the Legendre symbol of the norm to F_l, and the norm
of a unit num/den with l not dividing den is Res(factor, num) * den^(-f) mod
l, so whether its residue is a square is one resultant against the factor of
p mod l.

Norm tests for a CM extension E = F(sqrt(delta)) reduce, at ramified places
with rational delta, to classical Hilbert symbols over Q_l through the
projection formula (delta, u)_{F_v} = (delta, N_{F_v/Q_l}(u))_{Q_l}. The
symbols and square tests read only square classes, so a rational n/d enters
them as the integer n*d, which lies in its class. At a place over 2, whether
rational delta of even 2-order splits, stays inert or ramifies is read off
one digit-by-digit walk toward a square root of its odd part. The few
corners this leaves open (non-rational delta at a ramified place with a
non-unit argument, or with a unit whose denominator l divides when e is
even, and similar dyadic cases) raise InconclusiveError rather than
guessing; callers report them as UNKNOWN.

A real place is its index j; delta is totally negative, so the norms there
are the positive reals and the norm test is the sign of u at j. A product
report holds its per-place entries and reads its summaries off them.
"""

from __future__ import annotations

import itertools
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
from .number_field import (
    CMExtension,
    FieldElement,
    NumberField,
    is_rational_square,
)
from .polynomials import _poly_mul, _reduce_monic, resultant_int

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


def _ord_int(n: int, ell: int) -> int:
    if n == 0:
        raise InvalidInputError("valuation of zero")
    o = 0
    n = abs(n)
    while n % ell == 0:
        n //= ell
        o += 1
    return o


# Lifted blocks per (field polynomial, prime): the precision M they were
# lifted to, and one int-tuple factor per place, in place order, with product
# = min_poly mod l^M. A request for more digits lifts them again.
_BLOCK_CACHE: dict[tuple, tuple[int, list[tuple[int, ...]]]] = {}


def _norm_ord_and_unit(place: FinitePlace, z: tuple[int, ...], unit_mod: int) -> tuple[int, int]:
    """(ord_l, unit residue mod unit_mod) of Res(P_v, z) for nonzero l-integral
    z; the residue is exact when unit_mod divides 8, or l when l is odd.

    The exact norm Res(min_poly, z) is the answer when P_v is min_poly (e * f
    = n); otherwise its l-order o bounds that of Res(P_v, z), and the block
    lifted to l^(o + 3) gives Res(P_v, z) mod l^(o + 3), enough for both.
    """
    field, ell = place.field, place.prime
    p = field.int_poly
    r = resultant_int(p, z)
    if place.ramification * place.residue_degree != field.degree:
        precision = _ord_int(r, ell) + 3
        cached = _BLOCK_CACHE.get((p, ell))
        if cached is None or cached[0] < precision:
            raw = []
            for v in factor_prime(field, ell):
                b: tuple[int, ...] = (1,)
                for _ in range(v.ramification):
                    b = modular.mul(b, v.factor, ell)
                raw.append(b)
            cached = precision, modular.hensel_lift_blocks(p, raw, ell, precision)
            _BLOCK_CACHE[p, ell] = cached
        r = resultant_int(cached[1][place.index], z)
    o = _ord_int(r, ell)
    return o, (r // ell**o) % unit_mod


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


def _residue_square(place: FinitePlace, num: tuple[int, ...], den: int) -> bool:
    """Whether num/den, a unit at a place over odd l with l not dividing den,
    is a square in the residue field k.

    The quadratic character of k is the Legendre symbol of the norm to F_l,
    since N(z)^((l-1)/2) = z^((q-1)/2) for N(z) = z^((q-1)/(l-1)), and
    Res(factor, num) * den^f is congruent mod l to N(num/den) * den^(2f).
    """
    ell = place.prime
    return _legendre(resultant_int(place.factor, num) * den**place.residue_degree, ell) == 1


# ---------------------------------------------------------------------------
# Classical Hilbert symbols over Q_l and R


def _split_prime_part(n: int, ell: int) -> tuple[int, int]:
    o = _ord_int(n, ell)
    return o, n // ell**o


def _legendre(a: int, ell: int) -> int:
    val = a % ell
    assert val != 0, "unit part cannot vanish mod l"
    return 1 if pow(val, (ell - 1) // 2, ell) == 1 else -1


def hilbert_symbol_qq(a, b, prime: Optional[int]) -> int:
    """Hilbert symbol (a, b) over Q_prime, or over R when prime is None.

    Exact for arbitrary nonzero rationals, by the classical closed formulas.
    The symbol reads only the square classes of its arguments, and n/d lies
    in the square class of the integer n*d, so each argument is read as n*d
    from its exact ratio (n, d): an int or a Fraction builds no new Fraction,
    and a float or Decimal gives the ratio Fraction(x) would.
    """
    (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
    a, b = an * ad, bn * bd
    if a == 0 or b == 0:
        raise InvalidInputError("Hilbert symbol arguments must be nonzero")
    if prime is None:
        return -1 if a < 0 and b < 0 else 1
    if not is_prime(prime):
        raise InvalidInputError(f"{prime} is not prime")
    alpha, s = _split_prime_part(a, prime)
    beta, t = _split_prime_part(b, prime)
    if prime == 2:
        s8, t8 = s % 8, t % 8
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


def _symbol_vs_rational(place: FinitePlace, w: int, u: FieldElement) -> int:
    """(w, N_{F_v/Q_l}(u))_{Q_l} for a nonzero integer w, exactly; a rational
    n/d enters as n*d, which lies in its square class.

    The norm square-class is reconstructed from the l-order and unit residue
    of the block resultant; the residue mod 8 (mod l for odd l) pins the
    class of a unit, so the rebuilt small integer is in the right class.
    """
    ell = place.prime
    unit_mod = 8 if ell == 2 else ell
    o, r = _norm_ord_and_unit(place, u.num, unit_mod)
    ef = place.ramification * place.residue_degree
    mo, mm = _split_prime_part(u.den, ell)
    beta = o - ef * mo
    r_n = r * pow(pow(mm, ef, unit_mod), -1, unit_mod) % unit_mod
    return hilbert_symbol_qq(w, ell ** (beta % 2) * r_n, ell)


# ---------------------------------------------------------------------------
# Splitting of places in E = F(sqrt(delta))


class SplittingResult(Frozen):
    __slots__ = ("kind", "method")

    def __init__(self, kind: str, method: str):
        _set(self, "kind", kind)  # "split" | "inert" | "ramified"
        _set(self, "method", method)

    def __str__(self) -> str:
        return f"{self.kind} ({self.method})"


def _dyadic_splitting(place: FinitePlace, w: int) -> str:
    """How F_v(sqrt(w)) behaves over F_v, for an odd integer w at a place
    over 2: "split", "inert" or "ramified", read off one digit-by-digit walk.

    By the quadratic defect (O'Meara, section 63), w is a square exactly
    when some y in O_v has v(y^2 - w) >= 2e + 1, and F_v(sqrt(w)) is
    unramified exactly when some y has v(y^2 - w) >= 2e. So the walk returns
    "split" at the first y with y^2 = w or v(y^2 - w) > 2e, and otherwise
    "inert" if some y it visited reached exactly 2e, "ramified" if none did.
    An odd rational n/d is asked about as w = n*d, since
    d*(d*y^2 - n) = (d*y)^2 - n*d and d is a unit.

    The coordinates of y over 1, alpha, ..., alpha^(e*f - 1) are found one
    binary digit at a time, and a node fixed mod 2^(s+1) is extended, at
    either level, when v(y^2 - w) >= e*(s+2). That finds a y* with
    v(y*^2 - w) >= k for k = 2e + 1 and for k = 2e: a node that agrees with
    y* mod 2^(s+1) has y - y* in 2^(s+1) O_v and y + y* in 2 O_v, so
    v(y^2 - w) >= min(k, e*(s+2)), and the path to y* is extended until a
    node on it reaches k. Every node counts against the enumeration cap.
    """
    e, width = place.ramification, place.ramification * place.residue_degree
    p = place.field.int_poly
    nodes = 0
    inert = False
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
            g = _reduce_monic(_poly_mul(child, child), p)
            g[0] -= w
            if not any(g):
                return "split"
            o = _int_valuation(place, tuple(g))
            if o > 2 * e:
                return "split"
            inert = inert or o == 2 * e
            if o >= e * (s + 2):
                stack.append((child, s + 1))
    return "inert" if inert else "ramified"


@lru_cache(maxsize=None)
def splitting_in_E(ext: CMExtension, place: FinitePlace) -> SplittingResult:
    """How a finite place of F behaves in E = F(sqrt(delta)).

    Decides split/inert/ramified exactly wherever the engine reaches: odd
    valuation of delta is always ramified; unit delta at odd places is a
    residue-field square test; rational delta of even l-order is read by its
    unit part, by a residue square test over odd l and by one walk over 2
    (`_dyadic_splitting`), which format "1" names "unit square enumeration"
    when it splits and "unit symbol scan" otherwise. The remaining corners
    (odd l-order with no uniformizer, non-rational delta over 2) raise
    InconclusiveError.
    """
    delta = ext.delta
    if place.field != ext.base:
        raise InvalidInputError("place and extension refer to different base fields")
    ell = place.prime
    v_delta = valuation(place, delta)
    if v_delta % 2 == 1:
        return SplittingResult("ramified", "odd valuation of delta")
    if ell != 2 and v_delta == 0 and delta.den % ell != 0:
        square = _residue_square(place, delta.num, delta.den)
        return SplittingResult("split" if square else "inert", "residue square test")
    if delta.is_rational():
        k_ord, unit_part = _split_prime_part(delta.num[0] * delta.den, ell)
        if k_ord % 2 == 0:
            if ell == 2:
                kind = _dyadic_splitting(place, unit_part)
                method = "unit square enumeration" if kind == "split" else "unit symbol scan"
                return SplittingResult(kind, method)
            square = _residue_square(place, (unit_part,), 1)
            return SplittingResult("split" if square else "inert", "unit-part residue square test")
    elif ell == 2:
        raise InconclusiveError(
            f"dyadic splitting with non-rational delta is out of reach at {place}"
        )
    raise InconclusiveError(
        f"cannot classify delta's square class at {place} without a uniformizer"
    )


# ---------------------------------------------------------------------------
# Local norm tests


class PlaceSymbolEntry(Frozen):
    """The Hilbert symbol (delta, u)_v at the place labelled `label`: +1 when
    u is a norm from E_w, -1 when it is not, None when it is unknown; and
    the method that decided it, or why it could not be decided."""

    __slots__ = ("label", "symbol", "method")

    def __init__(self, label: str, symbol: Optional[int], method: str):
        _set(self, "label", label)
        _set(self, "symbol", symbol)
        # "split" | "unramified-valuation" | "hensel-lift" | "archimedean-sign",
        # or "unsupported: ..." | "inconclusive: ..." when the symbol is None
        _set(self, "method", method)

    @property
    def is_norm(self) -> bool:
        return self.symbol == 1

    def __bool__(self) -> bool:
        return self.is_norm


def local_norm_test(ext: CMExtension, u, place: Union[FinitePlace, int]) -> PlaceSymbolEntry:
    """The symbol (delta, u)_v at the given place v, a FinitePlace or the
    index of a real place: +1 exactly when u in F* is a local norm from E
    at v, which the entry's `is_norm` and its truth value read off.

    Every returned symbol is exact; undecidable corners raise
    InconclusiveError instead of guessing.
    """
    u = ext.base._coerce(u)
    if u.is_zero():
        raise InvalidInputError("norm test needs a nonzero element")

    if not isinstance(place, FinitePlace):
        # A real place index, which sign_at checks. delta is totally
        # negative: the local extension is C/R and the norms are exactly the
        # positive reals.
        return PlaceSymbolEntry(f"real place {place}", u.sign_at(place), "archimedean-sign")

    label = place.label()
    split = splitting_in_E(ext, place)
    if split.kind == "split":
        return PlaceSymbolEntry(label, 1, "split")
    if split.kind == "inert":
        symbol = -1 if valuation(place, u) % 2 else 1
        return PlaceSymbolEntry(label, symbol, "unramified-valuation")

    # Ramified places.
    delta = ext.delta
    if delta.is_rational():
        symbol = _symbol_vs_rational(place, delta.num[0] * delta.den, u)
        return PlaceSymbolEntry(label, symbol, "hensel-lift")
    ell = place.prime
    if ell != 2 and valuation(place, u) == 0:
        # Tame ramification with a unit argument: quadratic residue character
        # of the residue of u (the symbol reduces to chi(u-bar)^v(delta),
        # v(delta) odd here). When l divides u's denominator, N_{F_v/Q_l}(u)
        # is congruent to N_{k/F_l}(u-bar)^e mod l, so for odd e chi(u-bar)
        # is its Legendre symbol, (l, N_{F_v/Q_l}(u))_{Q_l}.
        if u.den % ell:
            symbol = 1 if _residue_square(place, u.num, u.den) else -1
        elif place.ramification % 2:
            symbol = _symbol_vs_rational(place, ell, u)
        else:
            raise InconclusiveError(
                f"norm test at ramified {place} of even e with a unit whose "
                f"denominator {ell} divides"
            )
        return PlaceSymbolEntry(label, symbol, "hensel-lift")
    raise InconclusiveError(
        f"norm test at ramified {place} with non-rational delta and non-unit argument"
    )


# ---------------------------------------------------------------------------
# Product-formula reports


class HilbertReport(Frozen):
    """The per-place symbols of a product check; the unknown labels and the
    count of -1 symbols are read off them."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[PlaceSymbolEntry, ...]):
        _set(self, "entries", tuple(entries))

    @property
    def unknown_labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries if e.symbol is None)

    @property
    def minus_count(self) -> int:
        return sum(1 for e in self.entries if e.symbol == -1)

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

    for j in range(ext.base.real_place_count):
        entries.append(local_norm_test(ext, u, j))

    for ell in relevant_primes(ext, u):
        try:
            places = factor_prime(ext.base, ell)
        except UnsupportedPlaceError as exc:
            label = f"prime {ell}"
            entries.append(PlaceSymbolEntry(label, None, f"unsupported: {exc}"))
            continue
        for place in places:
            try:
                entries.append(local_norm_test(ext, u, place))
            except InconclusiveError as exc:
                entries.append(PlaceSymbolEntry(place.label(), None, f"inconclusive: {exc}"))

    return HilbertReport(entries)


def norm_class_equal(ext: CMExtension, a: FieldElement, b: FieldElement) -> bool:
    """Whether a and b agree in F*/N(E*), i.e. a/b is a global norm from E.

    By the Hasse norm theorem for the quadratic extension E/F this is
    equivalent to being a norm at every place, which the product check
    decides; an inconclusive place raises rather than guessing. A rational
    square a/b, a = b among them, is a norm with no place checked; the
    rational n/d enters the test as the integer n*d of its square class.
    """
    if a.is_zero() or b.is_zero():
        raise InvalidInputError("norm classes are defined for nonzero elements")
    ratio = a / b
    if ratio.is_rational() and is_rational_square(ratio.num[0] * ratio.den):
        return True
    report = hilbert_product_check(ext, ratio)
    if not report.conclusive:
        raise InconclusiveError(
            "norm class comparison undecided at: " + ", ".join(report.unknown_labels)
        )
    return report.minus_count == 0
