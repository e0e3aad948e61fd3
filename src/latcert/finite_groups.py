"""Orders of small classical groups, enumeration oracles, congruence indices.

The closed-form orders are classical; the enumeration routines recount them
by brute force over explicit finite-field tables so that each formula has an
independent in-repo oracle at tiny cardinality. Congruence indices reduce a
diagonal form at a good place and return the order of the reduction image,
whose type (linear vs unitary) follows from how the place behaves in the CM
extension.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BudgetExceededError, InvalidInputError, UnsupportedPlaceError
from .frozen import Frozen
from .hermitian import HermitianForm
from .intfactor import prime_factors
from .local import FinitePlace, splitting_in_E, valuation
from .modular import FiniteField, find_irreducible

DEFAULT_ENUMERATION_BUDGET = 1 << 26

_FAMILIES = ("GL", "SL", "GU", "SU")


def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, or an InvalidInputError."""
    if q < 2:
        raise InvalidInputError(f"{q} is not a prime power")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise InvalidInputError(f"{q} is not a prime power")
    ((p, k),) = factors.items()
    return p, k


class FiniteGroupSpec(Frozen):
    """The group `family` (GL, SL, GU or SU) of `size` x `size` matrices over
    the residue field of cardinality `q`; the unitary families live over
    F_{q^2}."""

    __slots__ = ("family", "size", "q")

    def __init__(self, family: str, size: int, q: int):
        if family not in _FAMILIES:
            raise InvalidInputError(f"unknown family {family!r}")
        if size < 1:
            raise InvalidInputError("matrix size must be positive")
        _prime_power(q)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "q", q)

    def __str__(self) -> str:
        return f"{self.family}_{self.size}(F_{self.q})"


def group_order(spec: FiniteGroupSpec) -> int:
    """Exact order by the classical product formulas."""
    n, q = spec.size, spec.q
    prefix = q ** (n * (n - 1) // 2)
    if spec.family == "GL":
        order = prefix
        for i in range(1, n + 1):
            order *= q**i - 1
        return order
    if spec.family == "SL":
        order = prefix
        for i in range(2, n + 1):
            order *= q**i - 1
        return order
    gu = prefix
    for i in range(1, n + 1):
        gu *= q**i - (-1) ** i
    if spec.family == "GU":
        return gu
    return gu // (q + 1)  # SU


@lru_cache(maxsize=None)
def _field_of_order(q: int) -> FiniteField:
    p, k = _prime_power(q)
    return FiniteField(p, find_irreducible(p, k))


def _det(field: FiniteField, rows: tuple, n: int):
    if n == 1:
        return rows[0][0]
    total = field.zero
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in rows[1:])
        term = field.mul(rows[0][j], _det(field, minor, n - 1))
        total = field.sub(total, term) if j % 2 else field.add(total, term)
    return total


def _enumerate_linear(spec: FiniteGroupSpec) -> int:
    field = _field_of_order(spec.q)
    n = spec.size
    want_det_one = spec.family == "SL"
    one, zero = field.one, field.zero
    vectors = list(itertools.product(field.elements(), repeat=n))
    count = 0
    for rows in itertools.product(vectors, repeat=n):
        d = _det(field, rows, n)
        if (d == one) if want_det_one else (d != zero):
            count += 1
    return count


def _enumerate_unitary(spec: FiniteGroupSpec) -> int:
    """Count matrices over F_{q^2} whose columns are orthonormal under the
    standard hermitian pairing (conjugation = q-power Frobenius), column by
    column with pruning; SU additionally filters on determinant 1.
    """
    q = spec.q
    _, k = _prime_power(q)
    field = _field_of_order(q * q)
    n = spec.size

    def conj(x):
        return field.frobenius(x, k)

    def pairing(u, v):
        acc = field.zero
        for a, b in zip(u, v):
            acc = field.add(acc, field.mul(conj(a), b))
        return acc

    one = field.one
    vectors = [tuple(v) for v in itertools.product(field.elements(), repeat=n)]
    unit_vectors = [v for v in vectors if pairing(v, v) == one]

    count = 0

    def extend(columns: list):
        nonlocal count
        if len(columns) == n:
            if spec.family == "GU":
                count += 1
            else:
                rows = tuple(
                    tuple(columns[j][i] for j in range(n)) for i in range(n)
                )
                if _det(field, rows, n) == one:
                    count += 1
            return
        for v in unit_vectors:
            if all(pairing(c, v) == field.zero for c in columns):
                columns.append(v)
                extend(columns)
                columns.pop()

    extend([])
    return count


def enumerate_group(spec: FiniteGroupSpec, budget: int = DEFAULT_ENUMERATION_BUDGET) -> int:
    """Independent brute-force recount of group_order.

    The naive candidate space (q^(n^2), or q^(2 n^2) for the unitary
    families which live over F_{q^2}) must fit the budget; larger requests
    get a typed refusal rather than an open-ended loop.
    """
    n = spec.size
    if spec.family in ("GL", "SL"):
        naive = spec.q ** (n * n)
    else:
        naive = (spec.q * spec.q) ** (n * n)
    if naive > budget:
        raise BudgetExceededError(
            f"enumerating {spec} means {naive} candidates, over the budget of {budget}"
        )
    if spec.family in ("GL", "SL"):
        return _enumerate_linear(spec)
    return _enumerate_unitary(spec)


class CongruenceLevel(Frozen):
    """One congruence condition: reduce the form at a finite place."""

    __slots__ = ("place", "form")

    def __init__(self, place: FinitePlace, form: HermitianForm):
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "form", form)


def congruence_index(level: CongruenceLevel) -> int:
    """Index of the principal congruence subgroup at the level's place.

    Equals the order of the reduced group over the residue field: the
    special linear group when the place splits in E, the special unitary
    group when it is inert. Good reduction is required — odd residue
    characteristic, delta and every diagonal entry a unit at the place —
    anything else is refused rather than silently mis-modeled. (The index
    equals the full group order because reduction is surjective for the
    simply connected group; certificates record that as a cited input.)
    """
    place, form = level.place, level.form
    ext = form.ext
    if form.rank % 2 == 0:
        raise InvalidInputError("even rank is out of scope")
    if place.prime == 2:
        raise UnsupportedPlaceError("even residue characteristic: bad reduction")
    if valuation(place, ext.delta) != 0:
        raise UnsupportedPlaceError("delta is not a unit at the place: bad reduction")
    for a in form.diag:
        if valuation(place, a) != 0:
            raise UnsupportedPlaceError(
                "a diagonal entry is not a unit at the place: bad reduction"
            )
    split = splitting_in_E(ext, place)
    q = place.prime**place.residue_degree
    if split.kind == "split":
        return group_order(FiniteGroupSpec("SL", form.rank, q))
    if split.kind == "inert":
        return group_order(FiniteGroupSpec("SU", form.rank, q))
    raise UnsupportedPlaceError("ramified place: bad reduction")

