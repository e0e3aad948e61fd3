"""Diagonal hermitian forms over a CM extension and their group verdicts.

A diagonal form diag(a_1, ..., a_n) with nonzero a_i in the totally real
base field F carries three complete equivalence invariants: rank, the
signature at each real place, and the discriminant class in F*/N(E*). Form
equivalence is decided exactly from those. Verdicts about the associated
special unitary groups are deliberately one-sided: NOT_ISOMORPHIC is only
ever emitted on an archimedean definite/indefinite mismatch, which no
scaling can repair, while ISOMORPHIC requires an explicit scalar lambda
making the forms equivalent. Everything else stays UNKNOWN.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import InconclusiveError, InvalidInputError
from .frozen import Frozen
from .local import norm_class_equal, splitting_in_E
from .number_field import CMExtension, FieldElement, automorphism_count

ISOMORPHIC = "ISOMORPHIC"
NOT_ISOMORPHIC = "NOT_ISOMORPHIC"
UNKNOWN = "UNKNOWN"

SignaturePattern = tuple[tuple[int, int], ...]

_set = object.__setattr__


class HermitianForm(Frozen):
    """diag(a_1, ..., a_n) with entries in the base field of ext.

    Its invariants besides the rank are worked out once, on construction:
    `signatures` is the (positives, negatives) pair at each real place, and
    `disc` is the product of the diagonal entries, a representative of the
    discriminant class in F*/N(E*). Neither can be passed in, and neither
    takes part in equality or hashing: both follow from `ext` and `diag`.
    """

    __slots__ = ("ext", "diag", "signatures", "disc")

    def __init__(self, ext: CMExtension, diag):
        if not diag:
            raise InvalidInputError("a form needs at least one diagonal entry")
        diag = tuple(ext.base._coerce(a) for a in diag)
        if any(a.is_zero() for a in diag):
            raise InvalidInputError("diagonal entries must be nonzero")
        _set(self, "ext", ext)
        _set(self, "diag", diag)
        _set(self, "disc", math.prod(diag, start=ext.base.one()))
        _set(self, "signatures", signature_pattern(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ext == other.ext and self.diag == other.diag

    def __hash__(self):
        return hash((self.ext, self.diag))

    @property
    def rank(self) -> int:
        return len(self.diag)

    def scale(self, lam) -> "HermitianForm":
        lam = self.ext.base._coerce(lam)
        if lam.is_zero():
            raise InvalidInputError("scaling by zero destroys the form")
        return HermitianForm(self.ext, tuple(lam * a for a in self.diag))

    def __neg__(self) -> "HermitianForm":
        return self.scale(-1)

    def __str__(self) -> str:
        return "diag(" + ", ".join(str(a) for a in self.diag) + ")"


def signature_pattern(h: HermitianForm) -> SignaturePattern:
    """(positives, negatives) among the diagonal entries at each real place.

    `HermitianForm` calls this once and keeps the result as `h.signatures`.
    Each distinct entry is evaluated once per place.
    """
    pattern = []
    for place in h.ext.base.real_places():
        sign = {a: a.sign_at(place) for a in dict.fromkeys(h.diag)}
        signs = [sign[a] for a in h.diag]
        pattern.append((signs.count(1), signs.count(-1)))
    return tuple(pattern)


def _indefinite(pattern: SignaturePattern) -> tuple[int, ...]:
    """Places j whose signature has both positives and negatives."""
    return tuple(j for j, pq in enumerate(pattern) if min(pq) > 0)


def indefinite_places(h: HermitianForm) -> tuple[int, ...]:
    return _indefinite(h.signatures)


def forms_equivalent(h1: HermitianForm, h2: HermitianForm) -> bool:
    """Exact equivalence test: rank, signatures, and discriminant class.

    These are complete invariants for hermitian forms over a number field,
    so both answers are definitive; an undecidable discriminant comparison
    raises InconclusiveError instead of returning.
    """
    if h1.ext != h2.ext:
        raise InvalidInputError("forms live over different CM extensions")
    if h1.rank != h2.rank or h1.signatures != h2.signatures:
        return False
    return norm_class_equal(h1.ext, h1.disc, h2.disc)


class IsomorphismVerdict(Frozen):
    """`status` is ISOMORPHIC, NOT_ISOMORPHIC or UNKNOWN; `witness_place` is
    where a definite/indefinite mismatch lies, `scaling` a lambda with
    lambda*h1 ~ h2."""

    __slots__ = ("status", "witness_place", "scaling", "detail")

    def __init__(self, status: str, witness_place: Optional[int] = None,
                 scaling: Optional[FieldElement] = None, detail: str = ""):
        _set(self, "status", status)
        _set(self, "witness_place", witness_place)
        _set(self, "scaling", scaling)
        _set(self, "detail", detail)

    def __str__(self) -> str:
        return f"{self.status} ({self.detail})" if self.detail else self.status


def _lambda_candidates(
    h1: HermitianForm, h2: HermitianForm, unit_gens: Sequence[FieldElement], height: int
):
    """Products of generators and diagonal entries with exponent height <= bound.

    Both signs of every product are produced; 1 and -1 always appear
    (the empty product).
    """
    pool = tuple(unit_gens) + h1.diag + h2.diag
    base = list(dict.fromkeys(h1.ext.base._coerce(g) for g in pool))
    emitted = set()
    for total in range(height + 1):
        for exps in _signed_exponent_vectors(len(base), total):
            lam = h1.ext.base.one()
            for g, e in zip(base, exps):
                lam = lam * g**e
            for signed in (lam, -lam):
                if signed not in emitted:
                    emitted.add(signed)
                    yield signed


def _signed_exponent_vectors(length: int, total: int):
    """Integer vectors with sum of |entries| equal to total, small heads first."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for head in sorted(range(-total, total + 1), key=lambda x: (abs(x), x < 0)):
        for rest in _signed_exponent_vectors(length - 1, total - abs(head)):
            yield (head,) + rest


def group_isomorphism_verdict(
    h1: HermitianForm,
    h2: HermitianForm,
    unit_gens: Sequence[FieldElement] = (),
    height: int = 2,
) -> IsomorphismVerdict:
    """One-sided comparison of the special unitary groups of two forms.

    A real place where exactly one form is definite certifies
    NOT_ISOMORPHIC: |pos - neg| there is invariant under any scaling, and
    the scaled form would have to match. A scalar in the search pool making
    lambda*h1 equivalent to h2 certifies ISOMORPHIC. Anything subtler is
    reported UNKNOWN rather than guessed.
    """
    if h1.ext != h2.ext:
        raise InvalidInputError("forms live over different CM extensions")
    if h1.rank != h2.rank:
        raise InvalidInputError("verdict requires equal ranks")
    if h1.rank % 2 == 0:
        raise InvalidInputError("even rank is out of scope for group verdicts")

    sig1, sig2 = h1.signatures, h2.signatures
    indef1, indef2 = _indefinite(sig1), _indefinite(sig2)
    for j, (pq1, pq2) in enumerate(zip(sig1, sig2)):
        if (j in indef1) != (j in indef2):
            return IsomorphismVerdict(
                NOT_ISOMORPHIC,
                witness_place=j,
                detail=f"real place {j}: signatures {pq1} vs {pq2}",
            )

    saw_inconclusive = False
    for lam in _lambda_candidates(h1, h2, unit_gens, height):
        try:
            if forms_equivalent(h1.scale(lam), h2):
                return IsomorphismVerdict(
                    ISOMORPHIC, scaling=lam, detail=f"lambda = {lam}"
                )
        except InconclusiveError:
            saw_inconclusive = True
    detail = "no scaling found within the height bound"
    if saw_inconclusive:
        detail += "; some candidates were undecidable"
    return IsomorphismVerdict(UNKNOWN, detail=detail)


def _validate_permutation(tau: Sequence[int], size: int) -> tuple[int, ...]:
    tau = tuple(tau)
    if sorted(tau) != list(range(size)):
        raise InvalidInputError(
            f"expected a permutation of 0..{size - 1}, got {tau}"
        )
    return tau


def twist_pattern(pattern: SignaturePattern, tau: Sequence[int]) -> SignaturePattern:
    """Pull the per-place signatures back along the place permutation.

    Entry j of the result is entry tau(j) of the input.
    """
    tau = _validate_permutation(tau, len(pattern))
    return tuple(pattern[tau[j]] for j in range(len(pattern)))


PASS = "PASS"
FAIL = "FAIL"


class ComponentCheck(Frozen):
    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, status: str, detail: str):
        _set(self, "name", name)
        _set(self, "status", status)  # PASS | FAIL | UNKNOWN
        _set(self, "detail", detail)


class SeedVerdict(Frozen):
    __slots__ = ("status", "components")

    def __init__(self, status: str, components: tuple[ComponentCheck, ...]):
        _set(self, "status", status)  # PASS | FAIL | UNKNOWN
        _set(self, "components", components)

    def component(self, name: str) -> ComponentCheck:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def __str__(self) -> str:
        parts = ", ".join(f"{c.name}={c.status}" for c in self.components)
        return f"{self.status} [{parts}]"


def _standing_assumption(pattern: SignaturePattern, rank: int) -> ComponentCheck:
    # Exactly one real place indefinite, with the extreme signature
    # {rank-1, 1}; all other places definite.
    indef = _indefinite(pattern)
    if len(indef) != 1:
        return ComponentCheck(
            "standing-assumption", FAIL, f"{len(indef)} indefinite places in {pattern}"
        )
    j = indef[0]
    p, q = pattern[j]
    if sorted((p, q)) != [1, rank - 1]:
        return ComponentCheck(
            "standing-assumption",
            FAIL,
            f"indefinite signature {(p, q)} at place {j} is not rank-1,1",
        )
    return ComponentCheck(
        "standing-assumption", PASS, f"unique indefinite place {j} with {(p, q)}"
    )


def seed_pair_check(
    h1: HermitianForm,
    h2: HermitianForm,
    tau: Sequence[int],
    probe_place=None,
    unit_gens: Sequence[FieldElement] = (),
    height: int = 2,
) -> SeedVerdict:
    """The four computable hypotheses that make (h1, h2, tau) a seed pair.

    (a) each form satisfies the standing assumption (one indefinite place,
        signature rank-1,1 there, definite elsewhere);
    (b) the groups are non-isomorphic, which the trivial-automorphism check
        makes complete: with no nontrivial field automorphism the only
        composition to rule out is the identity one;
    (c) tau carries the signature pattern of h1 to that of h2;
    (d) the odd-rank local rule at the probe place (when given): in odd
        rank every form gives the same special unitary group at a finite
        place, so this records how the place splits in E and is UNKNOWN
        only when that splitting is undecided.
    """
    if h1.ext != h2.ext:
        raise InvalidInputError("forms live over different CM extensions")
    if h1.rank != h2.rank:
        raise InvalidInputError("seed pairs have equal ranks")
    if h1.rank % 2 == 0:
        raise InvalidInputError("even rank is out of scope for seed pairs")
    tau = _validate_permutation(tau, h1.ext.base.real_place_count)

    components: list[ComponentCheck] = []

    sig1, sig2 = h1.signatures, h2.signatures
    a1 = _standing_assumption(sig1, h1.rank)
    a2 = _standing_assumption(sig2, h2.rank)
    if a1.status == PASS and a2.status == PASS:
        components.append(
            ComponentCheck("standing-assumption", PASS, f"{a1.detail}; {a2.detail}")
        )
    else:
        bad = a1 if a1.status != PASS else a2
        components.append(ComponentCheck("standing-assumption", FAIL, bad.detail))

    aut = automorphism_count(h1.ext.base)
    if aut != 1:
        components.append(
            ComponentCheck(
                "non-isomorphism",
                UNKNOWN,
                f"{aut} field automorphisms; compositions not enumerated",
            )
        )
    else:
        verdict = group_isomorphism_verdict(h1, h2, unit_gens=unit_gens, height=height)
        status = {NOT_ISOMORPHIC: PASS, ISOMORPHIC: FAIL}.get(verdict.status, UNKNOWN)
        components.append(ComponentCheck("non-isomorphism", status, verdict.detail))

    twisted = twist_pattern(sig1, tau)
    if twisted == sig2:
        components.append(ComponentCheck("twist-match", PASS, f"tau = {tau}"))
    else:
        components.append(
            ComponentCheck(
                "twist-match",
                FAIL,
                f"twisted pattern {twisted} != {sig2}",
            )
        )

    if probe_place is not None:
        try:
            split = splitting_in_E(h1.ext, probe_place)
            detail = f"place is {split.kind} ({split.method}), rank {h1.rank} odd"
            components.append(ComponentCheck("local-rule", PASS, detail))
        except InconclusiveError as exc:
            components.append(ComponentCheck("local-rule", UNKNOWN, str(exc)))

    if any(c.status == FAIL for c in components):
        overall = FAIL
    elif any(c.status == UNKNOWN for c in components):
        overall = UNKNOWN
    else:
        overall = PASS
    return SeedVerdict(overall, tuple(components))
