"""Diagonal hermitian forms over a CM extension and their group verdicts.

A diagonal form diag(a_1, ..., a_n) with nonzero a_i in the totally real
base field F carries three complete equivalence invariants: rank, the
signature at each real place, and the discriminant class in F*/N(E*). Form
equivalence is decided exactly from those. In odd rank the verdict on the
associated special unitary groups needs no local computation (Landherr's
theorem): it is NOT_ISOMORPHIC at a real place where the two signatures
differ as sets, which no scaling can repair, and otherwise ISOMORPHIC with
the explicit scalar lambda = disc(h2)/disc(h1) making lambda*h1 equivalent
to h2.
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
    for j in range(h.ext.base.real_place_count):
        sign = {a: a.sign_at(j) for a in dict.fromkeys(h.diag)}
        signs = [sign[a] for a in h.diag]
        pattern.append((signs.count(1), signs.count(-1)))
    return tuple(pattern)


def indefinite_places(h: HermitianForm) -> tuple[int, ...]:
    """Real places j where h has both positive and negative entries."""
    return tuple(j for j, pq in enumerate(h.signatures) if min(pq) > 0)


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
    """`status` is ISOMORPHIC or NOT_ISOMORPHIC; `witness_place` is the
    first real place where the signature sets differ, `scaling` a lambda
    with lambda*h1 ~ h2."""

    __slots__ = ("status", "witness_place", "scaling", "detail")

    def __init__(self, status: str, witness_place: Optional[int] = None,
                 scaling: Optional[FieldElement] = None, detail: str = ""):
        _set(self, "status", status)
        _set(self, "witness_place", witness_place)
        _set(self, "scaling", scaling)
        _set(self, "detail", detail)

    def __str__(self) -> str:
        return f"{self.status} ({self.detail})" if self.detail else self.status


def group_isomorphism_verdict(h1: HermitianForm, h2: HermitianForm) -> IsomorphismVerdict:
    """Whether the special unitary groups of two forms of equal odd rank n
    are isomorphic, decided in closed form.

    Through the identity of F, SU(h1) and SU(h2) are isomorphic exactly
    when some lambda in F* makes lambda*h1 equivalent to h2, and hermitian
    forms over E are classified by rank, the signature at each real place,
    and the discriminant class in F*/N(E*) (Landherr 1936; Scharlau,
    Quadratic and Hermitian Forms, ch. 10). Take lambda = disc(h2)/disc(h1).
    Then disc(lambda*h1)/disc(h2) is lambda^(n-1), a square and so a norm
    from E. Write (p_i, q_i) for the signature of h_i at a real place. There
    lambda has the sign (-1)^(q1+q2), and since n is odd, lambda*h1 has the
    signature (p2, q2) exactly when {p1, q1} = {p2, q2}. Any scaling keeps
    or swaps each signature pair, so no lambda helps where the sets differ.
    The verdict is NOT_ISOMORPHIC at the first real place whose signature
    sets differ, and otherwise ISOMORPHIC with that lambda.

    >>> from latcert import CMExtension, NumberField, Polynomial
    >>> field = NumberField(Polynomial((1, -3, -1, 1)))
    >>> ext = CMExtension(field, field.from_rational(-1))
    >>> alpha = field.generator()
    >>> h1 = HermitianForm(ext, (-alpha, -alpha, -1))
    >>> h2 = HermitianForm(ext, (2 - alpha**2, 2 - alpha**2, -1))
    >>> v = group_isomorphism_verdict(h1, h2)
    >>> v.status, v.witness_place, v.detail
    ('NOT_ISOMORPHIC', 0, 'real place 0: signatures (2, 1) vs (0, 3)')
    >>> v = group_isomorphism_verdict(h1, h1)
    >>> v.status, v.scaling == field.one(), v.detail
    ('ISOMORPHIC', True, 'lambda = 1,0,0')
    """
    if h1.ext != h2.ext:
        raise InvalidInputError("forms live over different CM extensions")
    if h1.rank != h2.rank:
        raise InvalidInputError("verdict requires equal ranks")
    if h1.rank % 2 == 0:
        raise InvalidInputError("even rank is out of scope for group verdicts")

    for j, (pq1, pq2) in enumerate(zip(h1.signatures, h2.signatures)):
        if sorted(pq1) != sorted(pq2):
            return IsomorphismVerdict(
                NOT_ISOMORPHIC,
                witness_place=j,
                detail=f"real place {j}: signatures {pq1} vs {pq2}",
            )
    lam = h2.disc / h1.disc
    return IsomorphismVerdict(ISOMORPHIC, scaling=lam, detail=f"lambda = {lam}")


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
    """The component checks of a seed pair. `status` is read off them: FAIL
    if any component fails, else UNKNOWN if any is UNKNOWN, else PASS. A
    verdict needs at least one component, so no PASS is vacuous."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[ComponentCheck, ...]):
        components = tuple(components)
        if not components:
            raise InvalidInputError("a seed verdict needs at least one component")
        _set(self, "components", components)

    @property
    def status(self) -> str:
        statuses = {c.status for c in self.components}
        return FAIL if FAIL in statuses else UNKNOWN if UNKNOWN in statuses else PASS

    def __str__(self) -> str:
        parts = ", ".join(f"{c.name}={c.status}" for c in self.components)
        return f"{self.status} [{parts}]"


def _standing_assumption(h: HermitianForm) -> ComponentCheck:
    # Exactly one real place indefinite, with the extreme signature
    # {rank-1, 1}; all other places definite.
    indef = indefinite_places(h)
    if len(indef) != 1:
        return ComponentCheck(
            "standing-assumption", FAIL, f"{len(indef)} indefinite places in {h.signatures}"
        )
    j = indef[0]
    p, q = h.signatures[j]
    if sorted((p, q)) != [1, h.rank - 1]:
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
) -> SeedVerdict:
    """The four computable hypotheses that make (h1, h2, tau) a seed pair.

    (a) each form satisfies the standing assumption (one indefinite place,
        signature rank-1,1 there, definite elsewhere);
    (b) the groups are non-isomorphic: `group_isomorphism_verdict` decides
        this in closed form for the identity composition, and the
        trivial-automorphism check makes that complete, since with no
        nontrivial field automorphism no other composition is left;
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
    a1, a2 = _standing_assumption(h1), _standing_assumption(h2)
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
        verdict = group_isomorphism_verdict(h1, h2)
        status = PASS if verdict.status == NOT_ISOMORPHIC else FAIL
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

    return SeedVerdict(components)
