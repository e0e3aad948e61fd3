"""Structural covolume fingerprints for odd-rank unitary lattices.

Every factor in the covolume of the lattices we compare is determined by the
base field, the quadratic extension, the group's dimension and exponents, its
Tamagawa number, and the chosen level. This module records that tuple, in
`ITEM_NAMES` order; the runner compares the two forms' tuples item by item,
so "same covolume" is certified by equality alone, with no volume evaluated.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd
from typing import Iterable

from .errors import InvalidInputError
from .finite_groups import CongruenceLevel
from .frozen import Frozen
from .hermitian import HermitianForm
from .intfactor import prime_factors
from .number_field import CMExtension, FieldElement

ITEM_NAMES = (
    "base_field_disc",
    "relative_ext_id",
    "group_dim",
    "quasi_split_form_id",
    "exponents",
    "tamagawa",
    "level_id",
)


def _squarefree_delta_coords(delta: FieldElement) -> tuple[int, ...]:
    """Unique representative of delta's orbit under rational-square scaling.

    Scale by the squared common denominator, then strip the largest square
    dividing the integer content. The result has squarefree content, and no
    two distinct such tuples differ by a rational square.
    """
    ints = [c * delta.den for c in delta.num]
    content = gcd(*ints)
    side = 1
    for p, e in prime_factors(content).items():
        side *= p ** (e // 2)
    return tuple(v // (side * side) for v in ints)


def relative_extension_id(ext: CMExtension) -> str:
    """Canonical descriptor of the quadratic extension cut out by delta.

    Stable under rescaling delta by a rational square; a different field
    element in the same square class over the base may still get a distinct
    id, which only ever makes the equality check more conservative.
    """
    delta = ",".join(str(c) for c in _squarefree_delta_coords(ext.delta))
    base = ",".join(str(c) for c in ext.base.min_poly.coeffs)
    return f"sqrt({delta})/field({base})"


def level_id_for(levels: Iterable[CongruenceLevel]) -> str:
    """Content hash of place-indexed level data, independent of input order."""
    lines = []
    for level in levels:
        entries = sorted(str(e.coords) for e in level.form.diag)
        lines.append(f"{level.place.label()}|{';'.join(entries)}")
    digest = hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()
    return digest[:16]


class VolumeFingerprint(Frozen):
    """The seven structural inputs that pin down a lattice covolume, in
    `ITEM_NAMES` order."""

    __slots__ = ITEM_NAMES

    def __init__(
        self,
        base_field_disc: Fraction,
        relative_ext_id: str,
        group_dim: int,
        quasi_split_form_id: str,
        exponents: tuple[int, ...],
        tamagawa: int,
        level_id: str,
    ):
        rank = len(exponents) + 1
        if exponents != tuple(range(1, rank)):
            raise InvalidInputError("exponents must be 1..rank-1")
        if group_dim != rank * rank - 1:
            raise InvalidInputError("group dimension must be rank^2 - 1")
        if tamagawa != 1:
            raise InvalidInputError("Tamagawa number is always 1 here")
        for name, value in zip(ITEM_NAMES, (base_field_disc, relative_ext_id, group_dim,
                                            quasi_split_form_id, exponents, tamagawa, level_id)):
            object.__setattr__(self, name, value)


def fingerprint(h: HermitianForm, level_id: str) -> VolumeFingerprint:
    """Assemble the covolume fingerprint of the special unitary group of h.

    Only the field, the extension, the rank, and the level enter; the
    diagonal entries themselves do not, so equivalent and inequivalent forms
    of the same shape share a fingerprint by design.
    """
    rank = h.rank
    if rank % 2 == 0:
        raise InvalidInputError("even rank is out of scope")
    ext_id = relative_extension_id(h.ext)
    return VolumeFingerprint(
        base_field_disc=Fraction(h.ext.base.discriminant),
        relative_ext_id=ext_id,
        group_dim=rank * rank - 1,
        quasi_split_form_id=f"quasi-split-SU_{rank}({ext_id})",
        exponents=tuple(range(1, rank)),
        tamagawa=1,
        level_id=str(level_id),
    )
