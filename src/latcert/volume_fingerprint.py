"""Structural covolume records for odd-rank unitary lattices.

Every factor in the covolume of the lattices we compare is determined by the
base field, the quadratic extension, the group's dimension and exponents, its
Tamagawa number, and the chosen level. Both forms of a seed pair share all of
these, so the runner writes one record of them for the pair, and "same
covolume" holds by construction, with no volume evaluated.
"""

from __future__ import annotations

import hashlib
from math import gcd
from typing import Iterable

from .certificates import exact
from .errors import InvalidInputError
from .hermitian import HermitianForm
from .intfactor import prime_factors
from .local import FinitePlace
from .number_field import CMExtension, FieldElement


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
    id.
    """
    delta = ",".join(str(c) for c in _squarefree_delta_coords(ext.delta))
    base = ",".join(str(c) for c in ext.base.min_poly.coeffs)
    return f"sqrt({delta})/field({base})"


def level_id_for(places: Iterable[FinitePlace], form: HermitianForm) -> str:
    """Content hash of the form's diagonal at each level place, independent
    of the order of the places."""
    entries = ";".join(sorted(str(e.coords) for e in form.diag))
    lines = sorted(f"{place.label()}|{entries}" for place in places)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:16]


def fingerprint(h: HermitianForm, level_id: str) -> dict:
    """The covolume record of the special unitary group of h, every number
    an exact() string.

    Only the field, the extension, the rank, and the level enter; the
    diagonal entries themselves do not, so equivalent and inequivalent forms
    of the same shape share a record by design.
    """
    rank = h.rank
    if rank % 2 == 0:
        raise InvalidInputError("even rank is out of scope")
    ext_id = relative_extension_id(h.ext)
    return {
        "base_field_disc": exact(h.ext.base.discriminant),
        "relative_ext_id": ext_id,
        "group_dim": exact(rank * rank - 1),
        "quasi_split_form_id": f"quasi-split-SU_{rank}({ext_id})",
        "exponents": [exact(e) for e in range(1, rank)],
        "tamagawa": exact(1),
        "level_id": level_id,
    }
