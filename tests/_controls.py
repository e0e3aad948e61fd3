"""Negative controls: seed pairs that `hermitian.seed_pair_check` must never
call PASS.

Over E = F(sqrt(delta)), real place j of F is represented as in the search:
by diag(u, ..., u, -1) for the first u of `search._entry_pool`, which has
coordinates in {-1, 0, 1} and is positive at j alone. With h_i and h_j the
representatives of the first two represented places i < j, the controls
are, each with its name:
- "lambda=1", "lambda=2", "lambda=-1": h_i against lambda*h_i, tau = id;
  scaling never changes the group;
- "one place": the first two representatives of the first place that has
  two, tau = id; they have the same signature sets, so the same group;
- "wrong tau": h_i against h_j with tau = id, where only the transposition
  of i and j carries one signature pattern to the other;
- "definite": diag(-1, ..., -1), definite at every place, against h_i;
- "two places": diag(u_i, u_j, -1, ..., -1), indefinite at i and j alone,
  against h_i, tau the transposition of i and j.
The last two break the standing assumption. One control of each kind per
field keeps a sweep short: every `seed_pair_check` counts the field's
automorphisms, and a field with #Aut != 1 counts them by Trager's method.
"""

from __future__ import annotations

from collections import Counter

from latcert.hermitian import PASS, HermitianForm, seed_pair_check
from latcert.search import _entry_pool, _transposition


def controls(ext, rank: int = 3):
    """(name, h1, h2, tau) for every control over ext, in a fixed order."""
    field = ext.base
    size = field.real_place_count
    identity = tuple(range(size))
    pool: dict[int, list] = {}
    for j, u in _entry_pool(field):
        pool.setdefault(j, []).append(u)

    def form(*entries):
        return HermitianForm(ext, entries + (-1,) * (rank - len(entries)))

    places = sorted(pool)
    if not places:
        return
    i = places[0]
    h = form(*(pool[i][0],) * (rank - 1))
    for lam in (1, 2, -1):
        yield f"lambda={lam}", h, h.scale(lam), identity
    for j in places:
        if len(pool[j]) > 1:
            first, second = (form(*(u,) * (rank - 1)) for u in pool[j][:2])
            yield "one place", first, second, identity
            break
    yield "definite", form(*(-1,) * rank), h, identity
    if len(places) > 1:
        j = places[1]
        yield "wrong tau", h, form(*(pool[j][0],) * (rank - 1)), identity
        yield "two places", form(pool[i][0], pool[j][0]), h, _transposition(i, j, size)


def deciding_component(verdict) -> str | None:
    """The first component whose status is the verdict's, or None on PASS."""
    if verdict.status == PASS:
        return None
    return next(c.name for c in verdict.components if c.status == verdict.status)


def control_histogram(exts, rank: int = 3) -> Counter:
    """Counts of (control, verdict, deciding component) over the given
    extensions."""
    out = Counter()
    for ext in exts:
        for name, h1, h2, tau in controls(ext, rank):
            verdict = seed_pair_check(h1, h2, tau)
            out[name, verdict.status, deciding_component(verdict)] += 1
    return out
