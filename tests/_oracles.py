"""Independent test oracles.

These deliberately avoid the package's own algorithms: the resultant oracle
expands a Sylvester determinant, the root oracle scans signs on a fine grid,
the group-order oracle enumerates matrices directly over Z/m, the dyadic
square and unit-norm oracles try every residue in a box of coordinates mod
4, reading valuations and norms off the Sylvester determinant, the factor
oracle is Kronecker's interpolation search, and the quartic automorphism
oracle reads the Galois group off the resolvent cubic, and the integer
factor oracle divides by every d with d^2 <= n. The root isolation,
interval enclosure and field product and inverse oracles are the package's
former Fraction implementations, on plain coefficient lists, the sieve
root bound is its former root count by distinct-degree factorization mod l,
and the totally real box is the search's former scan of the whole
coefficient box, one Sturm count per polynomial with the package's former
count at -inf and +inf, and the Hankel minors are Fraction determinants,
each taken on its own. The canonical certificate text is the standard
library's json.dumps, and the payload check its former walk in insertion
order. The local norm oracle lifts a place's factor block with the package's
Hensel lift, but always to 64 digits, whatever the element, and takes the
resultant as a Sylvester determinant; the unit residue oracle divides an
element by that block to read its residue, and the residue square oracle is
Euler's criterion in F_l[x]/(g). Slow and simple on purpose.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

from latcert import modular
from latcert.errors import CertificateFormatError, InvalidInputError
from latcert.polynomials import _sturm_chain as _integer_sturm_chain


def sylvester_resultant(a: list[Fraction], b: list[Fraction]) -> Fraction:
    """Resultant via Laplace expansion of the Sylvester matrix.

    Coefficient lists are constant-term first, nonzero leading coefficient;
    integer lists keep the whole expansion in integers.
    """
    m = len(a) - 1
    n = len(b) - 1
    if m < 0 or n < 0:
        raise ValueError("nonzero polynomials only")
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    arev = list(reversed(a))  # leading first for the classical layout
    brev = list(reversed(b))
    for i in range(n):
        rows.append([0] * i + arev + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + brev + [0] * (size - n - 1 - i))

    @functools.lru_cache(maxsize=None)
    def det(cols: tuple[int, ...]) -> Fraction:
        # Laplace expansion along the first of the remaining rows, over the
        # remaining columns; minors repeat, so each is expanded only once.
        row = rows[size - len(cols)]
        if len(cols) == 1:
            return row[cols[0]]
        total = 0
        for pos, col in enumerate(cols):
            if row[col] == 0:
                continue
            term = row[col] * det(cols[:pos] + cols[pos + 1:])
            total += term if pos % 2 == 0 else -term
        return total

    return Fraction(det(tuple(range(size))))


def sign_scan_roots(
    coeffs: list[Fraction], lo: Fraction, hi: Fraction, step: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Bracket every sign change of the polynomial on a uniform grid.

    Exact rational evaluation; a grid point that is itself a root becomes a
    degenerate bracket. Misses nothing as long as the step is below the
    minimal root gap and roots are simple.
    """

    def value(x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    out = []
    x = lo
    prev_x, prev_v = lo, value(lo)
    if prev_v == 0:
        out.append((lo, lo))
    while x < hi:
        x = x + step
        v = value(x)
        if v == 0:
            out.append((x, x))
        elif (prev_v < 0 < v) or (v < 0 < prev_v):
            out.append((prev_x, x))
        prev_x, prev_v = x, v
    return out


def count_matrices_with_det_one(modulus: int, size: int) -> int:
    """|SL_size(Z/modulus)| by brute enumeration (tiny cases only)."""
    cells = size * size
    count = 0
    for entries in itertools.product(range(modulus), repeat=cells):
        mat = [list(entries[i * size:(i + 1) * size]) for i in range(size)]
        if _det_mod(mat, modulus) == 1 % modulus:
            count += 1
    return count


def _det_mod(mat: list[list[int]], m: int) -> int:
    k = len(mat)
    if k == 1:
        return mat[0][0] % m
    total = 0
    for col in range(k):
        minor = [row[:col] + row[col + 1:] for row in mat[1:]]
        term = mat[0][col] * _det_mod(minor, m)
        total += term if col % 2 == 0 else -term
    return total % m


def dyadic_square_scan(field, block: tuple[int, ...], e: int, f: int, w: Fraction) -> bool:
    """Whether the odd rational w is a square at a place of the field above 2.

    The place has ramification e and residue degree f, and `block` is its
    factor of the defining polynomial over Z_2, constant term first (the
    polynomial itself when the place is alone above 2, otherwise a lift
    correct mod 2^64).  Every y in the box of integer coordinates of degree
    < e*f with coefficients mod 4 is tried: w is a square exactly when some
    y^2 - w has valuation at least 2e+1 (Hensel's bound for x^2 - w), and
    the box is enough: y' = y mod 4 gives y'^2 - y^2 = (y' - y)(y' + y) in
    4 * 2 * O_v = pi^(3e) * O_v, and 3e >= 2e+1.  Arithmetic is FieldElement
    multiplication, and the valuation is ord_2 of the Sylvester resultant
    against the block over f.
    """
    target = 2 * e + 1
    pad = field.degree - e * f
    w_elem = field.from_rational(w)
    for coeffs in itertools.product(range(4), repeat=e * f):
        y = field.element(tuple(Fraction(c) for c in coeffs) + (Fraction(0),) * pad)
        g = y * y - w_elem
        if g.is_zero():
            return True
        # w's denominator d is odd, so d*g has the valuation of g
        coords = [int(c * w.denominator) for c in g.coords]
        while coords[-1] == 0:
            coords.pop()
        order = _ord2(sylvester_resultant(list(block), coords).numerator)
        assert order < 60, "the block is only known mod 2^64"
        if order // f >= target:
            return True
    return False


def dyadic_unit_non_norm_scan(block: tuple[int, ...], w: Fraction) -> bool:
    """Whether some unit of a place above 2 is not a norm from F_v(sqrt w).

    For an odd rational w that is not a square at the place, F_v(sqrt w) is
    unramified exactly when every unit is a norm.  `block` is the place's
    factor over Z_2 as in dyadic_square_scan, of degree e*f.  A unit
    u is a norm exactly when (w, N(u))_{Q_2} = 1 (the projection formula),
    and for odd w and N(u) that symbol is -1 exactly when both are 3 mod 4.
    """
    return w.numerator * w.denominator % 4 == 3 and 3 in _unit_norms_mod4(block)


@functools.lru_cache(maxsize=None)
def _unit_norms_mod4(block: tuple[int, ...]) -> frozenset[int]:
    # Every y in the box of integer coordinates of degree < e*f with
    # coefficients mod 4; y is a unit exactly when N(y) = Res(block, y) is
    # odd, and N(y + 4z) = N(y) * det(1 + 4 z/y) = N(y) mod 4 covers the rest.
    out = set()
    for coeffs in itertools.product(range(4), repeat=len(block) - 1):
        coords = list(coeffs)
        while coords and coords[-1] == 0:
            coords.pop()
        if coords:
            norm = sylvester_resultant(list(block), coords).numerator
            if norm % 2:
                out.add(norm % 4)
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def _blocks_mod_l64(p: tuple[int, ...], factors: tuple, ell: int) -> list[tuple[int, ...]]:
    raw = []
    for g, e in factors:
        b = (1,)
        for _ in range(e):
            b = modular.mul(b, g, ell)
        raw.append(b)
    return modular.hensel_lift_blocks(p, raw, ell, 64)


def fixed_lift_norm_ord_and_unit(
    p: tuple[int, ...], factors: tuple, index: int, z: tuple[int, ...], ell: int, unit_mod: int
) -> tuple[int, int]:
    """(ord_l, unit residue mod unit_mod) of Res(P, z) for nonzero integer z,
    where P is the factor over Z_l of the monic integer polynomial p that
    reduces to g^e for the pair (g, e) = factors[index] of p mod l.

    Every block g^e is lifted to Z/l^64, so the answer holds while the order
    stays at most 60 (the unit residue mod 8 needs three more digits).
    """
    coords = list(z)
    while coords[-1] == 0:
        coords.pop()
    r = int(sylvester_resultant(list(_blocks_mod_l64(p, factors, ell)[index]), coords))
    assert r != 0, "the block is only known mod l^64"
    order = 0
    while r % ell == 0:
        r //= ell
        order += 1
    assert order <= 60, "the block is only known mod l^64"
    return order, r % unit_mod


def unit_residue_mod_block(
    p: tuple[int, ...], factors: tuple, index: int, num: tuple[int, ...], den: int, ell: int
) -> tuple[int, ...]:
    """Coordinates mod l of a polynomial whose image in F_l[x]/(g) is the
    residue of the unit num/den at the place of the pair (g, e) =
    factors[index] of p mod l, with l not dividing the index of Z[x]/(p).

    The completion is Z_l[x]/(P), P the block lifted to Z/l^64, and the
    unit's numerator lies in l^m times it, l^m the l-part of den; so num
    mod P has coordinates divisible by l^m, and dividing them out and by
    the rest of den mod l gives the residue.
    """
    block = _blocks_mod_l64(p, factors, ell)[index]
    m = 0
    while den % ell == 0:
        den //= ell
        m += 1
    rem = _divmod(list(map(Fraction, num)), list(map(Fraction, block)))[1]
    rem = [int(c) % ell**64 for c in rem]
    assert all(c % ell**m == 0 for c in rem), "num/den is not a unit at the place"
    inv = pow(den, -1, ell)
    return tuple(c // ell**m * inv % ell for c in rem)


def residue_is_square(factor: tuple[int, ...], ell: int, num: tuple[int, ...], den: int):
    """Euler's criterion in the residue field F_l[x]/(factor), factor monic
    irreducible mod the odd prime l: whether the image of num/den, for den
    prime to l, is a square, or None when it is zero."""
    image = modular.mod_poly(
        modular.normalize([c * pow(den, -1, ell) for c in num], ell), factor, ell
    )
    if not image:
        return None
    q = ell ** modular.degree(factor)
    return modular.pow_mod(image, (q - 1) // 2, factor, ell) == (1,)


def _ord2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _value(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [k for k in range(1, n + 1) if n % k == 0]


def trial_division_factors(n: int) -> dict[int, int]:
    """{prime: multiplicity} of n >= 1, dividing by every d from 2 up while
    d^2 <= n; what is left above 1 is prime."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divides(g: list[Fraction], f: list[int]) -> bool:
    rem = [Fraction(c) for c in f]
    while len(rem) >= len(g):
        c = rem[-1] / g[-1]
        shift = len(rem) - len(g)
        for j, y in enumerate(g):
            rem[shift + j] -= c * y
        rem.pop()
    return not any(rem)


def kronecker_factor(f: list[int], d: int) -> list[Fraction] | None:
    """A factor of degree exactly d of the integer polynomial f, or None.

    Kronecker's method: a factor g over Z divides f's value at every
    integer, so g is the interpolant through some choice of divisors of f's
    values at d + 1 integers where f does not vanish. Every choice is tried
    (the points with the fewest divisors first), and a candidate counts when
    it has integer coefficients, degree d, and divides f exactly.
    Coefficients are constant term first.
    """
    candidates = sorted(
        (x for x in range(-8, 9) if _value(f, x)), key=lambda x: len(_divisors(_value(f, x)))
    )
    points = candidates[: d + 1]
    choices = []
    for i, x in enumerate(points):
        ds = _divisors(_value(f, x))
        # g and -g are the same factor, so the first value stays positive
        choices.append(ds if i == 0 else [s * t for t in ds for s in (1, -1)])
    for combo in itertools.product(*choices):
        # Lagrange interpolation through (points, combo)
        g = [Fraction(0)] * (d + 1)
        for i, (xi, yi) in enumerate(zip(points, combo)):
            basis = [Fraction(1)]
            denom = 1
            for j, xj in enumerate(points):
                if i != j:
                    basis = [Fraction(0)] + basis
                    for k in range(len(basis) - 1):
                        basis[k] -= xj * basis[k + 1]
                    denom *= xi - xj
            for k, b in enumerate(basis):
                g[k] += yi * b / denom
        if g[-1] == 0 or any(c.denominator != 1 for c in g):
            continue
        if _divides(g, f):
            return g
    return None


def _is_rational_square(q: Fraction) -> bool:
    return q >= 0 and all(math.isqrt(k) ** 2 == k for k in (q.numerator, q.denominator))


def quartic_automorphism_count(a0: int, a1: int, a2: int, a3: int) -> int:
    """#Aut of Q[x]/(f) for irreducible f = x^4 + a3 x^3 + a2 x^2 + a1 x + a0,
    from its Galois group.

    The resolvent cubic R(x) = x^3 - b x^2 + (ac - 4d) x - (a^2 d - 4bd + c^2),
    with f = x^4 + a x^3 + b x^2 + c x + d, decides the group (Kappe & Warren
    1989): R irreducible gives S4 or A4, where a root's stabilizer is its
    own normalizer, so the count is 1; R with three rational roots gives V4,
    count 4; R with exactly one rational root r gives C4 (count 4) when
    x^2 - r x + d and x^2 + a x + (b - r) both split over Q(sqrt disc f),
    and D4 (count 2) otherwise.
    """
    a, b, c, d = a3, a2, a1, a0
    cubic = [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]
    bound = 1 + max(abs(k) for k in cubic)  # Cauchy: every root is below it
    roots = [r for r in range(-bound, bound + 1) if _value(cubic, r) == 0]
    if not roots:
        return 1
    if len(roots) == 3:
        return 4
    if len(roots) == 2:
        raise ValueError("a double root of the resolvent means f is not squarefree")
    r = roots[0]
    disc = Fraction(
        256 * d**3 - 192 * a * c * d**2 - 128 * b * b * d * d + 144 * b * c * c * d
        - 27 * c**4 + 144 * a * a * b * d * d - 6 * a * a * c * c * d - 80 * a * b * b * c * d
        + 18 * a * b * c**3 + 16 * b**4 * d - 4 * b**3 * c * c - 27 * a**4 * d * d
        + 18 * a**3 * b * c * d - 4 * a**3 * c**3 - 4 * a * a * b**3 * d + a * a * b * b * c * c
    )

    def splits(p: int, q: int) -> bool:  # x^2 + p x + q over Q(sqrt disc)
        delta = Fraction(p * p - 4 * q)
        return _is_rational_square(delta) or _is_rational_square(delta * disc)

    return 4 if splits(-r, d) and splits(a, b - r) else 2


def distinct_real_root_count(f: tuple[int, ...]) -> int:
    """Number of distinct real roots of a nonconstant integer polynomial f,
    constant term first.

    Sturm's theorem read at -inf and +inf (Cohen, GTM 138, 4.1): a chain
    member has the sign of its leading coefficient at +inf, and that sign
    times (-1)^degree at -inf, so the count needs no bisection. The chain
    of f ends at gcd(f, f') up to a constant, which divides every member
    and leaves the sign variations at both ends unchanged, so each repeated
    root counts once.
    """
    if len(f) < 2:
        raise InvalidInputError("counting real roots needs a nonconstant polynomial")
    chain = _integer_sturm_chain(f)
    at_plus = [g[-1] > 0 for g in chain]
    at_minus = [s == (len(g) % 2 == 1) for s, g in zip(at_plus, chain)]
    return sum(a != b for a, b in zip(at_minus, at_minus[1:])) - sum(
        a != b for a, b in zip(at_plus, at_plus[1:])
    )


def companion_power_sums(g: tuple[int, ...], count: int) -> list[int]:
    """trace(C^k) for k = 0 ... count - 1, C the companion matrix of the
    monic integer polynomial g (constant term first): the power sums of
    g's roots, taken without Newton's identities."""
    m = len(g) - 1
    companion = [[0] * m for _ in range(m)]
    for i in range(1, m):
        companion[i][i - 1] = 1
    for i in range(m):
        companion[i][m - 1] = -g[i]
    power = [[int(i == j) for j in range(m)] for i in range(m)]
    sums = []
    for _ in range(count):
        sums.append(sum(power[i][i] for i in range(m)))
        power = [
            [sum(power[i][r] * companion[r][j] for r in range(m)) for j in range(m)]
            for i in range(m)
        ]
    return sums


def hankel_leading_minors(t: list[int]) -> list[Fraction]:
    """The leading principal minors D_1 ... D_m of the m x m Hankel matrix
    (t_{i+j}) of t_0 ... t_{2m-2}: each one its own determinant, by
    Gaussian elimination over Fraction with row exchanges."""
    m = (len(t) + 1) // 2
    return [
        _fraction_det([[Fraction(t[i + j]) for j in range(k)] for i in range(k)])
        for k in range(1, m + 1)
    ]


def _fraction_det(rows: list[list[Fraction]]) -> Fraction:
    det = Fraction(1)
    n = len(rows)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            for j in range(k, n):
                rows[i][j] -= factor * rows[k][j]
    return det


def totally_real_box(degree: int, bound: int) -> list[tuple[int, ...]]:
    """Every monic integer polynomial of the degree with coefficients in
    [-bound, bound] and `degree` distinct real roots, constant term first,
    lexicographic in (a_0, ..., a_{degree-1}): one Sturm count per tuple."""
    box = itertools.product(range(-bound, bound + 1), repeat=degree)
    return [t + (1,) for t in box if distinct_real_root_count(t + (1,)) == degree]


def sieve_root_bound(coeffs: tuple[int, ...], disc: int, primes) -> int:
    """The automorphism sieve's bound for monic integer coeffs: the fewest
    linear factors mod l over the primes l not dividing disc that give any,
    read off the distinct-degree factorization's degree pattern, starting
    from the degree."""
    bound = len(coeffs) - 1
    for ell in primes:
        if disc % ell:
            roots = modular.degree_pattern(modular.normalize(coeffs, ell), ell).count(1)
            if roots:
                bound = min(bound, roots)
    return bound


# -- the former Fraction real-root layer -------------------------------------
# Coefficient lists of Fractions, constant term first, no trailing zeros.


def _trim(a) -> list[Fraction]:
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] -= c * y
    return _trim(quot), _trim(rem)


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _field_coords(a: list[Fraction], p: list[Fraction]) -> list[Fraction]:
    # a mod p, padded to deg p power-basis coordinates
    r = _divmod(a, p)[1]
    return r + [Fraction(0)] * (len(p) - 1 - len(r))


def fraction_field_product(a: list[Fraction], b: list[Fraction], p: list[Fraction]) -> list[Fraction]:
    """Coordinates of a * b in Q[x]/(p): the product, then its remainder."""
    return _field_coords(_mul(_trim(a), _trim(b)), p)


def fraction_field_inverse(a: list[Fraction], p: list[Fraction]) -> list[Fraction]:
    """Coordinates of 1/a in Q[x]/(p) for irreducible p and nonzero a, by the
    extended Euclidean algorithm in Q[x]: t*a = gcd = nonzero constant mod p."""
    r0, r1 = p, _trim(a)
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _trim(x - y for x, y in itertools.zip_longest(t0, _mul(q, t1), fillvalue=0))
    assert len(r0) == 1, "gcd with an irreducible modulus is constant"
    return _field_coords([c / r0[0] for c in t0], p)


def _primitive_integer(a: list[Fraction]) -> list[Fraction]:
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints)
    return [Fraction(c, g) for c in ints]


def _squarefree_part(p: list[Fraction]) -> list[Fraction]:
    # p / gcd(p, p') for the monic gcd, by Euclid over Q
    if len(p) < 2:
        return p
    a, b = p, _trim(i * c for i, c in enumerate(p) if i)
    while b:
        a, b = b, _divmod(a, b)[1]
    return _divmod(p, [c / a[-1] for c in a])[0]


def _sturm_chain(q: list[Fraction]) -> list[list[Fraction]]:
    chain = [_primitive_integer(q), _primitive_integer(_trim(i * c for i, c in enumerate(q) if i))]
    while len(chain[-1]) > 1:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_primitive_integer([-c for c in r]))
    return chain


def _variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = [v > 0 for v in (_value(member, x) for member in chain) if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _halve_toward_root(q: list[Fraction], cell: list[Fraction]) -> None:
    a, b = cell
    m = (a + b) / 2
    qa, qm = _value(q, a), _value(q, m)
    assert qm != 0
    if (qa > 0) != (qm > 0):
        cell[1] = m
    else:
        cell[0] = m


def fraction_rational_roots(p: list[Fraction]) -> list[Fraction]:
    """Sorted distinct rational roots of a nonzero polynomial, by testing
    every +-(divisor of the constant)/(divisor of the leading coefficient)
    on the primitive squarefree part."""
    q = _primitive_integer(_squarefree_part(_trim(p)))
    roots = set()
    if len(q) > 1 and q[0] == 0:
        roots.add(Fraction(0))
        q = _divmod(q, [Fraction(0), Fraction(1)])[0]
    if len(q) > 1:
        for num in _divisors(int(q[0])):
            for den in _divisors(int(q[-1])):
                if math.gcd(num, den) == 1:
                    roots |= {x for x in (Fraction(num, den), Fraction(-num, den)) if _value(q, x) == 0}
    return sorted(roots)


def fraction_isolate_real_roots(p: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals (lo, hi), ascending, by the Fraction algorithm the
    package used before its integer core: rational roots become points; the
    rest are bracketed by bisecting Cauchy's interval with Sturm counts of
    the squarefree part with the rational roots divided out, then halved
    until no two closed intervals meet."""
    q = _squarefree_part(_trim(p))
    if len(q) < 2:
        return []
    rats = fraction_rational_roots(q)
    reduced = q
    for r in rats:
        reduced = _divmod(reduced, [-r, Fraction(1)])[0]
    cells = []
    if len(reduced) > 1:
        bound = 1 + max(abs(c) / abs(reduced[-1]) for c in reduced[:-1])
        chain = _sturm_chain(reduced)
        stack = [(-bound, bound)]
        while stack:
            a, b = stack.pop()
            count = _variations(chain, a) - _variations(chain, b)
            if count == 1:
                cells.append([a, b])
            elif count > 1:
                m = (a + b) / 2
                stack += [(a, m), (m, b)]
        for cell in cells:
            while any(cell[0] <= r <= cell[1] for r in rats):
                _halve_toward_root(reduced, cell)
    items = sorted([[r, r] for r in rats] + cells)
    done = False
    while not done:
        done = True
        for i in range(len(items) - 1):
            left, right = items[i], items[i + 1]
            if left[1] >= right[0]:
                done = False
                wide = left[1] - left[0] >= right[1] - right[0]
                target = i if wide else i + 1
                if items[target][0] == items[target][1]:
                    target = 2 * i + 1 - target
                _halve_toward_root(reduced, items[target])
        items.sort()
    return [(a, b) for a, b in items]


def fraction_value_range(p: list[Fraction], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval Horner enclosure of the polynomial over [lo, hi]."""
    vlo = vhi = Fraction(0)
    for c in reversed(_trim(p)):
        products = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(products) + c, max(products) + c
    return vlo, vhi


# -- certificate text -----------------------------------------------------------


def stdlib_canonical_json(payload) -> str:
    """The canonical certificate text: the standard library's encoder with
    sorted keys, ASCII escapes and indent=1, then a newline."""
    return json.dumps(payload, sort_keys=True, ensure_ascii=True, indent=1) + "\n"


def check_payload(node, path: str = "") -> None:
    """Refuse what a certificate may not hold, walking dicts in insertion
    order: strings, booleans and None are the only leaves, keys are strings,
    and tuples count as lists."""
    if node is None or isinstance(node, (str, bool)):
        return
    if isinstance(node, (int, float)):
        raise CertificateFormatError(f"bare number at {path or '<root>'}; use exact()")
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                raise CertificateFormatError(f"non-string key at {path or '<root>'}")
            check_payload(value, f"{path}/{key}")
        return
    if isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            check_payload(value, f"{path}/{i}")
        return
    raise CertificateFormatError(f"unsupported value at {path or '<root>'}: {type(node).__name__}")
