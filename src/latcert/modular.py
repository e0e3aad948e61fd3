"""Polynomial arithmetic over Z/m, factorization over prime fields, and
Hensel lifting of coprime factor blocks to prime-power precision.

Polynomials are tuples of ints, constant term first, coefficients reduced
into [0, m), no trailing zeros; the zero polynomial is (). Most helpers work
modulo any m >= 2, but anything involving division of leading coefficients
(gcd, factorization) requires m prime, and the Hensel routines require the
polynomials being divided by to be monic.
"""

from __future__ import annotations

import itertools
import random

from .errors import InvalidInputError
from .frozen import Frozen
from .intfactor import is_prime

Coeffs = tuple[int, ...]


def trim(c: Coeffs) -> Coeffs:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def normalize(c, m: int) -> Coeffs:
    return trim(tuple(x % m for x in c))


def degree(c: Coeffs) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(c) - 1


def add(a: Coeffs, b: Coeffs, m: int) -> Coeffs:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim(tuple((x + y) % m for x, y in zip(a, b)))


def sub(a: Coeffs, b: Coeffs, m: int) -> Coeffs:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim(tuple((x - y) % m for x, y in zip(a, b)))


def scale(a: Coeffs, k: int, m: int) -> Coeffs:
    return trim(tuple(x * k % m for x in a))


def mul(a: Coeffs, b: Coeffs, m: int) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return trim(tuple(out))


def divmod_poly(a: Coeffs, b: Coeffs, m: int) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder; lc(b) must be invertible mod m."""
    if not b:
        raise InvalidInputError("division by the zero polynomial")
    inv_lc = pow(b[-1], -1, m)
    rem = list(a)
    qdeg = len(a) - len(b)
    if qdeg < 0:
        return (), trim(a)
    quot = [0] * (qdeg + 1)
    for i in range(qdeg, -1, -1):
        c = rem[i + len(b) - 1] * inv_lc % m
        if c:
            quot[i] = c
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - c * y) % m
    return trim(tuple(quot)), trim(tuple(rem))


def mod_poly(a: Coeffs, b: Coeffs, m: int) -> Coeffs:
    return divmod_poly(a, b, m)[1]


def monic(a: Coeffs, m: int) -> Coeffs:
    if not a:
        return a
    return scale(a, pow(a[-1], -1, m), m)


def gcd_poly(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    """Monic gcd over the prime field F_p (gcd(0, 0) = 0)."""
    while b:
        a, b = b, mod_poly(a, b, p)
    return monic(a, p)


def ext_gcd(a: Coeffs, b: Coeffs, p: int) -> tuple[Coeffs, Coeffs, Coeffs]:
    """(g, s, t) over F_p with s*a + t*b = g, g the monic gcd."""
    r0, r1 = trim(a), trim(b)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = divmod_poly(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, p), p)
        t0, t1 = t1, sub(t0, mul(q, t1, p), p)
    if not r0:
        return (), s0, t0
    c = pow(r0[-1], -1, p)
    return scale(r0, c, p), scale(s0, c, p), scale(t0, c, p)


def deriv(a: Coeffs, m: int) -> Coeffs:
    return trim(tuple(i * c % m for i, c in enumerate(a) if i >= 1))


def pow_mod(base: Coeffs, e: int, modulus: Coeffs, p: int) -> Coeffs:
    """base**e reduced mod (modulus, p) by square-and-multiply."""
    if e < 0:
        raise InvalidInputError("negative exponent")
    result = (1,)
    acc = mod_poly(base, modulus, p)
    while e:
        if e & 1:
            result = mod_poly(mul(result, acc, p), modulus, p)
        acc = mod_poly(mul(acc, acc, p), modulus, p)
        e >>= 1
    return result


def _pth_root(f: Coeffs, p: int) -> Coeffs:
    # f = g(x^p) over F_p; Frobenius fixes F_p, so g just picks every p-th
    # coefficient.
    return trim(tuple(f[i] for i in range(0, len(f), p)))


def squarefree_factorization(f: Coeffs, p: int) -> list[tuple[Coeffs, int]]:
    """Write monic f as a product of pairwise-coprime squarefree factors.

    Returns [(g, k)] with f = prod g^k, each g monic squarefree of degree
    >= 1, sorted by multiplicity. Complete in characteristic p (descends
    through x^p when the derivative vanishes).
    """
    f = trim(f)
    if not f or f[-1] != 1:
        raise InvalidInputError("squarefree factorization needs a monic polynomial")
    out: dict[Coeffs, int] = {}
    outer = 1
    while degree(f) >= 1:
        fp = deriv(f, p)
        if fp:
            c = gcd_poly(f, fp, p)
            w = divmod_poly(f, c, p)[0]
            i = 1
            while degree(w) > 0:
                y = gcd_poly(w, c, p)
                z = divmod_poly(w, y, p)[0]
                if degree(z) >= 1:
                    out[z] = out.get(z, 0) + i * outer
                w = y
                c = divmod_poly(c, y, p)[0]
                i += 1
            f = c
        # what is left is a polynomial in x^p: descend through x^p
        f, outer = _pth_root(f, p), outer * p
    return sorted(out.items(), key=lambda kv: (kv[1], kv[0]))


def distinct_degree_factorization(f: Coeffs, p: int) -> list[tuple[Coeffs, int]]:
    """Split squarefree monic f into products of same-degree irreducibles.

    Returns [(product_of_degree_d_factors, d)] with d strictly increasing.
    """
    out = []
    rem = f
    h = mod_poly((0, 1), rem, p)  # x^{p^i} mod rem, starting at i = 0
    i = 0
    while degree(rem) >= 2 * (i + 1):
        i += 1
        h = pow_mod(h, p, rem, p)
        g = gcd_poly(rem, sub(h, (0, 1), p), p)
        if degree(g) > 0:
            out.append((g, i))
            rem = divmod_poly(rem, g, p)[0]
            h = mod_poly(h, rem, p)
    if degree(rem) > 0:
        out.append((rem, degree(rem)))
    return out


def degree_pattern(f: Coeffs, p: int) -> list[int]:
    """Multiset of irreducible factor degrees of squarefree monic f."""
    pattern: list[int] = []
    for g, d in distinct_degree_factorization(f, p):
        pattern.extend([d] * (degree(g) // d))
    return sorted(pattern)


def _split_equal_degree(f: Coeffs, d: int, p: int, rng: random.Random) -> list[Coeffs]:
    # f is a squarefree monic product of irreducibles all of degree d.
    if degree(f) == d:
        return [f]
    n = degree(f)
    while True:
        r = trim(tuple(rng.randrange(p) for _ in range(n)))
        if degree(r) < 1:
            continue
        g = gcd_poly(f, r, p)
        if 0 < degree(g) < n:
            break
        if p == 2:
            # Trace map r + r^2 + ... + r^{2^{d-1}} lands in F_2 on each
            # factor; gcd with f - and with f/(gcd) - splits the product.
            acc = t = mod_poly(r, f, p)
            for _ in range(d - 1):
                t = mod_poly(mul(t, t, p), f, p)
                acc = add(acc, t, p)
            g = gcd_poly(f, acc, p)
        else:
            h = pow_mod(r, (p**d - 1) // 2, f, p)
            g = gcd_poly(f, sub(h, (1,), p), p)
        if 0 < degree(g) < n:
            break
    rest = divmod_poly(f, g, p)[0]
    return _split_equal_degree(g, d, p, rng) + _split_equal_degree(rest, d, p, rng)


def factor_monic(f_int: Coeffs, p: int) -> list[tuple[Coeffs, int]]:
    """Full factorization of a monic integer polynomial reduced mod p.

    Returns [(irreducible monic factor, multiplicity)] sorted by
    (degree, coefficient tuple); the split order is randomized internally
    but seeded from the input, so results are reproducible.
    """
    if not is_prime(p):
        raise InvalidInputError(f"{p} is not prime")
    f = normalize(f_int, p)
    if degree(f) < 1 or f[-1] != 1:
        raise InvalidInputError("expected a monic polynomial of degree >= 1 mod p")
    rng = random.Random((p, f).__repr__())
    out: list[tuple[Coeffs, int]] = []
    for g, mult in squarefree_factorization(f, p):
        for h, d in distinct_degree_factorization(g, p):
            for irr in _split_equal_degree(h, d, p, rng):
                out.append((irr, mult))
    return sorted(out, key=lambda fm: (degree(fm[0]), fm[0]))


def is_irreducible_mod(f: Coeffs, p: int) -> bool:
    """Irreducibility of nonzero f over F_p."""
    f = normalize(f, p)
    if degree(f) < 1:
        return False
    if degree(f) == 1:
        return True
    f = monic(f, p)
    fp = deriv(f, p)
    if not fp or degree(gcd_poly(f, fp, p)) > 0:
        return False
    return degree_pattern(f, p) == [degree(f)]


def find_irreducible(p: int, d: int) -> Coeffs:
    """Smallest (lexicographic lower-coefficient) monic irreducible of
    degree d over F_p. Deterministic; it builds the finite fields over which
    `finite_groups` enumerates matrices to check its group orders."""
    if d == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=d):
        cand = tuple(tail) + (1,)
        if is_irreducible_mod(cand, p):
            return cand
    raise AssertionError("irreducible polynomial must exist")


# ---------------------------------------------------------------------------
# Hensel lifting


def _lift_pair(f: Coeffs, g: Coeffs, h: Coeffs, p: int, precision: int) -> tuple[Coeffs, Coeffs]:
    # f monic mod p^precision, g*h ≡ f mod p with g, h monic coprime mod p.
    g0, h0 = normalize(g, p), normalize(h, p)
    one, s, t = ext_gcd(g0, h0, p)
    if one != (1,):
        raise InvalidInputError("Hensel blocks are not coprime mod p")
    G = tuple(g0)
    H = tuple(h0)
    step = p
    for k in range(1, precision):
        modulus = step * p
        prod = mul(G, H, modulus)
        n = max(len(f), len(prod))
        fe = f + (0,) * (n - len(f))
        pe = prod + (0,) * (n - len(prod))
        e = trim(tuple(((x - y) % modulus) // step % p for x, y in zip(fe, pe)))
        u = mod_poly(mul(t, e, p), g0, p)
        w_num = sub(e, mul(u, h0, p), p)
        w, rem = divmod_poly(w_num, g0, p)
        assert not rem, "Hensel correction must divide exactly"
        G = trim(tuple((a + step * b) % modulus for a, b in itertools.zip_longest(G, u, fillvalue=0)))
        H = trim(tuple((a + step * b) % modulus for a, b in itertools.zip_longest(H, w, fillvalue=0)))
        step = modulus
    return G, H


def hensel_lift_blocks(f_int: Coeffs, blocks: list[Coeffs], p: int, precision: int) -> list[Coeffs]:
    """Lift pairwise-coprime monic blocks with prod(blocks) ≡ f mod p to
    factors mod p^precision whose product is f mod p^precision.

    A single block is returned as f itself reduced mod p^precision, which is
    exact to any precision.
    """
    if precision < 1:
        raise InvalidInputError("precision must be >= 1")
    modulus = p**precision
    f = normalize(f_int, modulus)
    if not f or f[-1] != 1:
        raise InvalidInputError("Hensel lifting requires a monic polynomial")
    if len(blocks) == 1:
        return [f]
    g0 = normalize(blocks[0], p)
    rest = blocks[1:]
    h0: Coeffs = (1,)
    for b in rest:
        h0 = mul(h0, normalize(b, p), p)
    G, H = _lift_pair(f, g0, h0, p, precision)
    return [G] + hensel_lift_blocks(H, rest, p, precision)


# ---------------------------------------------------------------------------
# Residue fields


class FiniteField(Frozen):
    """F_{p^d} presented as F_p[x]/(modulus), elements as trimmed tuples."""

    __slots__ = ("char", "modulus")

    def __init__(self, p: int, modulus: Coeffs):
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        m = normalize(modulus, p)
        if degree(m) < 1 or m[-1] != 1:
            raise InvalidInputError("modulus must be monic of degree >= 1")
        if not is_irreducible_mod(m, p):
            raise InvalidInputError("modulus is reducible; not a field")
        object.__setattr__(self, "char", p)
        object.__setattr__(self, "modulus", m)

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def zero(self) -> Coeffs:
        return ()

    @property
    def one(self) -> Coeffs:
        return (1,)

    def add(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return add(a, b, self.char)

    def sub(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return sub(a, b, self.char)

    def mul(self, a: Coeffs, b: Coeffs) -> Coeffs:
        return mod_poly(mul(a, b, self.char), self.modulus, self.char)

    def pow(self, a: Coeffs, e: int) -> Coeffs:
        return pow_mod(a, e, self.modulus, self.char)

    def elements(self):
        """All elements, lexicographic in coefficient tuples."""
        for coeffs in itertools.product(range(self.char), repeat=self.degree):
            yield trim(coeffs)

    def frobenius(self, a: Coeffs, times: int = 1) -> Coeffs:
        return self.pow(a, self.char**times)
