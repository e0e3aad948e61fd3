"""Integer primality and factorization.

Deterministic Miller-Rabin (exact for anything below 3.3 * 10^24, which is
far beyond every integer this package factors) plus Brent's cycle-finding
variant of Pollard rho for the occasional large cofactor. Inputs here are
resultants and coefficient denominators, so sizes stay modest.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError

# Witness set proven sufficient for n < 3,317,044,064,679,887,385,961,981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def is_prime(n: int) -> bool:
    """Deterministic primality test for non-negative integers."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True  # no smaller prime divides n
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """One nontrivial factor of composite odd n (not a prime power guard)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        y, c, m = seed % n, (seed + 1) % n or 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        seed += 1  # rare cycle degeneracy: restart with a new polynomial


def prime_factors(n: int) -> dict[int, int]:
    """Factor |n| >= 1 into {prime: multiplicity}.

    >>> prime_factors(3319595008)
    {2: 16, 37: 3}
    """
    n = abs(n)
    if n == 0:
        raise InvalidInputError("cannot factor zero")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break  # what is left of n is 1 or a prime
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m)
        stack.extend((d, m // d))
    return dict(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n != 0."""
    divs = [1]
    for p, e in prime_factors(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
