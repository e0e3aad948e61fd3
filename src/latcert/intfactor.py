"""Integer primality and factorization.

Deterministic Miller-Rabin (exact for anything below 3.3 * 10^24, which is
far beyond every integer this package factors), trial division by the primes
below 200, and Pollard's rho with Floyd's cycle detection for a cofactor
with no smaller prime factor. Inputs here are resultants and coefficient
denominators, so sizes stay modest and rho is rarely reached. Building a
field, isolating real roots, reading a prime power and the search's
integer-root drops factor no integer (`polynomials.squarefree_factors`,
`polynomials.isolate_real_roots`, `finite_groups._prime_power`,
`polynomials._has_integer_root`).
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


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n (Pollard 1975): walk
    x -> x^2 + c mod n at one and at two steps a turn (Floyd's cycle
    detection) until gcd(x - y, n) > 1, and start over with the next c
    when that gcd is n itself."""
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g
        c += 1


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
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return dict(sorted(out.items()))

