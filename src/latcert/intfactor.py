"""Integer primality and factorization.

Deterministic Miller-Rabin (exact for anything below 3.3 * 10^24, which is
far beyond every integer this package factors), trial division by the primes
below 200, exact integer roots for a prime power (`prime_power`), and
Pollard's rho with Floyd's cycle detection for any other composite cofactor.
Inputs here are resultants and coefficient denominators, so sizes stay
modest and rho is rarely reached. Building a field, isolating real roots,
reading a prime power and the search's integer-root drops factor no integer
(`polynomials.squarefree_factors`, `polynomials.isolate_real_roots`,
`prime_power`, `polynomials._has_integer_root`).
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


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, k) with n = p^k and p prime, or None when n is no prime power.

    For k = 1, 2, ... while 2^k <= n, r is the integer k-th root of n, by
    Newton's iteration from above, and (r, k) is the answer when r^k = n
    and r is prime. No integer is factored; the k = 1 step is is_prime(n).
    """
    if n >= 2:
        for k in range(1, n.bit_length()):
            r = 1 << -(-n.bit_length() // k)
            while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
                r = s
            if r**k == n and is_prime(r):
                return r, k
    return None


def prime_factors(n: int) -> dict[int, int]:
    """Factor |n| >= 1 into {prime: multiplicity}.

    Trial division takes the primes below 200, `prime_power` reads each
    cofactor left, and rho splits one only when it is no prime power.

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
        power = prime_power(m)
        if power is not None:
            p, k = power
            out[p] = out.get(p, 0) + k
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return dict(sorted(out.items()))
