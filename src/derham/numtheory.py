"""p-adic valuations, stabilized gcd, and binomial congruence checks."""

from __future__ import annotations

import math

from .intlinalg import require_prime


class OutOfRangeError(ValueError):
    """An integer argument violates the documented range."""


def v_p(p: int, x: int) -> int:
    """The p-adic valuation of x != 0."""
    require_prime(p)
    if x == 0:
        raise OutOfRangeError("valuation of 0 is undefined")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def gcd_stable(r: int, n: int) -> int:
    """The limit of gcd(r, n^m) as m grows.

    Equals the largest divisor of r supported on primes dividing n; the
    sequence stabilizes once m exceeds log2(r).
    """
    if r < 1 or n < 1:
        raise OutOfRangeError("arguments must be positive")
    out = 1
    g = math.gcd(r, n)
    while g > 1:
        out *= g
        r //= g
        g = math.gcd(r, g)
    return out


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient for 0 <= k <= n."""
    if k < 0 or k > n:
        raise OutOfRangeError(f"binomial({n}, {k}) out of range")
    return math.comb(n, k)


def _lemma_modulus(p: int, n: int, k: int) -> int:
    """p^v_p(p*n*k*(n-k)), for a prime p and 0 < k < n."""
    x, modulus = n * k * (n - k), p
    while x % p == 0:
        x, modulus = x // p, modulus * p
    return modulus


def sweep_binomial_lemma(p: int, max_n: int) -> dict:
    """Exhaustive lemma sweep over 1 <= k < n <= max_n for one prime:
    C(pn, pk) = C(n, k) mod p^v_p(p*n*k*(n-k)), with p tested once."""
    require_prime(p)
    pairs = [(n, k) for n in range(2, max_n + 1) for k in range(1, n)]
    failures = [
        {"p": p, "n": n, "k": k}
        for n, k in pairs
        if (math.comb(p * n, p * k) - math.comb(n, k)) % _lemma_modulus(p, n, k)
    ]
    out = {"p": p, "checked": len(pairs), "failed": len(failures)}
    if failures:
        out["first_failure"] = failures[0]
    return out
