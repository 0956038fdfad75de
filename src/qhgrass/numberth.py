"""Elementary number theory helpers: primality, factoring, orders, cyclotomics."""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24 with these bases)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # n odd composite, not a prime power of a small prime
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
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
        r = isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/nZ)^x; requires gcd(a, n) = 1."""
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    return order_dividing(a, n, euler_phi(n))


def order_dividing(a: int, n: int, multiple: int) -> int:
    """Order of the unit a mod n, given a multiple of it (a^multiple = 1 mod n)."""
    order = multiple
    for p in factorize(order):
        while order % p == 0 and pow(a, order // p, n) == 1:
            order //= p
    return order


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i, f in enumerate(sieve) if f]


def prime_iter():
    """Unbounded prime generator (trial division against known primes)."""
    known = [2, 3]
    yield from known
    c = 5
    while True:
        if all(c % p for p in known if p * p <= c):
            known.append(c)
            yield c
        c += 2


def int_poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of integer polynomials, low degree first, for a
    monic den; the remainder has no trailing zero coefficients."""
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = int_poly_divmod_monic(poly, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(poly)
