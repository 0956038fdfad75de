"""Elementary number theory helpers: primality, factoring, orders, and
cyclotomic polynomials by exact division by binomials x^d - 1 alone."""

from __future__ import annotations

from math import gcd, isqrt
from operator import sub

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The smallest strong pseudoprime to all 13 bases in _SMALL_PRIMES.
PSI_13 = 3317044064679887385961981


class PrimalityUnprovenError(ArithmeticError):
    """n >= PSI_13 passed every strong test, which does not prove it prime."""


# Pollard rho steps one factorize call may take, about sqrt(f) for a smallest
# prime factor f; the most in the tests and the benchmark is 188,312 (psi_12).
# A step takes 1.4 us on a 27-digit n and 13 us on a 228-digit one (2-core
# x86-64, Python 3.11), so the budget runs out in about 1.5 s and 14 s.
FACTOR_BUDGET = 1 << 20


class FactoringBudgetError(ArithmeticError):
    """factorize ran out of its FACTOR_BUDGET Pollard rho steps."""


def is_prime(n: int) -> bool:
    """Strong (Miller-Rabin) tests to the 13 prime bases 2..41.

    Exact for n < PSI_13 = 3317044064679887385961981, the smallest strong
    pseudoprime to all of these bases (Sorenson and Webster, Math. Comp.
    2017). A failed test proves n composite at any size; an n >= PSI_13
    that passes all 13 raises PrimalityUnprovenError instead of an answer.
    """
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
    if n >= PSI_13:
        raise PrimalityUnprovenError(
            f"{n} passes the strong tests to bases 2..41 but is not proven prime"
        )
    return True


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of n, an odd composite that is not a perfect square,
    and the steps left of budget; FactoringBudgetError once none are left."""
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            if not budget:
                raise FactoringBudgetError(
                    f"no factor of {n} found within {FACTOR_BUDGET} Pollard rho steps"
                )
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d, budget
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}, within FACTOR_BUDGET
    Pollard rho steps in all (FactoringBudgetError past them)."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    budget = FACTOR_BUDGET
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
        d, budget = _pollard_rho(m, budget)
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


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    Phi_n is the product of (x^(n/s) - 1)^mu(s) over the squarefree divisors
    s of n. The binomials with mu(s) = 1 are multiplied in first; each of the
    others then divides exactly, a / (x^d - 1) = q with q_i = q_(i-d) - a_i.
    """
    if n < 1:
        raise ValueError("n must be positive")
    binomials = [(n, 1)]  # (n/s, mu(s)) over the squarefree divisors s of n
    for p in factorize(n):
        binomials += [(d // p, -mu) for d, mu in binomials]
    poly = [1]
    for d, mu in sorted(binomials, key=lambda b: -b[1]):  # mu = 1 first
        if mu == 1:  # times x^d - 1
            poly = list(map(sub, [0] * d + poly, poly + [0] * d))
        else:  # exactly divided by x^d - 1
            poly = [-a for a in poly[:-d]]
            for i in range(d, len(poly)):
                poly[i] += poly[i - d]
    return tuple(poly)
