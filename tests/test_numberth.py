import random

import pytest

from qhgrass import numberth
from qhgrass.numberth import PSI_13, FactoringBudgetError, PrimalityUnprovenError, factorize, is_prime

# psi_t: the smallest strong pseudoprime to all of the first t prime bases
# (Jaeschke 1993; Sorenson and Webster, Math. Comp. 2017)
_PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    9: 3825123056546413051,
    12: 318665857834031151167461,
}
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# strong pseudoprimes to base 2 below 10^5
_SPSP2 = (
    2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141, 52633, 65281, 74665, 80581, 85489,
    88357, 90751,
)


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_psi_values_are_strong_pseudoprimes_and_composite():
    sympy = pytest.importorskip("sympy")
    for t, n in _PSI.items():
        assert not sympy.isprime(n)
        assert all(_strong_probable_prime(n, a) for a in _PRIMES[:t]), t
        assert is_prime(n) is False, t


def test_psi12_is_composite():
    n = _PSI[12]
    assert n == 399165290221 * 798330580441
    assert is_prime(n) is False
    assert factorize(n) == {399165290221: 1, 798330580441: 1}


def test_psi13_raises():
    assert all(_strong_probable_prime(PSI_13, a) for a in _PRIMES)
    with pytest.raises(PrimalityUnprovenError):
        is_prime(PSI_13)
    assert issubclass(PrimalityUnprovenError, ArithmeticError)
    with pytest.raises(PrimalityUnprovenError):
        is_prime(2**89 - 1)  # a Mersenne prime above the bound: no proof, no answer
    # above the bound a failed strong test still proves compositeness
    assert is_prime((2**61 - 1) * (2**31 - 1)) is False
    assert is_prime(PSI_13 + 1) is False


def test_factorize_unproven_cofactor_raises():
    # factorize proves each cofactor prime, so one above the bound stops it
    with pytest.raises(PrimalityUnprovenError):
        factorize(2 * (2**89 - 1))


def test_factorize_against_sympy_on_semiprimes_and_carmichael_numbers():
    """Semiprimes of seeded random primes below about 10^8, their products with
    small primes and squares, and the Chernick Carmichael numbers
    (6k+1)(12k+1)(18k+1) below 10^12, against sympy's factorint."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1303)
    cases = []
    for _ in range(30):
        p = sympy.nextprime(rng.randrange(10**3, 10**8))
        q = sympy.nextprime(rng.randrange(10**3, 10**8))
        cases += [p * q, 41 * 43 * p * q, p * p * q]
    carmichael = 0
    for k in range(1, 600):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            cases.append(factors[0] * factors[1] * factors[2])
            carmichael += 1
    assert carmichael >= 10
    for n in cases:
        assert factorize(n) == sympy.factorint(n), n


def test_factorize_budget_bounds_the_rho_steps_of_one_call(monkeypatch):
    """FACTOR_BUDGET bounds the Pollard rho steps of one factorize call,
    summed over the cofactors it splits: a product of three primes near 10^6
    takes two rho calls, and one step fewer than they take in all raises."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1307)
    n = 1
    for _ in range(3):
        n *= sympy.nextprime(rng.randrange(10**6, 10**7))
    steps = []
    rho = numberth._pollard_rho

    def counting(m, budget):
        d, left = rho(m, budget)
        steps.append(budget - left)
        return d, left

    monkeypatch.setattr(numberth, "_pollard_rho", counting)
    assert factorize(n) == sympy.factorint(n)
    assert len(steps) == 2
    total = sum(steps)
    monkeypatch.setattr(numberth, "FACTOR_BUDGET", total)
    assert factorize(n) == sympy.factorint(n)
    monkeypatch.setattr(numberth, "FACTOR_BUDGET", total - 1)
    with pytest.raises(FactoringBudgetError, match=f"within {total - 1} Pollard rho steps"):
        factorize(n)
    assert issubclass(FactoringBudgetError, ArithmeticError)


def test_is_prime_against_sympy_on_seeded_hard_inputs():
    """Chernick Carmichael numbers (6k+1)(12k+1)(18k+1), the strong
    pseudoprimes to base 2 below 10^5, semiprimes of random primes and random
    odd numbers, all below PSI_13, against sympy's isprime."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1301)
    assert all(_strong_probable_prime(n, 2) for n in _SPSP2)
    cases = list(_SPSP2) + list(_PSI.values())
    carmichael = 0
    for k in range(1, 3000):
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(sympy.isprime(f) for f in factors):
            cases.append(factors[0] * factors[1] * factors[2])
            carmichael += 1
    assert carmichael >= 20
    for _ in range(40):
        p = sympy.nextprime(rng.randrange(10**5, 10**12))
        q = sympy.nextprime(rng.randrange(10**5, 10**12))
        cases += [p, q, p * q]
    cases += [rng.randrange(1, PSI_13) | 1 for _ in range(200)]
    for n in cases:
        assert n < PSI_13
        assert is_prime(n) == sympy.isprime(n), n
