import json
import random
import time
from dataclasses import replace
from math import gcd, prod

import pytest

from drg import checks, numth
from drg.checks import run_check
from drg.numth import (
    PowerBudgetError,
    bertrand_mid_prime,
    cyclotomic_value,
    divisors,
    dominance_holds,
    factorize,
    greatest_prime_factor,
    is_prime,
    is_prime_power,
    mod_dominance_classify,
    phi_star,
    power_vs_factorial,
    primes_up_to,
    primitive_prime_divisors,
    radical,
    sylvester_prime,
    zsigmondy_exception_expected,
)


def test_is_prime_small():
    sieve = set(primes_up_to(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)  # 193707721 * 761838257287


def test_is_prime_at_the_miller_rabin_proof_bound():
    # psi_12, the least strong pseudoprime to the bases 2..37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    # a prime just below psi_13, proved here by a Lucas certificate: 2 has
    # order exactly p - 1 modulo p, and p - 1 factors into proven primes
    p = 3317044064679887385961813
    assert p < 3317044064679887385961981
    factors = (2, 3, 103, 132408623, 20268261599279)
    assert p - 1 == 2 ** 2 * prod(factors[1:])
    assert all(is_prime(f) for f in factors)
    assert pow(2, p - 1, p) == 1
    assert all(pow(2, (p - 1) // f, p) != 1 for f in factors)
    assert is_prime(p)


def test_factorize_random_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 10 ** 9)
        fac = factorize(n)
        assert prod(p ** e for p, e in fac.items()) == n
        for p in fac:
            assert is_prime(p)


def test_factorize_big_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q) == {p: 1, q: 1}


def _random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


def test_factorize_roundtrips_semiprimes_of_30_to_70_bits():
    # cofactors the short rho splits, and ones left to p-1 and the full rho
    rng = random.Random(26)
    for bits in range(30, 71, 4):
        for _ in range(3):
            small = rng.randint(10, bits // 2)
            p = _random_prime(rng, small)
            q = _random_prime(rng, bits - small)
            assert list(factorize(p * q).items()) == sorted({p: 1, q: 1}.items()), (p, q)


def test_zsigmondy_table_check_runs_pollard_pm1_at_most_twice(monkeypatch):
    # the short rho splits all but two of the table's hard cofactors
    calls = []
    pm1 = numth._pollard_pm1
    monkeypatch.setattr(numth, "_pollard_pm1", lambda n: calls.append(n) or pm1(n))
    assert run_check("numth-zsigmondy-table").verdict == "pass"
    assert len(calls) <= 2, calls


def test_radical():
    assert radical(24) == 6
    assert radical(1) == 1
    assert radical(360) == 30
    with pytest.raises(ValueError):
        radical(0)


def test_greatest_prime_factor():
    assert greatest_prime_factor(12) == 3
    assert greatest_prime_factor(1023) == 31
    assert greatest_prime_factor(97) == 97
    with pytest.raises(ValueError):
        greatest_prime_factor(1)


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(9) == (3, 2)
    assert is_prime_power(7) == (7, 1)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None


def test_sylvester_examples():
    assert sylvester_prime(10, 3) == 5  # 10*9*8 = 720 = 2^4 * 3^2 * 5
    assert sylvester_prime(9, 2) == 3  # 72 = 2^3 * 3^2
    assert sylvester_prime(14, 1) == 7


def test_sylvester_precondition():
    with pytest.raises(ValueError):
        sylvester_prime(5, 3)  # window 3,4,5 does not stay above ell = 3


def test_sylvester_exhaustive_existence():
    # effective Sylvester: a prime > ell always shows up in the window
    for m in range(2, 400):
        for ell in range(1, (m + 1) // 2):
            if m - ell + 1 > ell:
                p = sylvester_prime(m, ell)
                assert p > ell
                window = prod(range(m - ell + 1, m + 1))
                assert window % p == 0


def test_sylvester_matches_definition():
    # the downward scan against the largest prime factor > ell of the product
    for m in range(2, 120):
        for ell in range(1, m):
            if m - ell + 1 > ell:
                window = prod(range(m - ell + 1, m + 1))
                want = max(p for p in factorize(window) if p > ell)
                assert sylvester_prime(m, ell) == want, (m, ell)


def test_sylvester_short_window_far_below_m():
    # the answer lies about m / 2 below m: the scan gives up and the window is factored
    start = time.perf_counter()
    assert sylvester_prime(2 * 1000000007, 1) == 1000000007
    assert sylvester_prime(2 ** 40, 1) == 2
    assert time.perf_counter() - start < 1.0


def test_bertrand_examples():
    assert bertrand_mid_prime(8) == 5
    assert bertrand_mid_prime(9) == 5
    with pytest.raises(ValueError):
        bertrand_mid_prime(7)


def test_bertrand_scan():
    for m in range(8, 20000):
        p = bertrand_mid_prime(m)
        assert 2 * p > m and p <= m - 3 and is_prime(p)


def test_dominance_examples():
    assert dominance_holds(9, 2)
    assert dominance_holds(12, 1)
    assert not dominance_holds(10, 1)  # 5 | 10 and 1 mod 5 > 0


def expected_dominance_set(M):
    out = set()
    for m in range(5, M + 1):
        n = m
        while n % 2 == 0:
            n //= 2
        while n % 3 == 0:
            n //= 3
        if n == 1:
            out.add((m, 1))
            out.add((m, m - 1))
    out.add((9, 2))
    out.add((9, 7))
    return out


def test_dominance_classification_matches_prediction():
    got = set(mod_dominance_classify(300))
    assert got == expected_dominance_set(300)


def test_ppd_examples():
    r = primitive_prime_divisors(2, 6)
    assert r.primitive_divisors == () and r.exceptional
    r = primitive_prime_divisors(2, 10)
    assert r.primitive_divisors == (11,)
    r = primitive_prime_divisors(7, 2)
    assert r.primitive_divisors == () and r.exceptional  # 7 = 2^3 - 1 Mersenne
    r = primitive_prime_divisors(2, 4)
    assert r.primitive_divisors == (5,)
    r = primitive_prime_divisors(2, 3)
    assert r.primitive_divisors == (7,)


def test_ppd_divide_correctly():
    rng = random.Random(4)
    for _ in range(60):
        q = rng.randrange(2, 30)
        t = rng.randrange(1, 14)
        r = primitive_prime_divisors(q, t)
        for p in r.primitive_divisors:
            assert (q ** t - 1) % p == 0
            for i in range(1, t):
                assert (q ** i - 1) % p != 0


def test_zsigmondy_exception_table():
    # over 2 <= q <= 64, 2 <= t <= 20 the exceptions are exactly the classical ones
    for q in range(2, 65):
        for t in range(2, 21):
            r = primitive_prime_divisors(q, t)
            assert r.exceptional == zsigmondy_exception_expected(q, t), (q, t)


def test_zsigmondy_table_check_report():
    rep = run_check("numth-zsigmondy-table")
    assert rep.verdict == "pass" and rep.detail == ""
    assert rep.inputs == {"q_max": 64, "t_max": 20}
    assert json.loads(json.dumps(rep.certificate)) == {
        "exceptions": [[2, 6], [3, 2], [7, 2], [15, 2], [31, 2], [63, 2]]}
    # decided from phi_star, without factoring the table (which takes about 15 s)
    assert rep.wall_time_s < 5.0


def test_phi_star_is_the_primitive_part():
    # the identity the Zsigmondy table check rests on
    for q in range(2, 17):
        for t in range(1, 21):
            phi = cyclotomic_value(t, q)
            want = 1
            for p in primitive_prime_divisors(q, t).primitive_divisors:
                while phi % p == 0:
                    phi //= p
                    want *= p
            assert phi_star(t, q) == want, (q, t)


def test_zsigmondy_check_fails_on_a_wrong_expectation(monkeypatch):
    def flipped(q, t):
        return zsigmondy_exception_expected(q, t) != ((q, t) == (2, 6))

    monkeypatch.setattr(checks, "zsigmondy_exception_expected", flipped)
    rep = run_check("numth-zsigmondy-table")
    assert rep.verdict == "fail"
    assert rep.detail == "mismatches: [(2, 6)]"


def test_zsigmondy_check_cross_checks_the_factoring_path(monkeypatch):
    def flipped(q, t):
        r = primitive_prime_divisors(q, t)
        return replace(r, exceptional=not r.exceptional) if (q, t) == (5, 3) else r

    monkeypatch.setattr(checks, "primitive_prime_divisors", flipped)
    rep = run_check("numth-zsigmondy-table")
    assert rep.verdict == "fail"
    assert rep.detail == "mismatches: [(5, 3)]"


def test_ppd_power_budget():
    with pytest.raises(PowerBudgetError):
        primitive_prime_divisors(2, 20000)


def test_cyclotomic_small():
    assert cyclotomic_value(1, 5) == 4
    assert cyclotomic_value(6, 2) == 3
    assert cyclotomic_value(4, 3) == 10
    with pytest.raises(ValueError):
        cyclotomic_value(0, 2)


def test_cyclotomic_product_identity():
    for n in range(1, 31):
        for q in range(2, 17):
            assert prod(cyclotomic_value(d, q) for d in divisors(n)) == q ** n - 1


def test_phi_star():
    assert phi_star(6, 2) == 1  # r = 3 divides Phi_6(2) = 3
    assert phi_star(4, 3) == 5  # Phi_4(3) = 10, r = 2
    assert phi_star(1, 7) == 6


def test_phi_star_glasby_dichotomy():
    # for n >= 3 the largest prime r of n divides Phi_n(q) at most once,
    # so the coprime part is either the whole value or value / r
    for n in range(3, 26):
        for q in range(2, 12):
            phi = cyclotomic_value(n, q)
            star = phi_star(n, q)
            r = greatest_prime_factor(n)
            assert star == (phi // r if phi % r == 0 else phi)
            lower = prod(q ** i - 1 for i in range(1, n))
            assert gcd(star, lower) == 1
            assert phi % star == 0


def test_power_vs_factorial():
    for m in range(1, 60):
        assert power_vs_factorial(m)
    assert power_vs_factorial(1)  # (1/2)^1 >= 1/2
    assert 2 * 4 ** 4 >= 2 ** 4 * 24  # m = 4 by hand: 16 >= 12
    assert 5 ** 10 >= 1814400  # m = 10 by hand
