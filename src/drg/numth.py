"""Exact number theory: primes, factoring, cyclotomic values, special prime finders.

Everything is arbitrary-precision and deterministic. Primality is
Miller-Rabin with the thirteen primes up to 41 as bases. That is a proof
below 3317044064679887385961981 (about 3.3e24), the least strong pseudoprime
to all thirteen, which ``is_prime`` accepts; above it, "prime" means a
strong probable prime to every base. The lists of primitive prime divisors
that ``primitive_prime_divisors`` returns (and the CLI prints) reach that
range: over q <= 64, t <= 20, 15 of them lie above the bound, up to 101
bits at (q, t) = (48, 19). Whether a primitive prime divisor exists needs
neither factoring nor a primality proof: it does iff ``phi_star`` exceeds 1,
which is how the Zsigmondy table check decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt, prod

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_POWER_BIT_BUDGET = 10_000


class PowerBudgetError(ValueError):
    """q^t would exceed the configured bit budget."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, flag in enumerate(sieve) if flag]


_TRIAL_PRIMES: list[int] = []
_PM1_BOUND = 20_000
_PM1_POWERS: list[int] = []  # p^k <= _PM1_BOUND for each prime p, k maximal
_SHORT_RHO_STEPS = 1 << 12


def _pollard_pm1(n: int) -> int | None:
    """Pollard p-1, stage one to _PM1_BOUND; cheap and catches factors with smooth p-1."""
    if not _PM1_POWERS:
        log_bound = math.log(_PM1_BOUND)
        _PM1_POWERS.extend(p ** max(1, int(log_bound / math.log(p)))
                           for p in primes_up_to(_PM1_BOUND))
    a = 2
    for power in _PM1_POWERS:
        a = pow(a, power, n)
    g = gcd(a - 1, n)
    return g if 1 < g < n else None


def _pollard_rho(n: int, max_steps: int | None = None) -> int | None:
    """A nontrivial factor of composite odd n (Brent's cycle variant).

    Tries the maps x -> x^2 + c for c = 1, 2, ... until one gives a factor.
    Given ``max_steps``, tries c = 1 alone, comparing at most that many
    pairs of iterates (about twice as many steps of the map), and returns
    None if it finds no factor.
    """
    if n % 2 == 0:
        return 2
    seed = 0
    while True:
        seed += 1
        y, c, m = seed, seed, 256
        g = r = q = 1
        steps = 0
        while g == 1:
            steps += r
            if max_steps is not None and steps > max_steps:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        if max_steps is not None:
            return None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}.

    Trial division by the primes below 1000. Each cofactor that is neither
    below 10^6, prime nor a square is then split by the first of: a short
    run of Brent's rho (one map, at most ``_SHORT_RHO_STEPS`` comparisons),
    which finds most prime factors below about 10^7; Pollard p-1, which
    finds a prime factor p with p - 1 smooth; Brent's rho run to the end.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    if not _TRIAL_PRIMES:
        _TRIAL_PRIMES.extend(primes_up_to(1000))
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < 1_000_000 or is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_rho(m, _SHORT_RHO_STEPS) or _pollard_pm1(m) or _pollard_rho(m)
        stack.extend([d, m // d])
    return dict(sorted(out.items()))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n; radical(1) = 1."""
    if n <= 0:
        raise ValueError("radical needs a positive integer")
    return prod(factorize(n)) if n > 1 else 1


def greatest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("greatest_prime_factor needs n >= 2")
    return max(factorize(n))


def is_prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q = p^k, or None."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    [(p, k)] = fac.items()
    return p, k


def sylvester_prime(m: int, ell: int) -> int:
    """Largest prime p > ell dividing m(m-1)...(m-ell+1).

    Requires all ell consecutive factors to exceed ell, i.e. m - ell + 1 > ell;
    existence is then guaranteed. The window m-ell+1..m is shorter than any
    p > ell, so it holds a multiple of p, and p divides the product, exactly
    when m mod p < ell: the answer is the first such prime scanning down
    from m. That scan walks the whole gap from m to the answer, which for a
    short window can be about m / 2 (m = 2p, ell = 1), so it stops after
    about 64 window lengths and factors the ell numbers of the window instead.
    """
    if ell < 1 or m - ell + 1 <= ell:
        raise ValueError(f"need m - ell + 1 > ell >= 1, got m={m}, ell={ell}")
    stop = max(ell, m - 64 * (ell + 1))
    for p in range(m, stop, -1):
        if m % p < ell and is_prime(p):
            return p
    best = max((p for k in range(m - ell + 1, m + 1) for p in factorize(k)
                if p > ell), default=0)
    assert best > ell, "Sylvester's theorem guarantees a prime here"
    return best


def bertrand_mid_prime(m: int) -> int:
    """Largest prime p with m/2 < p <= m - 3 (exists for every m >= 8)."""
    if m < 8:
        raise ValueError("bertrand_mid_prime needs m >= 8")
    for p in range(m - 3, m // 2, -1):
        if is_prime(p):
            return p
    raise AssertionError("no prime in (m/2, m-3] — contradicts Bertrand")


def dominance_holds(m: int, ell: int) -> bool:
    """True iff ell mod p <= m mod p for every prime p >= 5.

    Primes p > m are vacuous: there ell mod p = ell <= m = m mod p, so only
    5 <= p <= m needs checking.
    """
    return _dominance_over(m, ell, primes_up_to(m))


def _dominance_over(m: int, ell: int, primes: list[int]) -> bool:
    """``dominance_holds(m, ell)``, given the primes in increasing order up to at least m."""
    for p in primes:
        if p > m:
            return True
        if p >= 5 and ell % p > m % p:
            return False
    return True


def mod_dominance_classify(M: int) -> list[tuple[int, int]]:
    """All pairs (m, ell), 5 <= m <= M, 1 <= ell <= m-1, with the dominance property."""
    if M < 9:
        raise ValueError("classification needs M >= 9")
    primes = primes_up_to(M)
    out = []
    for m in range(5, M + 1):
        for ell in range(1, m):
            if _dominance_over(m, ell, primes):
                out.append((m, ell))
    return out


@dataclass(frozen=True)
class PpdResult:
    q: int
    t: int
    primitive_divisors: tuple[int, ...]
    exceptional: bool


def _checked_power(q: int, t: int) -> int:
    if t * q.bit_length() > _POWER_BIT_BUDGET:
        raise PowerBudgetError(f"{q}^{t} exceeds the {_POWER_BIT_BUDGET}-bit budget")
    return q ** t


def primitive_prime_divisors(q: int, t: int) -> PpdResult:
    """Primes dividing q^t - 1 but no q^i - 1 for 1 <= i < t.

    The factorization goes through the cyclotomic values Phi_d(q), d | t,
    which keeps every number passed to the factorizer small. The
    ``exceptional`` flag records emptiness, which lands exactly on the
    classical exception pattern: (q, t) = (2, 6), t = 2 with q + 1 a power
    of two (q a Mersenne number), and t = 1 with q = 2.
    """
    if q < 2 or t < 1:
        raise ValueError("primitive_prime_divisors needs q >= 2, t >= 1")
    _checked_power(q, t)
    candidates = factorize(cyclotomic_value(t, q))
    ppds = []
    for p in candidates:
        if all((_checked_power(q, i) - 1) % p for i in range(1, t)):
            ppds.append(p)
    return PpdResult(q, t, tuple(sorted(ppds)), exceptional=not ppds)


def zsigmondy_exception_expected(q: int, t: int) -> bool:
    """The classical exception pattern for q^t - 1 lacking a primitive prime divisor."""
    if t == 1:
        return q == 2
    if t == 2:
        r = q + 1
        return r & (r - 1) == 0
    return (q, t) == (2, 6)


def divisors(n: int) -> list[int]:
    fac = factorize(n)
    out = [1]
    for p, e in fac.items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def cyclotomic_value(n: int, q: int) -> int:
    """Phi_n(q), exactly, by the Moebius product over one factorization of n.

    Phi_n(q) is the product of (q^(n/e) - 1)^mu(e) over e | n, and mu(e) is
    0 unless e is squarefree, when it is -1 to the number of its primes. So
    e runs over the products of the subsets of n's primes.
    """
    if n < 1:
        raise ValueError("cyclotomic_value needs n >= 1")
    if q < 2:
        raise ValueError("cyclotomic_value needs q >= 2")
    num = den = 1
    primes = list(factorize(n))
    for k in range(len(primes) + 1):
        for subset in combinations(primes, k):
            term = _checked_power(q, n // prod(subset)) - 1
            if k % 2:
                den *= term
            else:
                num *= term
    assert num % den == 0
    return num // den


def phi_star(n: int, q: int) -> int:
    """Largest divisor of Phi_n(q) coprime to prod_{i<n} (q^i - 1).

    Its prime divisors are exactly the primitive prime divisors of q^n - 1,
    each to its full power in Phi_n(q); so q^n - 1 has a primitive prime
    divisor iff phi_star(n, q) > 1.
    """
    value = cyclotomic_value(n, q)
    lower = prod(_checked_power(q, i) - 1 for i in range(1, n)) if n > 1 else 1
    g = gcd(value, lower)
    while g > 1:
        value //= g
        g = gcd(value, lower)
    return value


def power_vs_factorial(m: int) -> bool:
    """Exact check of (m/2)^m >= m!/2, i.e. 2 * m^m >= 2^m * m!."""
    if m < 1:
        raise ValueError("power_vs_factorial needs m >= 1")
    return 2 * m ** m >= 2 ** m * math.factorial(m)
