"""Kernel-level tests: the arithmetic kernels against independent oracles."""

from math import gcd, isqrt
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from steinitzcalc import _kernels
from steinitzcalc.classgroup import is_fundamental
from steinitzcalc.check import _count_reduced_forms_divisor_oracle


def _naive_primes(lo, hi):
    out = []
    for n in range(max(lo, 2), hi):
        if all(n % d for d in range(2, isqrt(n) + 1)):
            out.append(n)
    return out


def _legendre(a, p):
    """Euler criterion; independent of the kernel implementation."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _reduced_forms_scan(disc):
    """Every (a, b) pair with a <= sqrt(-disc/3): the O(|disc|) definition of
    the reduced primitive forms, kept as the oracle of `reduced_forms`."""
    out = []
    amax = isqrt(-disc // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b - disc) % 2:
                continue
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append((a, b, c))
    out.sort()
    return out


def _kronecker_oracle(a, n):
    """(a|n) from its definition: (a|-1), (a|2) and Euler's criterion over
    the prime factorisation of n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = -1 if n < 0 and a < 0 else 1
    n = abs(n)
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        while n % p == 0:
            n //= p
            if p == 2:
                result *= 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
            else:
                result *= _legendre(a, p)
        p += 1 if p == 2 else 2
    return result


# A single parameter whose id is the backend name, so the test ids stay
# `...[pure]`.
@pytest.mark.parametrize("k", [_kernels], ids=[_kernels.BACKEND])
class TestKernels:
    def test_primes_small(self, k):
        assert k.primes_in_range(0, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert k.primes_in_range(90, 120) == _naive_primes(90, 120)
        assert k.primes_in_range(10, 10) == []
        assert k.primes_in_range(0, 2) == []

    def test_primes_segmented_window(self, k):
        assert k.primes_in_range(100_000, 100_300) == _naive_primes(100_000, 100_300)

    def test_kronecker_vs_euler(self, k):
        for p in _naive_primes(3, 200):
            for a in range(-30, 30):
                assert k.kronecker(a, p) == _legendre(a, p), (a, p)

    def test_kronecker_at_two(self, k):
        # (a|2): 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
        for a in range(-20, 20):
            want = 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
            assert k.kronecker(a, 2) == want

    def test_kronecker_multiplicative(self, k):
        for n in (15, 21, 35, 77):
            for a in range(1, 40):
                for b in range(1, 40):
                    assert k.kronecker(a * b, n) == k.kronecker(a, n) * k.kronecker(b, n)

    def test_sqrt_mod_prime(self, k):
        for p in _naive_primes(3, 300):
            for a in range(1, p):
                if _legendre(a, p) == 1:
                    r = k.sqrt_mod_prime(a, p)
                    assert (r * r - a) % p == 0

    def test_sqrt_mod_prime_one_mod_eight(self, k):
        # exercises the general Tonelli-Shanks branch
        for p in (17, 41, 73, 89, 97, 113, 193, 257):
            for a in (2, 3, 5, 7, 11):
                if _legendre(a, p) == 1:
                    r = k.sqrt_mod_prime(a, p)
                    assert (r * r - a) % p == 0

    def test_reduce_known(self, k):
        assert k.reduce_form(1, 1, 6) == (1, 1, 6)
        assert k.reduce_form(6, 1, 1) == (1, 1, 6)
        assert k.reduce_form(3, -1, 2) == (2, 1, 3)

    def test_reduce_properties(self, k):
        for disc in (-23, -47, -84, -163, -420):
            reduced = set(k.reduced_forms(disc))
            for a, b, c in list(reduced):
                # translate and flip to make non-reduced equivalents
                for t in (1, -2, 3):
                    b2 = b + 2 * a * t
                    c2 = a * t * t + b * t + c
                    assert k.reduce_form(a, b2, c2) == (a, b, c) or (
                        k.reduce_form(a, b2, c2) in reduced
                    )
                    assert (
                        k.reduce_form(a, b2, c2)[1] ** 2
                        - 4 * k.reduce_form(a, b2, c2)[0] * k.reduce_form(a, b2, c2)[2]
                        == disc
                    )

    def test_prime_form_examples(self, k):
        assert k.prime_form(-23, 2) == (2, 1, 3)
        assert k.prime_form(-23, 23) == (23, 23, 6)
        assert k.prime_form(-23, 5) is None  # kronecker(-23,5) = -1
        assert k.prime_form(-84, 7) == (7, 0, 3)
        assert k.prime_form(-4, 3) is None

    def test_prime_form_is_root(self, k):
        for disc in (-23, -84, -47, -15):
            for p in _naive_primes(2, 200):
                t = k.prime_form(disc, p)
                if t is None:
                    continue
                a, b, c = t
                assert a == p and 0 <= b <= p
                assert b * b - 4 * a * c == disc
                assert (b - disc) % 2 == 0

    def test_compose_identity_and_inverse(self, k):
        for disc in (-23, -47, -71, -84, -420):
            forms = k.reduced_forms(disc)
            e = forms[0]
            assert e[0] == 1
            for f in forms:
                assert k.compose_reduced(*e, *f) == f
                inv = k.reduce_form(f[0], -f[1], f[2])
                assert k.compose_reduced(*f, *inv) == e

    def test_scan_w_forms_matches_manual(self, k):
        disc, m, members = -23, 3, {1}
        got = k.scan_w_forms(disc, m, members, 2, 200)
        want = set()
        for p in _naive_primes(2, 200):
            if m % p == 0 or p % m not in members:
                continue
            t = k.prime_form(disc, p)
            if t is not None:
                want.add(k.reduce_form(*t))
        assert got == want
        assert k.reduce_form(13, 9, 2) in got  # p=13 witness: nonprincipal class


def test_reduced_forms_matches_scan_small():
    # every discriminant the kernel accepts in (-5000, 0), fundamental or not
    for disc in range(-3, -5000, -1):
        if disc % 4 in (0, 1):
            forms = _kernels.reduced_forms(disc)
            assert forms == _reduced_forms_scan(disc), disc
            assert len(forms) == _count_reduced_forms_divisor_oracle(disc), disc


# -9999 = 9 * -1111 is not fundamental; -420 has 2-rank 3
@pytest.mark.parametrize("disc", [-420, -9999])
def test_reduced_forms_matches_scan_named(disc):
    forms = _kernels.reduced_forms(disc)
    assert forms == _reduced_forms_scan(disc)
    assert len(forms) == _count_reduced_forms_divisor_oracle(disc)


def _large_fundamental_discs(count, seed=6):
    rng, out = Random(seed), []
    while len(out) < count:
        disc = -rng.randrange(10**6, 10**7 + 1)
        if is_fundamental(disc):
            out.append(disc)
    return out


@pytest.mark.parametrize("disc", _large_fundamental_discs(5))
def test_reduced_forms_matches_scan_large(disc):
    forms = _kernels.reduced_forms(disc)
    assert forms == _reduced_forms_scan(disc)
    assert len(forms) == _count_reduced_forms_divisor_oracle(disc)


def test_primes_match_trial_division():
    assert _kernels.primes_in_range(2, 20000) == _naive_primes(2, 20000)
    assert _kernels.primes_in_range(10**6, 10**6 + 2000) == _naive_primes(
        10**6, 10**6 + 2000
    )


def test_kronecker_matches_definition():
    for a in range(-60, 60):
        for n in range(-30, 30):
            assert _kernels.kronecker(a, n) == _kronecker_oracle(a, n), (a, n)


@settings(deadline=None, max_examples=200)
@given(
    a=st.integers(min_value=-(10**9), max_value=10**9),
    n=st.integers(min_value=-(10**9), max_value=10**9),
)
def test_kronecker_random(a, n):
    assert _kernels.kronecker(a, n) == _kronecker_oracle(a, n)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=3, max_value=10**6))
def test_sqrt_random(p_seed):
    p = _kernels.primes_in_range(p_seed, p_seed + 200)[0]
    for a in range(2, 20):
        if _legendre(a, p) == 1:
            r = _kernels.sqrt_mod_prime(a, p)
            assert (r * r - a) % p == 0


@pytest.mark.parametrize("disc", [-23, -47, -71, -84, -15, -420, -9999])
def test_compose_is_a_group_law(disc):
    # -420 and -9999 are non-fundamental; their primitive forms still form a group
    forms = _kernels.reduced_forms(disc)
    index = {f: i for i, f in enumerate(forms)}
    table = [[index[_kernels.compose_reduced(*f, *g)] for g in forms] for f in forms]
    every = list(range(len(forms)))
    for i in every:
        assert sorted(table[i]) == every  # each row is a permutation
        for j in every:
            assert table[i][j] == table[j][i]
    rng = Random(disc)
    for _ in range(200):
        i, j, l = rng.choice(every), rng.choice(every), rng.choice(every)
        assert table[table[i][j]][l] == table[i][table[j][l]]


@pytest.mark.parametrize("disc", [-23, -84, -15])
def test_prime_form_and_scan(disc):
    for p in _naive_primes(2, 500):
        t = _kernels.prime_form(disc, p)
        if _kronecker_oracle(disc, p) == -1:
            assert t is None
            continue
        a, b, c = t
        assert a == p and 0 <= b <= p and b * b - 4 * a * c == disc
    want = set()
    for p in _naive_primes(2, 5000):
        t = _kernels.prime_form(disc, p)
        if 5 % p and p % 5 in (1, 4) and t is not None:
            want.add(_kernels.reduce_form(*t))
    assert _kernels.scan_w_forms(disc, 5, {1, 4}, 2, 5000) == want


def _step_discs():
    """Small and ramified-rich discriminants, then 8 seeded fundamental ones
    up to 10^7."""
    rng, out = Random(26), [-3, -4, -7, -8, -15, -20, -23, -84, -1155, -5460]
    while len(out) < 18:
        d = -rng.randrange(1000, 10**7)
        if is_fundamental(d):
            out.append(d)
    return out


def test_compose_prime_matches_compose_reduced():
    # the walk's step against the general kernel: every prime form with
    # p <= sqrt(|D|/3) + 30 times up to 300 seeded classes.  Above
    # sqrt(|D|/3) a prime form never reduces to norm p, so those pairs take
    # the fallback, and at D = -3 and -4 they are the only pairs
    rng, pairs, cases = Random(7), 0, set()
    for disc in _step_discs():
        forms = _kernels.reduced_forms(disc)
        forms = rng.sample(forms, min(len(forms), 300))
        for p in _naive_primes(2, isqrt(-disc // 3) + 31):
            f = _kernels.prime_form(disc, p)
            if f is None:
                continue
            g = _kernels.reduce_form(*f)
            for a, b, c in forms:
                assert _kernels.compose_prime(a, b, c, g, p) == _kernels.compose_reduced(a, b, c, *g)
                pairs += 1
                if g[0] != p:
                    case = "fallback"
                elif a % p:
                    case = "p !| a"
                else:
                    case = "p | s" if (b + g[1]) // 2 % p == 0 else "p !| s"
                cases.add((case, p == 2, disc % p == 0))
    assert pairs > 50_000, pairs
    for case in ("p !| a", "p !| s", "p | s"):
        assert {(case, True, False), (case, False, False)} <= cases, case
    # p | a and p | s with p split is g's inverse; with p ramified g's own class
    assert {("p !| a", False, True), ("p | s", True, True), ("p | s", False, True)} <= cases
    assert {("fallback", False, False), ("fallback", False, True)} <= cases
