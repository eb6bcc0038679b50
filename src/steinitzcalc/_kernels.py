"""Arithmetic kernels.

These are the hot inner loops of the library: prime sieving, Kronecker
symbols, square roots mod p, prime forms, binary-quadratic-form reduction and
composition, and the fused "qualifying prime" scan used by the W-group
enumeration.  A class group is built by `compose_prime` steps over prime
forms (`classgroup._dlog_table`); `reduced_forms`, the enumeration of every
reduced form, is only the oracle of that walk.  The kernels are plain Python;
callers reach them through this module's attributes
(`_kernels.compose_prime(...)`), so a caller-side wrapper such as a profiler
can replace one by assignment.

All forms are positive definite: a > 0 and b*b - 4*a*c = D < 0.
"""

from math import gcd, isqrt

# The only backend; `steinitzcalc.BACKEND` and `check` report its name.
BACKEND = "pure"


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def primes_in_range(lo: int, hi: int) -> list:
    """Primes p with lo <= p < hi, by a segmented sieve of Eratosthenes."""
    if hi <= 2 or hi <= lo:
        return []
    lo = max(lo, 2)
    root = isqrt(hi - 1)
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for p in range(2, isqrt(root) + 1):
        if base[p]:
            base[p * p :: p] = bytearray(len(range(p * p, root + 1, p)))
    base_primes = [p for p in range(2, root + 1) if base[p]]

    out = []
    seg_size = 1 << 16
    for seg_lo in range(lo, hi, seg_size):
        seg_hi = min(seg_lo + seg_size, hi)
        seg = bytearray([1]) * (seg_hi - seg_lo)
        for p in base_primes:
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start >= seg_hi:
                continue
            seg[start - seg_lo :: p] = bytearray(len(range(start, seg_hi, p)))
        out.extend(i + seg_lo for i, flag in enumerate(seg) if flag and i + seg_lo >= 2)
    return out


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod p (p an odd prime, a a nonzero QR mod p).

    Tonelli-Shanks with the usual p % 4 == 3 and p % 8 == 5 shortcuts.
    """
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        x = pow(a, (p + 3) // 8, p)
        if x * x % p != a:
            x = x * pow(2, (p - 1) // 4, p) % p
        return x
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def reduce_form(a: int, b: int, c: int):
    """The reduced form equivalent to (a, b, c)."""
    while True:
        if not (-a < b <= a):
            k = (a - b) // (2 * a)
            c += (a * k + b) * k
            b += 2 * k * a
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _ext_gcd(x: int, y: int):
    """(g, u, v) with u*x + v*y = g = gcd(x, y)."""
    u0, u1, g0, g1 = 1, 0, x, y
    while g1:
        q = g0 // g1
        u0, u1 = u1, u0 - q * u1
        g0, g1 = g1, g0 - q * g1
    v = (g0 - u0 * x) // y if y else 0
    return g0, u0, v


def compose_reduced(a1: int, b1: int, c1: int, a2: int, b2: int, c2: int):
    """Gauss composition of two primitive forms of one discriminant.

    Returns the reduced representative of the product class.
    """
    if a1 > a2:
        a1, b1, c1, a2, b2, c2 = a2, b2, c2, a1, b1, c1
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        d, u, _ = _ext_gcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        d1, u, v = _ext_gcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    a3 = v1 * v2
    b3 = b2 + 2 * v2 * r
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return reduce_form(a3, b3, c3)


def compose_prime(a: int, b: int, c: int, g, p: int):
    """`compose_reduced(a, b, c, *g)` for g reduced of prime norm p, the
    walk's step (Cohen, GTM 138, Algorithm 5.4.7, d = 1 or p); if g[0] != p,
    `compose_reduced` runs."""
    q, bq, _ = g
    if q != p:
        return compose_reduced(a, b, c, *g)
    if a % p:  # B = b mod 2a and B = bq mod 2p
        k = (bq - b) // 2 * pow(a, -1, p) % p
    else:
        s = (b + bq) // 2
        if s % p == 0:  # (a, b, c) = (a / p, b, cp) / g
            return reduce_form(a // p, b, c * p)
        k = -c * pow(s, -1, p) % p  # b = bq mod 2p, and p | c + bk
    a, b, c = a * p, b + 2 * a * k, (c + k * (b + a * k)) // p
    while True:  # reduce_form, inlined
        if not (-a < b <= a):
            k = (a - b) // (2 * a)
            c += (a * k + b) * k
            b += 2 * k * a
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def prime_form(disc: int, p: int):
    """Canonical unreduced form (p, b, c) of a degree-1 prime over p.

    b is the smallest nonnegative solution of b*b = disc mod 4p (the other
    choice, the conjugate, gives the inverse class).  Returns None when p is
    inert.
    """
    if p == 2:
        m8 = disc % 8
        if m8 == 1:
            b = 1
        elif m8 == 0:
            b = 0
        elif m8 == 4:
            b = 2
        else:
            return None
    elif disc % p == 0:
        b = 0 if disc % 2 == 0 else p
    else:
        if pow(disc, (p - 1) // 2, p) != 1:  # Euler's criterion: p is inert
            return None
        r = sqrt_mod_prime(disc % p, p)
        b = r if (r - disc) % 2 == 0 else p - r
        b = min(b, 2 * p - b)
    return p, b, (b * b - disc) // (4 * p)


def reduced_forms(disc: int) -> list:
    """All reduced primitive forms of discriminant disc, sorted: the oracle
    of the class-group walk (`classgroup._dlog_table`).

    disc < 0 and disc = 0, 1 (mod 4); disc need not be fundamental.  A reduced
    form has |b| <= a <= c, so a*a <= -disc/3, and a*c = (b*b - disc)/4.  For
    each b >= 0 of the parity of disc, factor N = (b*b - disc)/4 over the
    primes up to sqrt(-disc/3) and take the divisors a with b <= a and
    a*a <= N; (a, -b, c) is reduced too when 0 < b < a < c.  A prime factor
    of N above that bound divides no admissible a, so the cofactor it leaves
    is dropped.
    """
    amax = isqrt(-disc // 3)
    primes = primes_in_range(2, amax + 1)
    out = []
    for b in range(disc % 2, amax + 1, 2):
        n = (b * b - disc) // 4
        divisors, m = [1], n
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                pk, new = 1, []
                while m % p == 0:
                    m //= p
                    pk *= p
                    new.extend(d * pk for d in divisors)
                divisors += new
        if 1 < m <= amax:
            divisors += [d * m for d in divisors]
        lo = max(b, 1)
        for a in divisors:
            if lo <= a and a * a <= n:
                c = n // a
                if gcd(gcd(a, b), c) == 1:
                    out.append((a, b, c))
                    if 0 < b < a < c:
                        out.append((a, -b, c))
    out.sort()
    return out


def scan_w_forms(disc: int, m: int, members, lo: int, hi: int):
    """Reduced forms of qualifying primes p in [lo, hi).

    Qualifying: p does not divide m, p is split or ramified in the field of
    discriminant disc, and p mod m lies in `members` (the Frobenius target).
    """
    found = set()
    for p in primes_in_range(lo, hi):
        if m % p == 0:
            continue
        if p % m not in members:
            continue
        f = prime_form(disc, p)
        if f is None:
            continue
        found.add(reduce_form(*f))
    return found
