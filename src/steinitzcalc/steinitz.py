"""Steinitz-class and discriminant-exponent arithmetic.

The discriminant of a tame Galois extension of degree N with ramification
data {(p, e_p)} is prod p^((e_p-1)N/e_p); when that exponent is even at every
prime (always true for N odd) half of it drives the Steinitz class.  The
remaining functions are the pure integer-exponent identities used by the
realizable-class engine: the l-part, the gcd bound on (e-1)m/e, the three
per-prime construction exponents, their gcd beta_l (computed in both
published shapes and asserted equal), the engine's W-group exponent, and the
per-prime membership exponents of the inductive contract (which the test
oracle `membership_check` in tests/membership_oracle.py applies).

Note: alphas_l's third value is 3(l-1)/2 as displayed in its source, while
beta_l's three-term gcd carries the extra n/l factor its derivation uses at
that spot; both are exposed side by side and nothing is silently resolved.
"""

from __future__ import annotations

from math import gcd

from .classgroup import (
    IdealClass,
    QuadField,
    Splitting,
    class_group,
    prime_class,
    splitting,
)
from .errors import InadmissibleError, InternalInvariantError
from .grouptree import Value, _set, _is_prime, _l_part as l_part, _prime_factors


def discriminant_exponent(e: int, n: int) -> int:
    """(e-1) * n / e: the p-exponent of the discriminant at ramification
    index e in a tame degree-n extension."""
    if e < 1 or n < 1 or n % e:
        raise InadmissibleError(f"need e | N with e, N >= 1, got e={e}, N={n}")
    return (e - 1) * (n // e)


class RamificationDatum(Value):
    """A rational prime with a chosen degree-1 prime above it (conjugate
    selects the other one) and a tame ramification index."""

    __slots__ = ("p", "e", "conjugate")

    def __init__(self, p: int, e: int, conjugate: bool = False):
        if e < 2:
            raise InadmissibleError(f"ramification index {e} < 2")
        if gcd(e, p) != 1:
            raise InadmissibleError(f"e={e} not coprime to p={p}: ramification is wild")
        _set(self, "p", p)
        _set(self, "e", e)
        _set(self, "conjugate", conjugate)


def steinitz_from_ramification(
    field: QuadField,
    ram,
    n: int,
    two_sylow_noncyclic: bool = False,
) -> IdealClass:
    """Steinitz class prod class(p)^((e-1)N/(2e)) of the ramification data.

    Needs N odd or the caller's assurance (two_sylow_noncyclic) that the
    Galois group's 2-Sylow subgroup is noncyclic; every discriminant exponent
    must then be even, which is re-checked."""
    if n < 1:
        raise InadmissibleError(f"degree N = {n} < 1")
    if n % 2 == 0 and not two_sylow_noncyclic:
        raise InadmissibleError(
            "even degree needs a noncyclic 2-Sylow subgroup (pass the flag)"
        )
    out = class_group(field.disc).identity
    for datum in ram:
        if splitting(datum.p, field) is Splitting.INERT:
            raise InadmissibleError(f"{datum.p} is inert; not a degree-1 prime")
        exp = discriminant_exponent(datum.e, n)
        if exp % 2:
            raise InternalInvariantError(
                f"odd discriminant exponent {exp} at p={datum.p}, e={datum.e}"
            )
        cls = prime_class(datum.p, field, conjugate=datum.conjugate)
        out = out * cls ** (exp // 2)
    return out


def exponent_gcd(e: int, m: int):
    """(g, divides): g = gcd over primes l | e of (l-1)m/e_(l), and whether
    g divides (e-1)m/e.  `divides` is always True; it is returned (not
    asserted) so the exhaustive check stays an executable statement."""
    if e < 2 or m % e:
        raise InadmissibleError(f"need e | m with e >= 2, got e={e}, m={m}")
    g = 0
    for l in _prime_factors(e):
        g = gcd(g, (l - 1) * (m // l_part(e, l)))
    target = discriminant_exponent(e, m)
    return g, target % g == 0


def _check_l_otau_n(l: int, o_tau: int, n: int):
    if l % 2 == 0 or not _is_prime(l):
        raise InadmissibleError(f"l={l} must be an odd prime")
    if o_tau < l or l_part(o_tau, l) != o_tau:
        raise InadmissibleError(f"o(tau)={o_tau} must be a power of l={l} (>= l)")
    if n % 2 == 0:
        raise InadmissibleError(f"n={n} must be odd")
    if n % o_tau:
        raise InadmissibleError(f"o(tau)={o_tau} must divide n={n}")


def alphas_l(l: int, o_tau: int, n: int):
    """The three per-prime construction exponents (a1, a2, a3).

    a3 is 3(l-1)/2 exactly as displayed at its source; see the module
    docstring for its relation to beta_l's third gcd term."""
    _check_l_otau_n(l, o_tau, n)
    a1 = (l - 1) * (n // l)
    a2 = (o_tau - 1) * (n // o_tau)
    a3 = 3 * (l - 1) // 2
    return a1, a2, a3


def beta_l(l: int, o_tau: int, n: int) -> int:
    """gcd((l-1)n/l, (o-1)n/o, (3(l-1)/2)(n/l)); the two-term simplification
    gcd((o-1)n/o, ((l-1)/2)(n/l)) is computed as well and must agree."""
    _check_l_otau_n(l, o_tau, n)
    half = ((l - 1) // 2) * (n // l)
    three_term = gcd(gcd(2 * half, (o_tau - 1) * (n // o_tau)), 3 * half)
    two_term = gcd((o_tau - 1) * (n // o_tau), half)
    if three_term != two_term:
        raise InternalInvariantError(
            f"beta_l forms disagree at l={l}, o={o_tau}, n={n}: "
            f"{three_term} vs {two_term}"
        )
    return three_term


def w_exponent(l: int, o_tau: int, m: int, n: int) -> int:
    """((l-1)/2) * m*n / o(tau): the exponent on W(k, E) in the semidirect
    product formula (|G| = m*n with |H| = n)."""
    if l == 2 or m < 1 or n < 1:
        raise InadmissibleError(f"need odd l and m, n >= 1, got l={l}, m={m}, n={n}")
    if o_tau % l or n % o_tau:
        raise InadmissibleError(
            f"need l | o(tau) | n, got l={l}, o={o_tau}, n={n}"
        )
    return ((l - 1) // 2) * (m * n // o_tau)


def membership_exponents(e: int, big_m: int):
    """Per-prime membership exponents of the inductive contract for a group of
    order big_m at ramification index e: for each prime l | e the pair
    ((l-1)M/e_(l), half of it when even)."""
    if e < 1 or big_m % e:
        raise InadmissibleError(f"need e | M, got e={e}, M={big_m}")
    out = []
    for l in _prime_factors(e):
        exp = (l - 1) * (big_m // l_part(e, l))
        out.append((l, exp, exp // 2 if exp % 2 == 0 else None))
    return out
