"""Cyclotomic Galois groups as unit subgroups mod m, and W-groups.

Gal(k(zeta_m)/k) embeds in (Z/mZ)* through its action on zeta_m; over Q it
is everything, over an imaginary quadratic field it is the kernel of the
quadratic character when the field sits inside Q(zeta_m).  Unit groups and
those kernels are cached (bounded, keyed by modulus and discriminant).
Residues are Python's `a % m`, so (Z/1Z)* = {0} needs no case of its own.
Every W target passes `galois_group`, which refuses m > MAX_MODULUS.

W(k, E), for E the fixed field of a subgroup S of that Galois group, is the
subgroup of Cl(k) generated by classes of degree-1 primes whose Frobenius
lands in S.  S alone names the target: its modulus is m, and two targets
are equal exactly when their moduli and member sets are.

`w_norm_character` computes it in closed form, with no primes: E is abelian
over Q, so its meet with the Hilbert class field of k lies in the genus
field k(sqrt p_1*, ..., sqrt p_mu*), D = p_1* ... p_mu* (Cox, Primes of the
form x^2 + ny^2, section 6), and by Chebotarev W(k, E) is the common kernel
of the genus characters chi_d with k(sqrt d) inside E.  This is the one W
path of `rt` and `wgroup`.

`w_group` computes the same group by sieving rational primes, certified by a
doubling-window stabilization rule (two consecutive quiet windows).  It is
kept as the independent oracle the closed form is tested against, and runs
only in `check --suite wgroup`, `realizable.rt_dihedral` and tests.  Each
window's new prime classes, in sorted order, grow the W-group's lattice in
discrete-log coordinates (`classgroup._grow`), and the classes that
enlarged it are kept as its generators.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, log

from . import _kernels, grouptree
from .classgroup import (
    ClassSubgroup,
    QuadField,
    _grow,
    _in_lattice,
    _lattice_order,
    class_group,
)
from .errors import (
    EnumerationCeilingError,
    InadmissibleError,
    InternalInvariantError,
)
from .grouptree import _prime_factors

DEFAULT_HARD_CEILING = 100_000_000
INITIAL_BOUND_CAP = 1_000_000
_SCAN_CHUNK = 1 << 16
# The largest W modulus m = o(tau).  Each modulus in use keeps its unit group
# and Kronecker kernels, up to phi(m) residues each, in the caches below.
MAX_MODULUS = 1000
# Bound of the per-modulus caches (unit groups, Kronecker kernels): far
# above what one corpus of trees meets.
_MODULUS_CACHE_SIZE = 256


def hard_ceiling() -> int:
    value = os.environ.get("STEINITZ_PRIME_CEILING")
    if value is None:
        return DEFAULT_HARD_CEILING
    try:
        return int(value)
    except ValueError:
        raise InadmissibleError(f"STEINITZ_PRIME_CEILING={value!r} is not an integer")


@dataclass(frozen=True)
class CycloSubgroup:
    """A subgroup of (Z/mZ)*, given by its sorted member set: units mod m,
    closed under products, so closed under a^-1 = a^(ord(a) - 1) too."""

    modulus: int
    members: frozenset

    def __post_init__(self):
        m = self.modulus
        if m < 1:
            raise InadmissibleError(f"modulus {m} < 1")
        mem = frozenset(int(a) % m for a in self.members)
        object.__setattr__(self, "members", mem)
        if 1 % m not in mem:
            raise InadmissibleError("subgroup must contain 1")
        for a in mem:
            if gcd(a, m) != 1:
                raise InadmissibleError(f"member {a} not coprime to {m}")
        # Each member not yet reached becomes a generator g, checked by
        # x*g in S for every x in S; the generators then reach every member,
        # so S*S lies in S.  A new generator at least doubles the reached
        # subgroup, so this costs |S| log|S| steps, not |S|^2.
        ordered = sorted(mem)
        reached = {1 % m}
        for g in ordered:
            if g in reached:
                continue
            for x in ordered:
                if x * g % m not in mem:
                    raise InadmissibleError(
                        f"member set not closed under multiplication ({x},{g})"
                    )
            base, step = list(reached), g
            while step not in reached:
                reached.update(x * step % m for x in base)
                step = step * g % m

    @property
    def order(self) -> int:
        return len(self.members)

    def sorted_members(self):
        return sorted(self.members)

    def __str__(self):
        return f"<{','.join(map(str, self.sorted_members()))}> mod {self.modulus}"


@lru_cache(maxsize=_MODULUS_CACHE_SIZE)
def unit_group(m: int) -> CycloSubgroup:
    """(Z/mZ)*, built (and closure-checked) once per modulus."""
    return CycloSubgroup(m, frozenset(a for a in range(1, m + 1) if gcd(a, m) == 1))


@lru_cache(maxsize=_MODULUS_CACHE_SIZE)
def _kronecker_kernel(disc: int, m: int) -> CycloSubgroup:
    """{ a in (Z/mZ)* : kronecker(disc, a) = 1 }, built once per (disc, m)."""
    kept = frozenset(a for a in unit_group(m).members if _kernels.kronecker(disc, a) == 1)
    return CycloSubgroup(m, kept)


def galois_group(field: QuadField, m: int) -> CycloSubgroup:
    """Gal(k(zeta_m)/k) inside (Z/mZ)*.

    Over Q this is the full unit group.  Over the field of discriminant D it
    is the kernel of the character a -> kronecker(D, a) when |D| divides m
    (i.e. k lies in Q(zeta_m)), and the full unit group otherwise.  Both are
    cached lookups, so equal Galois groups are the same object.
    """
    if m < 1:
        raise InadmissibleError(f"modulus {m} < 1")
    if m > MAX_MODULUS:
        raise InadmissibleError(f"modulus {m} exceeds the cap {MAX_MODULUS}")
    if field.is_rationals or m % (-field.disc):
        return unit_group(m)
    return _kronecker_kernel(field.disc, m)


def g_k_mu_tau(
    field: QuadField, mu: grouptree.Action, tau: grouptree.AbElement
) -> CycloSubgroup:
    """Exponents a in Gal(k(zeta_o)/k) realized by the action on tau.

    Collects { a mod o(tau) : mu(g1)(tau) = tau^a for some g1 in G }, G the
    acting tree of mu, and intersects it with the Galois group.  This is a
    subgroup whenever mu is an action (closure under products and inverses
    holds by the same calculation that proves it abstractly); failure of
    that check here is an internal error, not bad input.  `realizable._node_folds` caches the
    results per node, so this runs once per (node, Galois groups).
    """
    h = mu.h
    o = h.element_order(tau)
    if o == 1:
        raise InadmissibleError("tau must not be the identity")
    if grouptree.order(mu.g_tree) > grouptree.ENUMERATION_CAP:
        raise InadmissibleError("acting group exceeds the enumeration cap")
    powers = {}
    cur = h.identity
    for a in range(o):
        powers.setdefault(cur, a)
        cur = h.add(cur, tau)
    realized = set()
    for g_el in grouptree.elements(mu.g_tree):
        a = powers.get(mu.apply(g_el, tau))
        if a is not None:
            realized.add(a)
    members = galois_group(field, o).members & realized
    try:
        return CycloSubgroup(o, members)
    except InadmissibleError as exc:
        raise InternalInvariantError(
            f"realized exponent set is not a subgroup: {exc}"
        ) from exc


def _check_target(field: QuadField, s: CycloSubgroup):
    """Reject a Frobenius target that is not a subgroup of Gal(k(zeta_m)/k)."""
    gal = galois_group(field, s.modulus)
    if not s.members <= gal.members:
        raise InadmissibleError(f"{s} is not inside Gal(k(zeta_{s.modulus})/k) = {gal}")


def _genus_candidates(disc: int, m: int) -> list:
    """The prime discriminants of D whose characters are defined mod m: p*
    (p if p = 1 mod 4, else -p) for each odd prime p | gcd(m, D), and the
    2-part of D, +-2^v with the sign of D / 2^v mod 4, when 2^v | m.  Q has
    none."""
    if disc == 0:
        return []
    out = [p if p % 4 == 1 else -p for p in _prime_factors(gcd(m, disc)) if p != 2]
    v = (disc & -disc).bit_length() - 1  # v_2(D)
    if v and m % (1 << v) == 0:
        out.append(1 << v if (disc >> v) % 4 == 1 else -(1 << v))
    return out


def w_norm_character(field: QuadField, s: CycloSubgroup) -> ClassSubgroup:
    """W(k, E) for E the fixed field of s, m = s.modulus: the common kernel
    of the chi_d for the products d of `_genus_candidates` with
    kronecker(d, a) = 1 for every a in s, chi_d(c) = kronecker(d, n) for n
    a value of c's reduced form prime to g = gcd(m, D).

    With no kept character W = Cl is `cg.full_subgroup()`, with no lattice
    work.  Otherwise the kept characters are read on the coordinate basis
    e_1, ..., e_k of the discrete-log table, as bit vectors, and the kernel
    follows by Schreier's lemma over their image, an elementary 2-group:
    with H the image of e_1, ..., e_{t-1}, n = 1 if chi(e_t) is in H and
    n = 2 otherwise gives the relation n*e_t - x for the x in that span
    with chi(x) = chi(e_t)^n, and these k relations with diag(d_i) span the
    kernel's lattice.  Either way the generators are the members in index
    order that enlarge the span (`_grow`), for Cl grown on first read.
    Three checks guard chi: |W| * |chi(Cl)| = h, every generator lies in
    every kernel, and the generators span W; for Cl the first two are
    identities and the last runs on that read.

    Once s is checked, the result is kept in the class group's `_w_cache`
    under s itself; `class_group.cache_clear()` drops it with the group.
    """
    _check_target(field, s)
    cg = class_group(field.disc)
    if s in cg._w_cache:
        return cg._w_cache[s]
    m = s.modulus
    chars = [1]
    for p in _genus_candidates(field.disc, m):
        chars += [d * p for d in chars]
    kept = [d for d in chars[1:] if all(_kernels.kronecker(d, a) == 1 for a in s.members)]
    if not kept:
        cg._w_cache[s] = w = cg.full_subgroup()
        return w
    g = gcd(m, field.disc)

    def chi(i):
        # the kept characters on class i as a bit vector; a primitive form
        # takes a value prime to g at some x, y < g, by CRT
        a, b, c = cg.form(i)
        n = next(v for x in range(g) for y in range(g) if gcd(v := a*x*x + b*x*y + c*y*y, g) == 1)
        return sum(1 << j for j, d in enumerate(kept) if _kernels.kronecker(d, n) < 0)

    moduli = cg._dlog[2]
    k = len(moduli)
    # each bit vector of the image so far -> a vector of the span that chi
    # maps to it
    image = {0: (0,) * k}
    relations = []
    for t in range(k):
        u = chi(cg._at([int(i == t) for i in range(k)]))
        n, x = (1, u) if u in image else (2, 0)
        relations.append([-c for c in image[x][:t]] + [n] + [0] * (k - t - 1))
        if n == 2:
            image.update({y ^ u: v[:t] + (1,) + v[t + 1:] for y, v in list(image.items())})
    hnf = cg._lattice(relations)
    order = _lattice_order(moduli, hnf)
    if order * len(image) != cg.order:
        raise InternalInvariantError(
            f"genus characters of disc {field.disc} mod {m}: kernel of order {order} "
            f"and image of order {len(image)} in a group of order {cg.order}"
        )
    members = (i for i in range(cg.order) if _in_lattice(hnf, cg._coords(i)))
    span, gens = _grow(cg, cg._trivial_hnf, members, order)
    if any(chi(x) for x in gens):
        raise InternalInvariantError(f"a generator of W is outside the kernel of chi mod {m}")
    if span != hnf:
        raise InternalInvariantError(f"the generators of W do not span the kernel of chi mod {m}")
    w = cg._w_cache[s] = ClassSubgroup(cg, hnf, gens)
    return w


@dataclass(frozen=True)
class WCertificate:
    """Audit record of one W-group enumeration.

    `qualifying_hits` counts distinct reduced forms met among qualifying
    primes (a lower bound on the number of qualifying primes; what matters
    is that it is positive before stabilization is accepted)."""

    initial_bound: int
    final_bound: int
    windows: tuple  # (lo, hi, new_generator_count) per window
    qualifying_hits: int
    full_group_early_exit: bool


@dataclass(frozen=True)
class WGroup:
    subgroup: ClassSubgroup
    descriptor: CycloSubgroup
    certificate: WCertificate


def default_initial_bound(field: QuadField, m: int) -> int:
    h = class_group(field.disc).order
    est = int(10 * (h * m * log(abs(field.disc) + 3)) ** 2)
    return max(100, min(est, INITIAL_BOUND_CAP))


def w_group(
    field: QuadField,
    s: CycloSubgroup,
    bound: int = None,
    ceiling: int = None,
) -> WGroup:
    """Subgroup of Cl(k) generated by classes of degree-1 primes p with
    p mod m in s, m = s.modulus (p not dividing m; split and ramified primes
    both count).

    Scans [2, bound], then doubling windows until the generated subgroup is
    unchanged across two consecutive windows with at least one qualifying
    prime seen overall; stops early once the full class group is reached.
    Raises EnumerationCeilingError at the hard ceiling: either no qualifying
    prime was ever found (a configuration error; qualifying primes have
    positive density) or the subgroup kept growing.
    """
    _check_target(field, s)
    m = s.modulus
    cg = class_group(field.disc)
    if bound is None:
        bound = default_initial_bound(field, m)
    if ceiling is None:
        ceiling = hard_ceiling()
    if bound < 2:
        raise InadmissibleError(f"initial bound {bound} < 2")
    if bound > ceiling:
        raise InadmissibleError(f"initial bound {bound} exceeds the ceiling {ceiling}")

    seen: set = set()  # prime classes met so far
    gens = []  # those of them that enlarged W
    w = cg.trivial_subgroup()
    n_qual = 0

    def full() -> bool:
        return w.is_full()

    def scan(lo: int, hi: int) -> int:
        """Absorb qualifying primes in [lo, hi); returns # new generators."""
        nonlocal w, n_qual
        new = 0
        for chunk_lo in range(lo, hi, _SCAN_CHUNK):
            if full():
                break
            chunk_hi = min(chunk_lo + _SCAN_CHUNK, hi)
            found = _kernels.scan_w_forms(
                field.disc, m, s.members, chunk_lo, chunk_hi
            )
            n_qual += len(found)  # distinct forms, enough for the "seen one" rule
            fresh = {cg.index_of(t) for t in found} - seen
            if fresh:
                new += len(fresh)
                seen.update(fresh)
                hnf, grown = _grow(cg, w.hnf, sorted(fresh), cg.order)
                gens.extend(grown)
                w = ClassSubgroup(cg, hnf, sorted(gens))
        return new

    windows = []
    if full():  # trivial class group: nothing to enumerate
        cert = WCertificate(bound, 0, (), 0, True)
        return WGroup(w, s, cert)

    windows.append((2, bound, scan(2, bound + 1)))
    quiet = 0
    lo, hi = bound + 1, 2 * bound
    while not full() and not (quiet >= 2 and n_qual > 0):
        if lo > ceiling:
            if n_qual == 0:
                raise EnumerationCeilingError(
                    f"no qualifying prime below ceiling {ceiling} for W "
                    f"({field}, m={m}, S={s}); check the configuration"
                )
            raise EnumerationCeilingError(
                f"W enumeration did not stabilize below ceiling {ceiling}"
            )
        hi = min(hi, ceiling)
        new = scan(lo, hi + 1)
        windows.append((lo, hi, new))
        quiet = quiet + 1 if (new == 0 and n_qual > 0) else 0
        lo, hi = hi + 1, 2 * hi

    cert = WCertificate(
        initial_bound=bound,
        final_bound=windows[-1][1],
        windows=tuple(windows),
        qualifying_hits=n_qual,
        full_group_early_exit=full() and quiet < 2,
    )
    return WGroup(w, s, cert)

