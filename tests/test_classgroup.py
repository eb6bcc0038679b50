"""Class-group tests, including an ideal-arithmetic oracle for composition.

The oracle multiplies ideals as Z-modules in the basis (1, delta) with
delta = (D + sqrt(D))/2 and reduces the product lattice to Hermite normal
form; it shares no code with the Gauss-composition kernel.
"""

import random
from math import gcd, isqrt, lcm

import pytest

import steinitzcalc as sc
from steinitzcalc.errors import InadmissibleError
from steinitzcalc.grouptree import _prime_factors

from conftest import ACCEPT_DISCS, MIXED_DISCS, sylows_by_order
from structure_oracle import _abelian_structure, _close, subgroup_from_members

SMALL_DISCS = (-3, -4, -7, -8, -11, -15, -20, -23, -47, -71, -84, -120, -231, -420)
LADDER_DISCS = (-1000019, -8000003, -9951191)  # h = 342, 702, 5085


# -- independent oracles -----------------------------------------------------------


def divisor_count_oracle(disc):
    """Count reduced forms by iterating b and factoring (b*b - disc)/4."""
    count = 0
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if gcd(gcd(a, b), c) == 1:
                    count += 1 if (b == 0 or b == a or a == c) else 2
            a += 1
    return count


def _xgcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, u, v = _xgcd(b, a % b)
    return g, v, u - (a // b) * v


def ideal_compose_oracle(f1, f2, disc):
    """Reduced form of the product class, via ideal multiplication + HNF."""
    q = disc * (disc - 1) // 4  # delta^2 = disc*delta - q
    t1 = (f1.b + disc) // 2
    t2 = (f2.b + disc) // 2
    rows = [
        (f1.a * f2.a, 0),
        (-f1.a * t2, f1.a),
        (-f2.a * t1, f2.a),
        (t1 * t2 - q, disc - t1 - t2),
    ]
    # HNF of the rank-2 lattice spanned by rows: basis [(A, 0), (xr, g)]
    g, xr = 0, 0
    extras = []
    for x, y in rows:
        if y == 0:
            extras.append(x)
            continue
        if g == 0:
            xr, g = x, y
            continue
        gn, u, v = _xgcd(g, y)
        x_new = u * xr + v * x
        extras.append(xr - (g // gn) * x_new)
        extras.append(x - (y // gn) * x_new)
        xr, g = x_new, gn
    if g < 0:
        g, xr = -g, -xr
    A = 0
    for x in extras:
        A = gcd(A, x)
    assert A > 0 and g > 0
    # ideal content is g: J = g * [A/g, xr/g + delta]
    assert A % g == 0 and xr % g == 0
    a0 = A // g
    s = (xr // g) % a0
    b0 = (-2 * s - disc) % (2 * a0)  # parity is automatic: -2s-D = D (mod 2)
    num = b0 * b0 - disc
    assert num % (4 * a0) == 0, "oracle produced a non-form"
    return sc.reduce(sc.QuadForm(a0, b0, num // (4 * a0)))


def kernel_compose(cg, i, j):
    """Index of the Gauss composition of classes i and j, by the form kernel
    (the class group's discrete-log table is not consulted)."""
    return cg.index_of(sc.compose(cg.forms[i], cg.forms[j]))


def kernel_powers(cg, i):
    """[i^0, i^1, ..., i^(o-1)] by repeated kernel composition; o is the
    order of i."""
    out, x = [cg.principal_index], i
    while x != cg.principal_index:
        out.append(x)
        x = kernel_compose(cg, x, i)
    return out


def kernel_ops(cg):
    """(mul, pow, order) on indices by kernel composition alone: a
    composition memo, square-and-multiply for e >= 0, and the per-prime
    order loop."""
    memo = {}

    def mul(i, j):
        key = (min(i, j), max(i, j))
        if key not in memo:
            memo[key] = kernel_compose(cg, i, j)
        return memo[key]

    def pow_(i, e):
        assert e >= 0
        out = cg.principal_index
        while e:
            if e & 1:
                out = mul(out, i)
            i = mul(i, i)
            e >>= 1
        return out

    def order(i):
        o = cg.order
        for l in _prime_factors(cg.order):
            while o % l == 0 and pow_(i, o // l) == cg.principal_index:
                o //= l
        return o

    return mul, pow_, order


# -- construction ------------------------------------------------------------------


def test_expected_orders():
    expected = {
        -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -47: 5, -71: 7,
        -84: 4,
    }
    for disc, h in expected.items():
        assert sc.class_group(disc).order == h


@pytest.mark.parametrize("disc", SMALL_DISCS)
def test_order_matches_divisor_oracle(disc):
    assert sc.class_group(disc).order == divisor_count_oracle(disc)


def test_fundamental_validation():
    for bad in (10, -10, -12, -9, -1, -100):
        assert not sc.is_fundamental(bad)
        with pytest.raises(InadmissibleError):
            sc.QuadField(bad)
    for good in (-3, -4, -7, -8, -15, -20, -23, -84, -163):
        assert sc.is_fundamental(good)
    with pytest.raises(InadmissibleError):
        sc.class_group(-10_000_004)  # beyond the cap (and checked first)


def test_fundamental_validation_on_warm_cache():
    # is_fundamental is cached; a rejected discriminant must still be
    # rejected when the cache already holds its answer
    sc.is_fundamental.cache_clear()
    for _ in range(2):
        for bad in (-12, -9, -100, -8000075):  # -8000075 = -25 * 320003
            assert not sc.is_fundamental(bad)
            with pytest.raises(InadmissibleError, match="not a fundamental"):
                sc.QuadField(bad)
        # fundamental but beyond the cap
        assert sc.is_fundamental(-10_000_003)
        with pytest.raises(InadmissibleError, match="exceeds the supported cap"):
            sc.QuadField(-10_000_003)
        assert sc.QuadField(-8000003).disc == -8000003
    assert sc.is_fundamental.cache_info().hits >= 6


def test_rationals_sentinel():
    cg = sc.class_group(0)
    assert cg.order == 1
    assert cg.identity.is_principal
    assert (cg.identity * cg.identity).is_principal
    assert sc.prime_class(97, sc.QuadField(0)).is_principal
    assert cg.pow_idx(0, -5) == cg.pow_idx(0, 0) == cg.inverse_idx(0) == 0
    assert cg.order_of_idx(0) == 1
    assert cg.structure() == ((), ())


# -- reduce / compose ---------------------------------------------------------------


def test_reduce_examples():
    assert sc.reduce(sc.QuadForm(1, 1, 6)) == sc.QuadForm(1, 1, 6)
    assert sc.reduce(sc.QuadForm(6, 1, 1)) == sc.QuadForm(1, 1, 6)
    assert sc.reduce(sc.QuadForm(3, -1, 2)) == sc.QuadForm(2, 1, 3)


def test_reduce_errors():
    with pytest.raises(InadmissibleError):
        sc.reduce(sc.QuadForm(-1, 1, -6))
    with pytest.raises(InadmissibleError):
        sc.reduce(sc.QuadForm(2, 2, 2))  # imprimitive
    with pytest.raises(InadmissibleError):
        sc.reduce(sc.QuadForm(1, 5, 1))  # positive discriminant


def test_compose_examples():
    f = sc.QuadForm(2, 1, 3)
    assert sc.compose(sc.principal_form(-23), f) == f
    assert sc.compose(f, f) == sc.QuadForm(2, -1, 3)
    assert sc.compose(f, sc.QuadForm(2, -1, 3)) == sc.QuadForm(1, 1, 6)
    with pytest.raises(InadmissibleError):
        sc.compose(f, sc.QuadForm(1, 0, 1))


@pytest.mark.parametrize("disc", SMALL_DISCS)
def test_compose_matches_ideal_oracle(disc):
    forms = sc.class_group(disc).forms
    for f1 in forms:
        for f2 in forms:
            assert sc.compose(f1, f2) == ideal_compose_oracle(f1, f2, disc)


def _fundamental_discs(bound):
    return [d for d in range(-3, -bound - 1, -1) if sc.is_fundamental(d)]


def test_group_axioms_exhaustive_to_2000():
    for disc in _fundamental_discs(2000):
        cg = sc.class_group(disc)
        n = cg.order
        e = cg.principal_index
        closed = set(range(n))
        for i in range(n):
            assert cg.compose_idx(e, i) == i
            assert cg.compose_idx(i, cg.inverse_idx(i)) == e
        for a in range(n):
            for b in range(n):
                ab = cg.compose_idx(a, b)
                assert ab == kernel_compose(cg, a, b)
                assert ab in closed
                assert ab == cg.compose_idx(b, a)
                for c in range(n):
                    assert cg.compose_idx(ab, c) == cg.compose_idx(a, cg.compose_idx(b, c))


@pytest.mark.parametrize("disc", LADDER_DISCS)
def test_table_law_matches_kernel_sampled(disc):
    cg = sc.class_group(disc)
    rng = random.Random(disc)
    for _ in range(2000):
        i, j = rng.randrange(cg.order), rng.randrange(cg.order)
        assert cg.compose_idx(i, j) == kernel_compose(cg, i, j), (i, j)


@pytest.mark.parametrize("disc", SMALL_DISCS + LADDER_DISCS)
def test_table_pow_inverse_order_match_kernel(disc):
    cg = sc.class_group(disc)
    h = cg.order
    rng = random.Random(disc)
    elems = range(h) if h <= 100 else [rng.randrange(h) for _ in range(6)]
    for i in elems:
        powers = kernel_powers(cg, i)
        o = len(powers)
        assert cg.order_of_idx(i) == o
        assert cg.inverse_idx(i) == powers[-1 % o]
        for e in (0, 1, 2, 3, o - 1, o, o + 1, -1, -2, -o, h, -h, rng.randrange(-3 * h, 3 * h)):
            assert cg.pow_idx(i, e) == powers[e % o], (i, e)


@pytest.mark.parametrize("disc", ACCEPT_DISCS + MIXED_DISCS + LADDER_DISCS[:2])
def test_structure_matches_kernel_ops(disc):
    # same selection rule on kernel arithmetic: same factors and generators
    cg = sc.class_group(disc)
    mul, pow_, order = kernel_ops(cg)
    elems = range(cg.order)
    sylows = sylows_by_order(elems, order)

    def spans(gens):
        return _close(mul, [cg.principal_index], gens)[0] == frozenset(elems)

    want = _abelian_structure(cg.order, sylows, mul, pow_, cg.principal_index, order, spans)
    assert cg.structure() == want


SYLOW_DISCS = ACCEPT_DISCS + MIXED_DISCS + (-1000019, -2000003, -8000008, -8000003, -9951191)


@pytest.mark.parametrize("disc", SYLOW_DISCS)
def test_sylow_lists_match_order_filter(disc):
    # the lattice Sylow lists of the full group and of seeded subgroups
    # against the order filter
    cg = sc.class_group(disc)
    rng = random.Random(disc)
    subs = [cg.full_subgroup()] + [
        sc.subgroup_generate(cg, [sc.IdealClass(cg, rng.randrange(cg.order)) for _ in range(k)])
        for k in (1, 2, 3)
    ]
    for s in subs:
        want = sylows_by_order(s.members, cg.order_of_idx)
        assert {l: cg._sylow(s.hnf, l) for l in want} == want, s.hnf


# -- splitting and prime classes ------------------------------------------------------


def test_splitting_examples():
    k = sc.QuadField(-23)
    assert sc.splitting(23, k) is sc.Splitting.RAMIFIED
    assert sc.splitting(2, k) is sc.Splitting.SPLIT
    assert sc.splitting(3, sc.QuadField(-4)) is sc.Splitting.INERT
    assert sc.splitting(5, sc.QuadField(0)) is sc.Splitting.SPLIT


def test_splitting_rejects_non_primes():
    for field in (sc.QuadField(-23), sc.QuadField(0)):
        for p in (0, 1, 4, -3, 15):
            with pytest.raises(InadmissibleError, match="not a prime"):
                sc.splitting(p, field)


def test_prime_class_examples():
    k = sc.QuadField(-23)
    assert sc.prime_class(2, k).form == sc.QuadForm(2, 1, 3)
    ram = sc.prime_class(23, k)
    assert (ram * ram).is_principal
    with pytest.raises(InadmissibleError):
        sc.prime_class(5, k)  # inert
    # a split square such as 9 would hang sqrt_mod_prime without the check;
    # squares run under a timeout in test_cli.py::test_steinitz_non_prime_exit_2
    for p in (1, 0, 15, 21):
        with pytest.raises(InadmissibleError, match="not a prime"):
            sc.prime_class(p, k)


def test_prime_class_conjugate_is_inverse():
    k = sc.QuadField(-47)
    for p in (2, 3, 7, 17, 53, 59, 61):
        if sc.splitting(p, k) is sc.Splitting.INERT:
            continue
        c1 = sc.prime_class(p, k)
        c2 = sc.prime_class(p, k, conjugate=True)
        assert (c1 * c2).is_principal


def test_prime_class_lagrange():
    for disc in (-23, -47, -71, -84):
        k = sc.QuadField(disc)
        h = sc.class_group(disc).order
        count = 0
        p = 2
        while count < 12:
            if sc.splitting(p, k) is not sc.Splitting.INERT:
                assert (sc.prime_class(p, k) ** h).is_principal
                count += 1
            p += 1
            while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
                p += 1


# -- subgroups -----------------------------------------------------------------------


def test_subgroup_power_examples():
    cg = sc.class_group(-23)
    full = cg.full_subgroup()
    assert full.power(3).is_trivial()
    assert full.power(2) == full
    assert full.power(0).is_trivial()
    assert full.power(1) == full


def test_subgroup_product_and_generate():
    cg = sc.class_group(-84)
    trivial = cg.trivial_subgroup()
    g1 = cg.class_of(sc.QuadForm(3, 0, 7))
    s1 = sc.subgroup_generate(cg, [g1])
    assert s1.order == 2
    assert trivial.product(s1) == s1
    g2 = cg.class_of(sc.QuadForm(2, 2, 11))
    s2 = sc.subgroup_generate(cg, [g2])
    assert s1.product(s2).order == 4
    assert s1.members <= cg.full_subgroup().members
    assert not s2.members <= s1.members
    assert s1 == sc.subgroup_generate(cg, [g1, g1])


def test_subgroup_repr_lists_no_members():
    # failing subgroup assertions print the repr: it shows the lattice, not
    # the h member forms
    s = sc.class_group(-9951191).full_subgroup()
    assert repr(s) == f"ClassSubgroup(disc=-9951191, order=5085, index=1, hnf={s.hnf})"
    assert "members" not in vars(s)


def test_subgroup_generate_minimal():
    # adding any member as a generator changes nothing
    cg = sc.class_group(-71)
    g = cg.class_of(sc.QuadForm(2, 1, 9))
    s = sc.subgroup_generate(cg, [g])
    for idx in s.sorted_members():
        again = sc.subgroup_generate(cg, [g, sc.IdealClass(cg, idx)])
        assert again == s


def test_subgroup_direct_construction_validates():
    cg = sc.class_group(-23)
    with pytest.raises(InadmissibleError):
        subgroup_from_members(cg, frozenset([0, 1]))  # {e, g} with g of order 3
    with pytest.raises(InadmissibleError):
        subgroup_from_members(cg, frozenset([1, 2]))  # missing the principal class
    assert subgroup_from_members(cg, frozenset([0, 1, 2])).is_full()


def _all_subgroups(cg):
    """Every subgroup of cg generated by at most two classes, by members."""
    found = {}
    for i in range(cg.order):
        for j in range(i, cg.order):
            s = sc.subgroup_generate(cg, [sc.IdealClass(cg, i), sc.IdealClass(cg, j)])
            found[s.members] = s
    return list(found.values())


@pytest.mark.parametrize("disc", [-23, -84])
def test_subgroup_from_member_set_carries_generators(disc):
    # power and product read generators only; a subgroup built from a bare
    # member set must come with generators that generate all of it
    cg = sc.class_group(disc)
    trivial = cg.trivial_subgroup()
    subgroups = _all_subgroups(cg)
    for s in subgroups:
        outside = subgroup_from_members(cg, s.members)
        assert outside == s
        assert outside.power(1) == s
        assert trivial.product(outside) == s
        assert outside.product(trivial) == s
        gens = [sc.IdealClass(cg, i) for i in outside.generators]
        assert sc.subgroup_generate(cg, gens) == s
        for t in subgroups:
            want = {cg.compose_idx(a, b) for a in s.members for b in t.members}
            assert t.product(outside).members == want
            assert outside.product(t).members == want
    if disc == -23:
        assert subgroup_from_members(cg, frozenset({0, 1, 2})).power(1).order == 3
    principal = cg.principal_index
    others = [i for i in range(cg.order) if i != principal]
    with pytest.raises(InadmissibleError):
        subgroup_from_members(cg, frozenset(others))  # missing the principal class
    with pytest.raises(InadmissibleError):
        # -23: {e, g} with g of order 3; -84: three elements of C2 x C2
        subgroup_from_members(cg, frozenset([principal] + others[: cg.order - 2]))


def _oracle_power(s, e):
    return {s.group.pow_idx(x, e) for x in s.members}


def _oracle_product(s, t):
    return {s.group.compose_idx(a, b) for a in s.members for b in t.members}


@pytest.mark.parametrize("disc", SMALL_DISCS + (-1000019,))
def test_power_and_product_match_member_definitions(disc):
    # the member-by-member definitions power and product used to compute
    cg = sc.class_group(disc)
    h = cg.order
    rng = random.Random(disc)

    def random_subgroup(k):
        return sc.subgroup_generate(
            cg, [sc.IdealClass(cg, rng.randrange(h)) for _ in range(k)]
        )

    subgroups = [cg.trivial_subgroup(), cg.full_subgroup()]
    subgroups += [random_subgroup(k) for k in (1, 1, 2, 3)]
    proper = [d for d in range(2, h) if h % d == 0]
    exponents = (0, 1, 2, 3, h, proper[0] if proper else 1)
    for s in subgroups:
        for e in exponents:
            p = s.power(e)
            assert p.members == _oracle_power(s, e)
            for t in subgroups:
                assert p.product(t).members == _oracle_product(p, t)
        for t in subgroups:
            assert s.product(t).members == _oracle_product(s, t)


# -- lattices against the coset closure -----------------------------------------------

LATTICE_DISCS = ACCEPT_DISCS + MIXED_DISCS + (-1000019, -2000003, -8000008, -8000003, -9951191)


def _assert_matches_members(cg, s, want):
    """Order, index, members and the lattice of `s` against its member set
    `want` computed by the closure."""
    h = cg.order
    assert s.members == want
    assert s.order == len(want) and s.index_in_parent == h // len(want)
    assert s.is_full() == (len(want) == h) and s.is_trivial() == (len(want) == 1)
    outside = subgroup_from_members(cg, want)
    assert outside.hnf == s.hnf and outside == s and hash(outside) == hash(s)
    # the outside set's generators are the closure's grown list
    closed, grown = _close(cg.compose_idx, [cg.principal_index], sorted(want))
    assert closed == want and list(outside.generators) == grown


@pytest.mark.parametrize("disc", LATTICE_DISCS)
def test_lattice_operations_match_closure(disc):
    cg = sc.class_group(disc)
    h, e0 = cg.order, cg.principal_index
    mul = cg.compose_idx
    rng = random.Random(disc)
    subs = [(cg.trivial_subgroup(), frozenset([e0])), (cg.full_subgroup(), frozenset(range(h)))]
    for _ in range(3 if h > 1000 else 5):
        gens = sorted({rng.randrange(h) for _ in range(rng.randint(1, 3))})
        s = sc.subgroup_generate(cg, [sc.IdealClass(cg, i) for i in gens])
        assert s.generators == tuple(gens)
        subs.append((s, _close(mul, [e0], gens)[0]))
    exponents = {0, 1, 2, 3, h, h + 1, _prime_factors(h)[0] if h > 1 else 1}
    for s, want in subs:
        _assert_matches_members(cg, s, want)
        for e in exponents:
            p = s.power(e)
            powered = sorted({cg.pow_idx(g, e) for g in s.generators})
            _assert_matches_members(cg, p, _close(mul, [e0], powered)[0])
        for t, t_want in subs:
            st = s.product(t)
            assert st.members == _close(mul, want, t.generators)[0]
            assert st == t.product(s) and hash(st) == hash(t.product(s))
            assert (st == s) == (t_want <= want)
            assert want | t_want <= st.members
            assert (s == t) == (want == t_want)


@pytest.mark.parametrize("disc", LATTICE_DISCS)
def test_power_and_product_early_exits_match_the_lattice_path(disc):
    # power reduces e to gcd(e, exponent) and product returns an operand
    # that contains the other; both must give what stacking the rows and
    # taking the Hermite normal form gives
    cg = sc.class_group(disc)
    h, exponent = cg.order, lcm(*cg._dlog[2])
    rng = random.Random(7 * disc)
    subs = [cg.trivial_subgroup(), cg.full_subgroup()]
    for _ in range(6):
        gens = [sc.IdealClass(cg, rng.randrange(h)) for _ in range(rng.randint(1, 3))]
        subs.append(sc.subgroup_generate(cg, gens))
    subs += [s.power(p) for s in subs[2:] for p in _prime_factors(h)[:2]]
    exponents = {0, 1, exponent, exponent + 1, rng.randrange(2, 10**6)}
    exponents.update(_prime_factors(h))
    for s in subs:
        for e in exponents:
            want = cg._lattice([[e * x for x in row] for row in s.hnf])
            got = s.power(e)
            assert got.hnf == want, (s, e)
            if gcd(e, exponent) == 1:
                assert got is s
        for t in subs:
            want = cg._lattice(s.hnf + t.hnf)
            got = s.product(t)
            assert got.hnf == want and t.product(s).hnf == want, (s, t)
            if want in (s.hnf, t.hnf):
                assert got is (s if want == s.hnf and s.order >= t.order else t)


@pytest.mark.parametrize("disc", LATTICE_DISCS)
def test_power_is_computed_once_per_lattice_and_gcd(disc, monkeypatch):
    # seeded: every power equals the lattice of the scaled rows, and each
    # (lattice, gcd(e, exponent)) runs _hnf once per class group
    cg = sc.ClassGroup(disc)  # not the cached group: no power kept yet
    h, exponent = cg.order, lcm(*cg._dlog[2])
    rng = random.Random(11 * disc)
    subs = [cg.trivial_subgroup(), cg.full_subgroup()]
    for _ in range(5):
        gens = [sc.IdealClass(cg, rng.randrange(h)) for _ in range(rng.randint(1, 3))]
        subs.append(sc.subgroup_generate(cg, gens))
    exponents = [0, exponent, rng.randrange(2, 10**6)] + list(_prime_factors(h))
    exponents += [e + exponent * rng.randrange(1, 5) for e in exponents]
    calls = []
    hnf = sc.classgroup._hnf
    monkeypatch.setattr(sc.classgroup, "_hnf", lambda *a: calls.append(a) or hnf(*a))
    seen = set()
    for s in subs:
        for e in exponents:
            g = gcd(e, exponent)
            before = len(calls)
            got = s.power(e)
            want = cg._lattice([[e * x for x in row] for row in s.hnf])
            assert got.hnf == want, (s, e)
            if g == 1:
                assert got is s and len(calls) == before + 1  # the check's own _hnf
            else:
                repeat = (s.hnf, g) in seen
                assert len(calls) == before + (1 if repeat else 2), (s, e)
                assert cg._powers[s.hnf, g] == want
                seen.add((s.hnf, g))
    assert set(cg._powers) == seen
    # another subgroup object with a kept lattice shares the kept power
    for lattice, g in seen:
        before = len(calls)
        got = sc.ClassSubgroup(cg, lattice).power(g + exponent)
        assert got.hnf == cg._powers[lattice, g] and len(calls) == before


def test_one_lattice_shares_one_member_set(monkeypatch):
    cg = sc.ClassGroup(-1000019)  # not the cached group: nothing enumerated yet
    a = sc.subgroup_generate(cg, [sc.IdealClass(cg, 5)])
    b = sc.ClassSubgroup(cg, a.hnf)
    c = a.product(b.power(1)).product(cg.trivial_subgroup())
    assert a is not b and a == b == c
    steps = []
    at = sc.ClassGroup._at
    monkeypatch.setattr(sc.ClassGroup, "_at", lambda self, v: steps.append(1) or at(self, v))
    members = a.members
    assert len(steps) == len(a.hnf)  # one enumeration: one step per row
    assert b.members is members and c.members is members and a.members is members
    assert len(steps) == len(a.hnf) and list(cg._members) == [a.hnf]
    assert members == _close(cg.compose_idx, [cg.principal_index], [5])[0]


@pytest.mark.parametrize("disc", LATTICE_DISCS)
def test_member_set_that_is_no_subgroup_is_rejected(disc):
    cg = sc.class_group(disc)
    h, e0 = cg.order, cg.principal_index
    rng = random.Random(disc)
    for _ in range(3):
        g = rng.randrange(h)
        want = _close(cg.compose_idx, [e0], [g])[0]
        candidates = [want - {g}, want | {rng.randrange(h)}]
        if len(want) < h:
            candidates.append(want | {next(i for i in range(h) if i not in want)})
        for members in candidates:
            if e0 not in members:
                continue
            if _close(cg.compose_idx, [e0], sorted(members))[0] == members:
                assert subgroup_from_members(cg, members).members == members
            else:
                with pytest.raises(InadmissibleError, match="not a subgroup"):
                    subgroup_from_members(cg, members)
        with pytest.raises(InadmissibleError, match="principal"):
            subgroup_from_members(cg, want - {e0})


@pytest.mark.parametrize("disc", LATTICE_DISCS)
def test_w_norm_character_generators_are_closure_grown(disc):
    field, cg = sc.QuadField(disc), sc.class_group(disc)
    for m in (3, 4, 5, 7, 9):
        gal = sc.cyclotomic.galois_group(field, m)
        for s in (sc.cyclotomic.CycloSubgroup(m, frozenset([1])), gal):
            w = sc.cyclotomic.w_norm_character(field, s)
            closed, grown = _close(cg.compose_idx, [cg.principal_index], sorted(w.members))
            assert closed == w.members
            assert list(w.generators) == grown, (m, s)


def test_subgroup_parent_mismatch():
    s1 = sc.class_group(-23).full_subgroup()
    s2 = sc.class_group(-47).full_subgroup()
    with pytest.raises(InadmissibleError):
        s1.product(s2)


# -- structure ------------------------------------------------------------------------


@pytest.mark.parametrize("disc", SMALL_DISCS)
def test_structure_consistency(disc):
    cg = sc.class_group(disc)
    factors, gens = cg.structure()
    prod = 1
    for d in factors:
        prod *= d
    assert prod == cg.order
    for a, b in zip(factors, factors[1:]):
        assert a % b == 0
    for d, g in zip(factors, gens):
        assert cg.order_of_idx(g) == d
    # exponent annihilates everything
    if factors:
        for i in range(cg.order):
            assert cg.pow_idx(i, factors[0]) == cg.principal_index


def test_structure_of_minus_84():
    cg = sc.class_group(-84)
    assert cg.invariant_factors == (2, 2)


def test_structure_large_disc():
    d = -999_995
    while not sc.is_fundamental(d):
        d -= 1
    cg = sc.class_group(d)
    assert cg.order == divisor_count_oracle(d)
    factors, gens = cg.structure()
    prod = 1
    for f in factors:
        prod *= f
    assert prod == cg.order
    for a, b in zip(factors, factors[1:]):
        assert a % b == 0
    for f, g in zip(factors, gens):
        assert cg.order_of_idx(g) == f


def test_subgroup_structure():
    cg = sc.class_group(-84)
    s = sc.subgroup_generate(cg, [cg.class_of(sc.QuadForm(3, 0, 7))])
    assert s.invariant_factors == (2,)
    assert s.index_in_parent == 2
