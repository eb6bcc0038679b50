"""The abelian-structure oracle on synthetic groups, and the coordinate
routine behind `structure()` against that oracle on class groups."""

import random
from itertools import product

import pytest

import steinitzcalc as sc
from steinitzcalc.errors import InternalInvariantError
from steinitzcalc.grouptree import _prime_factors

from conftest import ACCEPT_DISCS, MIXED_DISCS, sylows_by_order
from structure_oracle import _abelian_structure, _close


def _synthetic(factors, seed):
    """A finite abelian group on permuted opaque indices.

    Returns (elems, mul, pow_fn, identity, order_fn) built from the direct
    product of Z/f cyclic groups, with labels shuffled so no structure leaks
    through index order.
    """
    coords = list(product(*(range(f) for f in factors)))
    rng = random.Random(seed)
    labels = list(range(len(coords)))
    rng.shuffle(labels)
    to_label = dict(zip(coords, labels))
    to_coord = {v: k for k, v in to_label.items()}

    def mul(x, y):
        cx, cy = to_coord[x], to_coord[y]
        return to_label[tuple((a + b) % f for a, b, f in zip(cx, cy, factors))]

    ident = to_label[tuple(0 for _ in factors)]

    def pow_fn(x, e):
        cx = to_coord[x]
        return to_label[tuple((a * e) % f for a, f in zip(cx, factors))]

    def order_fn(x):
        cx = to_coord[x]
        o = 1
        for a, f in zip(cx, factors):
            from math import gcd, lcm

            o = lcm(o, f // gcd(f, a))
        return o

    return labels, mul, pow_fn, ident, order_fn


CASES = [
    (2,),
    (3,),
    (4, 2),
    (8, 4, 2),
    (9, 3),
    (12, 6),
    (100, 10),
    (16, 8, 2),
    (30,),
    (36, 6),
    (25, 5),
    (27, 9, 3),
]


@pytest.mark.parametrize("factors", CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_structure_recovers_invariant_factors(factors, seed):
    elems, mul, pow_fn, ident, order_fn = _synthetic(factors, seed)
    sylows = sylows_by_order(elems, order_fn)

    def spans(gens):
        return _close(mul, [ident], gens)[0] == frozenset(elems)

    got, gens = _abelian_structure(len(elems), sylows, mul, pow_fn, ident, order_fn, spans)
    assert got == tuple(factors)
    # generator spans are direct: all products distinct
    span = {ident}
    for d, g in zip(got, gens):
        span = {mul(s, pow_fn(g, k)) for s in span for k in range(d)}
    assert len(span) == len(elems)


def test_structure_trivial():
    assert _abelian_structure(1, {}, None, None, 7, None, None) == ((), ())


def test_structure_rejects_generators_that_do_not_span():
    elems, mul, pow_fn, ident, order_fn = _synthetic((4, 2), 0)
    sylows = sylows_by_order(elems, order_fn)
    with pytest.raises(InternalInvariantError, match="do not span"):
        _abelian_structure(len(elems), sylows, mul, pow_fn, ident, order_fn, lambda gens: False)


# -- the coordinate routine against the oracle ------------------------------------------

LADDER_DISCS = (-1000019, -2000003, -8000008, -8000003, -9951191)
TWO_RANK_DISCS = (-420, -1155, -3315, -5460)  # Cl has 2-rank 3, 3, 3 and 4


def _oracle_structure(s):
    """The oracle run on the table's group law over the members of `s`,
    with Sylow lists by element order and the span check by closure."""
    cg = s.group
    e0, mul = cg.principal_index, cg.compose_idx
    sylows = sylows_by_order(s.members, cg.order_of_idx)

    def spans(gens):
        return _close(mul, [e0], gens)[0] == s.members

    return _abelian_structure(s.order, sylows, mul, cg.pow_idx, e0, cg.order_of_idx, spans)


@pytest.mark.parametrize("disc", ACCEPT_DISCS + MIXED_DISCS + LADDER_DISCS + TWO_RANK_DISCS)
def test_structure_matches_oracle(disc):
    # same factors and same generators on the full group and on seeded
    # subgroups built by generate, power and product; the group is built
    # here, not taken from the cache, so no structure comes from the memo
    cg = sc.ClassGroup(disc)
    h = cg.order
    rng = random.Random(disc)
    full = cg.full_subgroup()
    assert cg.structure() == full.structure() == _oracle_structure(full)
    generated = [
        sc.subgroup_generate(cg, [sc.IdealClass(cg, rng.randrange(h)) for _ in range(k)])
        for k in (1, 2, 3)
    ]
    exponents = (2, 3, _prime_factors(h)[0] if h > 1 else 1)
    subs = generated + [s.power(e) for s in generated for e in exponents]
    subs += [s.product(t) for s in subs[:3] for t in subs[3:6]]
    for s in subs:
        assert s.structure() == _oracle_structure(s), s.hnf


@pytest.mark.parametrize("disc", (-23, -84, -8000008))
def test_full_answer_reads_the_group_structure(disc):
    # structures are memoized per lattice in the class group, so an answer
    # that is the whole group shares the group's own structure
    sub = sc.rt(sc.QuadField(disc), sc.dihedral_tree(3)).subgroup
    assert sub.structure() is sc.class_group(disc).structure()


def test_structure_raises_without_an_exact_order_lift(monkeypatch):
    cg = sc.ClassGroup(-5460)  # uncached, so the patch stays with this test
    monkeypatch.setattr(cg, "order_of_idx", lambda i: 1)
    with pytest.raises(InternalInvariantError, match="no exact-order lift"):
        cg.structure()


@pytest.mark.parametrize("disc, i, j", [(-47, 1, 5), (-84, 1, 2)])
def test_structure_raises_on_a_corrupt_table(disc, i, j):
    # two lut entries swapped: no Sylow member has order q modulo the span
    cg = sc.ClassGroup(disc)
    lut = cg._dlog[1]
    lut[i], lut[j] = lut[j], lut[i]
    with pytest.raises(InternalInvariantError, match="no Sylow member"):
        cg.structure()


def test_structure_raises_when_generators_do_not_span(monkeypatch):
    cg = sc.ClassGroup(-5460)
    lattice = cg._lattice
    monkeypatch.setattr(cg, "_lattice", lambda vectors: lattice(vectors[1:]))
    with pytest.raises(InternalInvariantError, match="do not span"):
        cg.structure()


def _seeded_fundamental_discs(n, seed):
    """n distinct fundamental discriminants, |D| log-uniform in [3, 10^6]."""
    rng, out = random.Random(seed), []
    while len(out) < n:
        d = -int(10 ** rng.uniform(0.5, 6))
        if sc.classgroup.is_fundamental(d) and d not in out:
            out.append(d)
    return out


def test_full_structure_matches_oracle_at_seeded_fields():
    # the seeded fields hold both cyclic and non-cyclic Sylow subgroups
    discs = _seeded_fundamental_discs(200, 33)
    routes = set()
    for disc in discs:
        cg = sc.ClassGroup(disc)
        full = cg.full_subgroup()
        assert cg.structure() == _oracle_structure(full), disc
        for l in _prime_factors(cg.order):
            routes.add(sum(1 for d in cg.invariant_factors if d % l == 0) > 1)
    assert routes == {False, True}


# Sylow subgroups of rank 2 to 6: 2-rank 4 and 6, 2-rank 2 in C250 x C2, and
# odd ones: C9 x C3, C20 x C5, C7 x C7, C63 x C3 x C3; and the cyclic
# ladder fields
NONCYCLIC_DISCS = (-5460, -2042040, -8000008, -3299, -11199, -63499, -3321607)
CYCLIC_DISCS = (-9951191, -1000019, -2000003, -8000003)


@pytest.mark.parametrize("disc", NONCYCLIC_DISCS + CYCLIC_DISCS)
def test_subgroup_structures_match_oracle(disc):
    # seeded subgroups: random generators, and their powers by 2, 3, 4, 6 and 9
    cg = sc.ClassGroup(disc)
    rng = random.Random(disc)
    subs = []
    for k in (1, 2, 3, 4):
        s = sc.subgroup_generate(cg, [sc.IdealClass(cg, rng.randrange(cg.order)) for _ in range(k)])
        subs += [s] + [s.power(e) for e in (2, 3, 4, 6, 9)]
    ranks = set()
    for s in subs:
        assert s.structure() == _oracle_structure(s), s.hnf
        factors = s.invariant_factors
        ranks |= {sum(1 for d in factors if d % l == 0) for l in _prime_factors(s.order)}
    if disc in NONCYCLIC_DISCS:
        assert max(ranks) >= 2, ranks
