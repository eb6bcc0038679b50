"""The class-group walk against its oracles.

`dlog_table_oracle` is an earlier `classgroup._dlog_table`, kept verbatim
but for a local form -> index dict in place of the one the class group kept:
it walks the sorted reduced forms instead of prime forms, carries every
element's exponent vector through the walk, changes coordinates per element
and builds `lut` by reducing every digit vector through a dict.  Its
generators are other classes than the walk's, so its coordinates differ;
the production table must give the same group law, inverses and orders.
`_kernels.reduced_forms` is the oracle of the walk's forms, and genus
theory of its 2-rank.
"""

import random
from itertools import product
from math import gcd, lcm, prod

import pytest

from steinitzcalc import _kernels
from steinitzcalc.classgroup import ClassGroup, _diagonalize, is_fundamental
from steinitzcalc.errors import InadmissibleError, InternalInvariantError
from steinitzcalc.grouptree import _prime_factors

from conftest import ACCEPT_DISCS, MIXED_DISCS

LADDER_DISCS = (-1000019, -8000003, -9951191)  # h = 342, 702, 5085


def dlog_table_oracle(cg):
    """The discrete-log table of `cg`: (coords, codes, lut, moduli, weights).

    coords[i] is the coordinate tuple of index i in Z/moduli[0] + ... +
    Z/moduli[-1].  codes[i] is sum(c_t * weights[t]) in the mixed radix
    weights[t + 1] = weights[t] * (2 * moduli[t] - 1), wide enough that the
    sum of two codes has no carries; lut maps every code whose digits s_t
    lie in [0, 2 * moduli[t] - 2] to the index at (s_t mod moduli[t]), fewer
    than 2^k * h entries for k moduli.  So
    composition is lut[codes[i] + codes[j]], and powers and inverses look up
    the code of the scaled coordinates.

    The build walks the indices in sorted order; an index g outside the span
    S of the generators so far becomes the next generator, and the cosets
    S*g, S*g^2, ... are added one at a time, one kernel composition per new
    element, each element getting its exponent vector over the generators.
    The first g^n found in S gives the relation n*e_g = exponents(g^n).  The
    relations form a lower-triangular k x k matrix R with k <= log2(h); with
    U*R*V = diag(d) for unimodular U and V, an exponent vector a has
    coordinates (a*V)_t mod d_t, of which those with d_t > 1 are kept
    (Cohen, GTM 138, section 2.4)."""
    forms = cg.forms
    index = {f: i for i, f in enumerate(forms)}

    def compose(i, j):
        f1, f2 = forms[i], forms[j]
        return index[_kernels.compose_reduced(f1.a, f1.b, f1.c, f2.a, f2.b, f2.c)]

    exps = {cg.principal_index: ()}  # the span S, principal class first
    relations = []
    for g in range(cg.order):
        if g in exps:
            continue
        exps = {x: v + (0,) for x, v in exps.items()}
        coset, n = list(exps.items()), 0
        while True:
            n += 1
            first = compose(coset[0][0], g)  # g^n
            if first in exps:
                relations.append([-c for c in exps[first][:-1]] + [n])
                break
            coset = [(first, coset[0][1][:-1] + (n,))] + [
                (compose(x, g), v[:-1] + (n,)) for x, v in coset[1:]
            ]
            exps.update(coset)

    k = len(relations)
    d, v = _diagonalize([r + [0] * (k - len(r)) for r in relations])
    keep = [t for t in range(k) if d[t] > 1]
    moduli = tuple(d[t] for t in keep)
    coords = [None] * cg.order
    for x, a in exps.items():
        a += (0,) * (k - len(a))
        coords[x] = tuple(sum(a[j] * v[j][t] for j in range(k)) % d[t] for t in keep)
    at = {c: x for x, c in enumerate(coords)}
    if len(at) != cg.order or prod(moduli) != cg.order:
        raise InternalInvariantError(f"discrete-log table of disc {cg.disc} is not a bijection")

    weights = [prod(2 * m - 1 for m in moduli[:t]) for t in range(len(moduli))]
    codes = [sum([c * w for c, w in zip(cs, weights)]) for cs in coords]
    # product() varies its last range fastest: list the digits high to low
    lut = [
        at[tuple(s % m for s, m in zip(reversed(digits), moduli))]
        for digits in product(*[range(2 * m - 1) for m in reversed(moduli)])
    ]
    return coords, codes, lut, moduli, weights


def _sampled_discs():
    """48 seeded fundamental discriminants from the 918 in [-103000, -100001],
    plus the first two there with five prime factors (2-rank 4 by genus
    theory), so tables of rank 1 to 4 all occur."""
    window = [d for d in range(-100001, -103001, -1) if is_fundamental(d)]
    rank4 = [d for d in window if len(_prime_factors(-d)) >= 5][:2]
    return random.Random(1).sample(window, 48) + rank4


SAMPLED_DISCS = _sampled_discs()


def test_sample_covers_ranks_one_to_four():
    ranks = {len(ClassGroup(d).invariant_factors) for d in SAMPLED_DISCS}
    assert {1, 2, 3, 4} <= ranks


ORACLE_DISCS = ACCEPT_DISCS + MIXED_DISCS + LADDER_DISCS + tuple(SAMPLED_DISCS)


@pytest.mark.parametrize("disc", ORACLE_DISCS)
def test_table_matches_oracle(disc):
    # the unit vectors of the oracle's coordinates generate the group; two
    # associative laws that agree on i * g for every i and every generator g
    # agree everywhere, since then i * (g * g') = (i * g) * g' in both
    cg = ClassGroup(disc)
    coords, codes, lut, moduli, weights = dlog_table_oracle(cg)
    assert prod(cg._dlog[2]) == prod(moduli) == cg.order
    for g in [lut[w] for w in weights]:
        for i in range(cg.order):
            assert cg.compose_idx(i, g) == lut[codes[i] + codes[g]]
    for i in range(cg.order):
        inverse = [-x % d * w for x, d, w in zip(coords[i], moduli, weights)]
        assert cg.inverse_idx(i) == lut[sum(inverse)]
        assert cg.order_of_idx(i) == lcm(*[d // gcd(x, d) for x, d in zip(coords[i], moduli)])
        assert cg._at(cg._coords(i)) == i


@pytest.mark.parametrize("disc", ACCEPT_DISCS + MIXED_DISCS + LADDER_DISCS)
def test_index_of_bisects_the_forms(disc):
    # each fact is kept once: no form -> index dict, and no coordinate list
    # beside the codes, lookup table, moduli and weights
    cg = ClassGroup(disc)
    assert not hasattr(cg, "_index") and len(cg._dlog) == 4
    for i, f in enumerate(cg.forms):
        assert cg.index_of(f) == cg.index_of(tuple(f)) == i
        # (a, b) fixes c, so (a, b, c + 1) lies between f and the next form,
        # or past the last one
        with pytest.raises(InadmissibleError, match="not a reduced form"):
            cg.index_of((f.a, f.b, f.c + 1))
    for other in {-23, -20, -1155} - {disc}:
        for f in ClassGroup(other).forms:
            with pytest.raises(InadmissibleError, match="not a reduced form"):
                cg.index_of(f)


@pytest.mark.parametrize("disc", ORACLE_DISCS)
def test_walk_finds_every_reduced_form(disc):
    assert list(ClassGroup(disc).forms) == _kernels.reduced_forms(disc)


def test_walk_finds_every_reduced_form_below_20000():
    discs = [d for d in range(-3, -20001, -1) if is_fundamental(d)]
    assert len(discs) == 6079
    for disc in discs:
        assert list(ClassGroup(disc).forms) == _kernels.reduced_forms(disc), disc


@pytest.mark.parametrize("disc", ORACLE_DISCS)
def test_two_rank_is_genus_number(disc):
    # genus theory: Cl/Cl^2 has order 2^(mu - 1), mu = #{primes dividing D}
    factors = ClassGroup(disc).structure()[0]
    assert sum(1 for d in factors if d % 2 == 0) == len(_prime_factors(-disc)) - 1


def test_table_rejects_a_broken_group_law(monkeypatch):
    # every composition lands on the principal class: each generator would
    # close at once and the walk would collapse to one class, so the kernel
    # is patched before the build and the walk must say so
    monkeypatch.setattr(_kernels, "compose_reduced", lambda *forms: (1, 0, 21))
    with pytest.raises(InternalInvariantError, match="moves the class"):
        ClassGroup(-84)


def test_walk_rejects_a_class_walked_twice(monkeypatch):
    # x * g = g: the principal form fixes every generator and the first one
    # looks like an involution, but the second one's coset walks onto itself
    monkeypatch.setattr(_kernels, "compose_reduced", lambda *forms: forms[3:])
    with pytest.raises(InternalInvariantError, match="not a bijection"):
        ClassGroup(-84)
