"""The class-group walk against its oracles.

`dlog_table_oracle` is an earlier `classgroup._dlog_table`, kept verbatim
but for a local form -> index dict in place of the one the class group kept:
it walks the sorted reduced forms instead of prime forms, carries every
element's exponent vector through the walk, changes coordinates per element
and builds `lut` by reducing every digit vector through a dict.  Its
generators are other classes than the walk's, so its coordinates differ;
the production table must give the same group law, inverses and orders.
`walk_oracle.composition_walk`, the walk before its step kernel, must give
the same keys and table value for value.  `_kernels.reduced_forms` is the
oracle of the walk's forms, and genus theory of its 2-rank.
"""

import gc
import random
import tracemalloc
from itertools import product
from math import gcd, isqrt, lcm, prod

import pytest

from steinitzcalc import _kernels
from steinitzcalc.classgroup import (
    MAX_ABS_DISC,
    ClassGroup,
    QuadForm,
    _diagonalize,
    _dlog_table,
    _walk_primes,
    is_fundamental,
)
from steinitzcalc.errors import InadmissibleError, InternalInvariantError
from steinitzcalc.grouptree import _is_prime, _prime_factors

from conftest import ACCEPT_DISCS, MIXED_DISCS
from walk_oracle import composition_walk

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


def _rejected(cg, form):
    message = f"{QuadForm(*form)} is not a reduced form of disc {cg.disc}"
    with pytest.raises(InadmissibleError) as exc:
        cg.index_of(form)
    assert str(exc.value) == message


@pytest.mark.parametrize("disc", ACCEPT_DISCS + MIXED_DISCS + LADDER_DISCS)
def test_index_of_bisects_the_forms(disc):
    # each fact is kept once: no form -> index dict, and no coordinate list
    # beside the codes, lookup table, moduli and weights
    cg = ClassGroup(disc)
    assert not hasattr(cg, "_index") and len(cg._dlog) == 4
    for i, f in enumerate(cg.forms):
        a, b, c = f
        assert cg.index_of(f) == cg.index_of((a, b, c)) == cg.index_of([a, b, c]) == i
        # (a, b) fixes c, so (a, b, c +- 1) is no form of discriminant D
        _rejected(cg, (a, b, c - 1))
        _rejected(cg, (a, b, c + 1))
        # equivalent forms of discriminant D that are not reduced: b moved
        # by 2a, a and c swapped when a < c, and -b where reduction wants
        # b >= 0
        _rejected(cg, (a, b + 2 * a, a + b + c))
        _rejected(cg, (a, b - 2 * a, a - b + c))
        if a < c:
            _rejected(cg, (c, -b, a))
        if b > 0 and (b == a or a == c):
            _rejected(cg, (a, -b, c))
    for other in {-23, -20, -1155, -9951191} - {disc}:
        for f in ClassGroup(other).forms[:200]:
            _rejected(cg, f)


def _random_discs(n, seed):
    """n seeded fundamental discriminants up to the cap, half of them drawn
    uniformly in |D| and half log-uniformly."""
    rng, out = random.Random(seed), []
    while len(out) < n:
        bound = MAX_ABS_DISC if len(out) % 2 else int(10 ** rng.uniform(1, 7))
        d = -rng.randrange(3, bound + 1)
        if is_fundamental(d) and d not in out:
            out.append(d)
    return out


@pytest.mark.parametrize("disc", ORACLE_DISCS + (0,) + tuple(_random_discs(12, 23)))
def test_walk_finds_every_reduced_form(disc):
    # one key a*span + b per class: the keys sort as the forms do, and the
    # forms are decoded from them, one at a time or all at once on first read
    want = [(1, 0, 0)] if disc == 0 else _kernels.reduced_forms(disc)
    span = 2 * isqrt(-disc // 3) + 1
    shuffled = random.Random(disc).sample(want, len(want))
    assert sorted(shuffled, key=lambda f: f[0] * span + f[1]) == sorted(shuffled) == want
    cg = ClassGroup(disc)
    assert list(cg._keys) == [a * span + b for a, b, _ in want]
    assert "forms" not in vars(cg)
    assert [cg.form(i) for i in range(cg.order)] == list(cg.forms) == want
    assert all(type(f) is QuadForm for f in cg.forms)


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
    # close at once and the walk would collapse to one class, so both
    # kernels are patched before the build and the walk must say so
    monkeypatch.setattr(_kernels, "compose_reduced", lambda *forms: (1, 0, 21))
    monkeypatch.setattr(_kernels, "compose_prime", lambda a, b, c, g, p: (1, 0, 21))
    with pytest.raises(InternalInvariantError, match="moves the class"):
        ClassGroup(-84)


def test_walk_rejects_a_class_walked_twice(monkeypatch):
    # x * g = g: the principal form fixes every generator and the first one
    # looks like an involution, but the second one's coset walks onto itself
    monkeypatch.setattr(_kernels, "compose_reduced", lambda *forms: forms[3:])
    monkeypatch.setattr(_kernels, "compose_prime", lambda a, b, c, g, p: g)
    with pytest.raises(InternalInvariantError, match="not a bijection"):
        ClassGroup(-84)


# -- the walk's step kernel, free inverses and skipped primes ----------------------


WALK_DISCS = ORACLE_DISCS + (0,) + tuple(_random_discs(12, 26))


def _first_generator_spans(cg):
    """Whether the walk's first generator, the first prime form that is not
    principal, generates the class group."""
    for p in range(2, cg._half + 1):
        f = _is_prime(p) and _kernels.prime_form(cg.disc, p)
        if f and _kernels.reduce_form(*f)[0] != 1:
            return cg.order_of_idx(cg.index_of(_kernels.reduce_form(*f))) == cg.order
    return False


def test_walk_discs_cover_both_kinds_of_walk():
    # rank 4 has 15 ambiguous classes of order 2, each its own inverse; a
    # first generator that spans Cl leaves the walk one cycle
    groups = [ClassGroup(d) for d in WALK_DISCS]
    assert [len(cg.invariant_factors) for cg in groups].count(4) >= 2
    assert sum(map(_first_generator_spans, groups)) >= 20


@pytest.mark.parametrize("disc", WALK_DISCS)
def test_walk_matches_the_composition_walk(disc):
    # the same order of classes, so keys and table are equal value for value
    cg = ClassGroup(disc)
    keys, (codes, lut, moduli, weights) = composition_walk(disc)
    assert list(cg._keys) == list(keys)
    assert list(cg._dlog[0]) == codes and list(cg._dlog[1]) == lut
    assert cg._dlog[2:] == (moduli, weights)


@pytest.mark.parametrize("disc", WALK_DISCS)
def test_walk_counts_its_kernel_calls(monkeypatch, disc):
    # counts, not times: every step is a compose_prime call, whose fallback
    # is the only general composition; a walk whose first generator spans
    # Cl makes at most ceil(h/2) + 1 steps; and prime_form runs exactly for
    # the primes p whose norm no class of the span of the earlier prime
    # forms has
    calls = {"compose_prime": [], "compose_reduced": [], "prime_form": []}
    for name, log in calls.items():
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *a, log=log, k=kernel: log.append(a) or k(*a))
    cg = ClassGroup(disc)
    monkeypatch.undo()

    steps = calls["compose_prime"]
    assert len(calls["compose_reduced"]) == sum(g[0] != p for *_, g, p in steps)
    if _first_generator_spans(cg):
        assert len(steps) <= -(-cg.order // 2) + 1, (len(steps), cg.order)
    span, norms, want = [], set(), []
    for p in _walk_primes(isqrt(-disc // 3)):
        if p in norms:
            continue
        want.append(p)
        f = _kernels.prime_form(disc, p)
        if f is not None:
            span.append(cg._coords(cg.index_of(_kernels.reduce_form(*f))))
            norms = {cg.form(i).a for i in cg._members_of(cg._lattice(span))}
    assert [p for _, p in calls["prime_form"]] == want


# -- one packed key per class ---------------------------------------------------------


def test_index_of_never_takes_a_key_of_another_class():
    # (a - j, b + j * span) has the key of the class (a, b); for even j its
    # b has D's parity, and where 4(a - j) divides b^2 - D it is a form of
    # discriminant D, which only the check |b| <= isqrt(|D|/3) rejects
    hits = 0
    for disc in ACCEPT_DISCS + MIXED_DISCS + LADDER_DISCS:
        cg = ClassGroup(disc)
        span = 2 * cg._half + 1
        for a, b, _ in cg.forms:
            for j in (2, 4, 6):
                x, y = a - j, b + j * span
                if x >= 1 and (y * y - disc) % (4 * x) == 0:
                    assert x * span + y == a * span + b
                    _rejected(cg, (x, y, (y * y - disc) // (4 * x)))
                    hits += 1
    assert hits > 100


def test_class_keeps_a_few_dozen_bytes():
    # retained bytes per class of a cold build at h = 5085: 18.6 B with the
    # keys, codes and table packed 4 bytes an entry; 92 B with a packed
    # 8-byte key per class and lists of codes and table entries, 248 B with
    # a QuadForm per class
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cg = ClassGroup(-9951191)
        cg.structure()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cg.order == 5085 and "forms" not in vars(cg)
    assert retained / cg.order < 25, retained / cg.order


def test_build_peak_stays_near_the_packed_table():
    # the walk keeps a key per class, not an (a, b, c) tuple: a cold build
    # at h = 5085 peaks at 1.07 MB traced (1.36 MB with a tuple per class);
    # the bound is that plus 25%
    ClassGroup(-84)  # the modules' own first-use allocations happen here
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ClassGroup(-9951191)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1_340_000, peak


@pytest.mark.parametrize("disc", (0, -3, -84, -5460, -9951191))
def test_tables_are_packed_buffers(disc):
    # codes and lut hold 4-byte integers; lut is writable (`check` is tested
    # on a corrupted copy) and codes and keys are read-only; keys are 4-byte
    # while span^2 < 2^31, which holds up to the cap
    cg = ClassGroup(disc)
    codes, lut, _, _ = cg._dlog
    span = 2 * cg._half + 1
    assert span * span < 2**31 and cg._keys.format == "i"
    assert codes.format == lut.format == "i" and codes.itemsize == lut.itemsize == 4
    assert cg._keys.readonly and codes.readonly and not lut.readonly
    assert type(lut.obj) is bytearray
    assert len(codes) == len(cg._keys) == cg.order


def test_keys_past_four_bytes_are_packed_as_eight():
    # span^2 >= 2^31 from |D| of about 1.61e9 on: far past the cap, so the
    # table is built here without a QuadField
    disc = -1610612740
    assert is_fundamental(disc) and -disc > MAX_ABS_DISC
    span = 2 * isqrt(-disc // 3) + 1
    assert span * span >= 2**31
    keys, (codes, lut, moduli, _) = _dlog_table(disc)
    assert keys.format == "q" and codes.format == lut.format == "i"
    assert len(keys) == len(codes) == prod(moduli)
    want_keys, (want_codes, want_lut, _, _) = composition_walk(disc)
    assert list(keys) == list(want_keys)
    assert list(codes) == want_codes and list(lut) == want_lut
