"""Galois-subgroup and W-group tests."""

import json
import random
import time
from math import gcd
from pathlib import Path

import pytest

import steinitzcalc as sc
from steinitzcalc import _kernels, classgroup, cyclotomic
from steinitzcalc import grouptree as gt
from steinitzcalc.cyclotomic import (
    SOUNDNESS_BOUND,
    CycloSubgroup,
    galois_group,
    g_k_mu_tau,
    unit_group,
    w_group,
    w_norm_character,
)
from steinitzcalc.errors import InadmissibleError, InternalInvariantError
from steinitzcalc.grouptree import _prime_factors

from conftest import ACCEPT_DISCS, MIXED_DISCS, patch_w_norm_character
from structure_oracle import subgroup_from_members

Q = sc.QuadField(0)
K23 = sc.QuadField(-23)
K84 = sc.QuadField(-84)
K15 = sc.QuadField(-15)


# -- CycloSubgroup -----------------------------------------------------------------


def test_subgroup_validation():
    CycloSubgroup(7, frozenset([1, 2, 4]))
    with pytest.raises(InadmissibleError):
        CycloSubgroup(7, frozenset([1, 2]))  # not closed
    with pytest.raises(InadmissibleError):
        CycloSubgroup(7, frozenset([2, 4]))  # no identity... 1 missing
    with pytest.raises(InadmissibleError):
        CycloSubgroup(6, frozenset([1, 3]))  # 3 not coprime to 6
    assert CycloSubgroup(1, frozenset([0])).order == 1


@pytest.mark.parametrize("m", [8, 12, 15, 16, 20, 21])
def test_generator_closure_check_agrees_with_all_pairs(m):
    # the closure check over a generating set accepts exactly the unit sets
    # with 1 whose pairwise products stay inside, and names a failing pair
    units = [a for a in range(2, m) if gcd(a, m) == 1]
    accepted = 0
    for mask in range(1 << len(units)):
        mem = frozenset([1] + [a for j, a in enumerate(units) if mask >> j & 1])
        closed = all(a * b % m in mem for a in mem for b in mem)
        try:
            CycloSubgroup(m, mem)
        except InadmissibleError as exc:
            assert not closed and "not closed under multiplication" in str(exc)
            a, b = map(int, str(exc).rsplit("(", 1)[1].rstrip(")").split(","))
            assert a in mem and b in mem and a * b % m not in mem
        else:
            assert closed
            accepted += 1
    assert accepted >= 4


def test_cold_unit_group_at_the_largest_prime_modulus_is_fast():
    # the closure check walks a generating set, a few members of (Z/997Z)*
    # with 996 products each, not 996^2 products
    unit_group.cache_clear()
    start = time.perf_counter()
    assert unit_group(997).order == 996
    assert time.perf_counter() - start < 0.05


def test_subgroup_equality_and_hash():
    # a W target is keyed by its CycloSubgroup: equal exactly when the
    # modulus and the reduced member set are
    s1 = CycloSubgroup(7, frozenset([1, 6]))
    s2 = CycloSubgroup(7, frozenset([6, 8]))
    assert s1 == s2 and hash(s1) == hash(s2) and {s1: 0}[s2] == 0
    assert s1 != CycloSubgroup(7, frozenset([1, 2, 4]))
    assert CycloSubgroup(3, frozenset([1])) != CycloSubgroup(5, frozenset([1]))


# -- galois_group -------------------------------------------------------------------


def test_galois_group_examples():
    assert galois_group(Q, 7).sorted_members() == [1, 2, 3, 4, 5, 6]
    assert galois_group(K23, 7).sorted_members() == [1, 2, 3, 4, 5, 6]
    assert galois_group(sc.QuadField(-3), 3).sorted_members() == [1]
    assert galois_group(Q, 1).sorted_members() == [0]


def test_galois_group_kernel_cases():
    # -4 | 8: kernel of kronecker(-4, .) mod 8 is {1, 5}
    assert galois_group(sc.QuadField(-4), 8).sorted_members() == [1, 5]
    # |D| = 84 divides 84: kernel has index 2 in (Z/84)*
    g = galois_group(K84, 84)
    assert g.order == unit_group(84).order // 2
    # non-dividing modulus: full
    assert galois_group(K84, 5) == unit_group(5)


def test_galois_group_index_two():
    for disc, m in ((-23, 23), (-7, 7), (-15, 15), (-20, 20)):
        g = galois_group(sc.QuadField(disc), m)
        assert g.order * 2 == unit_group(m).order


# -- g_k_mu_tau ---------------------------------------------------------------------


def test_g_k_mu_tau_trivial_acting_group():
    h = gt.AbelianGroup((7,))
    trivial = gt.AbelianLeaf(gt.AbelianGroup(()))
    mu = gt.trivial_action(h, trivial)
    s = g_k_mu_tau(Q, mu, h.element((1,)))
    assert s.sorted_members() == [1]


def test_g_k_mu_tau_inversion():
    h = gt.AbelianGroup((9,))
    c2 = gt.leaf(2)
    mu = gt.inversion_action(h, c2, gt.AbElement((1,)))
    s = g_k_mu_tau(Q, mu, h.element((1,)))
    assert s.sorted_members() == [1, 8]


def test_g_k_mu_tau_frobenius_orbit():
    h = gt.AbelianGroup((7,))
    c3 = gt.leaf(3)
    mu = gt.validate_action(h, c3, [(gt.AbElement((1,)), [[2]])])
    s = g_k_mu_tau(Q, mu, h.element((1,)))
    assert s.sorted_members() == [1, 2, 4]


def test_g_k_mu_tau_outside_cyclic_span():
    # swap action on C(3) x C(3): image of tau_1 is tau_2, not a power of tau_1
    h = gt.AbelianGroup((3, 3))
    c2 = gt.leaf(2)
    mu = gt.validate_action(h, c2, [(gt.AbElement((1,)), [[0, 1], [1, 0]])])
    s = g_k_mu_tau(Q, mu, h.element((1, 0)))
    assert s.sorted_members() == [1]


def test_g_k_mu_tau_identity_rejected():
    h = gt.AbelianGroup((7,))
    trivial = gt.AbelianLeaf(gt.AbelianGroup(()))
    mu = gt.trivial_action(h, trivial)
    with pytest.raises(InadmissibleError):
        g_k_mu_tau(Q, mu, h.identity)


def test_g_k_mu_tau_is_subgroup_on_corpus():
    # every realized exponent set passes the CycloSubgroup closure validation
    fields = (Q, K23, K84)
    h = gt.AbelianGroup((15,))
    c2 = gt.leaf(2)
    mu = gt.inversion_action(h, c2, gt.AbElement((1,)))
    for field in fields:
        for tau in h.elements():
            if tau == h.identity:
                continue
            s = g_k_mu_tau(field, mu, tau)
            assert 1 in s.members


def _direct_g_k_mu_tau(field, g_tree, mu, tau):
    """The realized exponents inside Gal(k(zeta_o)/k), computed directly."""
    h = mu.h
    o = h.element_order(tau)
    powers = {}
    cur = h.identity
    for a in range(o):
        powers.setdefault(cur, a)
        cur = h.add(cur, tau)
    images = [mu.apply(g, tau) for g in gt.elements(g_tree)]
    realized = {powers[img] for img in images if img in powers}
    full = [a for a in range(1, o) if gcd(a, o) == 1]
    if field.disc and o % -field.disc == 0:
        full = [a for a in full if sc._kernels.kronecker(field.disc, a) == 1]
    return CycloSubgroup(o, frozenset(a for a in full if a in realized))


def _semidirect_nodes(tree):
    if isinstance(tree, gt.Semidirect):
        yield tree
        yield from _semidirect_nodes(tree.g)
    elif isinstance(tree, gt.Direct):
        yield from _semidirect_nodes(tree.left)
        yield from _semidirect_nodes(tree.right)


ORACLE_DISCS = (0, -3, -4, -7, -8, -11, -15, -23, -84, -5460)
_ROOT = Path(__file__).resolve().parent.parent


def test_cached_g_k_mu_tau_matches_direct_computation():
    # every semidirect node and every tau != 1 of its Sylow parts, over the
    # rtbench corpus and the bundled examples; each query runs twice so the
    # second one is answered from the warm caches
    paths = sorted((_ROOT / "rtbench" / "specs").glob("*.json"))
    paths += sorted((_ROOT / "src" / "steinitzcalc" / "examples").glob("*.json"))
    nodes = {
        node
        for path in paths
        for node in _semidirect_nodes(gt.tree_from_spec(json.loads(path.read_text())))
    }
    assert len(paths) == 22 and len(nodes) == 7  # D3 D5 D7 D9 D15 F21 C11xD5
    checked = 0
    for disc in ORACLE_DISCS:
        field = sc.QuadField(disc)
        for node in nodes:
            for l in _prime_factors(node.h.order):
                for tau in node.h.sylow_part(l):
                    if tau == node.h.identity:
                        continue
                    want = _direct_g_k_mu_tau(field, node.g, node.mu, tau)
                    assert g_k_mu_tau(field, node.mu, tau) == want
                    assert g_k_mu_tau(field, node.mu, tau) == want
                    checked += 1
    assert checked == 42 * len(ORACLE_DISCS)


def test_g_k_mu_tau_raises_on_warm_cache():
    h = gt.AbelianGroup((7,))
    c3 = gt.leaf(3)
    mu = gt.validate_action(h, c3, [(gt.AbElement((1,)), [[2]])])
    tau = h.element((1,))
    assert g_k_mu_tau(Q, mu, tau).sorted_members() == [1, 2, 4]
    big = gt.leaf(gt.ENUMERATION_CAP + 1)
    over_cap = gt.Action(h, big, {})  # no table: the cap check comes first
    for _ in range(2):
        with pytest.raises(InadmissibleError, match="identity"):
            g_k_mu_tau(Q, mu, h.identity)
        with pytest.raises(InadmissibleError, match="enumeration cap"):
            g_k_mu_tau(Q, over_cap, tau)
    assert g_k_mu_tau(Q, mu, tau).sorted_members() == [1, 2, 4]


# -- w_group: the closed form verified against primes --------------------------------


def test_w_group_rationals_trivial():
    wg = w_group(Q, CycloSubgroup(5, frozenset([1])))
    assert wg.subgroup.is_trivial() and wg.subgroup.is_full()
    # a trivial class group needs no prime
    assert wg.certificate == cyclotomic.WCertificate(0, ())


def test_w_group_modulus_one_full():
    wg = w_group(K23, CycloSubgroup(1, frozenset([0])))
    assert wg.subgroup.is_full()
    assert wg.certificate.final_bound == SOUNDNESS_BOUND
    assert wg.certificate.windows[0][:2] == (2, SOUNDNESS_BOUND)


def test_w_group_minus23_m3_full():
    wg = w_group(K23, CycloSubgroup(3, frozenset([1])))
    assert wg.subgroup.is_full()
    # independent witness: p = 13 = 1 mod 3 splits, class (2,-1,3)
    assert sc.prime_class(13, K23).form.as_tuple() in {(2, 1, 3), (2, -1, 3)}


def test_w_group_proper_subgroups():
    w84 = w_group(K84, CycloSubgroup(3, frozenset([1])))
    assert [f.as_tuple() for f in w84.subgroup.member_forms()] == [
        (1, 0, 21),
        (3, 0, 7),
    ]
    assert w84.subgroup.index_in_parent == 2
    assert w84.certificate.windows == ((2, SOUNDNESS_BOUND, 1),)
    w15 = w_group(K15, CycloSubgroup(5, frozenset([1])))
    assert w15.subgroup.is_trivial()


def test_w_group_genus_character_kernel():
    # k(zeta_7) meets the Hilbert class field of Q(sqrt(-84)) in k(sqrt(-7));
    # the squares mod 7 fix it, so W is the kernel of the -7 genus character
    w = w_group(K84, CycloSubgroup(7, frozenset([1, 2, 4])))
    assert [f.as_tuple() for f in w.subgroup.member_forms()] == [
        (1, 0, 21),
        (2, 2, 11),
    ]


def test_w_group_monotone():
    small = w_group(K84, CycloSubgroup(3, frozenset([1])))
    big = w_group(K84, galois_group(K84, 3))
    assert small.subgroup.members <= big.subgroup.members


def test_w_group_full_galois_target_is_full():
    for disc in (-23, -47, -84, -120, -231, -499, -4999):
        field = sc.QuadField(disc)
        wg = w_group(field, galois_group(field, 3))
        assert wg.subgroup.is_full(), disc


def test_w_group_stabilization_bound_invariance(monkeypatch):
    # a larger soundness bound checks more primes and gives the same W
    s = CycloSubgroup(3, frozenset([1]))
    monkeypatch.setattr(cyclotomic, "SOUNDNESS_BOUND", 4 * SOUNDNESS_BOUND)
    wg = w_group(K84, s)
    assert wg.subgroup is w_norm_character(K84, s)
    assert wg.certificate.windows == ((2, 4 * SOUNDNESS_BOUND, 1),)


def test_w_group_bad_subgroup_rejected():
    # members outside the Galois group: kernel over Q(sqrt(-3)) mod 3 is {1}
    with pytest.raises(InadmissibleError):
        w_group(sc.QuadField(-3), unit_group(3))


def test_w_group_rejects_a_w_too_small(monkeypatch):
    # 7 is the least prime = 1 mod 3 with a degree-1 prime above it in
    # Q(sqrt(-84)) (it ramifies), and its class (3, 0, 7) is not trivial
    patch_w_norm_character(monkeypatch, -84, 3, lambda cg: cg.trivial_subgroup())
    with pytest.raises(InternalInvariantError, match="the class of the prime 7 lies outside W"):
        w_group(K84, CycloSubgroup(3, frozenset([1])))


def test_w_group_rejects_a_w_too_big(monkeypatch):
    # primes = 1 mod 3 span only the index-2 kernel of chi_-3, never Cl
    patch_w_norm_character(monkeypatch, -84, 3, lambda cg: cg.full_subgroup())
    monkeypatch.setattr(cyclotomic, "SPAN_CEILING", 1 << 16)
    with pytest.raises(InternalInvariantError, match="below the ceiling 65536 do not span W"):
        w_group(K84, CycloSubgroup(3, frozenset([1])))


# -- w_norm_character: the closed form verified against primes -----------------------

DIFF_MODULI = (1, 3, 4, 5, 7, 8, 9, 12, 15, 21, 24)
# Q, the acceptance and mixed fields, and fields with |D| dividing some modulus
DIFF_DISCS = tuple(dict.fromkeys(ACCEPT_DISCS + MIXED_DISCS + (0, -15, -20, -24)))


def _cyclo_subgroups(gal):
    """Every subgroup of the unit subgroup `gal`, as member sets."""
    m = gal.modulus

    def join(h, a):
        out = set(h)
        while True:
            more = {x * a % m for x in out} - out
            if not more:
                return frozenset(out)
            out |= more

    found = {frozenset([1 % m])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for a in gal.members - h:
            j = join(h, a)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=sorted)


@pytest.mark.parametrize("disc", DIFF_DISCS)
def test_w_norm_character_matches_enumeration(disc):
    # every subgroup S at each modulus: the primes below SOUNDNESS_BOUND lie
    # in the closed-form W and span it (a trivial class group needs none)
    field = sc.QuadField(disc)
    bound = SOUNDNESS_BOUND if sc.class_group(disc).order > 1 else 0
    for m in DIFF_MODULI:
        for members in _cyclo_subgroups(galois_group(field, m)):
            s = CycloSubgroup(m, members)
            wg = w_group(field, s)
            closed = w_norm_character(field, s)
            assert wg.subgroup is closed, (disc, m, sorted(members))
            assert wg.certificate.final_bound == bound, (disc, m, sorted(members))
            assert closed == sc.subgroup_generate(
                closed.group, [sc.IdealClass(closed.group, i) for i in closed.generators]
            )


def test_w_norm_character_rejects_bad_targets():
    with pytest.raises(InadmissibleError):
        w_norm_character(sc.QuadField(-3), unit_group(3))


# -- w_norm_character: the kernel against the per-form norm oracle -------------------


def _w_members_by_norm(field, m, s):
    """Oracle: { c : N(c) mod m in s * N_m }, a unit value mod m taken for
    every reduced form, N_m the unit values of the principal form."""

    def unit_values(f):
        values = (f.a * x * x + f.b * x * y + f.c * y * y for x in range(m) for y in range(m))
        return [v % m for v in values if gcd(v, m) == 1]

    cg = sc.class_group(field.disc)
    norms = set(unit_values(cg.forms[cg.principal_index]))
    target = {a * n % m for a in s.members for n in norms}
    return frozenset(i for i, f in enumerate(cg.forms) if unit_values(f)[0] in target)


def _w_cases(rng):
    """Seeded (disc, m) pairs: Q and m = 1, fields with |D| dividing m, small
    seeded fields and moduli, even D with 4 | m and 8 | m (the characters
    of -4 and +-8), one field with h >= 5000, and -2042040 = -8 * 3 * 5 * 7 *
    11 * 13 * 17: seven prime discriminants, the most any D within the cap
    on |D| has."""
    cases = [(0, 1), (0, 8), (0, 12), (-3, 1), (-5460, 1)]
    cases += [(-15, 15), (-20, 20), (-24, 24), (-84, 84)]
    discs = [d for d in range(-3, -20001, -1) if sc.is_fundamental(d)]
    cases += [(rng.choice(discs), rng.randrange(2, 31)) for _ in range(24)]
    even = [d for d in discs if d % 4 == 0]
    cases += [(rng.choice(even), 4 * rng.randrange(1, 7)) for _ in range(8)]
    cases += [(d, m) for d in (-4, -8, -24, -40, -56, -120, -5460) for m in (4, 8, 24)]
    cases += [(-9951191, m) for m in (3, 5, 13)]
    cases += [(-2042040, m) for m in (8, 24, 40)]
    return cases


def test_w_norm_character_matches_per_form_oracle():
    rng = random.Random(16)
    proper = 0
    for disc, m in _w_cases(rng):
        field = sc.QuadField(disc)
        cg = sc.class_group(disc)
        gal = galois_group(field, m)
        cyclic = {1 % m}
        a = x = rng.choice(sorted(gal.members))
        while x not in cyclic:
            cyclic.add(x)
            x = x * a % m
        for members in (gal.members, frozenset([1 % m]), frozenset(cyclic)):
            s = CycloSubgroup(m, members)
            w = w_norm_character(field, s)
            oracle = subgroup_from_members(cg, _w_members_by_norm(field, m, s))
            assert (w.hnf, w.generators) == (oracle.hnf, oracle.generators), (disc, m, sorted(members))
            proper += not w.is_full()
    assert proper > 0 and sc.class_group(-9951191).order >= 5000


@pytest.mark.parametrize("disc", [-23, -9951191])
def test_cold_w_at_the_largest_modulus_is_fast(disc):
    # no step of W is quadratic in m: at m = 997, once the class group and
    # the Galois group are built, one W takes well under a millisecond
    field, s = sc.QuadField(disc), CycloSubgroup(997, frozenset([1]))
    sc.class_group.cache_clear()
    galois_group(field, 997)
    sc.class_group(disc)
    start = time.perf_counter()
    w_norm_character(field, s)
    assert time.perf_counter() - start < 0.05


def _add_candidate(monkeypatch, d):
    """Offer d, which is no prime discriminant of D, as a genus candidate:
    chi_d read on one value of each form is no homomorphism on classes."""
    real = cyclotomic._genus_candidates
    sc.class_group.cache_clear()
    monkeypatch.setattr(cyclotomic, "_genus_candidates", lambda disc, m: real(disc, m) + [d])


def test_w_norm_character_checks_kernel_and_image_orders(monkeypatch):
    # over -23 the classes of (2, +-1, 3) take the value 3, a non-residue mod 5,
    # so chi_5 has an image of order 2, but Cl = C3 has no element of order 2
    _add_candidate(monkeypatch, 5)
    with pytest.raises(InternalInvariantError, match="kernel of order 3 and image of order 2"):
        w_norm_character(sc.QuadField(-23), CycloSubgroup(23, frozenset([1])))


def test_w_norm_character_checks_generator_values(monkeypatch):
    # the kernel the basis values give holds a generator whose own value
    # of chi_5 is -1
    _add_candidate(monkeypatch, 5)
    with pytest.raises(InternalInvariantError, match="generator of W is outside"):
        w_norm_character(sc.QuadField(-420), CycloSubgroup(3, frozenset([1])))


def test_w_norm_character_checks_generators_span(monkeypatch):
    # a generator scan that stops early leaves the kernel unspanned: over
    # -420, S = {1} mod 3 keeps chi_-3, whose kernel has index 2
    real = cyclotomic._grow
    monkeypatch.setattr(cyclotomic, "_grow", lambda cg, hnf, cands, stop: real(cg, hnf, cands, 1))
    sc.class_group.cache_clear()
    with pytest.raises(InternalInvariantError, match="do not span"):
        w_norm_character(sc.QuadField(-420), CycloSubgroup(3, frozenset([1])))


def test_full_subgroup_checks_generators_span(monkeypatch):
    # W = Cl grows its generators when they are read, under the same check
    real = classgroup._grow
    monkeypatch.setattr(classgroup, "_grow", lambda cg, hnf, cands, stop: real(cg, hnf, cands, 1))
    sc.class_group.cache_clear()
    w = w_norm_character(K23, CycloSubgroup(3, frozenset([1])))
    assert w is sc.class_group(-23).full_subgroup()
    with pytest.raises(InternalInvariantError, match="do not span"):
        w.generators


def _kept(disc, s):
    """The products d != 1 of the genus candidates with kronecker(d, a) = 1
    for every a in s."""
    chars = [1]
    for p in cyclotomic._genus_candidates(disc, s.modulus):
        chars += [d * p for d in chars]
    return [d for d in chars[1:] if all(_kernels.kronecker(d, a) == 1 for a in s.members)]


def test_w_is_the_full_subgroup_exactly_when_no_character_is_kept():
    # W = Cl with no kept character is the group's one full subgroup, with
    # no lattice work; a kept character, even a trivial one (D = l*), gives
    # a kernel of its own.  The full subgroup's generators are the grown
    # members of Cl, the choice the member-set oracle makes.
    sc.class_group.cache_clear()
    full_targets = kernel_targets = 0
    for disc in dict.fromkeys(DIFF_DISCS + GENUS_DISCS):
        field, cg = sc.QuadField(disc), sc.class_group(disc)
        full = cg.full_subgroup()
        assert full is cg.full_subgroup() and full.is_full()
        for m in (3, 4, 5, 7, 8, 9, 12, 24):
            for members in _cyclo_subgroups(galois_group(field, m)):
                s = CycloSubgroup(m, members)
                kept = _kept(disc, s)
                assert (w_norm_character(field, s) is full) == (not kept), (disc, m, sorted(members))
                full_targets += not kept
                kernel_targets += bool(kept)
        assert full.generators == subgroup_from_members(cg, range(cg.order)).generators
    assert full_targets and kernel_targets


def test_untraced_rt_grows_lattices_only_for_kept_characters(monkeypatch):
    # a cold rt calls _grow once per W target with a kept character and
    # never for W = Cl; reading the traces grows Cl's generators once per
    # group
    grows, targets = [], []
    for module in (classgroup, cyclotomic):
        real = module._grow
        monkeypatch.setattr(module, "_grow", lambda *a, _g=real, _m=module: grows.append(_m) or _g(*a))
    w_norm = cyclotomic.w_norm_character

    def record(field, s):
        before, cached = len(grows), s in sc.class_group(field.disc)._w_cache
        w = w_norm(field, s)
        targets.append((cached, bool(_kept(field.disc, s)), grows[before:]))
        return w

    monkeypatch.setattr(cyclotomic, "w_norm_character", record)
    sc.class_group.cache_clear()
    trees = [gt.tree_from_spec(json.loads(p.read_text())) for p in sorted(SPECS.glob("*.json"))]
    assert len(trees) == 17
    discs = (-84, -1155, -1000019, -8000003)  # the last two keep no character
    results = [sc.rt(sc.QuadField(d), tree) for d in discs for tree in trees]
    for cached, kept, grown in targets:
        assert grown == ([cyclotomic] if kept and not cached else []), (cached, kept, grown)
    assert {(False, True), (False, False)} <= {(cached, kept) for cached, kept, _ in targets}
    before = len(grows)
    for result in results:
        result.trace
    assert grows[before:] == [classgroup] * len(discs)


# -- the W cache on the class group -------------------------------------------------


def test_w_norm_character_cached_on_class_group():
    k = sc.QuadField(-1155)
    s = CycloSubgroup(3, frozenset([1]))
    first = w_norm_character(k, s)
    assert w_norm_character(k, CycloSubgroup(3, frozenset([1]))) is first
    assert first.group._w_cache[s] is first
    sc.class_group.cache_clear()
    again = w_norm_character(k, s)
    assert again is not first and again.group is not first.group
    assert again.members == first.members and again.generators == first.generators


@pytest.mark.parametrize("disc, m", [(-5460, 12), (-420, 3), (-84, 7)])
def test_cached_w_enumerates_its_members_on_first_read(disc, m):
    # the lattice determines the subgroup, so the cached W-group keeps no
    # member set; reading one gives { c : N(c) mod m in N_m }, with N_m the
    # unit values of the principal form
    sc.class_group.cache_clear()
    field, s = sc.QuadField(disc), CycloSubgroup(m, frozenset([1]))
    w = w_norm_character(field, s)
    assert w.hnf not in w.group._members
    want = _w_members_by_norm(field, m, s)
    assert 1 < len(want) < w.group.order
    assert w.members == want
    assert w.group._members[w.hnf] is w.members
    assert w.group._w_cache[s] is w


def test_w_norm_character_checks_targets_on_a_warm_cache(monkeypatch):
    k = sc.QuadField(-3)
    good, bad = CycloSubgroup(3, frozenset([1])), unit_group(3)
    w_norm_character(k, good)
    cg = sc.class_group(-3)
    # a cached entry under the rejected target must not bypass the check
    monkeypatch.setitem(cg._w_cache, bad, cg.full_subgroup())
    with pytest.raises(InadmissibleError):
        w_norm_character(k, bad)


# -- genus theory ------------------------------------------------------------------


SPECS = Path(__file__).resolve().parent.parent / "rtbench" / "specs"
GENUS_DISCS = ACCEPT_DISCS + MIXED_DISCS + (-420, -1155, -3315, -5460)


def test_rt_w_groups_obey_genus_theory(monkeypatch):
    # the principal form takes the value x^2, so N_m holds every unit square
    # mod m: each W(k, E) contains Cl^2, and [Cl : W] divides 2^(mu - 1) for
    # mu the number of primes dividing D.  The check reads W's members only
    # and shares no code with either way of computing W.
    requested = []
    w_norm = cyclotomic.w_norm_character

    def record(field, s):
        w = w_norm(field, s)
        requested.append(w)
        return w

    monkeypatch.setattr(cyclotomic, "w_norm_character", record)
    trees = [gt.tree_from_spec(json.loads(p.read_text())) for p in sorted(SPECS.glob("*.json"))]
    assert len(trees) == 17
    for disc in GENUS_DISCS:
        for tree in trees:
            sc.rt(sc.QuadField(disc), tree)
    assert any(w.index_in_parent > 1 for w in requested)
    for w in requested:
        cg = w.group
        assert all(cg.compose_idx(x, x) in w.members for x in range(cg.order)), cg.disc
        mu = len(_prime_factors(-cg.disc))
        assert 2 ** (mu - 1) % w.index_in_parent == 0, (cg.disc, w.index_in_parent)


def test_rt_builds_no_w_from_a_member_set(monkeypatch):
    # W is the kernel of the norm character, found from the coordinate
    # basis: rt enumerates the members of no subgroup it computes (a
    # ClassSubgroup is built from a lattice only)
    def refuse(*args, **kwargs):
        raise AssertionError("rt enumerated a member set")

    sc.class_group.cache_clear()
    monkeypatch.setattr(sc.ClassSubgroup, "members", property(refuse))
    trees = {p.stem: gt.tree_from_spec(json.loads(p.read_text())) for p in sorted(SPECS.glob("*.json"))}
    assert len(trees) == 17
    for tree in trees.values():
        assert sc.rt(sc.QuadField(-1000019), tree).subgroup.order > 0
    assert sc.rt(sc.QuadField(-9951191), trees["C9C3_x_D3"]).subgroup.order > 0
