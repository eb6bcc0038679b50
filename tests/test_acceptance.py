"""Acceptance suite: one test per criterion, each timed against its budget.

Each criterion prints a PASS/FAIL line (visible with pytest -s or in captured
output).  Budgets are wall-clock seconds from the criterion statements.
"""

import time
from math import gcd, isqrt

import pytest

import steinitzcalc as sc
from steinitzcalc import grouptree as gt
from steinitzcalc import realizable as rz
from steinitzcalc.cyclotomic import SOUNDNESS_BOUND

from conftest import ACCEPT_DISCS, CROSS_DISCS, corpus_trees, trivial_leaf
from table_oracle import is_solvable_a_group, to_multiplication_table

EXPECTED_ORDERS = (1, 1, 1, 1, 1, 2, 2, 3, 5, 7)

# registry of W computations recorded from criteria 5 and 6, used by criterion 7
_W_REGISTRY = set()


def _criterion(num, name, budget_s, fn):
    t0 = time.perf_counter()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        print(
            f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name} "
            f"({elapsed:.2f}s / budget {budget_s}s)"
        )
    assert elapsed < budget_s, f"criterion {num} exceeded budget: {elapsed:.2f}s"


def _register_ws(trace):
    def walk(node):
        for w in node.get("w_factors", ()):
            _W_REGISTRY.add(
                (trace["disc"], w["modulus"], tuple(w["frobenius_subgroup"]))
            )
        for key in ("base", "left", "right"):
            if key in node:
                walk(node[key]["trace"])

    walk(trace["node"])


# -- criterion 1: class-group oracle ---------------------------------------------------


def _divisor_count(disc):
    count = 0
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0 and gcd(gcd(a, b), m // a) == 1:
                count += 1 if (b == 0 or b == a or a * a == m) else 2
            a += 1
    return count


def test_criterion_01_class_group_oracle():
    def run():
        for disc, expected in zip(ACCEPT_DISCS, EXPECTED_ORDERS):
            cg = sc.class_group(disc)
            assert cg.order == expected == _divisor_count(disc)
            n, e = cg.order, cg.principal_index
            for i in range(n):
                assert cg.compose_idx(e, i) == i
                assert cg.compose_idx(i, cg.inverse_idx(i)) == e
            for a in range(n):
                for b in range(n):
                    kernel = cg.index_of(sc.compose(cg.forms[a], cg.forms[b]))
                    assert cg.compose_idx(a, b) == kernel
                    for c in range(n):
                        assert cg.compose_idx(cg.compose_idx(a, b), c) == cg.compose_idx(
                            a, cg.compose_idx(b, c)
                        )

    _criterion(1, "class-group enumeration oracle and group axioms", 1, run)


# -- criterion 2: R_t(k, C(2)) = Cl(k) ---------------------------------------------------


def test_criterion_02_c2_exactness():
    def run():
        for disc in ACCEPT_DISCS:
            field = sc.QuadField(disc)
            sub = sc.rt(field, gt.leaf(2)).subgroup
            assert sub.members == frozenset(range(sc.class_group(disc).order))

    _criterion(2, "R_t(k, C(2)) equals Cl(k) on all ten fields", 5, run)


# -- criterion 3: gcd lemma, exhaustive to 2000 ------------------------------------------


def test_criterion_03_gcd_lemma_exhaustive():
    def run():
        for m in range(2, 2001):
            for e in range(2, m + 1):
                if m % e == 0:
                    _, divides = sc.exponent_gcd(e, m)
                    assert divides, (e, m)

    _criterion(3, "divisor gcd lemma exhaustive for m <= 2000", 10, run)


# -- criterion 4: beta consistency --------------------------------------------------------


def test_criterion_04_beta_consistency():
    def run():
        primes = [p for p in range(3, 51, 2) if all(p % d for d in range(3, p, 2))]
        for l in primes:
            o = l
            while o <= 1000:
                for n in range(o, 10001, 2 * o):
                    half = ((l - 1) // 2) * (n // l)
                    three = gcd(gcd(2 * half, (o - 1) * (n // o)), 3 * half)
                    two = gcd((o - 1) * (n // o), half)
                    assert three == two == sc.beta_l(l, o, n), (l, o, n)
                o *= l

    _criterion(4, "beta three-term and two-term gcd forms agree", 10, run)


# -- criterion 5: formula cross-paths ------------------------------------------------------


def _run_cross_paths():
    for disc in CROSS_DISCS:
        field = sc.QuadField(disc)
        a = sc.rt(field, gt.leaf(15))
        b = sc.rt(field, gt.Direct(gt.leaf(3), gt.leaf(5)))
        assert a.subgroup == b.subgroup
        _register_ws(a.trace)
        _register_ws(b.trace)
        for factors in ((3,), (5,), (9,), (3, 3), (15,)):
            h = gt.AbelianGroup(factors)
            t = trivial_leaf()
            leaf_res = sc.rt(field, gt.AbelianLeaf(h))
            semi_res = sc.rt(field, gt.semidirect(h, t, gt.trivial_action(h, t)))
            assert leaf_res.subgroup == semi_res.subgroup, (disc, factors)
            _register_ws(leaf_res.trace)
            _register_ws(semi_res.trace)


def test_criterion_05_formula_cross_paths():
    _criterion(5, "cyclic/direct and leaf/semidirect cross-paths", 60, _run_cross_paths)


# -- criterion 6: dihedral oracle -----------------------------------------------------------


def _run_dihedral_oracle():
    for disc in CROSS_DISCS:
        field = sc.QuadField(disc)
        for n in (3, 5, 7, 9, 15):
            generic = sc.rt(field, gt.dihedral_tree(n))
            direct = rz.rt_dihedral(field, n)
            assert generic.subgroup == direct.subgroup, (disc, n)
            _register_ws(generic.trace)
            _register_ws(direct.trace)


def test_criterion_06_dihedral_oracle():
    _criterion(
        6, "independent dihedral path equals the generic engine", 60, _run_dihedral_oracle
    )


# -- criterion 7: W verified against primes ---------------------------------------------------


def test_criterion_07_w_stabilization():
    if not _W_REGISTRY:  # standalone invocation: recreate the 5/6 workload
        _run_cross_paths()
        _run_dihedral_oracle()

    def run():
        for disc, modulus, members in sorted(_W_REGISTRY):
            field = sc.QuadField(disc)
            s = sc.CycloSubgroup(modulus, frozenset(members))
            wg = sc.w_group(field, s)
            closed = sc.w_norm_character(field, s)
            assert closed == wg.subgroup, (disc, modulus, members)
            bound = SOUNDNESS_BOUND if closed.group.order > 1 else 0
            assert wg.certificate.final_bound == bound, (disc, modulus, members)

    _criterion(
        7,
        f"W verified against primes ({len(_W_REGISTRY)} W-groups)",
        120,
        run,
    )


# -- criterion 8: solvable A-group verifier ----------------------------------------------------


def test_criterion_08_proposition_solvable_a_groups():
    def run():
        names = {name for name, _ in corpus_trees()}
        assert "F21" in names and "D15" in names
        for name, tree in corpus_trees():
            assert gt.order(tree) <= 200, name
            table = to_multiplication_table(tree)
            assert is_solvable_a_group(table) is True, name

    _criterion(8, "corpus trees are solvable with abelian Sylow subgroups", 30, run)


# -- criterion 9: every computed R_t is a subgroup ----------------------------------------------


def test_criterion_09_subgroup_invariance():
    def run():
        banned = {"C4", "C8", "C2xC2", "C5xC4semi"}
        for disc in (-23, -84, -15):
            field = sc.QuadField(disc)
            for name, tree in corpus_trees():
                if name in banned:
                    continue
                sub = sc.rt(field, tree).subgroup
                assert sub.group.principal_index in sub.members
                for i in sub.members:
                    assert sub.group.inverse_idx(i) in sub.members
                    for j in sub.members:
                        assert sub.group.compose_idx(i, j) in sub.members, (disc, name)

    _criterion(9, "computed R_t sets are closed subgroups", 60, run)


# -- criterion 10: nontriviality witnesses -------------------------------------------------------


def test_criterion_10_nontriviality_witnesses():
    def run():
        # proper nontrivial subgroup (golden, first certified run)
        sub84 = sc.rt(sc.QuadField(-84), gt.leaf(3)).subgroup
        assert [f.as_tuple() for f in sub84.member_forms()] == [(1, 0, 21), (3, 0, 7)]
        assert sub84.invariant_factors == (2,)
        assert 1 < sub84.order < sub84.group.order
        # exponent collapse contrast: the W exponent drives the answer
        full23 = sc.class_group(-23).full_subgroup()
        assert sc.rt(sc.QuadField(-23), gt.leaf(3)).subgroup == full23
        assert full23.power(3).is_trivial()
        # and the opposite collapse: W trivial although the power map is onto
        sub15 = sc.rt(sc.QuadField(-15), gt.leaf(5)).subgroup
        assert sub15.is_trivial()
        assert sc.class_group(-15).full_subgroup().power(5).is_full()

    _criterion(10, "proper/nontrivial witnesses match golden values", 30, run)
