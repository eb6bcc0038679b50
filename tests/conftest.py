"""Shared fixtures: fields and the group-tree regression corpus."""

import pytest

from steinitzcalc import class_group, cyclotomic
from steinitzcalc import grouptree as gt
from steinitzcalc.grouptree import _prime_factors

from table_oracle import _is_l_power

ACCEPT_DISCS = (-3, -4, -7, -8, -11, -15, -20, -23, -47, -71)
CROSS_DISCS = (-23, -47, -71)
MIXED_DISCS = (-84, -15)  # composite discriminants with proper W-groups


def sylows_by_order(elems, order_fn):
    """Oracle for Sylow lists: for each prime l dividing len(elems), the
    sorted members whose order, by `order_fn`, is a power of l."""
    return {
        l: [x for x in sorted(elems) if _is_l_power(order_fn(x), l)]
        for l in _prime_factors(len(elems))
    }


def patch_w_norm_character(monkeypatch, disc, m, wrong):
    """Make `cyclotomic.w_norm_character` return `wrong(class group)` for
    every target mod m over the field of discriminant disc."""
    true_w = cyclotomic.w_norm_character

    def patched(field, s):
        if field.disc == disc and s.modulus == m:
            return wrong(class_group(disc))
        return true_w(field, s)

    monkeypatch.setattr(cyclotomic, "w_norm_character", patched)


def c2_leaf():
    return gt.leaf(2)


def trivial_leaf():
    return gt.AbelianLeaf(gt.AbelianGroup(()))


def frobenius21():
    h = gt.AbelianGroup((7,))
    c3 = gt.leaf(3)
    return gt.semidirect(h, c3, [(gt.AbElement((1,)), [[2]])])


def c5_rtimes_c4():
    # order of 2 mod 5 is 4, so this is a faithful C(4)-action
    h = gt.AbelianGroup((5,))
    c4 = gt.leaf(4)
    return gt.semidirect(h, c4, [(gt.AbElement((1,)), [[2]])])


def c11_rtimes_d5():
    # reflections of D_5 invert C(11), rotations act trivially
    d5 = gt.dihedral_tree(5)
    h = gt.AbelianGroup((11,))
    rot = (gt.AbElement((1,)), gt.AbElement((0,)))
    refl = (gt.AbElement((0,)), gt.AbElement((1,)))
    return gt.semidirect(h, d5, [(rot, [[1]]), (refl, [[-1]])])


def corpus_trees():
    """Group trees of order <= 200 used across the regression suite."""
    return [
        ("C2", c2_leaf()),
        ("C3", gt.leaf(3)),
        ("C4", gt.leaf(4)),
        ("C8", gt.leaf(8)),
        ("C9xC3", gt.leaf(9, 3)),
        ("C15", gt.leaf(15)),
        ("C45", gt.leaf(45)),
        ("C2xC2", gt.leaf(2, 2)),
        ("D3", gt.dihedral_tree(3)),
        ("D5", gt.dihedral_tree(5)),
        ("D7", gt.dihedral_tree(7)),
        ("D9", gt.dihedral_tree(9)),
        ("D15", gt.dihedral_tree(15)),
        ("F21", frobenius21()),
        ("C5xC4semi", c5_rtimes_c4()),
        ("C11xD5semi", c11_rtimes_d5()),
        ("C3_x_C5", gt.Direct(gt.leaf(3), gt.leaf(5))),
        ("C7_x_C3", gt.Direct(gt.leaf(7), gt.leaf(3))),
        ("F21_x_C2", gt.Direct(frobenius21(), gt.leaf(2))),
        ("D3_x_C25", gt.Direct(gt.dihedral_tree(3), gt.leaf(5, 5))),
        ("C9C3_x_D3", gt.Direct(gt.leaf(9, 3), gt.dihedral_tree(3))),
    ]


def admissible_corpus_trees():
    """Corpus trees the realizable engine accepts (odd leaves or C(2))."""
    banned = {"C4", "C8", "C2xC2", "C5xC4semi"}
    return [(name, tree) for name, tree in corpus_trees() if name not in banned]


@pytest.fixture(scope="session")
def corpus():
    return corpus_trees()


@pytest.fixture(scope="session")
def admissible_corpus():
    return admissible_corpus_trees()
