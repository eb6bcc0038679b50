"""Group-tree tests: construction, actions, and, through the multiplication
tables of tests/table_oracle.py, the A-group verifier."""

from itertools import permutations

import pytest

from steinitzcalc import grouptree as gt
from steinitzcalc.errors import InadmissibleError

from conftest import c11_rtimes_d5, corpus_trees, frobenius21
from table_oracle import is_solvable_a_group, to_multiplication_table


# -- abelian groups -------------------------------------------------------------


def test_invariant_chain_enforced():
    gt.AbelianGroup((9, 3))
    gt.AbelianGroup((12, 6, 2))
    with pytest.raises(InadmissibleError):
        gt.AbelianGroup((3, 9))
    with pytest.raises(InadmissibleError):
        gt.AbelianGroup((4, 3))
    with pytest.raises(InadmissibleError):
        gt.AbelianGroup((1,))


def test_element_order():
    h = gt.AbelianGroup((9, 3))
    assert h.element_order(h.element((3, 0))) == 3
    assert h.element_order(h.element((1, 0))) == 9
    assert h.element_order(h.identity) == 1
    assert all(h.order % h.element_order(t) == 0 for t in h.elements())


def test_sylow_part():
    h = gt.AbelianGroup((15,))
    assert [t.coords for t in h.sylow_part(3)] == [(0,), (5,), (10,)]
    assert len(h.sylow_part(5)) == 5
    with pytest.raises(InadmissibleError):
        h.sylow_part(7)
    h2 = gt.AbelianGroup((9, 3))
    assert len(h2.sylow_part(3)) == 27


# -- tree order / multiply -------------------------------------------------------


def test_order_examples():
    assert gt.order(gt.dihedral_tree(3)) == 6
    assert gt.order(gt.leaf(9, 3)) == 27
    assert gt.order(gt.Direct(gt.leaf(3), gt.leaf(5))) == 15
    assert gt.order(gt.AbelianLeaf(gt.AbelianGroup(()))) == 1


def test_multiply_dihedral_reflection_squares_to_identity():
    d3 = gt.dihedral_tree(3)
    refl = (gt.AbElement((1,)), gt.AbElement((1,)))
    assert gt.multiply(d3, refl, refl) == gt.identity(d3)


def test_multiply_leaf():
    c3 = gt.leaf(3)
    assert gt.multiply(c3, gt.AbElement((1,)), gt.AbElement((2,))) == gt.AbElement((0,))


def test_multiply_frobenius():
    # (tau, g)(tau, 1) = (tau * mu(g)(tau), g) = (tau^3, g) for mu(g): t -> t^2
    f21 = frobenius21()
    a = (gt.AbElement((1,)), gt.AbElement((1,)))
    b = (gt.AbElement((1,)), gt.AbElement((0,)))
    assert gt.multiply(f21, a, b) == (gt.AbElement((3,)), gt.AbElement((1,)))


def test_multiply_shape_mismatch():
    d3 = gt.dihedral_tree(3)
    with pytest.raises(InadmissibleError):
        gt.multiply(d3, gt.AbElement((1,)), gt.AbElement((1,)))


@pytest.mark.parametrize("name,tree", corpus_trees())
def test_group_laws_on_corpus(name, tree):
    els = list(gt.elements(tree))
    assert len(els) == gt.order(tree)
    ident = gt.identity(tree)
    n = len(els)
    # identity/inverses always; full associativity for small orders
    for x in els:
        assert gt.multiply(tree, ident, x) == x
        assert any(
            gt.multiply(tree, x, y) == ident == gt.multiply(tree, y, x) for y in els
        )
    if n <= 60:
        for a in els:
            for b in els:
                ab = gt.multiply(tree, a, b)
                for c in els:
                    assert gt.multiply(tree, ab, c) == gt.multiply(
                        tree, a, gt.multiply(tree, b, c)
                    )


@pytest.mark.parametrize("name,tree", corpus_trees())
def test_indexing_roundtrip(name, tree):
    els = list(gt.elements(tree))
    assert len(set(els)) == len(els) == gt.order(tree)
    for el in els:
        assert gt.unflatten_element(tree, gt.flatten_element(tree, el)) == el


# -- structural invariants -------------------------------------------------------


def test_semidirect_invariants():
    with pytest.raises(InadmissibleError):
        gt.semidirect(
            gt.AbelianGroup((4,)), gt.leaf(3),
            [(gt.AbElement((1,)), [[1]])],
        )  # even kernel
    with pytest.raises(InadmissibleError):
        gt.semidirect(
            gt.AbelianGroup((3,)), gt.leaf(3),
            [(gt.AbElement((1,)), [[1]])],
        )  # not coprime


def test_direct_parity_rule():
    with pytest.raises(InadmissibleError):
        gt.Direct(gt.leaf(2), gt.leaf(2))
    with pytest.raises(InadmissibleError):
        gt.Direct(gt.dihedral_tree(3), gt.dihedral_tree(5))
    gt.Direct(gt.leaf(2, 2), gt.leaf(2, 2))  # both noncyclic: allowed
    gt.Direct(gt.leaf(2), gt.leaf(3))  # not both even: allowed


def test_two_sylow_cyclic_examples():
    assert gt.two_sylow_cyclic(gt.leaf(2))
    assert not gt.two_sylow_cyclic(gt.leaf(2, 2))
    assert gt.two_sylow_cyclic(gt.dihedral_tree(15))
    assert not gt.two_sylow_cyclic(gt.leaf(15))  # odd order reported separately


@pytest.mark.parametrize("name,tree", corpus_trees())
def test_two_sylow_cyclic_vs_bruteforce(name, tree):
    # cyclic 2-Sylow iff some element's order equals the full 2-part
    n = gt.order(tree)
    if n > 200:
        pytest.skip("corpus promise is order <= 200")
    table = to_multiplication_table(tree)
    two_part = 1
    while n % 2 == 0:
        n //= 2
        two_part *= 2
    ident = list(gt.elements(tree)).index(gt.identity(tree))
    orders = []
    for x in range(len(table)):
        cur, o = x, 1
        while cur != ident:
            cur = table[cur][x]
            o += 1
        orders.append(o)
    brute = two_part > 1 and any(o == two_part for o in orders)
    assert gt.two_sylow_cyclic(tree) == brute


# -- actions ---------------------------------------------------------------------


def test_validate_action_trivial_ok():
    h = gt.AbelianGroup((5, 5))
    mu = gt.trivial_action(h, gt.leaf(4))
    assert mu.apply(gt.AbElement((2,)), h.element((1, 3))) == h.element((1, 3))


def test_validate_action_inversion_ok():
    h = gt.AbelianGroup((3,))
    mu = gt.validate_action(h, gt.leaf(2), [(gt.AbElement((1,)), [[-1]])])
    assert mu.apply(gt.AbElement((1,)), h.element((1,))) == h.element((2,))


def test_validate_action_non_invertible():
    h = gt.AbelianGroup((3,))
    with pytest.raises(InadmissibleError, match="invertible"):
        gt.validate_action(h, gt.leaf(2), [(gt.AbElement((1,)), [[0]])])


def test_validate_action_order_violation():
    # tau -> tau has order 3 image; sending the C(2) generator to an
    # automorphism of order 3 breaks the homomorphism property
    h = gt.AbelianGroup((7,))
    with pytest.raises(InadmissibleError, match="homomorphism|inconsistent"):
        gt.validate_action(h, gt.leaf(2), [(gt.AbElement((1,)), [[2]])])


def test_validate_action_not_generating():
    h = gt.AbelianGroup((3,))
    with pytest.raises(InadmissibleError, match="reach"):
        gt.validate_action(h, gt.leaf(4), [(gt.AbElement((2,)), [[1]])])


def test_validate_action_ill_defined_matrix():
    # column order must divide the generator order: C(3) x C(3)... here a
    # map sending the order-3 generator of C(9)xC(3) slot 2 to an order-9
    # element is not well defined
    h = gt.AbelianGroup((9, 3))
    bad = [[1, 1], [0, 1]]  # image of tau_2 is (1,1), order 9 > 3
    with pytest.raises(InadmissibleError, match="well defined"):
        gt.validate_action(h, gt.leaf(2), [(gt.AbElement((1,)), bad)])


def test_validate_action_idempotent():
    h = gt.AbelianGroup((7,))
    mu = gt.validate_action(h, gt.leaf(3), [(gt.AbElement((1,)), [[2]])])
    again = gt.validate_action(h, gt.leaf(3), mu)
    assert again == mu


def test_equal_actions_hash_equal():
    # built twice from different generating sets; the hash is taken once in
    # __init__ from the finished table
    c11d5 = [gt.tree_from_spec(gt.tree_to_spec(c11_rtimes_d5())) for _ in range(2)]
    assert c11d5[0].mu is not c11d5[1].mu and c11d5[0].mu == c11d5[1].mu
    h = gt.AbelianGroup((7,))
    by_2 = gt.validate_action(h, gt.leaf(3), [(gt.AbElement((1,)), [[2]])])
    by_4 = gt.validate_action(h, gt.leaf(3), [(gt.AbElement((2,)), [[4]])])
    for a, b in ((c11d5[0].mu, c11d5[1].mu), (by_2, by_4), (by_2, frobenius21().mu)):
        assert a == b and hash(a) == hash(b)
    assert len({by_2, by_4, frobenius21().mu, c11d5[0].mu, c11d5[1].mu}) == 2


def test_action_composition_is_matrix_product():
    f21 = frobenius21()
    mu = f21.mu
    g1 = gt.AbElement((1,))
    g2 = gt.AbElement((2,))
    tau = gt.AbElement((1,))
    # mu(g1 + g2) = mu(g1) o mu(g2): tau -> tau^4 -> ... -> tau^(2^3)=tau
    assert mu.apply(gt.multiply(f21.g, g1, g2), tau) == mu.apply(
        g1, mu.apply(g2, tau)
    )


def _semidirect_nodes(tree):
    if isinstance(tree, gt.Semidirect):
        yield tree
        yield from _semidirect_nodes(tree.g)
    elif isinstance(tree, gt.Direct):
        yield from _semidirect_nodes(tree.left)
        yield from _semidirect_nodes(tree.right)


def test_corpus_actions_are_homomorphisms():
    # validate_action trusts its closure to make the table a homomorphism;
    # this oracle checks mu(a*b) = mu(a) o mu(b) on every pair of the
    # acting group and every basis element of H, at every semidirect node
    nodes = [node for _, tree in corpus_trees() for node in _semidirect_nodes(tree)]
    assert len(nodes) >= 8
    for node in nodes:
        h, mu = node.h, node.mu
        basis = [h.element(tuple(int(i == j) for i in range(h.rank))) for j in range(h.rank)]
        els = list(gt.elements(node.g))
        for a in els:
            for b in els:
                ab = gt.multiply(node.g, a, b)
                for x in basis:
                    assert mu.apply(ab, x) == mu.apply(a, mu.apply(b, x)), (node, a, b)


# -- multiplication tables and the verifier (tests/table_oracle.py) -----------------


def _s3_table():
    perms = sorted(permutations((0, 1, 2)))
    idx = {p: i for i, p in enumerate(perms)}
    return [
        [idx[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]


def test_d3_table_isomorphic_to_s3():
    d3_table = to_multiplication_table(gt.dihedral_tree(3))
    s3 = _s3_table()
    # brute-force isomorphism search over all bijections fixing nothing
    names = range(6)
    found = False
    for phi in permutations(names):
        if all(
            phi[d3_table[a][b]] == s3[phi[a]][phi[b]] for a in names for b in names
        ):
            found = True
            break
    assert found


def test_c2_table():
    assert to_multiplication_table(gt.leaf(2)) == [[0, 1], [1, 0]]


def test_latin_square_property():
    table = to_multiplication_table(gt.leaf(3, 3))
    assert len(table) == 9
    for row in table:
        assert sorted(row) == list(range(9))


def test_table_cap():
    with pytest.raises(InadmissibleError):
        to_multiplication_table(gt.leaf(5), cap=3)


def test_is_solvable_a_group_examples():
    assert is_solvable_a_group(to_multiplication_table(gt.dihedral_tree(3)))
    assert is_solvable_a_group(to_multiplication_table(gt.leaf(8)))


def test_is_solvable_rejects_non_group():
    with pytest.raises(InadmissibleError):
        is_solvable_a_group([[0, 1], [1, 1]])  # no inverse for 1
    loop5 = [  # a Latin square with identity but no associativity
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InadmissibleError, match="associativity"):
        is_solvable_a_group(loop5)


def test_non_a_group_detected():
    # S_4 has a nonabelian 2-Sylow (dihedral of order 8)
    perms = sorted(permutations(range(4)))
    idx = {p: i for i, p in enumerate(perms)}
    s4 = [[idx[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms]
    assert is_solvable_a_group(s4) is False


@pytest.mark.parametrize("name,tree", corpus_trees())
def test_proposition_solvable_a_group_on_corpus(name, tree):
    table = to_multiplication_table(tree)
    assert is_solvable_a_group(table) is True


# -- JSON specs -------------------------------------------------------------------


@pytest.mark.parametrize("name,tree", corpus_trees())
def test_spec_roundtrip(name, tree):
    spec = gt.tree_to_spec(tree)
    again = gt.tree_from_spec(spec)
    assert gt.order(again) == gt.order(tree)
    # element-level agreement of the group laws
    els = list(gt.elements(tree))[: min(20, gt.order(tree))]
    for a in els:
        for b in els:
            assert gt.multiply(again, a, b) == gt.multiply(tree, a, b)


def test_spec_errors():
    with pytest.raises(InadmissibleError):
        gt.tree_from_spec({"kind": "nope"})
    with pytest.raises(InadmissibleError):
        gt.tree_from_spec({"kind": "semidirect", "h": {"kind": "direct"}})
    with pytest.raises(InadmissibleError):
        gt.tree_from_spec(
            {
                "kind": "semidirect",
                "h": {"kind": "abelian", "invariant_factors": [3]},
                "g": {"kind": "abelian", "invariant_factors": [2]},
                "action": {"on_generators": [{"g_element": [1, 1], "matrix": [[-1]]}]},
            }
        )


def _direct_chain_spec(depth):
    """C(3) x (C(3) x (...)) with `depth` nodes from the root to the deepest leaf."""
    spec = {"kind": "abelian", "invariant_factors": [3]}
    for _ in range(depth - 1):
        spec = {"kind": "direct", "left": spec, "right": {"kind": "abelian", "invariant_factors": [3]}}
    return spec


def test_spec_depth_cap_holds_for_every_library_caller():
    assert gt.order(gt.tree_from_spec(_direct_chain_spec(gt.MAX_TREE_DEPTH))) == 3**gt.MAX_TREE_DEPTH
    with pytest.raises(InadmissibleError, match="MAX_TREE_DEPTH"):
        gt.tree_from_spec(_direct_chain_spec(gt.MAX_TREE_DEPTH + 1))
    with pytest.raises(TypeError):  # no argument lets a caller start below the root
        gt.tree_from_spec(_direct_chain_spec(gt.MAX_TREE_DEPTH + 1), -10**6)
