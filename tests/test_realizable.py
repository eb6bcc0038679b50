"""Engine tests: recursion, cross-path consistency, traces, golden values."""

import copy
import gc
import io
import json
import weakref
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import steinitzcalc as sc
from steinitzcalc import grouptree as gt
from steinitzcalc import cli
from steinitzcalc import realizable as rz
from steinitzcalc.cyclotomic import SOUNDNESS_BOUND
from steinitzcalc.errors import InadmissibleError, TraceMismatchError

from conftest import (
    CROSS_DISCS,
    admissible_corpus_trees,
    c11_rtimes_d5,
    frobenius21,
    trivial_leaf,
)
from membership_oracle import membership_check

Q = sc.QuadField(0)
K23 = sc.QuadField(-23)
K84 = sc.QuadField(-84)
K15 = sc.QuadField(-15)
DATA = Path(__file__).parent / "data"


# -- gate ---------------------------------------------------------------------------


def test_admissibility_gate():
    with pytest.raises(InadmissibleError):
        sc.rt(K23, gt.leaf(4))
    with pytest.raises(InadmissibleError):
        sc.rt(K23, gt.leaf(2, 2))
    with pytest.raises(InadmissibleError):
        sc.rt(K23, gt.Direct(gt.leaf(2), gt.leaf(6, 2)))
    sc.rt(K23, gt.leaf(2))  # C(2) itself is fine


# -- worked examples ----------------------------------------------------------------


def test_rt_c2_is_full_class_group():
    for disc in (0, -23, -47, -84, -15):
        field = sc.QuadField(disc)
        assert sc.rt(field, gt.leaf(2)).subgroup.is_full()


def test_rt_over_rationals_trivial():
    for tree in (gt.leaf(3), gt.dihedral_tree(5), frobenius21()):
        sub = sc.rt(Q, tree).subgroup
        assert sub.order == 1


def test_rt_c3_minus23_full():
    assert sc.rt(K23, gt.leaf(3)).subgroup.is_full()


def test_rt_d3_minus23_full():
    assert sc.rt(K23, gt.dihedral_tree(3)).subgroup.is_full()


def test_rt_dihedral_examples():
    assert rz.rt_dihedral(K23, 3).subgroup.is_full()
    assert rz.rt_dihedral(Q, 3).subgroup.order == 1
    assert rz.rt_dihedral(sc.QuadField(-47), 5).subgroup.is_full()
    with pytest.raises(InadmissibleError):
        rz.rt_dihedral(K23, 4)


# -- consistency properties -----------------------------------------------------------


def _semidirect_trivial(h_factors):
    h = gt.AbelianGroup(h_factors)
    t = trivial_leaf()
    return gt.semidirect(h, t, gt.trivial_action(h, t))


@pytest.mark.parametrize("disc", CROSS_DISCS)
@pytest.mark.parametrize("factors", [(3,), (5,), (9,), (3, 3), (15,)])
def test_leaf_equals_trivial_semidirect(disc, factors):
    field = sc.QuadField(disc)
    a = sc.rt(field, gt.AbelianLeaf(gt.AbelianGroup(factors))).subgroup
    b = sc.rt(field, _semidirect_trivial(factors)).subgroup
    assert a == b


@pytest.mark.parametrize("disc", CROSS_DISCS + (-84, -15))
def test_cyclic_equals_direct_of_coprime_parts(disc):
    field = sc.QuadField(disc)
    a = sc.rt(field, gt.leaf(15)).subgroup
    b = sc.rt(field, gt.Direct(gt.leaf(3), gt.leaf(5))).subgroup
    assert a == b


@pytest.mark.parametrize("disc", CROSS_DISCS + (-84,))
def test_direct_product_symmetry(disc):
    field = sc.QuadField(disc)
    a = sc.rt(field, gt.Direct(gt.leaf(7), gt.leaf(3))).subgroup
    b = sc.rt(field, gt.Direct(gt.leaf(3), gt.leaf(7))).subgroup
    assert a == b


@pytest.mark.parametrize("disc", CROSS_DISCS + (-84, -15))
@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_dihedral_two_paths_agree(disc, n):
    field = sc.QuadField(disc)
    generic = sc.rt(field, gt.dihedral_tree(n)).subgroup
    direct = rz.rt_dihedral(field, n).subgroup
    assert generic == direct


def test_rt_bound_override_stable():
    # the closed-form engine against the D_9 path, whose W-groups (moduli 3
    # and 9) are each verified against the primes below SOUNDNESS_BOUND
    base = sc.rt(K84, gt.dihedral_tree(9))
    verified = rz.rt_dihedral(K84, 9)
    assert base.subgroup == verified.subgroup
    for fold in verified.trace["node"]["w_factors"]:
        s = sc.CycloSubgroup(fold["modulus"], frozenset(fold["frobenius_subgroup"]))
        wg = sc.w_group(K84, s)
        assert wg.subgroup == sc.w_norm_character(K84, s)
        assert wg.certificate.final_bound == SOUNDNESS_BOUND


def test_rt_subgroup_closure_on_corpus():
    for name, tree in admissible_corpus_trees():
        sub = sc.rt(K84, tree).subgroup
        for i in sub.members:
            assert sub.group.inverse_idx(i) in sub.members
            for j in sub.members:
                assert sub.group.compose_idx(i, j) in sub.members


def _abelian_rt_oracle(field, factors):
    """Independent evaluation of the abelian-leaf formula.

    Works from the invariant-factor structure alone: the l-Sylow of H has
    exponent n_1(l), and each order o = l, l^2, ..., n_1(l) occurs among the
    nontrivial elements, contributing W(k, o, {1}) to the power
    ((l-1)/2)(n/o).  Duplicate factors collapse, so multiplicities are
    irrelevant; no element enumeration at all."""
    from steinitzcalc.steinitz import l_part

    cg = sc.class_group(field.disc)
    n = 1
    for f in factors:
        n *= f
    out = cg.trivial_subgroup()
    for l in sorted({p for f in factors for p in _prime_factors_local(f)}):
        o = l
        while o <= l_part(factors[0], l):
            w = sc.w_group(field, sc.CycloSubgroup(o, frozenset([1])))
            out = out.product(w.subgroup.power(((l - 1) // 2) * (n // o)))
            o *= l
    return out


def _prime_factors_local(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@pytest.mark.parametrize("disc", (-23, -84, -56, -15))
@pytest.mark.parametrize("factors", [(9, 3), (15,), (45,), (3, 3), (21,)])
def test_abelian_rt_matches_structure_oracle(disc, factors):
    field = sc.QuadField(disc)
    engine = sc.rt(field, gt.AbelianLeaf(gt.AbelianGroup(factors))).subgroup
    oracle = _abelian_rt_oracle(field, factors)
    assert engine == oracle


def test_nested_semidirect_over_mixed_field():
    # C(11) x| D_5 over disc -84: the W factors are all full, the base
    # dihedral result is full, and the even exponent 50 kills the 2-torsion
    # W term while Cl^11 keeps everything: the result is the full group
    from conftest import c11_rtimes_d5

    sub = sc.rt(K84, c11_rtimes_d5()).subgroup
    assert sub.is_full()


def test_memoized_direct_square():
    tree = gt.Direct(gt.leaf(3), gt.leaf(3))
    res = sc.rt(K84, tree)
    assert res.subgroup == sc.rt(K84, gt.leaf(3)).subgroup.power(3).product(
        sc.rt(K84, gt.leaf(3)).subgroup.power(3)
    )


# -- traces --------------------------------------------------------------------------


def test_trace_replay_identity():
    for field in (Q, K23, K84):
        for tree in (gt.leaf(2), gt.leaf(15), gt.dihedral_tree(9), frobenius21()):
            res = sc.rt(field, tree)
            assert sc.rt_trace_replay(res) == res.subgroup


def test_trace_replay_dihedral_path():
    res = rz.rt_dihedral(K84, 15)
    assert sc.rt_trace_replay(res) == res.subgroup


def test_trace_tamper_detected():
    res = sc.rt(K84, gt.leaf(3))
    tampered = copy.deepcopy(res.trace)
    assert tampered["node"]["w_factors"][0]["w_generators"], "needs a generator"
    tampered["node"]["w_factors"][0]["w_generators"] = []
    with pytest.raises(TraceMismatchError):
        sc.rt_trace_replay(tampered)


def test_trace_corrupt_detected():
    res = sc.rt(K23, gt.leaf(3))
    broken = copy.deepcopy(res.trace)
    del broken["node"]["members"]
    with pytest.raises(TraceMismatchError):
        sc.rt_trace_replay(broken)
    with pytest.raises(TraceMismatchError):
        sc.rt_trace_replay({"disc": -23})
    # recorded values the class group rejects are corruption too
    d3 = sc.rt(K23, gt.dihedral_tree(3)).trace
    with pytest.raises(TraceMismatchError, match="corrupt trace"):
        sc.rt_trace_replay({**d3, "disc": -12})  # not fundamental
    for corrupt in (
        lambda node: node["w_factors"][0].update(w_generators=[[1, 1, 7]]),  # disc -27
        lambda node: node["w_factors"][0].update(w_generators=[[0, 1, 6]]),  # a = 0
        lambda node: node["w_factors"][0].update(exponent=-2),
        lambda node: node["base"].update(power=-3),
        lambda node: node.update(members=[[1, 1, 6], ["x", 1, 6]]),  # unsortable
    ):
        broken = copy.deepcopy(d3)
        corrupt(broken["node"])
        with pytest.raises(TraceMismatchError, match="corrupt trace"):
            sc.rt_trace_replay(broken)


def test_trace_records_stabilization():
    # version 2: W-groups come from the norm character, so no prime bounds
    res = sc.rt(K84, gt.leaf(3))
    assert res.trace["version"] == 2
    w = res.trace["node"]["w_factors"][0]
    assert "initial_bound" not in w and "stabilized_bound" not in w
    assert w["frobenius_subgroup"] == [1]
    assert w["modulus"] == 3
    assert w["w_generators"] == [[3, 0, 7]]


def test_trace_record_is_built_on_first_access(monkeypatch):
    # an untraced rt keeps the tree and the raw W folds; the spec and the W
    # entries are formatted once, when the trace is read
    tree = gt.Direct(frobenius21(), gt.leaf(3))
    spec_calls, entry_calls = [], []
    tree_to_spec, w_entry = gt.tree_to_spec, rz._w_entry
    monkeypatch.setattr(gt, "tree_to_spec", lambda t: spec_calls.append(t) or tree_to_spec(t))
    monkeypatch.setattr(rz, "_w_entry", lambda *a: entry_calls.append(a) or w_entry(*a))
    res = sc.rt(K84, tree)
    assert spec_calls == [] and entry_calls == []
    trace = res.trace
    assert [t for t in spec_calls if t is tree] == [tree]
    assert trace["group"] == tree_to_spec(tree)
    assert entry_calls
    res.trace
    assert [t for t in spec_calls if t is tree] == [tree]


@pytest.mark.parametrize("spec", ["c3", "d3"])
def test_trace_replay_accepts_version_1(spec):
    # traces written by the enumerating engine (version 1, with prime bounds)
    path = DATA / f"trace_v1_{spec}_-84.json"
    trace = json.loads(path.read_text(encoding="utf-8"))
    assert trace["version"] == 1
    assert "initial_bound" in trace["node"]["w_factors"][0]
    replayed = sc.rt_trace_replay(trace)
    tree = sc.tree_from_spec(trace["group"])
    assert replayed == sc.rt(K84, tree).subgroup


# -- golden regression values (proper/nontrivial collapses) ---------------------------


def test_golden_rt_c3_minus84_proper_nontrivial():
    sub = sc.rt(K84, gt.leaf(3)).subgroup
    assert [f.as_tuple() for f in sub.member_forms()] == [(1, 0, 21), (3, 0, 7)]
    assert sub.invariant_factors == (2,)
    assert sub.index_in_parent == 2
    assert 1 < sub.order < sub.group.order  # proper AND nontrivial


def test_golden_exponent_collapse_contrast_minus23():
    cg = sc.class_group(-23)
    rt_c3 = sc.rt(K23, gt.leaf(3)).subgroup
    cube_image = cg.full_subgroup().power(3)
    assert rt_c3.is_full() and rt_c3.order == 3
    assert cube_image.is_trivial()
    assert rt_c3 != cube_image  # the W exponent, not the power map, decides


def test_golden_w_collapse_minus15():
    cg = sc.class_group(-15)
    rt_c5 = sc.rt(K15, gt.leaf(5)).subgroup
    fifth_image = cg.full_subgroup().power(5)
    assert rt_c5.is_trivial()
    assert fifth_image.is_full()


def test_golden_frobenius21_minus84():
    # by hand: R_t = W(k,3)^7 * W(k,7,{1,2,4})^9 = {1,(3,0,7)} * {1,(2,2,11)},
    # which is all of Cl(-84) = C2 x C2
    sub = sc.rt(K84, frobenius21()).subgroup
    assert sub.is_full()


def test_golden_rt_c7_minus56_proper_in_cyclic_c4():
    # Cl(-56) is cyclic C4; k(zeta_7) meets the Hilbert class field in
    # k(sqrt(-7)), so W(k,7,{1}) is the index-2 subgroup of squares and
    # rt(C(7)) = W^3 keeps exactly that subgroup
    field = sc.QuadField(-56)
    cg = sc.class_group(-56)
    assert cg.invariant_factors == (4,)
    sub = sc.rt(field, gt.leaf(7)).subgroup
    assert [f.as_tuple() for f in sub.member_forms()] == [(1, 0, 14), (2, 0, 7)]
    assert sub.invariant_factors == (2,)
    assert 1 < sub.order < cg.order


# -- the membership contract (tests/membership_oracle.py) -----------------------------


def test_membership_empty():
    assert membership_check(K23, gt.leaf(3), []) == []


def test_membership_examples():
    res = sc.rt(K23, gt.leaf(3))
    reports = membership_check(
        K23, gt.leaf(3), [(59, 3)], rt_result=res
    )
    assert reports[0]["ok"] is True
    assert reports[0]["checks"][0]["exponent"] == 2

    d3 = gt.dihedral_tree(3)
    reports = membership_check(K23, d3, [(2, 2)])
    assert reports[0]["ok"] is True
    assert reports[0]["checks"][0]["exponent"] == 3


def _w_subgroups_by_modulus(res):
    """Subgroups generated by the recorded W generators, keyed by modulus."""
    cg = res.subgroup.group
    out = {}

    def walk(node):
        for w in node.get("w_factors", ()):
            gens = [cg.class_of(sc.QuadForm(*f)) for f in w["w_generators"]]
            out.setdefault(w["modulus"], []).append(sc.subgroup_generate(cg, gens))
        for key in ("base", "left", "right"):
            if key in node:
                walk(node[key]["trace"])

    walk(res.trace["node"])
    return out


def test_membership_always_passes_on_corpus():
    # The membership contract is a theorem for realizable scenarios: the
    # class of a prime tamely ramified with index e must already lie in the
    # W-groups of the order-l projections (that is the precondition), so
    # scenarios are filtered by the recorded W subgroups before asserting.
    field = K84
    for name, tree in admissible_corpus_trees():
        order = gt.order(tree)
        res = sc.rt(field, tree)
        by_mod = _w_subgroups_by_modulus(res)
        scenarios = []
        for p in (2, 3, 5, 7, 11, 19):
            if sc.splitting(p, field) is sc.Splitting.INERT:
                continue
            cls = sc.prime_class(p, field)
            for e in (2, 3, 5):
                if order % e:
                    continue
                admissible = all(
                    all(cls.index in sub.members for sub in by_mod.get(l, ()))
                    for l in (3, 5)
                    if e % l == 0
                )
                if admissible:
                    scenarios.append((p, e))
        reports = membership_check(field, tree, scenarios, rt_result=res)
        for rep in reports:
            assert rep["ok"], (name, rep)


def test_membership_detects_unrealizable_scenario():
    # over disc -84 the class of 2 is outside W(k, 3), so index-3 tame
    # ramification at 2 is impossible; the membership report says so
    reports = membership_check(K84, gt.leaf(3), [(2, 3)])
    assert reports[0]["ok"] is False


def test_membership_guards():
    with pytest.raises(InadmissibleError):
        membership_check(K23, gt.leaf(3), [(5, 3)])  # inert p
    with pytest.raises(InadmissibleError):
        membership_check(K23, gt.leaf(3), [(2, 4)])  # e does not divide
    with pytest.raises(InadmissibleError, match="not a prime"):
        membership_check(K23, gt.leaf(3), [(0, 3)])


# -- answers do not depend on what the class group has cached ---------------------


SPECS = Path(__file__).resolve().parent.parent / "rtbench" / "specs"


def _rt_bytes(spec, disc, trace):
    """stdout, exit code and trace bytes of `rt --json` and of `rt --trace`."""
    runs = []
    for argv in (["--json"], ["--trace", str(trace)]):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["rt", "--disc", str(disc), "--group", str(spec)] + argv)
        runs.append((out.getvalue(), code))
    return runs, trace.read_bytes()


@pytest.mark.parametrize("disc", [-1000019, -5460])
def test_rt_bytes_independent_of_query_order(disc, tmp_path):
    # the W-groups and Sylow lists cached on the class group persist across
    # queries; forward order, reverse order and a cold cache per query must
    # print and trace the same bytes.  At -1000019 (prime) every W is the
    # whole class group; at -5460 (five prime factors) many are proper.
    specs = sorted(SPECS.glob("*.json"))
    assert len(specs) == 17
    trace = tmp_path / "trace.json"
    sc.class_group.cache_clear()
    forward = {p.name: _rt_bytes(p, disc, trace) for p in specs}
    sc.class_group.cache_clear()
    reverse = {p.name: _rt_bytes(p, disc, trace) for p in reversed(specs)}
    cold = {}
    for p in specs:
        sc.class_group.cache_clear()
        cold[p.name] = _rt_bytes(p, disc, trace)
    assert forward == reverse == cold
    assert all(code == 0 for runs, _ in forward.values() for _, code in runs)


# -- the W-target caches are keyed on the Galois groups ------------------------------


def _c23_rtimes_c11():
    # 2 has order 11 mod 23: a faithful action of C(11) on C(23)
    h = gt.AbelianGroup((23,))
    return gt.semidirect(h, gt.leaf(11), [(gt.AbElement((1,)), [[2]])])


def test_w_targets_follow_the_galois_groups(tmp_path):
    # each tree is queried over fields whose Gal(k(zeta_o)/k) is all of
    # (Z/o)* and then over the field with |D| = o, where the Galois group
    # has index 2 and cuts the W target.  Every answer must equal one
    # computed with every W-target cache cleared first.
    cases = [
        ("D23", gt.dihedral_tree(23), -23),
        ("C23xC11semi", _c23_rtimes_c11(), -23),
        ("F21", frobenius21(), -7),
        ("C11xD5semi", c11_rtimes_d5(), -11),
    ]
    trace = tmp_path / "trace.json"
    queries = []
    for name, tree, cut in cases:
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(gt.tree_to_spec(tree)))
        for disc in (-84, 0, -47, cut):
            queries.append((spec, disc))
    rz.clear_caches()
    warm = [_rt_bytes(spec, disc, trace) for spec, disc in queries]
    cold = []
    for spec, disc in queries:
        rz.clear_caches()
        sc.is_fundamental.cache_clear()
        cold.append(_rt_bytes(spec, disc, trace))
    for query, got, want in zip(queries, warm, cold):
        assert got == want, query
    assert all(code == 0 for runs, _ in cold for _, code in runs)


def test_class_group_freed_by_cache_clear():
    # no cache outside the class group may keep a field's ClassGroup alive
    disc = -5460
    specs = sorted(SPECS.glob("*.json"))
    assert len(specs) == 17
    sc.class_group.cache_clear()
    for spec in specs:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["rt", "--disc", str(disc), "--group", str(spec), "--json"]) == 0
    ref = weakref.ref(sc.class_group(disc))
    assert ref()._w_cache  # the queries reached this group
    sc.class_group.cache_clear()
    gc.collect()
    assert ref() is None
