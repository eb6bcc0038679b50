"""The immutable value classes (`grouptree.Value` and `QuadForm`): equality,
hashing, repr, assignment, copying, and what importing the CLI loads."""

import copy
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import steinitzcalc
from steinitzcalc import grouptree as gt
from steinitzcalc.classgroup import IdealClass, QuadField, QuadForm, class_group
from steinitzcalc.cyclotomic import CycloSubgroup, WCertificate, w_group
from steinitzcalc.steinitz import RamificationDatum


def _w():
    return w_group(QuadField(-84), CycloSubgroup(3, frozenset([1])))


# (instance, its field values in order, an unequal instance of the class, repr)
# The repr literals are pinned, so that a change to any of them shows.
def _cases():
    d3 = gt.dihedral_tree(3)
    w = _w()
    w_repr = (
        "WGroup(subgroup=ClassSubgroup(disc=-84, order=2, index=2, hnf=((2, 0), (0, 1))), "
        "descriptor=CycloSubgroup(modulus=3, members=frozenset({1})), "
        "certificate=WCertificate(final_bound=16384, windows=((2, 16384, 1),)))"
    )
    return {
        "QuadField": (QuadField(-84), (-84,), QuadField(-23), "QuadField(disc=-84)"),
        "IdealClass": (
            IdealClass(class_group(-84), 1),
            (class_group(-84), 1),
            IdealClass(class_group(-84), 0),
            "IdealClass(group=ClassGroup(disc=-84, order=4), index=1)",
        ),
        "AbElement": (gt.AbElement((1, 2)), ((1, 2),), gt.AbElement((2, 1)), "AbElement(coords=(1, 2))"),
        "AbelianGroup": (
            gt.AbelianGroup((9, 3)),
            ((9, 3),),
            gt.AbelianGroup((27,)),
            "AbelianGroup(invariant_factors=(9, 3))",
        ),
        "AbelianLeaf": (
            gt.leaf(3),
            (gt.AbelianGroup((3,)),),
            gt.leaf(5),
            "AbelianLeaf(group=AbelianGroup(invariant_factors=(3,)))",
        ),
        "Semidirect": (
            d3,
            (d3.h, d3.g, d3.mu),
            gt.dihedral_tree(5),
            "Semidirect(h=AbelianGroup(invariant_factors=(3,)), "
            "g=AbelianLeaf(group=AbelianGroup(invariant_factors=(2,))), "
            "mu=Action(h=AbelianGroup(invariant_factors=(3,)), "
            "g_tree=AbelianLeaf(group=AbelianGroup(invariant_factors=(2,))), "
            "items=((AbElement(coords=(0,)), ((1,),)), (AbElement(coords=(1,)), ((2,),)))))",
        ),
        "Direct": (
            gt.Direct(gt.leaf(3), gt.leaf(5)),
            (gt.leaf(3), gt.leaf(5)),
            gt.Direct(gt.leaf(5), gt.leaf(3)),
            "Direct(left=AbelianLeaf(group=AbelianGroup(invariant_factors=(3,))), "
            "right=AbelianLeaf(group=AbelianGroup(invariant_factors=(5,))))",
        ),
        "CycloSubgroup": (
            CycloSubgroup(8, frozenset({1, 3})),
            (8, frozenset({1, 3})),
            CycloSubgroup(8, frozenset({1, 5})),
            "CycloSubgroup(modulus=8, members=frozenset({1, 3}))",
        ),
        "WCertificate": (
            w.certificate,
            (16384, ((2, 16384, 1),)),
            WCertificate(16384, ()),
            "WCertificate(final_bound=16384, windows=((2, 16384, 1),))",
        ),
        "WGroup": (w, (w.subgroup, w.descriptor, w.certificate), w_group(QuadField(-84), CycloSubgroup(1, frozenset([0]))), w_repr),
        "RamificationDatum": (
            RamificationDatum(7, 3),
            (7, 3, False),
            RamificationDatum(7, 3, True),
            "RamificationDatum(p=7, e=3, conjugate=False)",
        ),
    }


CASES = _cases()


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_follow_the_field_tuple(name):
    x, values, other, _ = CASES[name]
    twin = type(x)(*values)
    assert twin is not x and twin == x and not twin != x
    assert hash(x) == hash(twin) == hash(values)
    assert x._hash == hash(values)  # computed by the first hash and kept
    assert x != other and hash(other) == hash(other._values())
    # another class with the same fields is never equal
    assert x.__eq__(values) is NotImplemented and x != values
    assert len({x, twin, other}) == 2


@pytest.mark.parametrize("name", CASES)
def test_repr_is_pinned(name):
    x, _, _, want = CASES[name]
    assert repr(x) == want


@pytest.mark.parametrize("name", CASES)
def test_fields_refuse_assignment(name):
    x, values, _, _ = CASES[name]
    field = type(x).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(x, field, values[0])
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.new_attribute = 1
    assert x._values() == values


@pytest.mark.parametrize("name", ["QuadField", "AbElement", "Direct", "CycloSubgroup", "RamificationDatum"])
def test_copies_are_equal(name):
    x = CASES[name][0]
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)


def test_constructors_normalise_and_check_as_before():
    assert gt.AbelianGroup([9.0, 3]).invariant_factors == (9, 3)
    assert CycloSubgroup(8, [9, 3]).members == frozenset({1, 3})
    assert RamificationDatum(p=13, e=2, conjugate=True).conjugate is True
    for build in (
        lambda: gt.AbelianGroup((3, 9)),
        lambda: CycloSubgroup(0, [1]),
        lambda: CycloSubgroup(8, [1, 3, 5]),
        lambda: QuadField(-12),
        lambda: IdealClass(class_group(-84), 4),
        lambda: RamificationDatum(3, 3),
        lambda: gt.Direct(gt.leaf(2), gt.leaf(2)),
    ):
        with pytest.raises(steinitzcalc.InadmissibleError):
            build()


def test_quad_form_is_the_tuple_a_b_c():
    f = QuadForm(1, 1, 6)
    assert f == (1, 1, 6) and hash(f) == hash((1, 1, 6))
    assert (f.a, f.b, f.c) == tuple(f) == f.as_tuple() == (1, 1, 6)
    assert QuadForm(a=2, b=-1, c=3) == (2, -1, 3)
    assert repr(f) == "QuadForm(a=1, b=1, c=6)" and str(f) == "(1,1,6)"
    assert f.disc == -23 and f.is_primitive
    assert pickle.loads(pickle.dumps(f)) == f and copy.deepcopy(f) == f
    assert type(pickle.loads(pickle.dumps(f))) is QuadForm
    assert f._replace(a=2) == QuadForm(2, 1, 6) and type(f._replace(a=2)) is QuadForm
    assert f._asdict() == {"a": 1, "b": 1, "c": 6} and QuadForm._make((1, 1, 6)) == f
    with pytest.raises(AttributeError):
        f.a = 2


# -- import footprint -------------------------------------------------------------

SRC = Path(steinitzcalc.__file__).resolve().parent

_PROBE = """
import json, os, sys
import steinitzcalc, steinitzcalc.cli
spec = os.path.join(os.path.dirname(steinitzcalc.__file__), "examples", "c3.json")
code = steinitzcalc.cli.main(["rt", "--disc", "-84", "--group", spec, "--json"])
print(json.dumps([code, sorted(sys.modules)]))
"""


def test_cli_import_and_rt_load_no_heavy_stdlib_module():
    # -S: no site hook can load these modules before the package does
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert {"dataclasses", "typing", "inspect"}.isdisjoint(modules)
    assert "steinitzcalc.check" not in modules


def test_source_uses_no_generated_records_or_typing():
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"dataclass", text), path
        assert not re.search(r"^\s*(from typing import|import typing)", text, re.M), path
