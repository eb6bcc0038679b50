"""The benchmark's answer checks must reject wrong answers.

    PYTHONPATH=src python -m pytest -q rtbench
"""

import json
import random

import pytest

import steinitzcalc as sc
from steinitzcalc import cli

import checks
import run


def _ask(disc, tree):
    rc, text, _ = run.ask(cli, disc, tree)
    assert rc == 0
    return text


def _edit(text, change):
    payload = json.loads(text)
    change(payload["rt"])
    return json.dumps(payload, sort_keys=True)


def _check(answers, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    rows = [(disc, tree, 0, text, 0.0) for disc, tree, text in answers]
    return run.check_run(sc, cli, rows, random.Random(0), "test")


@pytest.mark.parametrize("disc,h", [(-23, 3), (-47, 5), (-71, 7), (-84, 4), (-163, 1), (-420, 8)])
def test_class_number_counts_reduced_forms(disc, h):
    assert checks.class_number(disc) == h


def test_true_answers_pass(tmp_path, monkeypatch):
    answers = [(d, t, _ask(d, t)) for d, t in [(-84, "C3"), (-84, "D3"), (-23, "C2"), (-47, "D5"), (-87, "F21")]]
    assert _check(answers, tmp_path, monkeypatch) == []


def _order_times_two(rt):
    rt["order"] *= 2
    rt["invariant_factors"][0] *= 2


def _foreign_generator(rt):
    rt["generators"][0] = [2, 1, 3]  # reduced form of discriminant -23


def _index_plus_one(rt):
    rt["index"] += 1


@pytest.mark.parametrize("tree", ["C3", "D3"])
@pytest.mark.parametrize("change", [_order_times_two, _foreign_generator, _index_plus_one])
def test_corrupted_answer_fails_the_run(tree, change, tmp_path, monkeypatch):
    bad = _edit(_ask(-84, tree), change)
    chk = checks.Checker(sc)
    chk.answer(-84, tree, bad)
    assert chk.failures
    assert _check([(-84, tree, bad)], tmp_path, monkeypatch)


def _other_order_2_form(gens):
    return next(f for f in ([2, 2, 11], [3, 0, 7], [5, 4, 5]) if f not in gens)


def test_changed_repeat_fails_the_run(tmp_path, monkeypatch):
    text = _ask(-84, "C3")
    later = _edit(text, lambda rt: rt.update(generators=[_other_order_2_form(rt["generators"])]))
    alone = checks.Checker(sc)
    alone.answer(-84, "C3", later)
    assert alone.failures == [], "the changed answer is wrong only by disagreeing with the first"
    chk = checks.Checker(sc)
    chk.answer(-84, "C3", text)
    chk.answer(-84, "C3", later)
    assert chk.failures
    assert _check([(-84, "C3", text), (-84, "C3", later)], tmp_path, monkeypatch)


def test_dihedral_answer_must_match_rt_dihedral():
    text = _ask(-84, "D3")
    bad = _edit(text, lambda rt: rt["generators"].__setitem__(0, _other_order_2_form(rt["generators"])))
    unchecked = checks.Checker(sc, dihedral_keys=set())
    unchecked.answer(-84, "D3", bad)
    assert unchecked.failures == [], "only the comparison with rt_dihedral can see this"
    chk = checks.Checker(sc)
    chk.answer(-84, "D3", bad)
    assert chk.failures


def _c2_as_proper_subgroup(payload):
    rt = payload["rt"]
    rt.update(order=2, index=2, invariant_factors=[2], generators=rt["generators"][:1])


def _class_number_doubled(payload):
    payload["class_group"]["order"] *= 2


@pytest.mark.parametrize("change", [_c2_as_proper_subgroup, _class_number_doubled])
def test_single_wrong_fact_fails(change):
    payload = json.loads(_ask(-84, "C2"))
    change(payload)
    chk = checks.Checker(sc)
    chk.answer(-84, "C2", json.dumps(payload, sort_keys=True))
    assert len(chk.failures) == 1
