"""CLI tests: outputs, exit codes, determinism, JSON round-trips."""

import argparse
import ast
import functools
import inspect
import io
import json
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

import steinitzcalc as sc
from steinitzcalc import _kernels, check, cli, cyclotomic, grouptree, realizable
from steinitzcalc.cli import main

from conftest import patch_w_norm_character


@pytest.fixture()
def capture(capsys):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    return run


def test_classgroup_text(capture):
    code, out, _ = capture("classgroup", "--disc", "-23")
    assert code == 0
    assert "h = 3" in out and "C3" in out and "(2,-1,3)" in out


def test_classgroup_json_roundtrip(capture):
    code, out, _ = capture("classgroup", "--disc", "-23", "--json")
    assert code == 0
    data = json.loads(out)
    cg = sc.class_group(-23)
    assert data["order"] == cg.order
    assert data["invariant_factors"] == list(cg.invariant_factors)
    assert data["generators"] == [list(f.as_tuple()) for f in cg.generator_forms]


def test_bad_disc_exit_2(capture):
    code, _, err = capture("classgroup", "--disc", "10")
    assert code == 2
    assert "fundamental" in err


def test_rationals_disc_zero(capture):
    code, out, _ = capture("classgroup", "--disc", "0", "--json")
    assert code == 0
    assert json.loads(out)["order"] == 1


def test_wgroup_output(capture):
    code, out, _ = capture(
        "wgroup", "--disc", "-84", "--modulus", "3", "--subgroup", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2 and data["index"] == 2
    assert data["generators"] == [[3, 0, 7]]
    assert "initial_bound" not in data and "stabilized_bound" not in data


@pytest.mark.parametrize("m", [3, 4, 5, 8])
@pytest.mark.parametrize("disc", [-84, -420, -1155, -3315])
def test_wgroup_matches_the_enumeration_oracle(capture, disc, m):
    field = sc.QuadField(disc)
    for s in (cyclotomic.CycloSubgroup(m, frozenset([1])), cyclotomic.galois_group(field, m)):
        subgroup = ",".join(map(str, s.sorted_members()))
        code, out, _ = capture(
            "wgroup", "--disc", str(disc), "--modulus", str(m), "--subgroup", subgroup, "--json"
        )
        assert code == 0
        data = json.loads(out)
        oracle = sc.w_group(field, s).subgroup
        factors, gens = oracle.structure()
        assert (data["order"], data["index"], data["invariant_factors"]) == (
            oracle.order, oracle.index_in_parent, list(factors)
        )
        assert data["generators"] == [list(oracle.group.form(i)) for i in gens]


def test_wgroup_enumerates_no_primes(capture, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("wgroup enumerated primes")

    monkeypatch.setattr(cyclotomic, "w_group", refuse)
    monkeypatch.setattr(_kernels, "scan_w_forms", refuse)
    sc.class_group.cache_clear()
    code, out, _ = capture(
        "wgroup", "--disc", "-2042040", "--modulus", "8", "--subgroup", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert (data["order"], data["index"]) == (224, 2)
    assert data["generators"] == [
        [722, 416, 767], [7, 0, 72930], [15, 0, 34034], [17, 0, 30030], [33, 0, 15470]
    ]


def test_wgroup_bound_is_gone(capture):
    # wgroup enumerates no primes, so there is no prime bound to set
    with pytest.raises(SystemExit) as exc:
        capture("wgroup", "--disc", "-84", "--modulus", "3", "--subgroup", "1", "--bound", "100")
    assert exc.value.code == 2


def test_wgroup_bad_subgroup_exit_2(capture):
    code, _, err = capture(
        "wgroup", "--disc", "-23", "--modulus", "7", "--subgroup", "1,2"
    )
    assert code == 2 and "closed" in err


def test_check_wgroup_fails_on_a_w_too_small(capture, monkeypatch):
    # a trivial W mod 3 at -84: the ramified primes 7 (S = {1}) and 2
    # (S = Gal = {1, 2}) have classes outside it
    patch_w_norm_character(monkeypatch, -84, 3, lambda cg: cg.trivial_subgroup())
    code, out, _ = capture("check", "--suite", "wgroup", "--disc", "-84")
    assert code == 4
    assert "FAIL  wgroup: primes verify W for S = <1> mod 3  [" in out
    assert "the class of the prime 7 lies outside W" in out
    assert "the class of the prime 2 lies outside W" in out
    assert "soundness" not in out


def test_steinitz_subcommand(capture):
    code, out, _ = capture(
        "steinitz", "--disc", "-23", "--ram", "2:3", "--order", "3", "--json"
    )
    assert code == 0
    assert json.loads(out)["steinitz_class"] == [2, 1, 3]
    code, out, _ = capture(
        "steinitz", "--disc", "-23", "--ram", "2:3,2:3:conj", "--order", "3"
    )
    assert code == 0
    assert "principal" in out


def test_exponents_subcommand(capture):
    code, out, _ = capture(
        "exponents", "--l", "3", "--otau", "3", "--m", "2", "--n", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert (data["alpha_1"], data["alpha_2"], data["alpha_3"]) == (2, 2, 3)
    assert data["beta"] == 1 and data["w_exponent"] == 2


WGROUP = ("wgroup", "--disc", "-84", "--modulus", "3", "--subgroup")
STEINITZ = ("steinitz", "--disc", "-23", "--order", "3", "--ram")
EXPONENTS = ("exponents", "--l", "3", "--otau", "9", "--n", "9", "--m")
INADMISSIBLE_ARGS = {
    "subgroup-letter": (WGROUP + ("a",), "bad integer"),
    "subgroup-empty": (WGROUP + ("1,,2",), "bad integer"),
    "ram-prime": (STEINITZ + ("x:3",), "bad integer"),
    "ram-index": (STEINITZ + ("2:y",), "bad integer"),
    "exponents-m-negative": (EXPONENTS + ("-2",), "m, n >= 1"),
    "exponents-m-zero": (EXPONENTS + ("0",), "m, n >= 1"),
}


@pytest.mark.parametrize("argv, message", INADMISSIBLE_ARGS.values(), ids=INADMISSIBLE_ARGS)
def test_inadmissible_arguments_exit_2(capture, argv, message):
    code, out, err = capture(*argv, "--json")
    assert code == 2
    assert out == "" and err.startswith("error: ") and message in err


def test_rt_subcommand_with_examples(capture, tmp_path):
    import importlib.resources as ir

    base = ir.files("steinitzcalc") / "examples"
    code, out, _ = capture("rt", "--disc", "-23", "--group", str(base / "c3.json"))
    assert code == 0 and "R_t = Cl(k), index 1" in out

    trace_path = tmp_path / "trace.json"
    code, out, _ = capture(
        "rt", "--disc", "-84", "--group", str(base / "c3.json"), "--json",
        "--trace", str(trace_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["rt"]["order"] == 2 and data["rt"]["index"] == 2
    trace = json.loads(trace_path.read_text())
    assert sc.rt_trace_replay(trace).order == 2

    for name in ("d3.json", "frobenius21.json", "c7xc3.json", "direct_c3_c5.json"):
        code, out, _ = capture("rt", "--disc", "-23", "--group", str(base / name))
        assert code == 0, name


def test_rt_inadmissible_tree_exit_2(capture, tmp_path):
    bad = tmp_path / "c4.json"
    bad.write_text('{"kind": "abelian", "invariant_factors": [4]}')
    code, _, err = capture("rt", "--disc", "-23", "--group", str(bad))
    assert code == 2 and "inadmissible" in err


def test_rt_missing_file_exit_2(capture, tmp_path):
    code, _, _ = capture("rt", "--disc", "-23", "--group", str(tmp_path / "nope.json"))
    assert code == 2


def test_rt_no_dedupe_is_gone(capture):
    # grouping equal W factors cannot change R_t, so there is no flag to
    # turn it off
    with pytest.raises(SystemExit) as exc:
        capture("rt", "--disc", "-84", "--group", str(SPEC_DIR / "D3.json"), "--no-dedupe")
    assert exc.value.code == 2


def test_rt_groups_equal_w_factors(capture, tmp_path):
    # C9 x C3 has 26 taus and two distinct W factors over Q(sqrt(-5460));
    # the output and the trace's tau counts are those of the grouped fold
    trace = tmp_path / "trace.json"
    code, out, _ = capture(
        "rt", "--disc", "-5460", "--group", str(SPEC_DIR / "C9xC3.json"), "--json",
        "--trace", str(trace),
    )
    assert code == 0
    assert json.loads(out)["rt"] == {
        "generators": [[6, 6, 229], [7, 0, 195], [10, 10, 139]],
        "index": 2,
        "invariant_factors": [2, 2, 2],
        "order": 8,
    }
    data = json.loads(trace.read_text())
    assert data["dedupe"] is True
    assert [(w["modulus"], w["exponent"], w["tau_count"]) for w in data["node"]["w_factors"]] == [
        (3, 9, 8), (9, 3, 18)
    ]


def test_determinism_byte_identical():
    import importlib.resources as ir

    spec = str(ir.files("steinitzcalc") / "examples" / "frobenius21.json")
    cmd = [
        sys.executable, "-m", "steinitzcalc.cli",
        "rt", "--disc", "-84", "--group", spec, "--json",
    ]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


@pytest.mark.parametrize("order", ["-3", "0"])
def test_steinitz_degree_below_one_exit_2(capture, order):
    code, out, err = capture("steinitz", "--disc", "-23", "--ram", "2:3", "--order", order)
    assert code == 2
    assert out == ""
    assert f"degree N = {order} < 1" in err


@pytest.mark.parametrize("ram", ["25:3", "4:3", "1:3"])
def test_steinitz_non_prime_exit_2(ram):
    # a square p has no quadratic non-residue, so Tonelli-Shanks would search
    # for one forever; the timeout turns such a hang into a failure
    cmd = [
        sys.executable, "-m", "steinitzcalc.cli",
        "steinitz", "--disc", "-23", "--ram", ram, "--order", "3",
    ]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert "is not a prime" in r.stderr


def test_disc_far_beyond_cap_exit_2():
    # the cap is checked before the trial division that proves a
    # discriminant fundamental, which would take ~10^19 steps here; in a
    # subprocess so that a hang fails the test instead of stalling the suite
    cmd = [
        sys.executable, "-m", "steinitzcalc.cli",
        "classgroup", "--disc", "-100000000000000000000000000000000000003",
    ]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert "exceeds the supported cap" in r.stderr


BIG_PRIME = "1000000000000000003"  # a prime of 19 digits, above PRIME_TEST_CAP


@pytest.mark.parametrize(
    "argv",
    [
        ("steinitz", "--disc", "-23", "--ram", f"{BIG_PRIME}:3", "--order", "3"),
        ("exponents", "--l", BIG_PRIME, "--otau", BIG_PRIME, "--n", BIG_PRIME),
    ],
)
def test_prime_above_the_test_cap_exit_2(capture, argv):
    # trial division to sqrt(10^18) would run for minutes; the cap is
    # checked before any of it
    start = perf_counter()
    code, out, err = capture(*argv)
    assert perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"{BIG_PRIME} exceeds {grouptree.PRIME_TEST_CAP}" in err


def test_prime_below_the_test_cap_still_answers(capture):
    p = "10000000000037"
    assert int(p) <= grouptree.PRIME_TEST_CAP
    code, out, _ = capture("steinitz", "--disc", "-23", "--ram", f"{p}:3", "--order", "3")
    assert code == 0 and out == "st = (2,-1,3)\n"
    code, out, _ = capture("exponents", "--l", p, "--otau", p, "--n", p, "--json")
    assert code == 0 and json.loads(out)["beta"] == 5000000000018


def test_parser_built_once(capture, monkeypatch):
    import importlib.resources as ir

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    spec = str(ir.files("steinitzcalc") / "examples" / "d3.json")
    argv = ("rt", "--disc", "-84", "--group", spec, "--json")
    first = capture(*argv)
    second = capture(*argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert len(built) == 1


def _examples(name):
    import importlib.resources as ir

    return str(ir.files("steinitzcalc") / "examples" / name)


ARGV_TABLE = {
    "classgroup": ["classgroup", "--disc", "-23"],
    "classgroup-json-eq": ["classgroup", "--disc=-84", "--json"],
    "wgroup": ["wgroup", "--disc", "-84", "--modulus", "3", "--subgroup", "1", "--json"],
    "wgroup-bound": ["wgroup", "--subgroup", "1,2", "--modulus", "3", "--disc", "-23",
                     "--bound", "200"],
    "steinitz": ["steinitz", "--disc", "-23", "--ram", "2:3", "--order", "3"],
    "exponents": ["exponents", "--l", "3", "--otau", "3", "--n", "9", "--json"],
    "rt": ["rt", "--disc", "-84", "--group", _examples("d3.json")],
    "rt-abbrev": ["rt", "--gr", _examples("c3.json"), "--js", "--disc", "-84"],
    "rt-trace": ["rt", "--disc", "-23", "--group", _examples("c3.json"), "--trace", "t.json"],
    "check": ["check", "--suite", "exponents"],
    "check-default": ["check"],
    "help": ["-h"],
    "help-long": ["--help"],
    "rt-help": ["rt", "-h"],
    "rt-help-late": ["rt", "--disc", "-84", "--help"],
    "empty": [],
    "unknown-command": ["frobnicate", "--disc", "-23"],
    "option-first": ["--disc", "-23", "rt"],
    "missing-disc": ["rt", "--group", _examples("d3.json")],
    "missing-value": ["rt", "--disc"],
    "bad-integer": ["classgroup", "--disc", "minus23"],
    "bad-choice": ["check", "--suite", "everything"],
    "no-dedupe": ["rt", "--disc", "-84", "--group", _examples("d3.json"), "--no-dedupe"],
    "extra-positional": ["classgroup", "--disc", "-23", "extra", "-x"],
    "double-dash": ["rt", "--", "--disc", "-84"],
}


def _parsed(parse, argv):
    """(what parse(argv) returns, a Namespace as its items, or the exit
    code it raises; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    if isinstance(result, argparse.Namespace):
        result = list(vars(result).items())
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ARGV_TABLE.values(), ids=ARGV_TABLE.keys())
def test_parse_once_matches_the_two_level_parse(argv, monkeypatch, tmp_path):
    # the subcommand's parser alone gives the Namespace, output and exit
    # code of the top-level parser that hands argv on to it
    reference = cli.build_parser()
    want = _parsed(reference.parse_args, list(argv))
    assert _parsed(cli._parse, list(argv)) == want
    if argv:
        monkeypatch.setattr(sys, "argv", ["steinitzcalc", *argv])
        assert _parsed(cli._parse, None) == want
    # and main prints and returns the same with either parser
    monkeypatch.chdir(tmp_path)
    ours = _parsed(main, list(argv))
    monkeypatch.setattr(cli, "_parse", lambda a: reference.parse_args(a))
    assert _parsed(main, list(argv)) == ours


def test_check_suites(capture):
    code, out, _ = capture("check", "--suite", "all", "--disc", "-23")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


W_CHECKS = (
    "PASS  wgroup: soundness: the class of every qualifying prime below SOUNDNESS_BOUND "
    "= 16384 lies in W, for W(k, k) and S = {1} and Gal, m = 3, 4, 5, 8\n",
    "PASS  wgroup: completeness: those classes span each W  [primes scanned below 16384]\n",
)


def test_check_wgroup_compares_the_production_w(capture, monkeypatch):
    # W(k, E) != Cl at -84 for S = {1} mod 3; a genus path that sees no
    # character returns Cl there, and only the verification against primes
    # notices: the primes = 1 mod 3 span only index 2, up to any ceiling
    code, out, _ = capture("check", "--suite", "wgroup", "--disc", "-84")
    assert code == 0 and all(line in out for line in W_CHECKS)
    sc.class_group.cache_clear()
    monkeypatch.setattr(cyclotomic, "_genus_candidates", lambda disc, m: [])
    monkeypatch.setattr(cyclotomic, "SPAN_CEILING", 1 << 16)
    try:
        code, out, _ = capture("check", "--suite", "wgroup", "--disc", "-84")
    finally:
        sc.class_group.cache_clear()
    assert code == 4
    fail = "FAIL  wgroup: primes verify W for S = <1> mod 3  ["
    assert fail in out and "below the ceiling 65536 do not span W" in out
    assert not any(line in out for line in W_CHECKS)
    assert "PASS  wgroup: monotone in the Frobenius target" in out


def test_check_and_rt_dihedral_scan_no_prime_past_the_soundness_bound(capture, monkeypatch):
    # every W here is spanned by its first window, so no scan goes further
    his = []
    scan = _kernels.scan_w_forms

    def recorded(disc, m, members, lo, hi):
        his.append(hi)
        return scan(disc, m, members, lo, hi)

    monkeypatch.setattr(_kernels, "scan_w_forms", recorded)
    code, out, _ = capture("check", "--suite", "all", "--disc", "-2042040")
    assert code == 0 and "FAIL" not in out
    realizable.rt_dihedral(sc.QuadField(-84), 15)
    assert his and max(his) == cyclotomic.SOUNDNESS_BOUND


def test_check_classgroup_compares_with_kernel(capture, monkeypatch):
    # relabelling two classes of C5 that no automorphism swaps gives a law
    # that still passes the group-axiom checks; only the comparison with
    # the form kernel notices
    cg = sc.class_group(-47)
    a = next(i for i in range(cg.order) if i != cg.principal_index)
    swap = {a: cg.pow_idx(a, 2), cg.pow_idx(a, 2): a}

    def relabel(x):
        return swap.get(x, x)

    compose, inverse = sc.ClassGroup.compose_idx, sc.ClassGroup.inverse_idx
    monkeypatch.setattr(
        sc.ClassGroup, "compose_idx",
        lambda self, i, j: relabel(compose(self, relabel(i), relabel(j))),
    )
    monkeypatch.setattr(
        sc.ClassGroup, "inverse_idx", lambda self, i: relabel(inverse(self, relabel(i)))
    )
    code, out, _ = capture("check", "--suite", "classgroup", "--disc", "-47")
    assert code == 4
    assert "PASS  classgroup: composition table adds coordinates mod the invariant factors" in out
    assert "PASS  classgroup: identity and inverses" in out
    assert (
        "FAIL  classgroup: composition matches the form kernel on every class "
        "times each basis class" in out
    )


def test_check_classgroup_catches_a_corrupt_table(capture):
    sc.class_group.cache_clear()
    try:
        lut = sc.class_group(-47)._dlog[1]
        lut[0], lut[1] = lut[1], lut[0]
        code, out, _ = capture("check", "--suite", "classgroup", "--disc", "-47")
    finally:
        sc.class_group.cache_clear()
    assert code == 4
    assert "FAIL  classgroup: composition table adds coordinates" in out


@pytest.mark.parametrize("corrupt", ["swap", "off-by-one", "zero"])
def test_check_classgroup_catches_corrupt_keys(capture, corrupt):
    # two keys out of order; a last key that decodes to (a, b + 1), whose c
    # is no integer; a key that decodes to a = 0
    sc.class_group.cache_clear()
    try:
        cg = sc.class_group(-47)
        keys = list(cg._keys)
        if corrupt == "swap":
            keys[1], keys[2] = keys[2], keys[1]
        elif corrupt == "off-by-one":
            keys[-1] += 1
        else:
            keys[0] = 0
        cg._keys = keys
        code, out, _ = capture("check", "--suite", "classgroup", "--disc", "-47")
    finally:
        sc.class_group.cache_clear()
    assert code == 4
    assert "FAIL  classgroup: keys increase and each decodes to a reduced form" in out
    assert "FAIL  classgroup: composition matches the form kernel" in out
    assert "PASS  classgroup: composition table adds coordinates" in out


def test_check_finishes_at_the_largest_class_group():
    # h = 5085: each check is linear in h, none loops over pairs or triples
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "steinitzcalc.cli", "check", "--disc", "-9951191"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "failures: 0" in proc.stdout
    assert perf_counter() - start < 60


def _abelian_spec(tmp_path, p):
    path = tmp_path / f"c{p}.json"
    path.write_text(json.dumps({"kind": "abelian", "invariant_factors": [p]}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ("rt", "--disc", "-23", "--group", "C1999"),
        ("wgroup", "--disc", "-23", "--modulus", "10007", "--subgroup", "1"),
    ],
    ids=["rt-C1999", "wgroup-10007"],
)
def test_modulus_above_the_cap_exits_2(capture, tmp_path, argv):
    argv = [_abelian_spec(tmp_path, 1999) if a == "C1999" else a for a in argv]
    start = perf_counter()
    code, out, err = capture(*argv)
    assert perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"exceeds the cap {cyclotomic.MAX_MODULUS}" in err


def test_modulus_below_the_cap_answers(capture, tmp_path):
    code, out, _ = capture("rt", "--disc", "-23", "--group", _abelian_spec(tmp_path, 997))
    assert code == 0 and "R_t: order 1 of 3" in out


def _write_spec(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _abelian(*factors):
    return {"kind": "abelian", "invariant_factors": list(factors)}


def _c7_power_by_c3(r):
    """C(7)^r x| C(3), the generator of C(3) acting as x -> x^2."""
    matrix = [[2 * int(i == j) for j in range(r)] for i in range(r)]
    return {"kind": "semidirect", "h": _abelian(*[7] * r), "g": _abelian(3),
            "action": {"on_generators": [{"g_element": [1], "matrix": matrix}]}}


@pytest.mark.parametrize(
    "spec, work",
    [(_abelian(*[3] * 11), 3**11), (_c7_power_by_c3(6), 7**6 * 3),
     ({"kind": "direct", "left": _abelian(3), "right": _abelian(*[5] * 7)}, 5**7)],
    ids=["leaf-C3^11", "semidirect-C7^6-by-C3", "direct-C3-C5^7"],
)
def test_tau_work_above_the_cap_exits_2(capture, tmp_path, spec, work):
    start = perf_counter()
    code, out, err = capture("rt", "--disc", "-23", "--group", _write_spec(tmp_path, spec))
    assert perf_counter() - start < 1
    assert code == 2 and out == ""
    assert f"|H|*|G| = {work} exceeds the cap {realizable.MAX_TAU_WORK}" in err


def test_tau_work_below_the_cap_answers(capture, tmp_path):
    assert 3**10 <= realizable.MAX_TAU_WORK < 3**11
    spec = _write_spec(tmp_path, _abelian(*[3] * 10))
    code, out, _ = capture("rt", "--disc", "-23", "--group", spec)
    assert code == 0
    assert out == "R_t: order 1 of 3 (index 3), invariant factors trivial, generators: -\n"


SPEC_DIR = Path(__file__).resolve().parent.parent / "rtbench" / "specs"


def _rt_json_over_specs(disc):
    for spec in sorted(SPEC_DIR.glob("*.json")):
        with redirect_stdout(io.StringIO()):
            assert main(["rt", "--disc", str(disc), "--group", str(spec), "--json"]) == 0


def test_untraced_rt_lists_no_member_forms(monkeypatch):
    _rt_json_over_specs(-1000019)  # warm: class group, structure, W-groups
    calls = []
    forms = realizable._forms
    monkeypatch.setattr(realizable, "_forms", lambda sub: calls.append(sub) or forms(sub))
    _rt_json_over_specs(-1000019)
    assert calls == []


@pytest.mark.parametrize("disc", [-84, -1000019])
def test_untraced_rt_decodes_no_form_list(disc):
    sc.class_group.cache_clear()
    _rt_json_over_specs(disc)
    assert "forms" not in vars(sc.class_group(disc))


def test_traced_rt_decodes_the_form_list_once(monkeypatch, tmp_path):
    built = []
    forms = sc.ClassGroup.forms
    counted = functools.cached_property(lambda cg: built.append(cg.disc) or forms.func(cg))
    counted.__set_name__(sc.ClassGroup, "forms")
    monkeypatch.setattr(sc.ClassGroup, "forms", counted)
    sc.class_group.cache_clear()
    trace = tmp_path / "trace.json"
    for spec in sorted(SPEC_DIR.glob("*.json")):
        with redirect_stdout(io.StringIO()):
            argv = ["rt", "--disc", "-1000019", "--group", str(spec), "--trace", str(trace)]
            assert main(argv) == 0
        assert realizable.rt_trace_replay(json.loads(trace.read_text())) is not None
    assert built == [-1000019]


def test_rt_does_not_enumerate_reduced_forms(monkeypatch):
    # the class group comes from the prime-form walk; the enumeration is
    # only the walk's test oracle
    def enumerate_forms(disc):
        raise AssertionError(f"reduced_forms({disc}) called")

    monkeypatch.setattr(_kernels, "reduced_forms", enumerate_forms)
    assert sc.ClassGroup(-100003).invariant_factors == (39,)
    sc.class_group.cache_clear()  # rt builds its group cold too
    with redirect_stdout(io.StringIO()) as out:
        code = main(["rt", "--disc", "-100003", "--group", str(SPEC_DIR / "D3.json"), "--json"])
    assert code == 0
    assert json.loads(out.getvalue())["rt"]["order"] >= 1


MALFORMED_SPECS = {
    "abelian-without-factors": '{"kind": "abelian"}',
    "direct-without-right": (
        '{"kind": "direct", "left": {"kind": "abelian", "invariant_factors": [3]}}'
    ),
    "generator-without-matrix": (
        '{"kind": "semidirect", "h": {"kind": "abelian", "invariant_factors": [3]},'
        ' "g": {"kind": "abelian", "invariant_factors": [2]},'
        ' "action": {"on_generators": [{"g_element": [1]}]}}'
    ),
    "h-not-a-node": (
        '{"kind": "semidirect", "h": [3], "g": {"kind": "abelian", "invariant_factors": [2]},'
        ' "action": {"on_generators": [{"g_element": [1], "matrix": [[-1]]}]}}'
    ),
    "factors-as-string": '{"kind": "abelian", "invariant_factors": "3"}',
    "factor-as-float": '{"kind": "abelian", "invariant_factors": [3.0]}',
    "directory": None,
}


@pytest.mark.parametrize("text", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS.keys())
def test_rt_malformed_group_spec_exit_2(capture, tmp_path, text):
    path = tmp_path / "spec.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    code, out, err = capture("rt", "--disc", "-23", "--group", str(path))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def _direct_chain(depth):
    """JSON text of C(3) x (C(3) x (...)): `depth` nodes from root to the
    deepest leaf, written without json.dumps, whose encoder recurses."""
    leaf = '{"kind": "abelian", "invariant_factors": [3]}'
    return '{"kind": "direct", "left": ' * (depth - 1) + leaf + (', "right": ' + leaf + "}") * (depth - 1)


@pytest.mark.parametrize(
    "depth, code",
    [(grouptree.MAX_TREE_DEPTH, 0), (grouptree.MAX_TREE_DEPTH + 1, 2), (1500, 2)],
)
def test_deep_group_spec_answers_to_the_cap_and_exits_2_past_it(tmp_path, depth, code):
    # a subprocess, so that the interpreter's own recursion limit applies
    path = tmp_path / "deep.json"
    path.write_text(_direct_chain(depth))
    proc = subprocess.run(
        [sys.executable, "-m", "steinitzcalc.cli", "rt", "--disc", "-84", "--group", str(path),
         "--trace", str(tmp_path / "trace.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout.startswith("R_t: order 2 of 4")
    else:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
        assert "MAX_TREE_DEPTH" in proc.stderr or "nested too deeply" in proc.stderr


def _spec_with_nodes(n):
    """JSON text of a balanced direct product with exactly `n` tree nodes:
    C(3) and C(5) leaves, and one D(3) (a semidirect node over a C(2) leaf)
    when n is even."""
    d3 = json.loads((Path(sc.__file__).parent / "examples" / "d3.json").read_text())
    units = [d3] * (1 - n % 2)
    units += [{"kind": "abelian", "invariant_factors": [3 + 2 * (i % 2)]}
              for i in range((n + 1) // 2 - len(units))]

    def balanced(units):
        if len(units) == 1:
            return units[0]
        mid = len(units) // 2
        return {"kind": "direct", "left": balanced(units[:mid]), "right": balanced(units[mid:])}

    return json.dumps(balanced(units))


@pytest.mark.parametrize("nodes, code", [(grouptree.MAX_TREE_NODES, 0), (grouptree.MAX_TREE_NODES + 1, 2)])
def test_group_spec_answers_to_the_node_cap_and_exits_2_past_it(tmp_path, nodes, code):
    text = _spec_with_nodes(nodes)
    if code == 0:
        grouptree.tree_from_spec(json.loads(text))
    else:
        with pytest.raises(sc.InadmissibleError, match="MAX_TREE_NODES"):
            grouptree.tree_from_spec(json.loads(text))
    path = tmp_path / "wide.json"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "steinitzcalc.cli", "rt", "--disc", "-84", "--group", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout.startswith("R_t = Cl(k), index 1")
    else:
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: group spec has more than MAX_TREE_NODES = 10000 tree nodes\n"
        )


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_lines():
    """The `steinitzcalc ...` lines of the sh block under README's CLI heading."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("steinitzcalc ")]


def test_readme_cli_lines_run(capture, monkeypatch, tmp_path):
    # every command README shows runs as written from a checkout; a --trace
    # file goes under tmp_path instead
    lines = _readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} == set(cli._parser()[1])
    monkeypatch.chdir(README.parent)
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--trace" in argv:
            at = argv.index("--trace") + 1
            argv[at] = str(tmp_path / Path(argv[at]).name)
        code, _, err = capture(*argv)
        assert code == 0, (line, err)


def _documented_exit_codes(path):
    """The codes named in the sentence of `path` that begins "Exit codes: "."""
    text = " ".join(path.read_text(encoding="utf-8").split())
    sentence = text.split("Exit codes: ", 1)[1].split(". ", 1)[0]
    return {int(code) for code in re.findall(r"\b\d+\b", sentence)}


def test_docs_name_the_exit_codes_main_returns():
    # every integer literal a function of cli or of the check suites returns
    # is an exit code
    returned = {
        node.value
        for module in (cli, check)
        for ret in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(ret, ast.Return) and ret.value is not None
        for node in ast.walk(ret.value)
        if isinstance(node, ast.Constant) and type(node.value) is int
    }
    assert returned == {0, 2, 4}
    for path in (README, README.parent / "docs" / "formats.md"):
        assert _documented_exit_codes(path) == returned, path
