"""Command-line front end.

Subcommands: classgroup, wgroup, steinitz, exponents, rt, check.  Output is
text by default, JSON with --json (stable key order, so identical invocations
are byte-identical).  Exit codes: 0 ok, 2 inadmissible input, 4 internal
invariant failure (also a `check` suite that prints FAIL).  `wgroup` and
`rt` take each W-group from the genus characters of k
(`cyclotomic.w_norm_character`) and never enumerate primes; `check`
verifies those W-groups against primes (`cyclotomic.w_group`).  The
argument parser is built once per process, so repeated `main` calls (a
benchmark or a batch driver answering many queries in-process) do not
rebuild it, and each query is parsed once, by its subcommand's parser
(`_parse`): the result, the output and the exit code are those of
`build_parser().parse_args`.  Likewise `rt` parses and validates each
distinct group-spec text once (`_tree`).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from gettext import gettext
from math import gcd, isqrt, prod

from . import cyclotomic, grouptree, realizable
from . import steinitz as st
from ._kernels import BACKEND, reduce_form
from .classgroup import QuadField, _in_lattice, compose
from .errors import InadmissibleError, InternalInvariantError


def _structure_label(factors) -> str:
    if not factors:
        return "trivial"
    return " x ".join(f"C{d}" for d in factors)


def _forms_str(forms) -> str:
    return ", ".join(str(f) for f in forms) if forms else "-"


def _emit(payload: dict, text: str, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


# -- subcommands -----------------------------------------------------------------


def _cmd_classgroup(args) -> int:
    cg = QuadField(args.disc).class_group()
    payload = {
        "disc": cg.disc,
        "order": cg.order,
        "invariant_factors": list(cg.invariant_factors),
        "generators": [list(f.as_tuple()) for f in cg.generator_forms],
    }
    text = (
        f"h = {cg.order}, Cl ≅ {_structure_label(cg.invariant_factors)}, "
        f"generators: {_forms_str(cg.generator_forms)}"
    )
    _emit(payload, text, args.json)
    return 0


def _cmd_wgroup(args) -> int:
    field = QuadField(args.disc)
    s = cyclotomic.CycloSubgroup(args.modulus, frozenset(map(_int, args.subgroup.split(","))))
    sub = cyclotomic.w_norm_character(field, s)
    factors, gen_indices = sub.structure()
    gens = [sub.group.form(i) for i in gen_indices]
    payload = {
        "disc": field.disc,
        "modulus": args.modulus,
        "subgroup": s.sorted_members(),
        "order": sub.order,
        "index": sub.index_in_parent,
        "invariant_factors": list(factors),
        "generators": [list(f.as_tuple()) for f in gens],
    }
    text = (
        f"W: order {sub.order} (index {sub.index_in_parent} in Cl), "
        f"invariant factors {_structure_label(factors)}, "
        f"generators: {_forms_str(gens)}"
    )
    _emit(payload, text, args.json)
    return 0


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InadmissibleError(f"bad integer {token!r}") from None


def _parse_ram(spec: str):
    out = []
    for token in spec.split(","):
        parts = token.split(":")  # p:e or p:e:conj
        if len(parts) < 2 or parts[2:] not in ([], ["conj"]):
            raise InadmissibleError(f"bad ramification token {token!r} (want p:e)")
        out.append(st.RamificationDatum(_int(parts[0]), _int(parts[1]), len(parts) == 3))
    return out


def _cmd_steinitz(args) -> int:
    field = QuadField(args.disc)
    ram = _parse_ram(args.ram) if args.ram else []
    cls = st.steinitz_from_ramification(field, ram, args.order)
    payload = {
        "disc": field.disc,
        "order": args.order,
        "ram": [{"p": d.p, "e": d.e, "conjugate": d.conjugate} for d in ram],
        "steinitz_class": list(cls.form.as_tuple()),
        "is_principal": cls.is_principal,
    }
    text = f"st = {cls.form}" + (" (principal)" if cls.is_principal else "")
    _emit(payload, text, args.json)
    return 0


def _cmd_exponents(args) -> int:
    a1, a2, a3 = st.alphas_l(args.l, args.otau, args.n)
    beta = st.beta_l(args.l, args.otau, args.n)
    theo = st.w_exponent(args.l, args.otau, args.m, args.n)
    a3_scaled = a3 * (args.n // args.l)
    payload = {
        "l": args.l,
        "otau": args.otau,
        "m": args.m,
        "n": args.n,
        "alpha_1": a1,
        "alpha_2": a2,
        "alpha_3": a3,
        "alpha_3_times_n_over_l": a3_scaled,
        "beta": beta,
        "w_exponent": theo,
    }
    text = "\n".join(
        [
            f"alpha_(l,1) = {a1}",
            f"alpha_(l,2) = {a2}",
            f"alpha_(l,3) = {a3}  (as displayed; the derivation's discriminant "
            f"carries n/l, giving {a3_scaled})",
            f"beta_l      = {beta}",
            f"W exponent ((l-1)/2)(mn/o) = {theo}",
        ]
    )
    _emit(payload, text, args.json)
    return 0


@lru_cache(maxsize=64)
def _tree(spec_text: str) -> grouptree.GroupTree:
    """The validated group tree of a group-spec file's text.  Trees are
    immutable and hash by value, so a process answering many queries over
    the same spec files parses and validates each once; a spec that fails
    raises and is not cached."""
    return grouptree.tree_from_spec(json.loads(spec_text))


def _cmd_rt(args) -> int:
    field = QuadField(args.disc)
    with open(args.group, "r", encoding="utf-8") as fh:
        tree = _tree(fh.read())
    result = realizable.rt(field, tree)
    sub = result.subgroup
    cg = sub.group
    factors, gen_indices = sub.structure()
    gens = [cg.form(i) for i in gen_indices]
    trace_file = None
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(result.trace, fh, sort_keys=True, indent=1)
        trace_file = args.trace
    payload = {
        "disc": field.disc,
        "class_group": {
            "order": cg.order,
            "invariant_factors": list(cg.invariant_factors),
        },
        "rt": {
            "order": sub.order,
            "invariant_factors": list(factors),
            "generators": [list(f.as_tuple()) for f in gens],
            "index": sub.index_in_parent,
        },
        "trace_file": trace_file,
    }
    if sub.is_full():
        text = "R_t = Cl(k), index 1"
    else:
        text = (
            f"R_t: order {sub.order} of {cg.order} (index {sub.index_in_parent}), "
            f"invariant factors {_structure_label(factors)}, "
            f"generators: {_forms_str(gens)}"
        )
    if trace_file and not args.json:
        text += f"\ntrace written to {trace_file}"
    _emit(payload, text, args.json)
    return 0


# -- bundled invariant suites -------------------------------------------------------


def _count_reduced_forms_divisor_oracle(disc: int) -> int:
    """Independent reduced-form count: iterate b, factor (b*b - disc)/4."""
    count = 0
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if gcd(gcd(a, b), c) == 1:
                    count += 1 if (b == 0 or b == a or a == c) else 2
            a += 1
    return count


class _Check:
    def __init__(self):
        self.failures = 0

    def ok(self, label: str, passed: bool, detail: str = ""):
        tag = "PASS" if passed else "FAIL"
        if not passed:
            self.failures += 1
        line = f"{tag}  {label}"
        if detail:
            line += f"  [{detail}]"
        print(line)
        return passed


def _names_its_form(cg, i: int) -> bool:
    """True when class i's key decodes to a reduced primitive form of
    discriminant D that `index_of` finds at i (a key <= isqrt(|D| // 3)
    would decode to a <= 0)."""
    if cg._keys[i] <= cg._half:
        return False
    f = cg.form(i)
    return f.disc == cg.disc and f.is_primitive and reduce_form(*f) == f and cg.index_of(f) == i


def _suite_classgroup(chk: _Check, field: QuadField):
    cg = field.class_group()
    n = cg.order
    chk.ok(
        f"classgroup: order matches divisor-path oracle (disc {field.disc})",
        field.is_rationals or n == _count_reduced_forms_divisor_oracle(field.disc),
        f"h = {n}",
    )
    keys = cg._keys
    keys_ok = chk.ok(
        "classgroup: keys increase and each decodes to a reduced form that index_of finds",
        field.is_rationals
        or (
            all(x < y for x, y in zip(keys, keys[1:]))
            and all(_names_its_form(cg, i) for i in range(n))
        ),
    )
    # lut[p] has the code of p with digits taken mod d_t: codes is then onto
    # Z/d_1 x ... x Z/d_k and compose_idx adds there, so it is a group law
    codes, lut, moduli, weights = cg._dlog
    chk.ok(
        "classgroup: composition table adds coordinates mod the invariant factors",
        all(
            codes[i] == sum(p // w % (2 * d - 1) % d * w for d, w in zip(moduli, weights))
            for p, i in enumerate(lut)
        ),
    )
    # group laws that agree on each class times each generator agree everywhere
    basis = [cg._at([int(s == t) for s in range(len(moduli))]) for t in range(len(moduli))]
    chk.ok(
        "classgroup: composition matches the form kernel on every class times each basis class",
        field.is_rationals
        or (
            keys_ok  # forms are read and looked up through the keys
            and all(
                cg.compose_idx(i, b) == cg.index_of(compose(cg.forms[i], cg.forms[b]))
                for i in range(n)
                for b in basis
            )
        ),
    )
    chk.ok(
        "classgroup: identity and inverses",
        all(cg.compose_idx(cg.principal_index, i) == i for i in range(n))
        and all(
            cg.compose_idx(i, cg.inverse_idx(i)) == cg.principal_index for i in range(n)
        ),
    )
    chk.ok(
        "classgroup: invariant factors multiply to h",
        prod(cg.invariant_factors) == n,
    )


def _suite_wgroup(chk: _Check, field: QuadField):
    targets = [cyclotomic.CycloSubgroup(1, frozenset([0]))] + [
        s
        for m in (3, 4, 5, 8)
        for s in (cyclotomic.CycloSubgroup(m, frozenset([1])), cyclotomic.galois_group(field, m))
    ]
    w_k, w_one3, w_gal3 = (cyclotomic.w_norm_character(field, s) for s in targets[:3])
    chk.ok("wgroup: W(k, k) is the full class group", w_k.is_full())
    chk.ok("wgroup: monotone in the Frobenius target", w_one3.members <= w_gal3.members)
    # each target is verified once; a failure is its own FAIL line
    bounds = []
    for s in targets:
        try:
            bounds.append(cyclotomic.w_group(field, s).certificate.final_bound)
        except InternalInvariantError as exc:
            chk.ok(f"wgroup: primes verify W for S = {s}", False, str(exc))
    if len(bounds) == len(targets):
        chk.ok(
            f"wgroup: soundness: the class of every qualifying prime below SOUNDNESS_BOUND "
            f"= {cyclotomic.SOUNDNESS_BOUND} lies in W, for W(k, k) and S = {{1}} and Gal, "
            "m = 3, 4, 5, 8",
            True,
        )
        chk.ok(
            "wgroup: completeness: those classes span each W",
            True,
            f"primes scanned below {max(bounds)}",
        )


def _suite_exponents(chk: _Check):
    ok = True
    for m in range(2, 401):
        for e in range(2, m + 1):
            if m % e == 0:
                _, divides = st.exponent_gcd(e, m)
                ok = ok and divides
    chk.ok("exponents: gcd of (l-1)m/e_(l) divides (e-1)m/e for m <= 400", ok)
    ok = True
    for l in (3, 5, 7, 11, 13):
        o = l
        while o <= 100:
            for n in range(o, 2001, 2 * o):
                ok = ok and st.beta_l(l, o, n) >= 1
            o *= l
    chk.ok("exponents: beta two/three-term forms agree on the sample", ok)
    chk.ok(
        "exponents: discriminant exponent is even for odd degrees",
        all(
            st.discriminant_exponent(e, n) % 2 == 0
            for n in range(3, 200, 2)
            for e in range(1, n + 1)
            if n % e == 0
        ),
    )


def _suite_rt(chk: _Check, field: QuadField):
    res_c2 = realizable.rt(field, grouptree.leaf(2))
    chk.ok("rt: R_t(k, C(2)) equals Cl(k)", res_c2.subgroup.is_full())
    h3 = grouptree.AbelianGroup((3,))
    leaf3 = grouptree.AbelianLeaf(h3)
    trivial = grouptree.AbelianLeaf(grouptree.AbelianGroup(()))
    semi = grouptree.semidirect(h3, trivial, grouptree.trivial_action(h3, trivial))
    chk.ok(
        "rt: abelian leaf agrees with trivial semidirect",
        realizable.rt(field, leaf3).subgroup == realizable.rt(field, semi).subgroup,
    )
    d3_generic = realizable.rt(field, grouptree.dihedral_tree(3))
    d3_direct = realizable.rt_dihedral(field, 3)
    chk.ok(
        "rt: dihedral closed path agrees with the generic engine",
        d3_generic.subgroup == d3_direct.subgroup,
    )
    replayed = realizable.rt_trace_replay(d3_generic)
    chk.ok("rt: trace replay reproduces the subgroup", replayed == d3_generic.subgroup)
    # |R| distinct members inside the lattice: R is the lattice, a subgroup
    sub = d3_generic.subgroup
    closed = len(sub.members) == sub.order and all(
        _in_lattice(sub.hnf, sub.group._coords(i)) for i in sub.members
    )
    chk.ok("rt: result subgroup is closed", closed)


def _cmd_check(args) -> int:
    field = QuadField(args.disc)
    chk = _Check()
    suites = {
        "classgroup": lambda: _suite_classgroup(chk, field),
        "wgroup": lambda: _suite_wgroup(chk, field),
        "exponents": lambda: _suite_exponents(chk),
        "rt": lambda: _suite_rt(chk, field),
    }
    wanted = suites.keys() if args.suite == "all" else [args.suite]
    for name in wanted:
        suites[name]()
    print(f"backend: {BACKEND}; failures: {chk.failures}")
    return 4 if chk.failures else 0


# -- argument parsing -----------------------------------------------------------------


def _add_disc(p):
    p.add_argument(
        "--disc",
        type=int,
        required=True,
        help="fundamental discriminant < 0, or 0 for Q",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinitzcalc",
        description=(
            "Realizable Steinitz classes of tame Galois extensions over Q "
            "and imaginary quadratic fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classgroup", help="class group of a discriminant")
    _add_disc(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classgroup)

    p = sub.add_parser("wgroup", help="W-group of a cyclotomic Frobenius target")
    _add_disc(p)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument(
        "--subgroup",
        type=str,
        required=True,
        help="comma-separated member residues of the Frobenius subgroup",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_wgroup)

    p = sub.add_parser("steinitz", help="Steinitz class from ramification data")
    _add_disc(p)
    p.add_argument("--ram", type=str, default="", help="p1:e1,p2:e2[,p:e:conj]")
    p.add_argument("--order", type=int, required=True, help="extension degree N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_steinitz)

    p = sub.add_parser("exponents", help="construction exponents and beta")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--otau", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("rt", help="realizable Steinitz classes of a group tree")
    _add_disc(p)
    p.add_argument("--group", type=str, required=True, help="group spec JSON file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--trace", type=str, default=None, help="write trace JSON here")
    p.set_defaults(func=_cmd_rt)

    p = sub.add_parser("check", help="run the bundled invariant suites")
    p.add_argument("--suite", choices=["all", "classgroup", "wgroup", "exponents", "rt"],
                   default="all")
    p.add_argument("--disc", type=int, default=-23)
    p.set_defaults(func=_cmd_check)

    return parser


@lru_cache(maxsize=1)
def _parser():
    """(top-level parser, {subcommand name: its parser}), built once."""
    parser = build_parser()
    (commands,) = [
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return parser, commands


def _parse(argv) -> argparse.Namespace:
    """The Namespace `build_parser().parse_args(argv)` returns, parsed by the
    subcommand's parser alone.  The top-level pass would only pick the
    subcommand and hand it the rest, then report what that parser left
    over; argv that names no subcommand goes to the top-level parser, which
    ends in help or a usage error."""
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except InadmissibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # e.g. a --group path that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: unreadable group spec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
