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

from . import cyclotomic, grouptree, realizable
from . import steinitz as st
from .classgroup import QuadField
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
    raises and is not cached.  JSON nested past the decoder's recursion
    limit is inadmissible, as is a tree past `grouptree.MAX_TREE_DEPTH`."""
    try:
        obj = json.loads(spec_text)
    except RecursionError:
        raise InadmissibleError("unreadable group spec: nested too deeply to decode") from None
    return grouptree.tree_from_spec(obj)


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


def _cmd_check(args) -> int:
    from . import check  # only `check` loads its suites

    return check.run(args.suite, args.disc)


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
