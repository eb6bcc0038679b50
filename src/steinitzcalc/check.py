"""The invariant suites of `steinitzcalc check`.

Each suite prints one PASS or FAIL line per invariant over one field:
`classgroup` (the order against an independent divisor count, the keys,
the composition table and the group laws), `wgroup` (each W verified against
primes by `cyclotomic.w_group`), `exponents` (the integer identities of
`steinitz`) and `rt` (the generic engine against trivial cases, the D_3
oracle and trace replay).  `cli` imports this module only for `check`, so
no other command compiles or loads it.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from . import cyclotomic, grouptree, realizable
from . import steinitz as st
from ._kernels import BACKEND, reduce_form
from .classgroup import QuadField, _in_lattice, compose
from .errors import InternalInvariantError


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


def run(suite: str, disc: int) -> int:
    """Run one suite, or every one for "all", on the field of `disc`; print
    a PASS or FAIL line per check and return the exit code: 4 when any
    check failed, else 0."""
    field = QuadField(disc)
    chk = _Check()
    suites = {
        "classgroup": lambda: _suite_classgroup(chk, field),
        "wgroup": lambda: _suite_wgroup(chk, field),
        "exponents": lambda: _suite_exponents(chk),
        "rt": lambda: _suite_rt(chk, field),
    }
    wanted = suites.keys() if suite == "all" else [suite]
    for name in wanted:
        suites[name]()
    print(f"backend: {BACKEND}; failures: {chk.failures}")
    return 4 if chk.failures else 0
