"""Recursive computation of the realizable Steinitz classes R_t(k, G).

For the supported trees the recursion is

  R_t(k, C(2))           = Cl(k)
  R_t(k, H) (|H| odd)    = prod over primes l | n, tau in H(l)\\{1} of
                           W(k, k(zeta_o(tau)))^(((l-1)/2) n/o(tau))
  R_t(k, H x| G)         = R_t(k, G)^n * prod over l, tau of
                           W(k, E_tau)^(((l-1)/2) m n/o(tau))
  R_t(k, G1 x G2)        = R_t(k, G1)^n2 * R_t(k, G2)^n1

where E_tau is the fixed field of the exponents of tau realized by the
action, powers of a subgroup mean images under x -> x^e, and W-groups come
from the genus characters of k (`cyclotomic.w_norm_character`), with no
prime enumeration, kept in the class group until `class_group.cache_clear()`.
A node's W targets (each tau's Frobenius subgroup from `g_k_mu_tau` and its
exponent, grouped by equal target and exponent) depend on the field only
through the Galois groups of the moduli o(tau), the prime powers dividing
the exponent of H; they are derived once per (node, Galois groups) and kept
in a bounded module-level cache that holds no class group (`clear_caches`).
A subgroup times itself is itself, so each distinct W(k, E)^exp is folded
once with its tau count; traces keep `"dedupe": true`, which replay ignores.
The engine accepts exactly the tree shapes the underlying theorems cover
(structural gate): abelian leaves of odd order or exactly C(2), semidirect
nodes with odd kernel of coprime order, direct nodes under the parity rule;
and no node's tau work |H|*|G| may exceed MAX_TAU_WORK.

Every run records a replayable trace: per node, the formula instance, the
W targets with their generators, and the resulting subgroup.  The run
keeps the group tree, each node's subgroup and each W factor's raw fold
(`_WFold`); `RtResult.trace` turns them into the tree's spec, the member
forms and the W entries on first access, so a query that writes no trace
never enumerates members or formats a W entry.
`rt_trace_replay` re-evaluates a trace bottom-up from the recorded
generators and raises on any mismatch; it reads version-1 traces (which
also carry the prime bounds of the old enumeration) as well.

`rt_dihedral` is a deliberately separate code path for D_n (odd n) used as a
cross-check oracle for the generic engine: each of its W-groups is verified
against primes (`cyclotomic.w_group`).
"""

from __future__ import annotations

from collections import Counter, OrderedDict, namedtuple
from functools import cached_property

from . import cyclotomic, grouptree
from .classgroup import ClassSubgroup, QuadField, QuadForm, class_group, subgroup_generate
from .errors import InadmissibleError, TraceMismatchError
from .grouptree import _prime_factors
from .steinitz import w_exponent
from .steinitz import membership_exponents  # unused: rtbench/tracer.py wraps this name

_TRACE_VERSION = 2

# The largest |H|*|G| of a node (|G| = 1 for a leaf): each tau in H costs an
# order and, under an action, a Frobenius target and a walk over G.  Cold
# `rt` at D = -23 (pure Python, 2-vCPU VM) answers C(3)^10 (59049) in 0.4 s
# and C(7)^5 x| C(3) (50421) in 0.8 s; C(3)^11 took 1.4 s and 74 MB,
# C(7)^6 x| C(3) 6.2 s, and time and memory grow linearly beyond.
MAX_TAU_WORK = 60_000


def _check_tau_work(h: grouptree.AbelianGroup, g_order: int):
    work = h.order * g_order
    if work > MAX_TAU_WORK:
        raise InadmissibleError(
            f"node with |H| = {h.order} and |G| = {g_order}: |H|*|G| = {work} "
            f"exceeds the cap {MAX_TAU_WORK}"
        )


def check_admissible(tree: grouptree.GroupTree):
    """Reject trees outside the supported family, with a reason, and nodes
    whose tau work |H|*|G| is above MAX_TAU_WORK."""
    if isinstance(tree, grouptree.AbelianLeaf):
        if tree.group.order % 2 == 1:
            _check_tau_work(tree.group, 1)
            return
        if tree.group.invariant_factors == (2,):
            return
        raise InadmissibleError(
            f"abelian leaf {tree.group} is inadmissible: even leaves other "
            "than C(2) are outside the supported family"
        )
    if isinstance(tree, grouptree.Semidirect):
        # oddness and coprimality are construction invariants; recurse
        _check_tau_work(tree.h, grouptree.order(tree.g))
        check_admissible(tree.g)
        return
    if isinstance(tree, grouptree.Direct):
        check_admissible(tree.left)
        check_admissible(tree.right)
        return
    raise InadmissibleError(f"not a group tree: {tree!r}")


class RtResult:
    """R_t(k, G) as a ClassSubgroup, with its replayable trace.

    The run records the trace with the group tree where its spec goes,
    each node's subgroup where its "members" list goes and a `_WFold` where
    each W entry goes; `trace` replaces them by the spec, the sorted member
    forms and the W entries on first access and keeps the result."""

    def __init__(self, subgroup: ClassSubgroup, record: dict):
        self.subgroup = subgroup
        self._record = record

    @cached_property
    def trace(self) -> dict:
        return _listed(self._record)


def _listed(record):
    """`record` with every ClassSubgroup in it replaced by its member forms,
    every group tree by its spec and every `_WFold` by its W entry."""
    if isinstance(record, ClassSubgroup):
        return _forms(record)
    if isinstance(record, grouptree.GroupTree):
        return grouptree.tree_to_spec(record)
    if isinstance(record, _WFold):
        return _w_entry(*record)
    if isinstance(record, dict):
        return {key: _listed(value) for key, value in record.items()}
    if isinstance(record, list):
        return [_listed(value) for value in record]
    return record


class _Engine:
    def __init__(self, field: QuadField):
        self.field = field
        self.cg = class_group(field.disc)

    # -- recursion -------------------------------------------------------------

    def run(self, tree):
        if isinstance(tree, grouptree.AbelianLeaf):
            return self._leaf(tree)
        if isinstance(tree, grouptree.Semidirect):
            return self._semidirect(tree)
        if isinstance(tree, grouptree.Direct):
            return self._direct(tree)
        raise InadmissibleError(f"not a group tree: {tree!r}")

    def _leaf(self, tree):
        h = tree.group
        if h.invariant_factors == (2,):
            sub = self.cg.full_subgroup()
            trace = {
                "kind": "c2-leaf",
                "order": 2,
                "members": sub,
            }
            return sub, trace
        sub = self.cg.trivial_subgroup()
        sub, w_entries = self._apply_w_product(sub, h, mu=None, m=1)
        trace = {
            "kind": "abelian-leaf",
            "order": h.order,
            "invariant_factors": list(h.invariant_factors),
            "w_factors": w_entries,
            "members": sub,
        }
        return sub, trace

    def _semidirect(self, tree):
        base_sub, base_trace = self.run(tree.g)
        n = tree.h.order
        m = grouptree.order(tree.g)
        sub = base_sub.power(n)
        sub, w_entries = self._apply_w_product(sub, tree.h, tree.mu, m)
        trace = {
            "kind": "semidirect",
            "order": n * m,
            "kernel_order": n,
            "base": {"power": n, "trace": base_trace},
            "w_factors": w_entries,
            "members": sub,
        }
        return sub, trace

    def _direct(self, tree):
        left_sub, left_trace = self.run(tree.left)
        right_sub, right_trace = self.run(tree.right)
        nl, nr = grouptree.order(tree.left), grouptree.order(tree.right)
        sub = left_sub.power(nr).product(right_sub.power(nl))
        trace = {
            "kind": "direct",
            "order": nl * nr,
            "left": {"power": nr, "trace": left_trace},
            "right": {"power": nl, "trace": right_trace},
            "members": sub,
        }
        return sub, trace

    def _apply_w_product(self, sub, h, mu, m):
        """Fold the W(k, E_tau)^exp factors over tau in H(l)\\{1} into sub."""
        entries = []
        for s, exp, count in _node_folds(self.field, h, mu, m):
            w_sub = cyclotomic.w_norm_character(self.field, s)
            sub = sub.product(w_sub.power(exp))
            entries.append(_WFold(s, exp, count, w_sub))
        return sub, entries


# -- W targets of a node, derived once per node and Galois group -----------------

# Bound of the module-level cache below; its keys hold group-tree parts and
# subgroups of (Z/mZ)*, never a class group, so `class_group.cache_clear()`
# still frees everything that belongs to a field.
_FOLD_CACHE_SIZE = 1024
_fold_cache = OrderedDict()


def _node_folds(field, h, mu, m):
    """The node's W factors over `field` as (s, exponent, tau count): the
    Frobenius target s of each tau != 1 in the Sylow parts of h, l by l in
    canonical order (the realized exponents inside Gal(k(zeta_o)/k), so
    s.modulus = o(tau); {1} in a leaf, where mu is None), grouped with its
    W exponent in a node whose acting group has order m.  The field enters
    only through the Galois groups of the moduli o(tau), the l^j dividing
    h's exponent, so the list is cached under (node, those groups) and
    fields with the same Galois groups share it."""
    exponent = max(h.invariant_factors, default=1)
    moduli = []
    for l in _prime_factors(exponent):
        o = l
        while exponent % o == 0:
            moduli.append(o)
            o *= l
    gals = tuple(cyclotomic.galois_group(field, o) for o in sorted(moduli))
    key = (h, mu, m, gals)
    folds = _fold_cache.get(key)
    if folds is not None:
        _fold_cache.move_to_end(key)
        return folds
    n = h.order
    # a leaf's target is {1} mod o(tau): one per modulus, shared by its taus
    ones = {o: cyclotomic.CycloSubgroup(o, frozenset([1])) for o in moduli}
    contributions = Counter()
    for l in _prime_factors(n):
        for tau in h.sylow_part(l):
            o = h.element_order(tau)
            if o == 1:
                continue
            s = ones[o] if mu is None else cyclotomic.g_k_mu_tau(field, mu, tau)
            contributions[s, w_exponent(l, o, m, n)] += 1
    folds = tuple((s, exp, count) for (s, exp), count in contributions.items())
    _fold_cache[key] = folds
    if len(_fold_cache) > _FOLD_CACHE_SIZE:
        _fold_cache.popitem(last=False)
    return folds


def clear_caches():
    """Drop every cached W target and Galois group; answers do not depend
    on them."""
    _fold_cache.clear()
    cyclotomic._kronecker_kernel.cache_clear()
    cyclotomic.unit_group.cache_clear()


# One W(k, E)^exp factor folded into a node, as the run keeps it for the trace.
_WFold = namedtuple("_WFold", "s exp tau_count w_sub")


def _w_entry(s, exp, tau_count, w_sub) -> dict:
    """Trace record of one W(k, E)^exp factor folded into a node."""
    return {
        "modulus": s.modulus,
        "frobenius_subgroup": s.sorted_members(),
        "exponent": exp,
        "tau_count": tau_count,
        "order_tau": s.modulus,
        "w_generators": [list(w_sub.group.form(i)) for i in w_sub.generators],
    }


def _forms(sub: ClassSubgroup):
    return [list(f) for f in sub.member_forms()]


def rt(field: QuadField, tree: grouptree.GroupTree) -> RtResult:
    """R_t(k, G) for an admissible group tree over the given field."""
    check_admissible(tree)
    sub, node_trace = _Engine(field).run(tree)
    record = {
        "version": _TRACE_VERSION,
        "disc": field.disc,
        "group": tree,
        "dedupe": True,
        "node": node_trace,
    }
    return RtResult(sub, record)


def rt_dihedral(field: QuadField, n: int) -> RtResult:
    """R_t(k, D_n) for odd n, computed without the generic recursion.

    Folds Cl(k)^n with W(k, E)^((l-1) n / o) where E is the fixed field of
    {+-1} inside Gal(k(zeta_o)/k), for each prime power o = l, l^2, ...
    dividing n.  Serves as an independent oracle for `rt` on dihedral trees:
    its targets are built here, not by `g_k_mu_tau`, and each W-group is
    verified against primes.
    """
    if n < 3 or n % 2 == 0:
        raise InadmissibleError(f"dihedral path wants odd n >= 3, got {n}")
    cg = class_group(field.disc)
    sub = cg.full_subgroup().power(n)
    entries = []
    for l in _prime_factors(n):
        o = l
        while n % o == 0:
            gal = cyclotomic.galois_group(field, o)
            members = frozenset(a for a in gal.members if a % o in {1 % o, (o - 1) % o})
            s = cyclotomic.CycloSubgroup(o, members)
            exp = (l - 1) * (n // o)
            w_sub = cyclotomic.w_group(field, s).subgroup
            sub = sub.product(w_sub.power(exp))
            # tau_count: the phi(o) = o - o/l elements of order o in C(n)
            entries.append(_WFold(s, exp, o - o // l, w_sub))
            o *= l
    node = {
        "kind": "dihedral",
        "order": 2 * n,
        "rotation_order": n,
        "w_factors": entries,
        "members": sub,
    }
    record = {
        "version": _TRACE_VERSION,
        "disc": field.disc,
        "group": {"kind": "dihedral", "n": n},
        "dedupe": True,
        "node": node,
    }
    return RtResult(sub, record)


# -- trace replay ---------------------------------------------------------------


def rt_trace_replay(result) -> ClassSubgroup:
    """Re-evaluate a recorded trace from its stored W generators.

    Accepts an RtResult or a bare trace dict.  Raises TraceMismatchError if
    any node's recomputed subgroup differs from the recorded one, or if the
    trace is structurally corrupt."""
    trace = result.trace if isinstance(result, RtResult) else result
    try:
        cg = class_group(trace["disc"])
        node = trace["node"]
    except (KeyError, TypeError, InadmissibleError) as exc:
        raise TraceMismatchError(f"corrupt trace: {exc}") from exc
    sub = _replay_node(cg, node)
    if isinstance(result, RtResult) and sub != result.subgroup:
        raise TraceMismatchError("replayed subgroup differs from the stored result")
    return sub


def _replay_node(cg, node) -> ClassSubgroup:
    try:
        kind = node["kind"]
        if kind == "c2-leaf":
            sub = cg.full_subgroup()
        elif kind in ("abelian-leaf", "dihedral"):
            sub = (
                cg.full_subgroup().power(node["rotation_order"])
                if kind == "dihedral"
                else cg.trivial_subgroup()
            )
            sub = _replay_w(cg, sub, node["w_factors"])
        elif kind == "semidirect":
            base = _replay_node(cg, node["base"]["trace"])
            sub = base.power(node["base"]["power"])
            sub = _replay_w(cg, sub, node["w_factors"])
        elif kind == "direct":
            left = _replay_node(cg, node["left"]["trace"])
            right = _replay_node(cg, node["right"]["trace"])
            sub = left.power(node["left"]["power"]).product(
                right.power(node["right"]["power"])
            )
        else:
            raise TraceMismatchError(f"corrupt trace: unknown node kind {kind!r}")
        recorded = sorted(tuple(f) for f in node["members"])
    except (KeyError, TypeError, IndexError, InadmissibleError) as exc:
        # InadmissibleError: a recorded form, exponent or power that the
        # class group rejects, such as a form of another discriminant
        raise TraceMismatchError(f"corrupt trace: {exc}") from exc
    if [f.as_tuple() for f in sub.member_forms()] != recorded:
        raise TraceMismatchError(
            f"replay mismatch at {node.get('kind')}: recomputed "
            f"{[str(f) for f in sub.member_forms()]}, recorded {recorded}"
        )
    return sub


def _replay_w(cg, sub, w_factors) -> ClassSubgroup:
    for entry in w_factors:
        gens = [cg.class_of(QuadForm(*f)) for f in entry["w_generators"]]
        w_sub = subgroup_generate(cg, gens)
        sub = sub.product(w_sub.power(entry["exponent"]))
    return sub
