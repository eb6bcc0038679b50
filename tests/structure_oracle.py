"""The callback-driven abelian-structure extractor, the coset closure, and
the member-set subgroup constructor.

`ClassGroup._structure_of` computes invariant factors and generators in
discrete-log coordinates; these routines compute them on opaque indices
through the group law alone, with the same choice rule, so they serve as
its oracle and as the oracle for the lattice operations of `ClassSubgroup`.
`subgroup_from_members` builds a `ClassSubgroup` from a member set and
proves the set is a subgroup.
"""

from math import prod

from steinitzcalc.classgroup import ClassSubgroup, _grow
from steinitzcalc.errors import InadmissibleError, InternalInvariantError
from steinitzcalc.grouptree import _prime_factors


def subgroup_from_members(cg, members) -> ClassSubgroup:
    """The subgroup of `cg` whose member indices are `members`, proved to be
    one.

    One scan of the sorted members grows the lattice by each member it does
    not contain yet (`_grow`), and those members become the generators: the
    choice `cyclotomic.w_norm_character` makes.  The set is a subgroup
    exactly when it has as many members as the lattice and they are the
    lattice's members; otherwise InadmissibleError is raised."""
    members = frozenset(members)
    if cg.principal_index not in members:
        raise InadmissibleError("subgroup must contain the principal class")
    hnf, gens = _grow(cg, cg._trivial_hnf, sorted(members), len(members))
    sub = ClassSubgroup(cg, hnf, gens)
    if sub.order != len(members) or sub.members != members:
        raise InadmissibleError("member set is not a subgroup")
    return sub


def _close(mul, members, gens):
    """(closure, grown): the subgroup generated by the subgroup `members` and
    the generators `gens` under the group law `mul`, and the generators that
    enlarged it.

    The parent is abelian, so the closure over g is the union of the cosets
    S*g^k, added one coset at a time until the next one is already in.
    Class subgroups are lattices (`_hnf`); this closure grows the span in
    `_l_group_basis` and is the tests' independent oracle for the lattice
    operations."""
    out = set(members)
    grown = []
    for g in gens:
        if g in out:
            continue
        grown.append(g)
        coset = {mul(x, g) for x in out}
        while not coset <= out:
            out |= coset
            coset = {mul(x, g) for x in coset}
    return frozenset(out), grown


def _abelian_structure(h, sylows, mul, pow_fn, identity, order_fn, spans):
    """Invariant factors and matching generators of a finite abelian group
    of order h.

    `sylows[l]` lists the Sylow l-subgroup's member indices for each prime
    l | h (for a class group, `ClassGroup._sylow(hnf, l)` lists the points
    of the subgroup's Sylow lattice); `mul`, `pow_fn`, `order_fn` operate on
    indices, and `spans(gens)` says whether `gens` generate the whole group
    (for a class subgroup: their lattice is its lattice).
    Works prime by prime: a basis of each Sylow subgroup is found by
    repeatedly taking an element of maximal order in the quotient by the span
    so far and lifting it through its coset to an element of that exact
    order (such a lift exists because the span is a direct summand at every
    step).  The per-prime bases are then merged into an invariant-factor
    chain, largest factor first.
    """
    if h == 1:
        return (), ()
    per_prime = []  # (l, [(order, generator_index), ...] descending)
    for l in _prime_factors(h):
        per_prime.append((l, _l_group_basis(sylows[l], l, mul, pow_fn, identity, order_fn)))

    width = max(len(basis) for _, basis in per_prime)
    factors, gens = [], []
    for i in range(width):
        d, g = 1, identity
        for l, basis in per_prime:
            if i < len(basis):
                o, x = basis[i]
                d *= o
                g = mul(g, x)
        factors.append(d)
        gens.append(g)

    # the generators must span the group, each element exactly once
    if prod(factors) != h or not spans(gens):
        raise InternalInvariantError("abelian structure generators do not span")
    return tuple(factors), tuple(gens)


def _l_group_basis(sylow, l, mul, pow_fn, identity, order_fn):
    """Basis [(order, index), ...] of an abelian l-group, orders descending."""
    sylow = sorted(sylow)
    span = {identity}
    basis = []
    while len(span) < len(sylow):
        best_x, best_q = None, 0
        for x in sylow:
            if x in span:
                continue
            q, y = 1, x
            while y not in span:
                y = pow_fn(y, l)
                q *= l
            if q > best_q:
                best_q, best_x = q, x
        lifted = None
        for s in sorted(span):
            y = mul(best_x, s)
            if order_fn(y) == best_q:
                lifted = y
                break
        if lifted is None:
            raise InternalInvariantError("no exact-order lift in coset")
        basis.append((best_q, lifted))
        span, _ = _close(mul, span, [lifted])
    return basis
