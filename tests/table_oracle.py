"""Multiplication tables of group trees and a solvable-A-group verifier.

The verifier works on a bare multiplication table, through the group law
alone, so it shares no code with the tree arithmetic it checks: every tree
the package can build must be a solvable group whose Sylow subgroups are
all abelian (an A-group).
"""

from random import Random

from steinitzcalc import grouptree as gt
from steinitzcalc.errors import InadmissibleError, InternalInvariantError
from steinitzcalc.grouptree import _l_part, _prime_factors

_FULL_ASSOC_CAP = 300


def _is_l_power(n: int, l: int) -> bool:
    return _l_part(n, l) == n


def to_multiplication_table(tree, cap: int = None):
    """Full multiplication table over the canonical element order of
    `gt.elements`."""
    cap = gt.ENUMERATION_CAP if cap is None else cap
    n = gt.order(tree)
    if n > cap:
        raise InadmissibleError(f"order {n} exceeds enumeration cap {cap}")
    els = list(gt.elements(tree))
    idx = {el: i for i, el in enumerate(els)}
    return [[idx[gt.multiply(tree, a, b)] for b in els] for a in els]


def _closure(table, seed):
    members = set(seed)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for y in list(members):
            for z in (table[x][y], table[y][x]):
                if z not in members:
                    members.add(z)
                    frontier.append(z)
    return members


def is_solvable_a_group(table) -> bool:
    """Check a multiplication table for: being a group, being solvable, and
    having all Sylow subgroups abelian.

    Group axioms are verified first (identity, inverses, Latin square;
    associativity in full up to order 300, deterministically sampled beyond)
    and failures raise.  Solvability uses the derived series; each Sylow
    subgroup is grown greedily from elements of prime-power order.
    """
    n = len(table)
    if n == 0 or any(len(row) != n for row in table):
        raise InadmissibleError("table is not square")
    rng = range(n)
    if any(x not in rng for row in table for x in row):
        raise InadmissibleError("table entries out of range")

    ident = None
    for e in rng:
        if all(table[e][j] == j and table[j][e] == j for j in rng):
            ident = e
            break
    if ident is None:
        raise InadmissibleError("table has no identity")

    inv = [None] * n
    for i in rng:
        for j in rng:
            if table[i][j] == ident and table[j][i] == ident:
                inv[i] = j
                break
        if inv[i] is None:
            raise InadmissibleError(f"element {i} has no inverse")

    for row in table:
        if len(set(row)) != n:
            raise InadmissibleError("table rows are not permutations")
    for j in rng:
        if len({table[i][j] for i in rng}) != n:
            raise InadmissibleError("table columns are not permutations")

    if n <= _FULL_ASSOC_CAP:
        triples = ((a, b, c) for a in rng for b in rng for c in rng)
    else:
        r = Random(0)
        triples = (
            (r.randrange(n), r.randrange(n), r.randrange(n)) for _ in range(50 * n)
        )
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise InadmissibleError(f"associativity fails at ({a},{b},{c})")

    # derived series
    cur = set(rng)
    while True:
        comms = {
            table[table[a][b]][table[inv[a]][inv[b]]] for a in cur for b in cur
        }
        new = _closure(table, comms | {ident})
        if new == {ident}:
            break
        if new == cur:
            return False
        cur = new

    # Sylow subgroups, grown greedily; a maximal l-subgroup is an l-Sylow
    for l in _prime_factors(n):
        target = _l_part(n, l)
        l_els = [x for x in rng if _is_l_power(_order_in_table(table, ident, x), l)]
        sylow = {ident}
        while len(sylow) < target:
            for y in l_els:
                if y in sylow:
                    continue
                grown = _closure(table, sylow | {y})
                if _is_l_power(len(grown), l):
                    sylow = grown
                    break
            else:
                raise InternalInvariantError(
                    f"could not grow an {l}-Sylow subgroup past {len(sylow)}"
                )
        if any(table[a][b] != table[b][a] for a in sylow for b in sylow):
            return False
    return True


def _order_in_table(table, ident, x) -> int:
    cur, o = x, 1
    while cur != ident:
        cur = table[cur][x]
        o += 1
    return o
