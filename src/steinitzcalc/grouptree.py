"""Structure trees for the supported solvable groups.

A tree is built from abelian leaves (invariant factors, largest first, with a
divisibility chain), semidirect nodes H x| G (H abelian of odd order coprime
to |G|, with an explicit action of G on H) and direct-product nodes.  All
types are immutable after construction; every operation is pure.

Actions are accepted on any generating set of the acting group and completed
by breadth-first closure with consistency checking; matrices are r x r over
the integers, column j giving the exponent vector of the image of the j-th
generator of H.

Elements are AbElements, paired for semidirect and direct nodes, and never
indices.  `elements` lists a tree's elements in one canonical order
(mixed-radix over coordinates, leaves first, left to right), and
`flatten_element` / `unflatten_element` convert an element to and from the
flat integer coordinates of the spec format.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm
from operator import attrgetter

from .errors import InadmissibleError

ENUMERATION_CAP = 100_000
# The most nodes on a path from the root of a group spec to a leaf.  Trees
# are walked recursively, a few frames a level when an answer's
# trace is written or replayed, so a cap far below the interpreter's
# recursion limit keeps every deeper spec an input error, not a crash.
MAX_TREE_DEPTH = 100


# -- immutable value classes ----------------------------------------------------

# Sets a field of a Value, past its refusing __setattr__; only __init__ calls it.
_set = object.__setattr__


class Value:
    """Base of the package's immutable value classes.

    A subclass names its fields in `__slots__`, in constructor order, and its
    `__init__` sets each once with `_set`.  Instances are equal when they
    have the same class and equal fields, hash as the tuple of their fields,
    print as `Name(field=value, ...)` and refuse assignment.  The hash is
    computed on first use and kept: trees, actions and Frobenius targets
    are cache keys, while most values built for a query are never hashed.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            # the fields, read in C: equality runs on every cache-key match
            cls._fields = attrgetter(*cls.__slots__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # not hashed yet
            _set(self, "_hash", hash(self._values()))
            return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


# -- integer helpers, also used by classgroup, steinitz and realizable ----------


def _l_part(n: int, l: int) -> int:
    """Largest power of l dividing n."""
    if n < 1:
        raise InadmissibleError(f"positive integer wanted, got {n}")
    out = 1
    while n % l == 0:
        n //= l
        out *= l
    return out


def _prime_factors(n: int):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# Largest integer `_is_prime` tests: trial division to its square root takes
# under a second, and a larger one is rejected rather than left to run.
PRIME_TEST_CAP = 10**14


def _is_prime(n: int) -> bool:
    """Whether n is a prime, by trial division; n above PRIME_TEST_CAP is
    inadmissible."""
    if n > PRIME_TEST_CAP:
        raise InadmissibleError(
            f"{n} exceeds {PRIME_TEST_CAP}, the largest integer tested for primality"
        )
    return _prime_factors(n) == [n]


# -- abelian groups and their elements ----------------------------------------


class AbElement(Value):
    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        _set(self, "coords", coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class AbelianGroup(Value):
    """C(n_1) x ... x C(n_r) with n_{i+1} | n_i, each n_i >= 2."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple):
        fac = tuple(int(n) for n in invariant_factors)
        # empty factor list encodes the trivial group
        for n in fac:
            if n < 2:
                raise InadmissibleError(f"invariant factor {n} < 2")
        for a, b in zip(fac, fac[1:]):
            if a % b:
                raise InadmissibleError(
                    f"invariant factors {fac} violate the divisibility chain"
                )
        _set(self, "invariant_factors", fac)

    @property
    def order(self) -> int:
        out = 1
        for n in self.invariant_factors:
            out *= n
        return out

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def element(self, coords) -> AbElement:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise InadmissibleError(
                f"want {self.rank} coordinates, got {len(coords)}"
            )
        return AbElement(tuple(c % n for c, n in zip(coords, self.invariant_factors)))

    @property
    def identity(self) -> AbElement:
        return AbElement((0,) * self.rank)

    def add(self, a: AbElement, b: AbElement) -> AbElement:
        return AbElement(
            tuple((x + y) % n for x, y, n in zip(a.coords, b.coords, self.invariant_factors))
        )

    def elements(self):
        for coords in product(*(range(n) for n in self.invariant_factors)):
            yield AbElement(coords)

    def element_order(self, a: AbElement) -> int:
        return lcm(*(n // gcd(n, c) for c, n in zip(a.coords, self.invariant_factors)))

    def sylow_part(self, l: int):
        """All elements of the l-Sylow subgroup H(l), in canonical order."""
        if self.order % l:
            raise InadmissibleError(f"{l} does not divide |H| = {self.order}")
        axes = []
        for n in self.invariant_factors:
            nl = _l_part(n, l)
            stride = n // nl
            axes.append([k * stride for k in range(nl)])
        return [AbElement(coords) for coords in product(*axes)]

    def __str__(self):
        if not self.invariant_factors:
            return "C(1)"
        return " x ".join(f"C({n})" for n in self.invariant_factors)


# -- actions -------------------------------------------------------------------


def _canonical_matrix(matrix, factors):
    return tuple(
        tuple(int(x) % n for x in row) for row, n in zip(matrix, factors)
    )


def _mat_apply(matrix, coords, factors):
    return tuple(
        sum(m * c for m, c in zip(row, coords)) % n
        for row, n in zip(matrix, factors)
    )


def _mat_mul(m1, m2, factors):
    r = len(factors)
    return tuple(
        tuple(sum(m1[i][k] * m2[k][j] for k in range(r)) % factors[i] for j in range(r))
        for i in range(r)
    )


def _det(matrix) -> int:
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


class Action:
    """A finished action table: every element of the acting tree mapped to an
    automorphism matrix of H.  Build with `validate_action`."""

    def __init__(self, h: AbelianGroup, g_tree: "GroupTree", table: dict):
        self.h = h
        self.g_tree = g_tree
        self._table = table
        self._items = tuple(sorted(table.items(), key=lambda kv: str(kv[0])))
        # the table is immutable: hash it once, not on every cache lookup
        self._hash = hash((h, g_tree, self._items))

    def matrix(self, g_el):
        try:
            return self._table[g_el]
        except KeyError:
            raise InadmissibleError(f"element {g_el} is not in the action table")

    def apply(self, g_el, a: AbElement) -> AbElement:
        return AbElement(
            _mat_apply(self.matrix(g_el), a.coords, self.h.invariant_factors)
        )

    def items(self):
        return self._items

    def __eq__(self, other):
        return (
            isinstance(other, Action)
            and self.h == other.h
            and self.g_tree == other.g_tree
            and self._items == other._items
        )

    def __hash__(self):
        return self._hash


def trivial_action(h: AbelianGroup, g_tree: "GroupTree") -> Action:
    if order(g_tree) > ENUMERATION_CAP:
        raise InadmissibleError("acting group exceeds the enumeration cap")
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(h.rank)) for i in range(h.rank)
    )
    return validate_action(h, g_tree, [(el, ident) for el in elements(g_tree)])


def inversion_action(h: AbelianGroup, g_tree: "GroupTree", on) -> Action:
    """Action sending each generator of H to its inverse under tree element
    `on` (and fixing it under whatever closure dictates)."""
    inv = tuple(
        tuple(-1 if i == j else 0 for j in range(h.rank)) for i in range(h.rank)
    )
    return validate_action(h, g_tree, [(on, inv)])


def validate_action(h: AbelianGroup, g_tree: "GroupTree", mu):
    """Complete an action given on a generating set and verify it.

    `mu` is an Action or an iterable of (tree element of g, matrix) pairs.
    Completion is breadth-first closure over left multiplication; two words
    reaching one element with different matrices is an error, as is a matrix
    that is not an automorphism of h, generators that do not generate, or an
    acting group larger than the enumeration cap.  Verifying an already
    complete table returns an equal Action (idempotence).  The closure sets
    or checks table[g*x] = M_g * table[x] for each generator g and element
    x, so by induction on word length table[a*b] = table[a] * table[b], and
    each entry, a product of generator matrices, is an automorphism.
    """
    n_g = order(g_tree)
    if n_g > ENUMERATION_CAP:
        raise InadmissibleError(f"acting group order {n_g} exceeds cap {ENUMERATION_CAP}")
    factors = h.invariant_factors
    r = h.rank

    if isinstance(mu, Action):
        pairs = [(g, m) for g, m in mu.items()]
    else:
        pairs = list(mu)
    gens = []
    for g_el, matrix in pairs:
        matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        if len(matrix) != r or any(len(row) != r for row in matrix):
            raise InadmissibleError(f"action matrix for {g_el} is not {r}x{r}")
        canon = _canonical_matrix(matrix, factors)
        _check_automorphism(canon, h, g_el)
        gens.append((g_el, canon))

    ident_el = identity(g_tree)
    ident_mat = _canonical_matrix(
        [[1 if i == j else 0 for j in range(r)] for i in range(r)], factors
    )
    table = {ident_el: ident_mat}
    queue = [ident_el]
    while queue:
        cur = queue.pop(0)
        for g_el, g_mat in gens:
            nxt = multiply(g_tree, g_el, cur)
            mat = _mat_mul(g_mat, table[cur], factors)
            seen = table.get(nxt)
            if seen is None:
                table[nxt] = mat
                queue.append(nxt)
            elif seen != mat:
                raise InadmissibleError(
                    f"inconsistent action: two words for {nxt} give different matrices"
                )
    if len(table) != n_g:
        raise InadmissibleError(
            f"action generators reach {len(table)} of {n_g} elements"
        )
    return Action(h, g_tree, table)


def _check_automorphism(mat, h: AbelianGroup, g_el):
    factors = h.invariant_factors
    r = h.rank
    for j in range(r):
        img = AbElement(tuple(mat[i][j] for i in range(r)))
        if factors[j] % h.element_order(img):
            raise InadmissibleError(
                f"matrix for {g_el} is not well defined: column {j} image has "
                f"order {h.element_order(img)}, want a divisor of {factors[j]}"
            )
    for l in _prime_factors(factors[0]):
        rl = sum(1 for n in factors if n % l == 0)
        sub = [row[:rl] for row in mat[:rl]]
        if _det(sub) % l == 0:
            raise InadmissibleError(
                f"matrix for {g_el} is not invertible mod {l}"
            )


# -- tree nodes ----------------------------------------------------------------


class GroupTree(Value):
    __slots__ = ()


class AbelianLeaf(GroupTree):
    __slots__ = ("group",)

    def __init__(self, group: AbelianGroup):
        _set(self, "group", group)

    def __str__(self):
        return str(self.group)


class Semidirect(GroupTree):
    __slots__ = ("h", "g", "mu")

    def __init__(self, h: AbelianGroup, g: GroupTree, mu: Action):
        if h.order % 2 == 0:
            raise InadmissibleError(
                f"semidirect kernel must have odd order, got |H| = {h.order}"
            )
        if gcd(h.order, order(g)) != 1:
            raise InadmissibleError(
                f"|H| = {h.order} and |G| = {order(g)} are not coprime"
            )
        if mu.h != h or mu.g_tree != g:
            raise InadmissibleError("action does not match the semidirect factors")
        _set(self, "h", h)
        _set(self, "g", g)
        _set(self, "mu", mu)

    def __str__(self):
        return f"({self.h}) x| ({self.g})"


class Direct(GroupTree):
    __slots__ = ("left", "right")

    def __init__(self, left: GroupTree, right: GroupTree):
        lo, ro = order(left), order(right)
        if lo % 2 == 0 and ro % 2 == 0:
            if two_sylow_cyclic(left) or two_sylow_cyclic(right):
                raise InadmissibleError(
                    "direct product of two even-order factors needs both "
                    "2-Sylow subgroups noncyclic"
                )
        _set(self, "left", left)
        _set(self, "right", right)

    def __str__(self):
        return f"({self.left}) x ({self.right})"


def leaf(*invariant_factors) -> AbelianLeaf:
    return AbelianLeaf(AbelianGroup(tuple(invariant_factors)))


def semidirect(h: AbelianGroup, g_tree: GroupTree, mu_pairs) -> Semidirect:
    mu = mu_pairs if isinstance(mu_pairs, Action) else validate_action(h, g_tree, mu_pairs)
    return Semidirect(h, g_tree, mu)


def dihedral_tree(n: int) -> Semidirect:
    """D_n = C(n) x| C(2) with the inversion action (n odd)."""
    h = AbelianGroup((n,))
    c2 = leaf(2)
    return Semidirect(h, c2, inversion_action(h, c2, AbElement((1,))))


# -- tree operations ------------------------------------------------------------


def order(tree: GroupTree) -> int:
    if isinstance(tree, AbelianLeaf):
        return tree.group.order
    if isinstance(tree, Semidirect):
        return tree.h.order * order(tree.g)
    if isinstance(tree, Direct):
        return order(tree.left) * order(tree.right)
    raise InadmissibleError(f"not a group tree: {tree!r}")


def two_sylow_cyclic(tree: GroupTree) -> bool:
    """True when the order is even and the 2-Sylow subgroup is cyclic.

    Odd-order trees report False, although their trivial 2-Sylow is
    cyclic: `Direct` asks only about even-order factors."""
    if isinstance(tree, AbelianLeaf):
        fac = tree.group.invariant_factors
        return bool(fac) and fac[0] % 2 == 0 and (len(fac) == 1 or fac[1] % 2 == 1)
    if isinstance(tree, Semidirect):
        return two_sylow_cyclic(tree.g)
    if isinstance(tree, Direct):
        lo, ro = order(tree.left), order(tree.right)
        if lo % 2 == 0 and ro % 2 == 1:
            return two_sylow_cyclic(tree.left)
        if lo % 2 == 1 and ro % 2 == 0:
            return two_sylow_cyclic(tree.right)
        return False
    raise InadmissibleError(f"not a group tree: {tree!r}")


def identity(tree: GroupTree):
    if isinstance(tree, AbelianLeaf):
        return tree.group.identity
    if isinstance(tree, Semidirect):
        return (tree.h.identity, identity(tree.g))
    if isinstance(tree, Direct):
        return (identity(tree.left), identity(tree.right))
    raise InadmissibleError(f"not a group tree: {tree!r}")


def multiply(tree: GroupTree, x, y):
    try:
        if isinstance(tree, AbelianLeaf):
            return tree.group.add(x, y)
        if isinstance(tree, Semidirect):
            (h1, g1), (h2, g2) = x, y
            return (
                tree.h.add(h1, tree.mu.apply(g1, h2)),
                multiply(tree.g, g1, g2),
            )
        if isinstance(tree, Direct):
            (l1, r1), (l2, r2) = x, y
            return (multiply(tree.left, l1, l2), multiply(tree.right, r1, r2))
    except (TypeError, ValueError, AttributeError) as exc:
        raise InadmissibleError(f"element shape does not match tree: {exc}") from exc
    raise InadmissibleError(f"not a group tree: {tree!r}")


def elements(tree: GroupTree):
    """All elements in canonical order (mixed-radix, leaves first)."""
    if isinstance(tree, AbelianLeaf):
        yield from tree.group.elements()
    elif isinstance(tree, Semidirect):
        for h in tree.h.elements():
            for g in elements(tree.g):
                yield (h, g)
    elif isinstance(tree, Direct):
        for l in elements(tree.left):
            for r in elements(tree.right):
                yield (l, r)
    else:
        raise InadmissibleError(f"not a group tree: {tree!r}")


def flatten_element(tree: GroupTree, el) -> list:
    """Flat integer coordinates of a tree element (pre-order)."""
    if isinstance(tree, AbelianLeaf):
        return list(el.coords)
    if isinstance(tree, Semidirect):
        h, g = el
        return list(h.coords) + flatten_element(tree.g, g)
    if isinstance(tree, Direct):
        l, r = el
        return flatten_element(tree.left, l) + flatten_element(tree.right, r)
    raise InadmissibleError(f"not a group tree: {tree!r}")


def coord_width(tree: GroupTree) -> int:
    if isinstance(tree, AbelianLeaf):
        return tree.group.rank
    if isinstance(tree, Semidirect):
        return tree.h.rank + coord_width(tree.g)
    if isinstance(tree, Direct):
        return coord_width(tree.left) + coord_width(tree.right)
    raise InadmissibleError(f"not a group tree: {tree!r}")


def unflatten_element(tree: GroupTree, flat):
    flat = list(flat)
    if len(flat) != coord_width(tree):
        raise InadmissibleError(
            f"want {coord_width(tree)} coordinates for {tree}, got {len(flat)}"
        )
    el, rest = _unflatten(tree, flat)
    assert not rest
    return el


def _unflatten(tree, flat):
    if isinstance(tree, AbelianLeaf):
        r = tree.group.rank
        return tree.group.element(flat[:r]), flat[r:]
    if isinstance(tree, Semidirect):
        r = tree.h.rank
        h = tree.h.element(flat[:r])
        g, rest = _unflatten(tree.g, flat[r:])
        return (h, g), rest
    if isinstance(tree, Direct):
        l, rest = _unflatten(tree.left, flat)
        r, rest = _unflatten(tree.right, rest)
        return (l, r), rest
    raise InadmissibleError(f"not a group tree: {tree!r}")


# -- JSON group-spec files -------------------------------------------------------


def tree_from_spec(obj) -> GroupTree:
    """Build a tree from the JSON group-spec object format.

    {"kind":"abelian","invariant_factors":[n1,...]}
    {"kind":"semidirect","h":{...abelian...},"g":{...},
     "action":{"on_generators":[{"g_element":[...],"matrix":[[...],...]}]}}
    {"kind":"direct","left":{...},"right":{...}}

    A missing key, a node or entry of the wrong JSON type, an invariant
    factor, matrix entry or g_element entry that is not a JSON integer, or
    a tree node more than MAX_TREE_DEPTH nodes from the root raises
    InadmissibleError.
    """
    return _tree_from_spec(obj, 1)


def _tree_from_spec(obj, depth: int) -> GroupTree:
    """tree_from_spec for a node `depth` nodes from the spec's root (the
    root is 1)."""
    if depth > MAX_TREE_DEPTH:
        raise InadmissibleError(
            f"group spec nests deeper than MAX_TREE_DEPTH = {MAX_TREE_DEPTH} nodes"
        )
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InadmissibleError("group spec node must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "abelian":
        return AbelianLeaf(_spec_abelian(obj))
    if kind == "semidirect":
        h_obj = _spec_key(obj, "h", kind)
        if not isinstance(h_obj, dict) or h_obj.get("kind") != "abelian":
            raise InadmissibleError("semidirect 'h' must be an abelian node")
        h = _spec_abelian(h_obj)
        g_tree = _tree_from_spec(_spec_key(obj, "g", kind), depth + 1)
        try:
            spec_pairs = obj["action"]["on_generators"]
        except (KeyError, TypeError):
            raise InadmissibleError("semidirect needs action.on_generators")
        pairs = []
        for entry in _spec_list(spec_pairs, "action.on_generators"):
            if not isinstance(entry, dict):
                raise InadmissibleError("an action.on_generators entry must be an object")
            g_el = _spec_ints(_spec_key(entry, "g_element", "action generator"), "g_element")
            matrix = _spec_list(_spec_key(entry, "matrix", "action generator"), "matrix")
            rows = [_spec_ints(row, "matrix row") for row in matrix]
            pairs.append((unflatten_element(g_tree, g_el), rows))
        return semidirect(h, g_tree, pairs)
    if kind == "direct":
        return Direct(
            _tree_from_spec(_spec_key(obj, "left", kind), depth + 1),
            _tree_from_spec(_spec_key(obj, "right", kind), depth + 1),
        )
    raise InadmissibleError(f"unknown group spec kind {kind!r}")


def _spec_key(obj: dict, key: str, node: str):
    try:
        return obj[key]
    except KeyError:
        raise InadmissibleError(f"{node} spec node needs {key!r}") from None


def _spec_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InadmissibleError(f"{what} must be a JSON list, got {value!r}")
    return value


def _spec_ints(value, what: str) -> list:
    """`value` if it is a JSON list of integers (bool, float and str are not)."""
    if any(type(x) is not int for x in _spec_list(value, what)):
        raise InadmissibleError(f"{what} must be a list of JSON integers, got {value!r}")
    return value


def _spec_abelian(obj: dict) -> AbelianGroup:
    factors = _spec_key(obj, "invariant_factors", "abelian")
    return AbelianGroup(tuple(_spec_ints(factors, "invariant_factors")))


def tree_to_spec(tree: GroupTree):
    if isinstance(tree, AbelianLeaf):
        return {"kind": "abelian", "invariant_factors": list(tree.group.invariant_factors)}
    if isinstance(tree, Semidirect):
        gens = [
            {
                "g_element": flatten_element(tree.g, g_el),
                "matrix": [list(row) for row in mat],
            }
            for g_el, mat in tree.mu.items()
            if g_el != identity(tree.g)
        ]
        return {
            "kind": "semidirect",
            "h": {"kind": "abelian", "invariant_factors": list(tree.h.invariant_factors)},
            "g": tree_to_spec(tree.g),
            "action": {"on_generators": gens},
        }
    if isinstance(tree, Direct):
        return {
            "kind": "direct",
            "left": tree_to_spec(tree.left),
            "right": tree_to_spec(tree.right),
        }
    raise InadmissibleError(f"not a group tree: {tree!r}")
