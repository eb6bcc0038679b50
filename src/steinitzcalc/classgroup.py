"""Base fields and ideal class groups.

The base field k is either Q or an imaginary quadratic field of fundamental
discriminant D < 0.  Ideal classes of O_k are represented by reduced
positive-definite binary quadratic forms of discriminant D; the group law is
Gauss composition.  Q is encoded as discriminant 0 with a one-element
sentinel class group (display form (1,0,0)) that never touches the form
kernels.
"""

from __future__ import annotations

import enum
import struct
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, isqrt, lcm, prod

from . import _kernels
from .errors import InadmissibleError, InternalInvariantError
from .grouptree import Value, _set, _is_prime, _l_part, _prime_factors

# Class groups are held in full: a packed sorted key per reduced form (lookups
# bisect them), a code per class whose digits are its coordinates, and a table
# of fewer than 2^k * h entries.  Beyond this cap callers get a loud error; it
# stays until the walk's time and memory above it have been measured.
MAX_ABS_DISC = 10_000_000


def _squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=4096)
def is_fundamental(disc: int) -> bool:
    """True if disc is the discriminant of an imaginary quadratic field.

    Cached: a process that builds a `QuadField` per query proves each
    discriminant fundamental (trial division up to sqrt|D|) once."""
    if disc >= 0:
        return False
    if disc % 4 == 1:
        return _squarefree(-disc)
    if disc % 4 == 0:
        d = disc // 4
        return d % 4 in (2, 3) and _squarefree(-d)
    return False


class QuadField(Value):
    """Q (disc == 0) or the imaginary quadratic field of discriminant disc."""

    __slots__ = ("disc",)

    def __init__(self, disc: int):
        if disc != 0:
            # the cap first: is_fundamental trial-divides up to sqrt|D|
            if -disc > MAX_ABS_DISC:
                raise InadmissibleError(
                    f"|disc| = {-disc} exceeds the supported cap {MAX_ABS_DISC}"
                )
            if not is_fundamental(disc):
                raise InadmissibleError(
                    f"{disc} is not a fundamental discriminant < 0 (use 0 for Q)"
                )
        _set(self, "disc", disc)

    @property
    def is_rationals(self) -> bool:
        return self.disc == 0

    def class_group(self) -> "ClassGroup":
        return class_group(self.disc)

    def __str__(self):
        return "Q" if self.is_rationals else f"Q(sqrt({self.disc}))"


class QuadForm(namedtuple("QuadForm", "a b c")):
    """The form a x^2 + b xy + c y^2."""

    __slots__ = ()

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def as_tuple(self):
        return (self.a, self.b, self.c)

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def principal_form(disc: int) -> QuadForm:
    b = disc % 2
    return QuadForm(1, b, (b * b - disc) // 4)


def reduce(form: QuadForm) -> QuadForm:
    """The reduced form equivalent to `form` (positive definite)."""
    if form.a <= 0:
        raise InadmissibleError(f"form {form} must have a > 0")
    if form.disc >= 0:
        raise InadmissibleError(f"form {form} must have negative discriminant")
    if not form.is_primitive:
        raise InadmissibleError(f"form {form} is not primitive")
    return QuadForm(*_kernels.reduce_form(form.a, form.b, form.c))


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Reduced representative of the product of the classes of f1 and f2."""
    if f1.disc != f2.disc:
        raise InadmissibleError(f"discriminant mismatch: {f1.disc} vs {f2.disc}")
    r1, r2 = reduce(f1), reduce(f2)
    return QuadForm(*_kernels.compose_reduced(r1.a, r1.b, r1.c, r2.a, r2.b, r2.c))


class Splitting(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def splitting(p: int, field: QuadField) -> Splitting:
    """Decomposition type of the rational prime p in the field."""
    if not _is_prime(p):
        raise InadmissibleError(f"{p} is not a prime")
    if field.is_rationals:
        return Splitting.SPLIT
    if field.disc % p == 0:
        return Splitting.RAMIFIED
    return Splitting.SPLIT if _kernels.kronecker(field.disc, p) == 1 else Splitting.INERT


class ClassGroup:
    """The ideal class group of a QuadField, every class held in full.

    Elements are indices into the sorted reduced forms.  Each class keeps
    only its form's key a*span + b (`_keys`, packed 8 bytes each; c follows
    from a, b and D) and its code.  `form(i)` decodes one class and
    `index_of` bisects the keys; `forms`, every form, is decoded on first
    read, by listings only (traces, `check`).  One walk over the prime forms
    (`_dlog_table`) gives the keys and a code per index, whose digits
    (`_coords`) are its coordinates in Z/d_1 + ... + Z/d_k, so composition,
    powers and inverses are vector arithmetic mod d_i, and orders are lcms.
    A subgroup is the lattice of its coordinates (`_lattice`, see
    ClassSubgroup); its invariant factors and matching generators depend
    only on it: `_structure_of` computes them on first use
    and keeps them in `_structures`, keyed by the lattice, so every
    subgroup with that lattice shares one answer; member sets are kept
    the same way, in `_members` (`_members_of`), and so are powers, in
    `_powers` (`ClassSubgroup.power`).  `_w_cache` keeps
    `cyclotomic.w_norm_character`'s W-groups, each under its Frobenius
    subgroup S (W = Cl is `full_subgroup()`, one object per group).  All
    of them live and die with the group (`class_group.cache_clear()`).
    """

    def __init__(self, disc: int):
        QuadField(disc)  # validation
        self.disc = disc
        self._half = isqrt(-disc // 3)  # |b| <= a <= _half on every reduced form
        self._keys, self._dlog = _dlog_table(disc)
        self.principal_index = self.index_of(principal_form(disc))
        self._structures = {}  # hnf -> structure, filled by _structure_of
        self._members = {}  # hnf -> member indices, filled by _members_of
        self._powers = {}  # (hnf, gcd(e, exponent)) -> hnf of H^e, by ClassSubgroup.power
        self._w_cache = {}  # filled by cyclotomic.w_norm_character

    # -- basic protocol ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._keys)

    def __eq__(self, other):
        return isinstance(other, ClassGroup) and other.disc == self.disc

    def __hash__(self):
        return hash(("ClassGroup", self.disc))

    def __repr__(self):
        return f"ClassGroup(disc={self.disc}, order={self.order})"

    # -- index arithmetic --------------------------------------------------

    def form(self, i: int) -> QuadForm:
        """The reduced form of class i, decoded from its key."""
        half = self._half
        a, b = divmod(self._keys[i] + half, 2 * half + 1)
        b -= half
        return QuadForm(a, b, (b * b - self.disc) // (4 * a))

    @cached_property
    def forms(self) -> tuple:
        """The reduced form of every class, in index order."""
        return tuple(map(self.form, range(self.order)))

    def index_of(self, form) -> int:
        a, b, c = form  # a QuadForm or (a, b, c)
        half, keys = self._half, self._keys
        key = a * (2 * half + 1) + b
        i = bisect_left(keys, key)
        # with |b| <= half the key names (a, b), and (a, b) and D fix c
        if i == len(keys) or keys[i] != key or abs(b) > half or b * b - 4 * a * c != self.disc:
            raise InadmissibleError(
                f"{QuadForm(*form)} is not a reduced form of disc {self.disc}"
            )
        return i

    def compose_idx(self, i: int, j: int) -> int:
        codes, lut, _, _ = self._dlog
        return lut[codes[i] + codes[j]]

    def inverse_idx(self, i: int) -> int:
        return self._at([-x for x in self._coords(i)])

    def pow_idx(self, i: int, e: int) -> int:
        return self._at([x * e for x in self._coords(i)])

    def order_of_idx(self, i: int) -> int:
        return lcm(*[d // gcd(x, d) for x, d in zip(self._coords(i), self._dlog[2])])

    @cached_property
    def _sylows(self):
        """{l: sorted indices of the Sylow l-subgroup} for the primes l | h:
        the classes whose coordinate t is a multiple of d_t / l^v_l(d_t)."""
        _, lut, moduli, weights = self._dlog
        out = {}
        for l in _prime_factors(self.order):
            steps = [range(0, d * w, d // _l_part(d, l) * w) for d, w in zip(moduli, weights)]
            out[l] = sorted(lut[sum(c)] for c in product(*steps))
        return out

    def _coords(self, i: int) -> tuple:
        """The coordinates of index i: the mixed-radix digits of its code."""
        codes, _, moduli, weights = self._dlog
        return tuple([codes[i] // w % (2 * d - 1) for d, w in zip(moduli, weights)])

    def _at(self, vector) -> int:
        """The index whose coordinates are `vector` taken mod the d_i."""
        _, lut, moduli, weights = self._dlog
        return lut[sum([x % d * w for x, d, w in zip(vector, moduli, weights)])]

    def _lattice(self, vectors):
        """The Hermite normal form of the coordinate vectors `vectors`
        stacked on diag(d_i): the subgroup they generate (see `_hnf`)."""
        return _hnf(self._dlog[2], vectors)

    def _structure_of(self, hnf):
        """(invariant_factors, generator_indices) of the subgroup with
        lattice `hnf`, memoized in `_structures`.

        Works prime by prime, on the members of `hnf` in the parent's Sylow
        list `_sylows[l]`.  A basis of each Sylow subgroup is found by
        repeatedly taking its first member x of largest order q modulo the
        span so far and lifting x to x*s, for the first s in the span with
        x*s of exact order q (such a lift exists because the span is a
        direct summand at every step).  The span is a lattice inside `hnf`.
        q is the exponent of Sylow/span, the least l^j with l^j*m*r in the
        span for every row r of `hnf` (m = order / l-part: those scaled rows
        generate the Sylow lattice), so x is the first member with x^(q/l)
        outside the span.  The span's size is the product of the q's found
        so far, since each new basis element meets the span only in the
        identity.  Both scans restart at the front of the Sylow list, so
        each member's coordinates are decoded on its first visit and kept
        for the rest of the call.  The per-prime bases are then merged into
        an invariant-factor chain, largest factor first."""
        if hnf in self._structures:
            return self._structures[hnf]
        coords, moduli = self._coords, self._dlog[2]
        order = _lattice_order(moduli, hnf)

        def scan(sylow, decoded):
            """(x, coordinates of x) for x in `sylow`, in order; each member
            is decoded on its first visit and kept in `decoded`."""
            for i, x in enumerate(sylow):
                if i == len(decoded):
                    decoded.append((x, coords(x)))
                yield decoded[i]

        per_prime = []  # [(order, generator_index), ...] descending, per prime
        for l in _prime_factors(order):
            sylow, n, decoded = self._sylows[l], _l_part(order, l), []
            rows = [[order // n * x for x in row] for row in hnf]
            span, size, basis = _hnf(moduli, ()), 1, []
            while size < n:
                q = l
                while not all(_in_lattice(span, [q * x for x in r]) for r in rows):
                    q *= l
                e = q // l
                x = next(
                    x for x, c in scan(sylow, decoded)
                    if _in_lattice(hnf, c) and not _in_lattice(span, [e * v for v in c])
                )
                for s, c in scan(sylow, decoded):
                    if _in_lattice(span, c):
                        y = self.compose_idx(x, s)
                        if self.order_of_idx(y) == q:
                            break
                else:
                    raise InternalInvariantError("no exact-order lift in coset")
                basis.append((q, y))
                size *= q
                if size < n:
                    span = _hnf(moduli, span + (coords(y),))
            per_prime.append(basis)

        factors, gens = [], []
        for i in range(max(map(len, per_prime), default=0)):
            d, g = 1, self.principal_index
            for basis in per_prime:
                if i < len(basis):
                    o, x = basis[i]
                    d *= o
                    g = self.compose_idx(g, x)
            factors.append(d)
            gens.append(g)

        # the generators must span the subgroup, each element exactly once
        if prod(factors) != order or self._lattice([coords(g) for g in gens]) != hnf:
            raise InternalInvariantError("abelian structure generators do not span")
        structure = self._structures[hnf] = (tuple(factors), tuple(gens))
        return structure

    def _members_of(self, hnf) -> frozenset:
        """The member indices of the lattice `hnf`, memoized in `_members`:
        the lattice points c_1*row_1 + ... + c_k*row_k with 0 <= c_t <
        d_t / h_t, one per member."""
        members = self._members.get(hnf)
        if members is not None:
            return members
        codes, lut, moduli, _ = self._dlog
        points = [0]  # codes of the points so far
        for t, row in enumerate(hnf):
            step = codes[self._at(row)]
            multiples = [0]
            for _ in range(moduli[t] // row[t] - 1):
                multiples.append(codes[lut[multiples[-1] + step]])
            points = [codes[lut[a + b]] for a in points for b in multiples]
        members = self._members[hnf] = frozenset([lut[a] for a in points])
        return members

    @cached_property
    def _full(self):
        """Cl as a subgroup, one object per group: the identity lattice."""
        k = len(self._dlog[2])
        return ClassSubgroup(self, tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))

    @cached_property
    def _trivial_hnf(self):
        """diag(d_i): the lattice of the trivial subgroup."""
        return self._lattice(())

    # -- public element / subgroup API --------------------------------------

    @property
    def identity(self) -> "IdealClass":
        return IdealClass(self, self.principal_index)

    def class_of(self, form: QuadForm) -> "IdealClass":
        return IdealClass(self, self.index_of(reduce(form)))

    def trivial_subgroup(self) -> "ClassSubgroup":
        return ClassSubgroup(self, self._trivial_hnf)

    def full_subgroup(self) -> "ClassSubgroup":
        return self._full

    def structure(self):
        """(invariant_factors, generator_indices) with factors in a chain
        d_{i+1} | d_i, largest first."""
        return self._structure_of(self._full.hnf)

    @property
    def invariant_factors(self):
        return self.structure()[0]

    @property
    def generator_forms(self):
        return tuple(map(self.form, self.structure()[1]))


def _dlog_table(disc: int):
    """(keys, (codes, lut, moduli, weights)) of discriminant disc: the sorted
    keys a * span + b of the reduced forms (span = 2 * isqrt(|D| // 3) + 1,
    so keys sort as the forms do), packed 8 bytes each, and their discrete
    log table: codes[i] = sum(c_t * weights[t]) holds the coordinates c_t of
    index i in Z/moduli[0] + ... + Z/moduli[-1], in a radix where two codes
    add without carries, and lut maps each sum of two codes to its index
    (weights[0] = 1), so composition is lut[codes[i] + codes[j]].

    The prime forms with p <= isqrt(|D| // 3) generate the group (Cohen, GTM
    138, sections 5.3-5.4).  The walk takes them in increasing order, skips
    primes of walked norms, and makes one outside the span S so far the next
    generator g: the cosets S*g, S*g^2, ... are appended, each element one
    `_kernels.compose_prime` step from the one |S| places back, until g^n
    lands in S.  The first generator's cycle ends early: once g^n's inverse
    (a, -b, c) is at j, the inverses of the elements at j - 1, ..., 1
    follow.  A position's mixed-radix digits over the generators' |S| are
    its exponent vector, and each g^n in S gives a row of a lower-triangular
    relation matrix R.  With U*R*V = diag(d), e has the coordinates
    (e*V)_t mod d_t for d_t > 1 (section 2.4).

    A broken kernel is caught on the way: the principal form must fix each
    generator, no class may be walked twice, and the codes must be h
    distinct points of a group of order prod(moduli) = h."""
    step = _kernels.compose_prime
    principal = tuple(principal_form(disc))
    walk, position = [principal], {principal: 0}
    cosets, relations = [], []  # (|S|, n_j) and the relation row per generator
    half = isqrt(-disc // 3)
    walked = bytearray(half + 1)  # walked[a]: a walked class has norm a
    for p in _walk_primes(half):
        if walked[p]:  # S holds (p, b, c) iff it holds (p, -b, c)
            continue
        f = _kernels.prime_form(disc, p)
        if f is None:
            continue
        g = _kernels.reduce_form(*f)
        if g in position:
            continue
        first = step(*principal, g, p)
        if first != g:
            raise InternalInvariantError(f"principal form of disc {disc} moves the class {g}")
        m = len(walk)
        if m == 1:
            while first not in position:
                position[first] = len(walk)
                walk.append(first)
                a, b, c = first
                j = position.get(first if b == a or a == c else (a, -b, c))
                if j is not None:
                    for a, b, c in walk[j - 1:0:-1]:  # g^(n+i) = 1 / g^(j-i)
                        position[a, -b, c] = len(walk)
                        walk.append((a, -b, c))
                    break
                first = step(a, b, c, g, p)
        else:
            while first not in position:  # first = g^n starts the next coset
                n = len(walk)
                walk.append(first)
                walk += [step(a, b, c, g, p) for a, b, c in walk[n + 1 - m:n]]
                position.update(zip(walk[n:], range(n, n + m)))
                first = step(*first, g, p)
        for x in walk[m:]:
            walked[x[0]] = 1
        n, q = len(walk) // m, position[first]  # n e_j = the digits of g^n's position
        relations.append([-(q // m_i % n_i) for m_i, n_i in cosets] + [n])
        cosets.append((m, n))

    h, k = len(walk), len(relations)
    distinct = len(position) == h
    span = 2 * half + 1
    keys = [a * span + b for a, b, _ in walk]
    del walk, position  # the keys stand for the forms from here on
    d, v = _diagonalize([r + [0] * (k - len(r)) for r in relations])
    keep = [t for t in range(k) if d[t] > 1]
    moduli = tuple(d[t] for t in keep)
    weights = [prod(2 * m - 1 for m in moduli[:t]) for t in range(len(moduli))]

    codes = [0] * h
    for t, w in zip(keep, weights):  # each kept coordinate, added digit by digit
        col, dt = [0], d[t]
        for (_, r), row in zip(cosets, v):  # walk order: coset by coset
            col = [(c + n * row[t]) % dt for n in range(r) for c in col] if row[t] else col * r
        codes = col if w == 1 else [code + c * w for code, c in zip(codes, col)]
    if not distinct or len(set(codes)) != h or prod(moduli) != h:
        raise InternalInvariantError(f"discrete-log table of disc {disc} is not a bijection")

    ranked = sorted(range(h), key=keys.__getitem__)  # walk positions, by form
    codes = [codes[p] for p in ranked]
    keys.sort()
    lut = [0] * prod(2 * m - 1 for m in moduli)
    for i, code in enumerate(codes):
        lut[code] = i
    for t, (m, w) in enumerate(zip(moduli, weights)):  # digits [m, 2m - 2] copy [0, m - 2]
        prefixes = [0]  # the higher digits s_u in [0, m_u - 1]
        for mu, wu in zip(moduli[t + 1:], weights[t + 1:]):
            prefixes = [p + s * wu for p in prefixes for s in range(mu)]
        for p in prefixes:
            lut[p + m * w:p + (2 * m - 1) * w] = lut[p:p + (m - 1) * w]
    return memoryview(struct.pack(f"{h}q", *keys)).cast("q"), (codes, lut, moduli, weights)


@lru_cache(maxsize=16)
def _walk_primes(bound: int) -> tuple:
    """The primes p <= bound.  Cached: nearby discriminants share a bound."""
    return tuple(_kernels.primes_in_range(2, bound + 1))


def _diagonalize(rows):
    """(d, V) with U*rows*V = diag(d), d >= 0, for a nonsingular square
    integer matrix: unimodular row operations (U, not kept) and column
    operations (V) clear each pivot's row and column in turn."""
    a = [list(r) for r in rows]
    k = len(a)
    v = [[int(i == j) for j in range(k)] for i in range(k)]
    d = []
    for t in range(k):
        while True:
            # the smallest nonzero entry of the lower-right block becomes the pivot
            _, i, j = min(
                (abs(a[i][j]), i, j) for i in range(t, k) for j in range(t, k) if a[i][j]
            )
            a[t], a[i] = a[i], a[t]
            for row in a + v:
                row[t], row[j] = row[j], row[t]
            p = a[t][t]
            for i in range(t + 1, k):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, k):
                q = a[t][j] // p
                for row in a + v:
                    row[j] -= q * row[t]
            if not any(a[i][t] for i in range(t + 1, k)) and not any(a[t][t + 1:]):
                break
        d.append(abs(a[t][t]))
    return d, v


@lru_cache(maxsize=None)
def class_group(disc: int) -> ClassGroup:
    """The class group of discriminant disc (0 encodes Q)."""
    return ClassGroup(disc)


class IdealClass(Value):
    __slots__ = ("group", "index")

    def __init__(self, group: ClassGroup, index: int):
        if not 0 <= index < group.order:
            raise InadmissibleError(f"class index {index} out of range")
        _set(self, "group", group)
        _set(self, "index", index)

    @property
    def form(self) -> QuadForm:
        return self.group.form(self.index)

    @property
    def is_principal(self) -> bool:
        return self.index == self.group.principal_index

    def __mul__(self, other: "IdealClass") -> "IdealClass":
        _check_same_group(self.group, other.group)
        return IdealClass(self.group, self.group.compose_idx(self.index, other.index))

    def __pow__(self, e: int) -> "IdealClass":
        return IdealClass(self.group, self.group.pow_idx(self.index, e))

    def __str__(self):
        return str(self.form)


def _check_same_group(g1: ClassGroup, g2: ClassGroup):
    if g1.disc != g2.disc:
        raise InadmissibleError(
            f"operands live in different class groups ({g1.disc} vs {g2.disc})"
        )


class ClassSubgroup:
    """A subgroup of a ClassGroup, stored as a lattice in discrete-log
    coordinates.

    `hnf` is the Hermite normal form of the generators' coordinates stacked
    on diag(d_1, ..., d_k) (Cohen, GTM 138, sections 2.4.2-2.4.3; `_hnf`):
    an upper-triangular k x k integer matrix whose diagonal entry h_t
    divides d_t.  The lattice and the subgroup determine each other, so
    equality and hashing compare `hnf`, the order is the product of the
    d_t / h_t and the index the product of the h_t.  `power` scales the
    rows, `product` stacks two lattices and `subgroup_generate` stacks its
    generators' coordinates: k x k integer work, with k <= log2(h).  Two
    early exits skip that work where the answer is an operand: H^e =
    H^gcd(e, exponent of Cl) by Bezout, so `power` first reduces e to that
    gcd and returns the subgroup itself when it is 1; and `product` returns
    the operand that contains the other, which it tests with `_in_lattice`
    on the rows of the smaller one.  Other powers are kept in
    `ClassGroup._powers`.

    `ClassSubgroup(group, hnf, generators)` is the only constructor; it
    trusts `hnf` to be a lattice in `group._lattice`'s normal form and
    checks nothing.  `generators` generate the subgroup: the given classes
    for `subgroup_generate`, the classes W-groups pick with `_grow` (the
    members in index order that enlarge the span; the whole group grows
    them on first read), otherwise the classes of the lattice's rows (so an
    early exit may hand back generators of either kind; only a W-group's
    own are ever printed).  `members`, the
    frozenset of member indices, is enumerated from the lattice on first
    read, once per lattice per class group (`ClassGroup._members_of`), so
    every subgroup with that lattice shares one set; only output that lists
    members (traces, `check`) reads it."""

    def __init__(self, group: ClassGroup, hnf, generators=None):
        self.group = group
        self.hnf = hnf
        if generators is not None:
            self.generators = tuple(generators)

    @cached_property
    def generators(self) -> tuple:
        """The sorted classes of the lattice's rows, the identity left out;
        for the whole group, the classes `_grow` picks from all of Cl."""
        cg = self.group
        if not self.is_full():
            return tuple(sorted({cg._at(row) for row in self.hnf} - {cg.principal_index}))
        span, grown = _grow(cg, cg._trivial_hnf, range(cg.order), cg.order)
        if span != self.hnf:
            raise InternalInvariantError("the generators of Cl do not span it")
        return tuple(grown)

    # -- queries -------------------------------------------------------------

    @property
    def order(self) -> int:
        return _lattice_order(self.group._dlog[2], self.hnf)

    @property
    def index_in_parent(self) -> int:
        return prod([row[t] for t, row in enumerate(self.hnf)])

    def is_full(self) -> bool:
        return self.index_in_parent == 1

    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def members(self) -> frozenset:
        """The member indices, shared by every subgroup with this lattice."""
        return self.group._members_of(self.hnf)

    def sorted_members(self):
        return sorted(self.members)

    def member_forms(self):
        return [self.group.forms[i] for i in self.sorted_members()]

    def structure(self):
        return self.group._structure_of(self.hnf)

    @property
    def invariant_factors(self):
        return self.structure()[0]

    def generator_forms(self):
        return tuple(map(self.group.form, self.structure()[1]))

    # -- algebra -------------------------------------------------------------

    def power(self, e: int) -> "ClassSubgroup":
        """Image of the subgroup under x -> x**e (a subgroup again)."""
        if e < 0:
            raise InadmissibleError("subgroup power wants e >= 0")
        e = gcd(e, lcm(*self.group._dlog[2]))  # the exponent of Cl (1 for Q)
        if e == 1:
            return self
        powers = self.group._powers
        hnf = powers.get((self.hnf, e))
        if hnf is None:
            scaled = [[e * x for x in row] for row in self.hnf]
            hnf = powers[self.hnf, e] = self.group._lattice(scaled)
        return ClassSubgroup(self.group, hnf)

    def product(self, other: "ClassSubgroup") -> "ClassSubgroup":
        _check_same_group(self.group, other.group)
        big, small = (self, other) if self.order >= other.order else (other, self)
        if all(_in_lattice(big.hnf, row) for row in small.hnf):
            return big
        return ClassSubgroup(self.group, self.group._lattice(self.hnf + other.hnf))

    def __eq__(self, other):
        return (
            isinstance(other, ClassSubgroup)
            and self.group.disc == other.group.disc
            and self.hnf == other.hnf
        )

    def __hash__(self):
        return hash((self.group.disc, self.hnf))

    def __repr__(self):
        return (
            f"ClassSubgroup(disc={self.group.disc}, order={self.order}, "
            f"index={self.index_in_parent}, hnf={self.hnf})"
        )


# -- module-level operations ---------------------------------------------------


def prime_class(p: int, field: QuadField, conjugate: bool = False) -> IdealClass:
    """Ideal class of a degree-1 prime over p.

    The canonical choice takes the smaller nonnegative b with b*b = D mod 4p;
    `conjugate` selects the other prime above p (the inverse class).  p must
    be a rational prime.
    """
    if splitting(p, field) is Splitting.INERT:
        raise InadmissibleError(f"{p} is inert in {field}; no degree-1 prime above it")
    if field.is_rationals:
        return class_group(0).identity
    t = _kernels.prime_form(field.disc, p)
    if t is None:
        raise InternalInvariantError(f"prime_form failed for split/ramified p={p}")
    a, b, c = t
    if conjugate:
        b = -b
    cg = class_group(field.disc)
    return IdealClass(cg, cg.index_of(_kernels.reduce_form(a, b, c)))


def subgroup_generate(cg: ClassGroup, gens) -> ClassSubgroup:
    """Smallest subgroup containing the given IdealClass generators."""
    gen_idx = set()
    for g in gens:
        _check_same_group(cg, g.group)
        gen_idx.add(g.index)
    gen_idx = sorted(gen_idx)
    return ClassSubgroup(cg, cg._lattice([cg._coords(i) for i in gen_idx]), gen_idx)


# -- lattices in discrete-log coordinates --------------------------------------


def _hnf(moduli, vectors):
    """The Hermite normal form of the lattice spanned by the integer
    `vectors` (of length k = len(moduli)) and the rows of diag(moduli).

    The result is a tuple of k rows: row t is zero before column t, its
    diagonal entry h_t is a positive divisor of moduli[t], and every entry
    above a diagonal entry h_j lies in [0, h_j), so equal lattices give equal
    tuples.  Column by column, the pivot moduli[t]*e_t absorbs each vector's
    entry in that column by an extended-gcd row operation (unimodular, so
    the lattice does not change); entries right of the column stay reduced
    modulo their moduli[j], which the rows moduli[j]*e_j not yet used as
    pivots allow (Cohen, GTM 138, section 2.4.2)."""
    k = len(moduli)
    vecs = [[x % d for x, d in zip(v, moduli)] for v in vectors]
    rows = []
    for t, d in enumerate(moduli):
        pivot = [0] * k
        pivot[t] = d
        rest = []
        for v in vecs:
            b = v[t]
            if b:
                a = pivot[t]
                g, x, y = _kernels._ext_gcd(a, b)
                pivot, v = (
                    [x * p + y * w for p, w in zip(pivot, v)],
                    [a // g * w - b // g * p for p, w in zip(pivot, v)],
                )
                for j in range(t + 1, k):
                    pivot[j] %= moduli[j]
                    v[j] %= moduli[j]
            if any(v[t + 1:]):
                rest.append(v)
        vecs = rest
        rows.append(pivot)
    for j in range(k):
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
    return tuple(map(tuple, rows))


def _lattice_order(moduli, hnf) -> int:
    """The number of classes in the lattice `hnf`: the product of d_t / h_t."""
    return prod([d // row[t] for t, (d, row) in enumerate(zip(moduli, hnf))])


def _in_lattice(hnf, vector) -> bool:
    """True when the integer `vector` lies in the lattice with Hermite
    normal form `hnf`: reduce it by the rows in turn."""
    c = list(vector)
    for t, row in enumerate(hnf):
        q, r = divmod(c[t], row[t])
        if r:
            return False
        if q:
            for j in range(t + 1, len(c)):
                c[j] -= q * row[j]
    return True


def _grow(cg: ClassGroup, hnf, candidates, stop: int):
    """(hnf, grown): the lattice `hnf` grown by each index of `candidates`,
    in order, that it does not contain yet, and the list of those indices.
    The scan ends once the lattice has `stop` members or more; a candidate
    met after that is in the lattice or the caller has to reject it.
    `candidates` is read once and no further than needed, so it may be a
    lazy iterator."""
    moduli = cg._dlog[2]
    grown = []
    size = _lattice_order(moduli, hnf)
    for x in candidates:
        if size >= stop:
            break
        c = cg._coords(x)
        if not _in_lattice(hnf, c):
            hnf = _hnf(moduli, hnf + (c,))
            grown.append(x)
            size = _lattice_order(moduli, hnf)
    return hnf, grown
