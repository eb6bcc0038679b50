"""The class-group walk as it was before its step kernel: every element one
`_kernels.compose_reduced` composition, every prime form computed.

`classgroup._dlog_table` keeps this walk's order and adds `compose_prime`
steps, the inverses on the first generator's cycle, and the skip of primes
whose norm is walked, so its keys and table must equal this one's bit for
bit.  The function below is that earlier `_dlog_table`, unchanged but for
its name.
"""

import struct
from math import isqrt, prod

from steinitzcalc import _kernels
from steinitzcalc.classgroup import _diagonalize, _walk_primes, principal_form
from steinitzcalc.errors import InternalInvariantError


def composition_walk(disc: int):
    """(keys, (codes, lut, moduli, weights)): the sorted keys of the reduced
    forms of discriminant disc and their discrete-log table, from one walk.

    The key of a reduced form (a, b, c) is a * span + b, with span = 2 *
    isqrt(|D| // 3) + 1: every reduced form has |b| <= a <= isqrt(|D| // 3),
    so b + span // 2 is a digit in [0, span), the keys order the forms as
    their (a, b, c) tuples do (c is fixed by a, b and D), and index i is the
    form with the i-th smallest key.  They are packed into one read-only
    buffer of 8-byte integers (`memoryview.cast("q")`), which `bisect`
    reads like a list.

    Index i has coordinates c_t in Z/moduli[0] + ... + Z/moduli[-1], kept
    only as the digits of codes[i] = sum(c_t * weights[t]) in the mixed
    radix weights[t + 1] = weights[t] * (2 * moduli[t] - 1), wide enough
    that the sum of two codes has no carries; lut maps every code whose
    digits s_t lie in [0, 2 * moduli[t] - 2] to the index at (s_t mod
    moduli[t]), fewer than 2^k * h entries for k moduli.  So composition is
    lut[codes[i] + codes[j]], and powers and inverses look up the code of
    the scaled coordinates (`ClassGroup._coords` reads the digits back).

    Every class holds a reduced form (a, b, c) with a <= sqrt(|D|/3), whose
    ideal is a product of prime ideals of norm p <= a (an inert p gives the
    principal ideal (p)).  So the classes of the prime forms with p <=
    isqrt(|D| // 3) generate the group (Cohen, GTM 138, sections 5.3-5.4),
    and no reduced form is enumerated.  The walk starts at the principal
    form and takes those primes in increasing order; a reduced prime form
    outside the span S of the generators so far becomes the next generator
    g_j, and the cosets S*g, S*g^2, ... are appended to the walk one at a
    time, one kernel composition per new element: the element at position p
    of a coset is the one at p - |S| times g.  So the position p of an
    element is its back-pointer: with M_j = |S| it is walk[p mod M_j] *
    g_j^(p div M_j), and the mixed-radix digits of p are its exponent vector
    over the generators.  The first g^n found in S gives the relation n*e_j =
    exponents(g^n), read off its position.  The relations form a
    lower-triangular k x k matrix R with k <= log2(h); with U*R*V = diag(d)
    for unimodular U and V, an exponent vector a has coordinates (a*V)_t mod
    d_t, of which those with d_t > 1 are kept (Cohen, GTM 138, section 2.4).
    Each kept coordinate is filled in walk order, coset by coset, as
    (coordinate of the back-pointer + n * V[j][t]) mod d_t and summed into
    the codes, which then follow the sorted forms.

    `lut` gets each sorted index at its code, then its digits are widened
    one coordinate at a time from low to high: the digits s_t in [m_t, 2*m_t
    - 2] are a slice copy of those in [0, m_t - 2], one per value of the
    higher digits filled so far.

    A kernel that breaks the group law is caught on the way: the principal
    form must fix each generator, no class may be walked twice, and the
    codes must be h distinct points of a group of order prod(moduli) = h."""
    compose, reduce = _kernels.compose_reduced, _kernels.reduce_form
    principal = tuple(principal_form(disc))
    walk, position = [principal], {principal: 0}
    cosets, relations = [], []  # (|S|, n_j) and the relation row per generator
    half = isqrt(-disc // 3)
    for p in _walk_primes(half):
        f = _kernels.prime_form(disc, p)
        if f is None:
            continue
        g = reduce(*f)
        if g in position:
            continue
        first = compose(*principal, *g)
        if first != g:
            raise InternalInvariantError(f"principal form of disc {disc} moves the class {g}")
        m = len(walk)
        while first not in position:  # first = g^n starts the next coset
            start = len(walk) - m
            position[first] = len(walk)
            walk.append(first)
            for x in walk[start + 1:start + m]:
                x = compose(*x, *g)
                position[x] = len(walk)
                walk.append(x)
            first = compose(*walk[start + m], *g)
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
            col = [(c + n * row[t]) % dt for n in range(r) for c in col]
        codes = [code + c * w for code, c in zip(codes, col)]
    if not distinct or len(set(codes)) != h or prod(moduli) != h:
        raise InternalInvariantError(f"discrete-log table of disc {disc} is not a bijection")

    ranked = sorted(range(h), key=keys.__getitem__)  # walk positions, by form
    codes = [codes[p] for p in ranked]
    keys.sort()
    lut = [0] * prod(2 * m - 1 for m in moduli)
    for i, code in enumerate(codes):
        lut[code] = i
    for t, (m, w) in enumerate(zip(moduli, weights)):
        prefixes = [0]  # the higher digits s_u in [0, m_u - 1]
        for mu, wu in zip(moduli[t + 1:], weights[t + 1:]):
            prefixes = [p + s * wu for p in prefixes for s in range(mu)]
        for p in prefixes:
            lut[p + m * w:p + (2 * m - 1) * w] = lut[p:p + (m - 1) * w]
    return memoryview(struct.pack(f"{h}q", *keys)).cast("q"), (codes, lut, moduli, weights)
