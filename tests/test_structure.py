"""Fuzz the abelian-structure extractor against synthetic groups."""

import random
from itertools import product

import pytest

from steinitzcalc.classgroup import _abelian_structure, _close
from steinitzcalc.errors import InternalInvariantError

from conftest import sylows_by_order


def _synthetic(factors, seed):
    """A finite abelian group on permuted opaque indices.

    Returns (elems, mul, pow_fn, identity, order_fn) built from the direct
    product of Z/f cyclic groups, with labels shuffled so no structure leaks
    through index order.
    """
    coords = list(product(*(range(f) for f in factors)))
    rng = random.Random(seed)
    labels = list(range(len(coords)))
    rng.shuffle(labels)
    to_label = dict(zip(coords, labels))
    to_coord = {v: k for k, v in to_label.items()}

    def mul(x, y):
        cx, cy = to_coord[x], to_coord[y]
        return to_label[tuple((a + b) % f for a, b, f in zip(cx, cy, factors))]

    ident = to_label[tuple(0 for _ in factors)]

    def pow_fn(x, e):
        cx = to_coord[x]
        return to_label[tuple((a * e) % f for a, f in zip(cx, factors))]

    def order_fn(x):
        cx = to_coord[x]
        o = 1
        for a, f in zip(cx, factors):
            from math import gcd, lcm

            o = lcm(o, f // gcd(f, a))
        return o

    return labels, mul, pow_fn, ident, order_fn


CASES = [
    (2,),
    (3,),
    (4, 2),
    (8, 4, 2),
    (9, 3),
    (12, 6),
    (100, 10),
    (16, 8, 2),
    (30,),
    (36, 6),
    (25, 5),
    (27, 9, 3),
]


@pytest.mark.parametrize("factors", CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_structure_recovers_invariant_factors(factors, seed):
    elems, mul, pow_fn, ident, order_fn = _synthetic(factors, seed)
    sylows = sylows_by_order(elems, order_fn)

    def spans(gens):
        return _close(mul, [ident], gens)[0] == frozenset(elems)

    got, gens = _abelian_structure(len(elems), sylows, mul, pow_fn, ident, order_fn, spans)
    assert got == tuple(factors)
    # generator spans are direct: all products distinct
    span = {ident}
    for d, g in zip(got, gens):
        span = {mul(s, pow_fn(g, k)) for s in span for k in range(d)}
    assert len(span) == len(elems)


def test_structure_trivial():
    assert _abelian_structure(1, {}, None, None, 7, None, None) == ((), ())


def test_structure_rejects_generators_that_do_not_span():
    elems, mul, pow_fn, ident, order_fn = _synthetic((4, 2), 0)
    sylows = sylows_by_order(elems, order_fn)
    with pytest.raises(InternalInvariantError, match="do not span"):
        _abelian_structure(len(elems), sylows, mul, pow_fn, ident, order_fn, lambda gens: False)
