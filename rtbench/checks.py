"""Answer checks for the rt benchmark.

Every answer is checked after the timed phase, against a computation made
apart from the program or against a property the method must have.  Nothing
is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import json
from math import gcd, isqrt


def _squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def is_fundamental(disc: int) -> bool:
    """True for the discriminant of an imaginary quadratic field."""
    if disc >= 0:
        return False
    if disc % 4 == 1:
        return _squarefree(-disc)
    if disc % 4 == 0:
        return (disc // 4) % 4 in (2, 3) and _squarefree(-disc // 4)
    return False


def class_number(disc: int) -> int:
    """Count of reduced primitive forms (a, b, c) of discriminant disc < 0.

    Runs over b >= 0 and splits (b*b - disc)/4 into a*c with b <= a <= c;
    the program enumerates a first and then b, so the two counts share no
    code.  A pair +-b counts twice unless b = 0, b = a or a = c."""
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


def _is_reduced_form(form, disc: int) -> bool:
    if len(form) != 3 or not all(isinstance(x, int) for x in form):
        return False
    a, b, c = form
    return (
        b * b - 4 * a * c == disc
        and gcd(gcd(a, b), c) == 1
        and abs(b) <= a <= c
        and (b >= 0 or (abs(b) != a and a != c))
    )


def _chain_problem(factors, order):
    """Why `factors` is not an invariant-factor chain of a group of `order`."""
    prod = 1
    for i, d in enumerate(factors):
        if not isinstance(d, int) or d < 2:
            return f"invariant factor {d!r} is not an integer > 1"
        if i and factors[i - 1] % d:
            return f"invariant factors {factors} do not form a divisibility chain"
        prod *= d
    if prod != order:
        return f"invariant factors {factors} multiply to {prod}, not {order}"
    return None


def dihedral_n(tree: str):
    """n for the corpus trees D3, D5, ..., None for every other tree."""
    return int(tree[1:]) if tree[0] == "D" and tree[1:].isdigit() else None


def answer_summary(sub) -> dict:
    """The parts of a CLI rt answer that a ClassSubgroup determines."""
    return {
        "order": sub.order,
        "index": sub.index_in_parent,
        "invariant_factors": list(sub.invariant_factors),
        "generators": [list(f.as_tuple()) for f in sub.generator_forms()],
    }


class Checker:
    """Collects failures over all answers of one run.

    `sc` is the imported steinitzcalc package; it supplies only the oracles
    the method must agree with (`rt_dihedral`, `rt_trace_replay`).  D_n
    answers are compared with `rt_dihedral` when their (disc, tree) is in
    `dihedral_keys`, or always when it is None."""

    def __init__(self, sc, dihedral_keys=None):
        self.sc = sc
        self.dihedral_keys = dihedral_keys
        self.failures = []
        self._h = {}
        self._dihedral = {}
        self._first = {}

    def fail(self, disc, tree, msg):
        self.failures.append(f"rt --disc {disc} --group {tree}: {msg}")

    def class_number(self, disc):
        if disc not in self._h:
            self._h[disc] = class_number(disc)
        return self._h[disc]

    def dihedral(self, disc, n):
        key = (disc, n)
        if key not in self._dihedral:
            res = self.sc.rt_dihedral(self.sc.QuadField(disc), n)
            self._dihedral[key] = answer_summary(res.subgroup)
        return self._dihedral[key]

    def answer(self, disc, tree, text):
        """Check one answer: `text` is what `rt --json` printed."""
        key = (disc, tree)
        if key in self._first:
            if text != self._first[key]:
                self.fail(disc, tree, "repeated query gave a different answer")
            return
        self._first[key] = text
        try:
            payload = json.loads(text)
            cg, rt = payload["class_group"], payload["rt"]
            order, index = rt["order"], rt["index"]
            factors, gens = rt["invariant_factors"], rt["generators"]
            h_cli, cg_factors = cg["order"], cg["invariant_factors"]
            if not all(isinstance(x, int) for x in (order, index, h_cli)):
                raise TypeError("order, index and class number must be integers")
            if not all(isinstance(x, list) for x in (factors, gens, cg_factors)):
                raise TypeError("factors and generators must be lists")
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(disc, tree, f"unreadable answer ({exc!r})")
            return
        problems = []
        h = self.class_number(disc)
        if payload.get("disc") != disc:
            problems.append(f"answer is for disc {payload.get('disc')}")
        if h_cli != h:
            problems.append(f"class number {h_cli}, but {h} reduced forms")
        problems.append(_chain_problem(cg_factors, h))
        if order * index != h:
            problems.append(f"order {order} x index {index} != h = {h}")
        problems.append(_chain_problem(factors, order))
        if len(gens) != len(factors):
            problems.append(f"{len(gens)} generators for {len(factors)} factors")
        for g in gens:
            if not (isinstance(g, list) and _is_reduced_form(g, disc)):
                problems.append(f"generator {g} is not a reduced primitive form of disc {disc}")
        if tree == "C2" and index != 1:
            problems.append(f"R_t(k, C2) has index {index}, not 1")
        n = dihedral_n(tree)
        if n is not None and (self.dihedral_keys is None or key in self.dihedral_keys):
            want = self.dihedral(disc, n)
            got = {"order": order, "index": index,
                   "invariant_factors": factors, "generators": gens}
            if got != want:
                problems.append(f"differs from rt_dihedral: {want}")
        for p in problems:
            if p:
                self.fail(disc, tree, p)

    def replay(self, disc, tree, text, rerun_text, trace):
        """A re-run of the query with --trace must print the same answer,
        and replaying its trace must rebuild the same subgroup."""
        try:
            again, before = json.loads(rerun_text), json.loads(text)
            again.pop("trace_file")
            before.pop("trace_file")
            if again != before:
                self.fail(disc, tree, "re-run with --trace gave a different answer")
                return
            sub = self.sc.rt_trace_replay(trace)
        except (ValueError, KeyError, self.sc.SteinitzcalcError) as exc:
            self.fail(disc, tree, f"trace replay failed ({exc!r})")
            return
        want = {k: again["rt"][k] for k in ("order", "index", "invariant_factors", "generators")}
        if answer_summary(sub) != want:
            self.fail(disc, tree, "trace replay rebuilt a different subgroup")

    def witness(self, text):
        """R_t(Q(sqrt(-84)), C3) has order 2 and index 2 (the paper's example)."""
        rt = json.loads(text)["rt"]
        if (rt["order"], rt["index"]) != (2, 2):
            self.fail(-84, "C3", f"order {rt['order']}, index {rt['index']}; want 2 and 2")
