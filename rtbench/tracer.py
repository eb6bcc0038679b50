"""Spans and counters recorded around calls into each steinitzcalc layer.

The tracer wraps public functions and methods of the package's modules from
outside; the package itself is unchanged.  Each outermost call of a wrapped
function becomes one span (id, parent id, query id, name, start, end) kept in
memory.  Element-level calls (`ClassGroup.compose_idx`, the compose kernel)
are too many for spans: they are counted, and the kernel is also timed.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import count
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seconds = Counter()
        self.w_keys = set()
        self.query = -1
        self._stack = []
        self._active = Counter()
        self._undo = []
        self._ticks = {}

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, before=None, after=None):
        fn = getattr(owner, attr)
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            if active[name]:  # a nested call of the same layer stays in its span
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                stack.pop()
                spans[sid] = (sid, parent, self.query, name, t0, t1)
            if after is not None:
                after(args, out)
            return out

        self._patch(owner, attr, wrapper)

    def _count(self, owner, attr, key, timed=False):
        """Count calls (and time them when `timed`) without spans; the
        wrapper is kept lean because these run millions of times."""
        fn = getattr(owner, attr)
        self._ticks[key] = ticks = count()
        tick = ticks.__next__
        seconds = self.seconds

        if timed:
            def wrapper(*args):
                tick()
                t0 = perf_counter()
                out = fn(*args)
                seconds[key] += perf_counter() - t0
                return out
        else:
            def wrapper(*args):
                tick()
                return fn(*args)

        self._patch(owner, attr, wrapper)

    def install(self, sc, cli):
        """Wrap the layers of a freshly imported package `sc` and its `cli`
        module (the class-group cache statistics must start at zero)."""
        cg, cy, rz, gt, kern = sc.classgroup, sc.cyclotomic, sc.realizable, sc.grouptree, sc._kernels
        counts = self.counts

        def scan_span(disc, m, members, lo, hi):
            counts["scan_span"] += hi - lo

        def product_pairs(a, b):
            counts["product_pairs"] += len(a.members) * len(b.members)

        def w_result(args, wg):
            self.w_keys.add((args[0].disc, wg.descriptor))
            counts["w_final_bound"] += wg.certificate.final_bound
            counts["w_windows"] += len(wg.certificate.windows)

        def trace_forms(args, result):
            counts["trace_forms"] += _member_forms(result.trace["node"])

        self._span(cli, "main", "cli")
        self._span(gt, "tree_from_spec", "grouptree.spec")
        self._span(rz, "rt", "realizable.rt", after=trace_forms)
        self._span(rz, "w_exponent", "steinitz")
        self._span(rz, "membership_exponents", "steinitz")
        self._span(cy, "w_group", "cyclotomic.w", after=w_result)
        self._span(cy, "g_k_mu_tau", "cyclotomic.g_k_mu_tau")
        self._span(kern, "scan_w_forms", "kernels.scan", before=scan_span)
        self._span(kern, "reduced_forms", "kernels.reduced_forms")
        self._span(cg.ClassGroup, "__init__", "classgroup.build")
        self._span(cg.ClassGroup, "structure", "classgroup.structure")
        self._span(cg.ClassSubgroup, "product", "classgroup.product", before=product_pairs)
        self._span(cg.ClassSubgroup, "power", "classgroup.power")
        self._span(cg.ClassSubgroup, "structure", "classgroup.substructure")
        self._count(cg.ClassGroup, "compose_idx", "compose_idx")
        self._count(kern, "compose_reduced", "compose_kernel", timed=True)
        self._class_group = cg.class_group

    def keep_cache_stats(self):
        """Call before `class_group.cache_clear()`, which zeroes its hits and
        misses."""
        info = self._class_group.cache_info()
        self.counts["class_group_hits"] += info.hits
        self.counts["class_group_misses"] += info.misses

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        for key, ticks in self._ticks.items():
            self.counts[key] += next(ticks)  # a fresh count() yields 0 first
        self._ticks.clear()

    # -- results ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, query, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "query": query,
                                     "name": name, "start": t0, "end": t1}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics: (value, unit) by name."""
        total, calls, child = Counter(), Counter(), Counter()
        for sid, parent, _, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        own = Counter()
        for sid, _, _, name, t0, t1 in self.spans:
            own[name] += t1 - t0 - child[sid]
        c = self.counts
        compose_idx, compose_kernel = c["compose_idx"], c["compose_kernel"]
        cache = self._class_group.cache_info()
        builds = c["class_group_misses"] + cache.misses
        hits = c["class_group_hits"] + cache.hits
        w_calls = calls["cyclotomic.w"]
        return {
            "cyclotomic.w_s": (total["cyclotomic.w"], "s"),
            "cyclotomic.w_calls": (w_calls, "count"),
            "cyclotomic.w_distinct": (len(self.w_keys), "count"),
            "cyclotomic.w_distinct_ratio": (len(self.w_keys) / max(w_calls, 1), "ratio"),
            "cyclotomic.w_final_bound_sum": (c["w_final_bound"], "count"),
            "cyclotomic.w_windows": (c["w_windows"], "count"),
            "cyclotomic.g_k_mu_tau_s": (total["cyclotomic.g_k_mu_tau"], "s"),
            "kernels.scan_s": (total["kernels.scan"], "s"),
            "kernels.scan_calls": (calls["kernels.scan"], "count"),
            "kernels.scan_span": (c["scan_span"], "count"),
            "kernels.reduced_forms_s": (total["kernels.reduced_forms"], "s"),
            "kernels.compose_s": (self.seconds["compose_kernel"], "s"),
            "kernels.compose_calls": (compose_kernel, "count"),
            "classgroup.build_s": (total["classgroup.build"], "s"),
            "classgroup.builds": (builds, "count"),
            "classgroup.cache_hits": (hits, "count"),
            "classgroup.structure_s": (total["classgroup.structure"], "s"),
            "classgroup.product_s": (total["classgroup.product"], "s"),
            "classgroup.products": (calls["classgroup.product"], "count"),
            "classgroup.product_pairs": (c["product_pairs"], "count"),
            "classgroup.power_s": (total["classgroup.power"], "s"),
            "classgroup.powers": (calls["classgroup.power"], "count"),
            "classgroup.substructure_s": (total["classgroup.substructure"], "s"),
            "classgroup.substructures": (calls["classgroup.substructure"], "count"),
            "classgroup.compose_idx_calls": (compose_idx, "count"),
            "classgroup.compose_memo_hit_ratio": (
                1 - compose_kernel / max(compose_idx, 1), "ratio"),
            "realizable.rt_s": (total["realizable.rt"], "s"),
            "realizable.rt_calls": (calls["realizable.rt"], "count"),
            "realizable.self_s": (own["realizable.rt"], "s"),
            "realizable.trace_forms": (c["trace_forms"], "count"),
            "grouptree.spec_s": (total["grouptree.spec"], "s"),
            "grouptree.specs": (calls["grouptree.spec"], "count"),
            "steinitz.s": (total["steinitz"], "s"),
            "cli.self_s": (own["cli"], "s"),
            "cli.queries": (calls["cli"], "count"),
            "trace.spans": (len(self.spans), "count"),
        }


def _member_forms(node) -> int:
    """Member forms written into an rt trace node and its children."""
    n = len(node.get("members", ()))
    for key in ("base", "left", "right"):
        if key in node:
            n += _member_forms(node[key]["trace"])
    return n
