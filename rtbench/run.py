#!/usr/bin/env python3
"""End-to-end benchmark of `steinitzcalc rt`.

Sends `rt --disc D --group FILE --json` queries in-process through
`steinitzcalc.cli.main`, one at a time from one thread (a closed loop: the
next query starts when the previous one returns), checks every answer after
the timed phase, and prints one JSON result as its last line.

    python3 rtbench/run.py --workload w-scan --seed 1 --seconds 20 --trace 0

Workloads (see README.md):
  w-scan           the 24 fields with -132 <= D <= -15 and even h, all 17
                   admissible corpus trees each; time goes to the W prime scan
  subgroup-ladder  four fields with h = 342, 357, 500 and 702, all corpus
                   trees, repeated; time goes to ClassSubgroup.product and
                   ClassSubgroup.structure
  disc-sweep       consecutive fundamental discriminants below a seeded start
                   near -10^5, D3 once each, in rounds of 200 discriminants;
                   every query meets a cold class group

Each round starts from the state set-up leaves (see timed_phase).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same queries
twice, untraced and then traced from a fresh import, and prints the
per-layer metrics and the tracing overhead; spans go to rtbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import random
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = HERE / "specs"
OUT = HERE / "out"

TREES = (
    "C2", "C3", "C9xC3", "C15", "C45", "D3", "D5", "D7", "D9", "D15", "F21",
    "C11xD5semi", "C3_x_C5", "C7_x_C3", "F21_x_C2", "D3_x_C25", "C9C3_x_D3",
)
LADDER = (-1000019, -2000003, -8000008, -8000003)  # h = 342, 357, 500, 702
SWEEP_START = -100_000
SWEEP_ROUND = 200  # discriminants per round
SWEEP_JITTER = 200  # the seed moves the start down by less than this
SETUP_REPEATS = 5
REPLAY_SAMPLE = 3
DIHEDRAL_SAMPLE = 30  # D_n answers compared with rt_dihedral per run


# -- workloads ---------------------------------------------------------------------


class Workload:
    """Seeded query rounds plus the set-up the program does before them.

    A round is a list of (disc, tree) queries; every run answers whole
    rounds until --seconds have passed."""

    def __init__(self, trees, fixed_discs, rounds):
        self.trees = trees
        self.fixed_discs = fixed_discs
        self.rounds = rounds


def _shuffled_rounds(pairs, rng):
    pairs = list(pairs)
    while True:
        rng.shuffle(pairs)
        yield list(pairs)


def _sweep_rounds(rng):
    d = SWEEP_START - rng.randrange(SWEEP_JITTER)
    while True:
        batch = []
        while len(batch) < SWEEP_ROUND:
            d -= 1
            if checks.is_fundamental(d):
                batch.append((d, "D3"))
        yield batch


def make_workload(name, seed) -> Workload:
    rng = random.Random(seed)
    if name == "w-scan":
        discs = tuple(
            d for d in range(-15, -133, -1)
            if checks.is_fundamental(d) and checks.class_number(d) % 2 == 0
        )
        pairs = [(d, t) for d in discs for t in TREES]
        return Workload(TREES, discs, _shuffled_rounds(pairs, rng))
    if name == "subgroup-ladder":
        pairs = [(d, t) for d in LADDER for t in TREES]
        return Workload(TREES, LADDER, _shuffled_rounds(pairs, rng))
    if name == "disc-sweep":
        return Workload(("D3",), (), _sweep_rounds(rng))
    raise SystemExit(f"unknown workload {name!r}")


# -- the program ---------------------------------------------------------------------


def import_package():
    """A fresh import of steinitzcalc from this checkout's src/."""
    for mod in [m for m in sys.modules if m == "steinitzcalc" or m.startswith("steinitzcalc.")]:
        del sys.modules[mod]
    try:
        sc = importlib.import_module("steinitzcalc")
        cli = importlib.import_module("steinitzcalc.cli")
    except ImportError as exc:
        raise SystemExit(f"cannot import steinitzcalc from {SRC}: {exc}")
    if SRC not in Path(sc.__file__).resolve().parents:
        raise SystemExit(f"imported steinitzcalc from {sc.__file__}, not from {SRC}")
    return sc, cli


def prepare(sc, workload):
    """The program's set-up: validate the group specs and build the class
    group and its structure for every discriminant fixed up front."""
    for tree in workload.trees:
        with open(SPECS / f"{tree}.json", encoding="utf-8") as fh:
            sc.realizable.check_admissible(sc.tree_from_spec(json.load(fh)))
    build_fixed(sc, workload)


def build_fixed(sc, workload):
    for disc in workload.fixed_discs:
        sc.class_group(disc).structure()


def ask(cli, disc, tree, extra=()):
    """One `rt` query: (exit code or error text, printed answer, seconds)."""
    argv = ["rt", "--disc", str(disc), "--group", str(SPECS / f"{tree}.json"), "--json", *extra]
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # a crashing query is a failed query, and the run goes on
        rc = traceback.format_exc()
    return rc, buf.getvalue(), perf_counter() - t0


def timed_phase(sc, cli, workload, rounds, seconds=None, tracer=None):
    """Answer whole rounds until their wall time reaches `seconds` (all of
    `rounds` when None).  Returns the rounds done, [(disc, tree, rc, text,
    dt)], the summed wall time of the rounds and the peak RSS in KiB at the
    end of the first round.

    Every round starts from the state set-up leaves: between rounds, untimed,
    the class-group cache is emptied and the fixed class groups are built
    again, so the metrics do not depend on how many rounds fit.  Peak RSS is
    read after the first round because memory freed between rounds comes
    back fragmented, and later peaks vary with the allocator, not the code."""
    done, answers, wall, rss_kb = [], [], 0.0, 0
    for rnd in rounds:
        if done:
            if tracer is not None:
                tracer.query = -1
                tracer.keep_cache_stats()
            sc.class_group.cache_clear()
            build_fixed(sc, workload)
        t0 = perf_counter()
        for disc, tree in rnd:
            if tracer is not None:
                tracer.query = len(answers)
            answers.append((disc, tree, *ask(cli, disc, tree)))
        wall += perf_counter() - t0
        if not done:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done.append(rnd)
        if seconds is not None and wall >= seconds:
            break
    return done, answers, wall, rss_kb


# -- checks ----------------------------------------------------------------------------


def check_run(sc, cli, answers, rng, tag):
    """Failures over all answers that did not fail, with a seeded sample of
    D_n answers recomputed by rt_dihedral and of answers replayed from their
    traces, and the paper's witness."""
    good = [(d, t, text) for d, t, rc, text, _ in answers if rc == 0]
    distinct = sorted({(d, t): text for d, t, text in good}.items())
    dihedral = [key for key, _ in distinct if checks.dihedral_n(key[1]) is not None]
    chk = checks.Checker(sc, set(rng.sample(dihedral, min(DIHEDRAL_SAMPLE, len(dihedral)))))
    for disc, tree, text in good:
        chk.answer(disc, tree, text)
    for (disc, tree), text in rng.sample(distinct, min(REPLAY_SAMPLE, len(distinct))):
        path = OUT / f"replay-{tag}.json"
        rc, rerun, _ = ask(cli, disc, tree, ("--trace", str(path)))
        if rc != 0:
            chk.fail(disc, tree, f"re-run with --trace failed: {rc}")
            continue
        with open(path, encoding="utf-8") as fh:
            chk.replay(disc, tree, text, rerun, json.load(fh))
    rc, text, _ = ask(cli, -84, "C3")
    if rc != 0:
        chk.fail(-84, "C3", f"failed: {rc}")
    else:
        chk.answer(-84, "C3", text)
        chk.witness(text)
    return chk.failures


# -- metrics -----------------------------------------------------------------------------


def end_to_end(setup_times, answers, wall, rss_kb):
    times = [a[4] for a in answers]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "queries_per_s": (len(answers) / wall, "1/s"),
        "query_s_p50": (statistics.median(times), "s"),
        "query_s_p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["w-scan", "subgroup-ladder", "disc-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = make_workload(args.workload, args.seed)

    setup_times = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        t0 = perf_counter()
        sc, cli = import_package()
        prepare(sc, workload)
        setup_times.append(perf_counter() - t0)
    print(f"backend: {sc.BACKEND}; package: {Path(sc.__file__).parent}", flush=True)

    rounds, answers, wall, rss_kb = timed_phase(sc, cli, workload, workload.rounds, args.seconds)
    all_answers = list(answers)
    if args.trace:
        tracer = Tracer()
        sc, cli = import_package()
        tracer.install(sc, cli)
        t0 = perf_counter()
        prepare(sc, workload)
        traced_setup = perf_counter() - t0
        _, traced, traced_wall, _ = timed_phase(sc, cli, workload, rounds, tracer=tracer)
        tracer.uninstall()
        tracer.write(OUT / f"spans-{tag}.jsonl")
        all_answers += traced
        metrics = tracer.layer_metrics()
        metrics["trace.setup_s"] = (traced_setup, "s")
        metrics["trace.query_s"] = (traced_wall, "s")
        metrics["trace.untraced_query_s"] = (wall, "s")
        metrics["trace.overhead"] = (traced_wall / wall - 1, "ratio")
    else:
        metrics = end_to_end(setup_times, answers, wall, rss_kb)

    failed = [a for a in all_answers if a[2] != 0]
    for disc, tree, rc, _, _ in failed:
        print(f"FAILED: rt --disc {disc} --group {tree}: {rc}", file=sys.stderr)
    failures = check_run(sc, cli, answers, random.Random(args.seed), tag)
    if args.trace and [a[:4] for a in traced] != [a[:4] for a in answers]:
        failures.append("the traced queries answered differently from the untraced ones")
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"{len(answers)} queries in {len(rounds)} rounds, {wall:.2f} s; "
          f"{len(failures)} check failures", flush=True)
    result = {
        "correct": not failures,
        "attempted": len(all_answers),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
