"""The benchmark's hooks into the package must stay importable.

rtbench/tracer.py wraps package functions and methods by name, on a fresh
import of the package; a name it wraps that leaves the package fails here,
not in a benchmark run.
"""

import importlib
import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import steinitzcalc

RTBENCH = Path(__file__).resolve().parent.parent / "rtbench"


def _package_modules():
    return [m for m in sys.modules if m == "steinitzcalc" or m.startswith("steinitzcalc.")]


def test_tracer_installs_on_a_fresh_import():
    spec = importlib.util.spec_from_file_location("rtbench_tracer", RTBENCH / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    saved = {m: sys.modules.pop(m) for m in _package_modules()}
    try:
        sc = importlib.import_module("steinitzcalc")
        cli = importlib.import_module("steinitzcalc.cli")
        assert sc is not steinitzcalc
        tracer = tracer_module.Tracer()
        tracer.install(sc, cli)
        try:
            with redirect_stdout(io.StringIO()):
                argv = ["rt", "--disc", "-23", "--group", str(RTBENCH / "specs" / "D3.json")]
                assert cli.main(argv + ["--json"]) == 0
                # rt and wgroup never enumerate primes: only check's
                # verification reaches the w_result and scan_span hooks
                assert cli.main(["check", "--suite", "wgroup", "--disc", "-23"]) == 0
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        assert metrics["cli.queries"] == (2, "count")
        assert metrics["realizable.rt_calls"] == (1, "count")
        # the suite verifies each of its 9 targets once
        assert metrics["cyclotomic.w_calls"] == (9, "count")
        assert metrics["cyclotomic.w_distinct"] == (9, "count")
        assert metrics["kernels.scan_calls"][0] >= 1
    finally:
        for m in _package_modules():
            del sys.modules[m]
        sys.modules.update(saved)


def test_every_exported_name_resolves():
    assert len(set(steinitzcalc.__all__)) == len(steinitzcalc.__all__)
    for name in steinitzcalc.__all__:
        assert hasattr(steinitzcalc, name), name
