"""Golden digests of `rt` output over the rtbench corpus trees.

Each `rt --json` digest is sha256 over, for every spec file in sorted name
order and then every discriminant in the listed order, the bytes of
'<spec file>@<disc>', a NUL byte, the stdout and the exit code of
`rt --disc D --group FILE --json` run through `cli.main`.  Any change in a
member list, an invariant factor or a chosen generator changes the digest.

The trace digest runs `rt --disc D --group FILE --trace PATH` (text output)
instead and hashes, per pair, '<spec file>@<disc>', a NUL byte, the stdout
with PATH removed, the exit code and the bytes of the trace file, so it
pins every node's member list and W generators as well.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from steinitzcalc import cli

SPECS = Path(__file__).resolve().parent.parent / "rtbench" / "specs"

GOLDEN = [
    (  # 17 trees x 12 discriminants, 204 pairs
        (-84, -15, -23, -95, -119, -260, -399, -1155, -3315, -5460, -100003, -1000019),
        "f77667a035b8bd80f1fd7a9da14001c9d8c0cd5fa4f86fc09cd4dce36d3d494a",
    ),
    (  # h = 702, 1715 and 5085: 51 pairs
        (-8000003, -9999991, -9951191),
        "c5119bfa3073485c16c7a1bb30b139f3eee555069aed152d91ff7ce22037d00c",
    ),
]


def rt_json_digest(discs):
    specs = sorted(SPECS.glob("*.json"), key=lambda p: p.name)
    assert len(specs) == 17
    digest = hashlib.sha256()
    for spec in specs:
        for disc in discs:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["rt", "--disc", str(disc), "--group", str(spec), "--json"])
            digest.update(f"{spec.name}@{disc}".encode() + b"\0")
            digest.update(out.getvalue().encode() + str(code).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("discs, want", GOLDEN, ids=["204-pairs", "51-large-pairs"])
def test_rt_json_digest(discs, want):
    assert rt_json_digest(discs) == want


TRACE_DISCS = (-84, -15, -23, -1155, -3315, -100003, -1000019, -8000003)  # 136 pairs
TRACE_GOLDEN = "d6145cd0770c5e4e3d22482134bc3805f83604dc2ab6847fb4284b96b353171d"


def rt_trace_digest(discs, path):
    specs = sorted(SPECS.glob("*.json"), key=lambda p: p.name)
    assert len(specs) == 17
    digest = hashlib.sha256()
    for spec in specs:
        for disc in discs:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(
                    ["rt", "--disc", str(disc), "--group", str(spec), "--trace", str(path)]
                )
            digest.update(f"{spec.name}@{disc}".encode() + b"\0")
            digest.update(out.getvalue().replace(str(path), "").encode() + str(code).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_rt_trace_digest(tmp_path):
    assert rt_trace_digest(TRACE_DISCS, tmp_path / "trace.json") == TRACE_GOLDEN
