"""Start-up cost of the CLI, and the record types that keep it low.

A `treewalks` query at small n answers in well under a millisecond, so a
process spends most of its life importing.  ``dataclasses`` alone pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and ``typing`` costs more
again; the record type ``verify.CheckResult`` is a
``collections.namedtuple`` subclass so that none of these load, and a
walk polynomial is a plain tuple.  The pins below hold the behaviour
callers saw when the types were frozen dataclasses.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import treewalks
from treewalks import verify
from treewalks.walks import walks_polynomial

# array too: only the bijection check's _kernel.dyck_classes packs paths
# into arrays, and it imports array when it runs
HEAVY = ("array", "ast", "dataclasses", "dis", "inspect", "tokenize", "typing")

_CHILD = """
import sys
sys.path.insert(0, {src!r})
from treewalks.cli import main
code = main(["walks", "--n", "1", "--delta", "3"])
print(code, sorted(set(sys.modules) & set({heavy!r})))
"""


def test_a_cli_query_imports_no_heavy_module():
    # -S: no site, whose own imports (typing among them on some hosts)
    # would hide what treewalks loads; -E: no PYTHON* settings
    src = str(Path(treewalks.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-E", "-S", "-c", _CHILD.format(src=src, heavy=HEAVY)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "3\n0 []\n"


RECORDS = {
    "check result": (
        lambda: verify.CheckResult("borel", False, "n=1", 3),
        "CheckResult(name='borel', passed=False, detail='n=1', cases=3)",
    ),
}
MAKERS = {name: make for name, (make, _) in RECORDS.items()}
HASHABLE = {"polynomial": lambda: walks_polynomial(3), **MAKERS}


@pytest.mark.parametrize("make, text", RECORDS.values(), ids=RECORDS)
def test_record_repr_is_unchanged(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_record_fields_cannot_be_assigned(make):
    record = make()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("make", HASHABLE.values(), ids=HASHABLE)
def test_equal_records_hash_equal(make):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


def test_check_result_defaults():
    result = verify.CheckResult("x", True)
    assert (result.detail, result.cases) == ("", 0)
    assert repr(result) == "CheckResult(name='x', passed=True, detail='', cases=0)"

