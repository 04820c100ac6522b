"""Every CLI invocation in a fixed corpus gives the bytes and exit code on record.

``cli_corpus.json`` lists argv lists: every subcommand in every format,
with bad and edge inputs, ``--help`` and no subcommand.
``cli_manifest.json`` holds, per argv, the exit code and the sha256 of
stdout and of stderr (UTF-8), each run in process through ``cli.main``.
A change that alters some output on purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_cli_manifest.py --write

and names the entries that changed.  ``--check`` in place of ``--write``
prints every mismatching entry and exits 1 if there is one, under any
interpreter, with or without pytest.  The big-answer and streaming cases
stay in ``test_cli.py``; the sizes here are small.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from treewalks import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")
MANIFEST = Path(__file__).with_name("cli_manifest.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(argv: list[str]) -> dict:
    """Exit code and output hashes of one in-process ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: --help and usage errors
            code = exc.code
    return {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def outcomes() -> dict[str, dict]:
    """The outcome of every corpus argv, keyed by the argv as one shell line.

    argparse wraps help and usage text to $COLUMNS, so the caller pins it.
    """
    return {shlex.join(argv): outcome(argv) for argv in json.loads(CORPUS.read_text())}


def mismatches() -> list[str]:
    """Every argv, as one shell line, whose outcome is not the manifest's.

    An argv in only one of the corpus and the manifest is a mismatch too.
    """
    expected = json.loads(MANIFEST.read_text())
    got = outcomes()
    return [argv for argv in {**expected, **got} if got.get(argv) != expected.get(argv)]


def test_every_corpus_invocation_matches_the_manifest(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    changed = mismatches()
    assert not changed, f"{len(changed)} invocations changed, first {changed[:5]}"


def _check_value_listing_with_str(self, action, value):
    """argparse's choices check as later 3.13 patches have it: choices unquoted."""
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        message = f"invalid choice: {str(value)!r} (choose from {choices})"
        raise argparse.ArgumentError(action, message)


def test_the_manifest_holds_under_the_later_313_choices_wording(monkeypatch):
    # The corpus's invalid-choice argv (an unknown command, such as "-5",
    # "-a b" or "-x frobnicate", kind, --method and --format) are the
    # entries this wording would change, so the manifest holds only while
    # every parser, each subparser included, is a ``cli._Parser``.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", _check_value_listing_with_str)
    changed = mismatches()
    assert not changed, f"{len(changed)} invocations changed, first {changed[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--check"]):
        sys.exit(f"usage: python {sys.argv[0]} --write | --check")
    os.environ["COLUMNS"] = "80"
    if sys.argv[1] == "--check":
        changed = mismatches()
        for argv in changed:
            print(f"mismatch: {argv}")
        total = len(json.loads(MANIFEST.read_text()))
        print(f"{len(changed)} mismatches; the manifest has {total} entries")
        sys.exit(1 if changed else 0)
    entries = (f"{json.dumps(argv)}: {json.dumps(result)}" for argv, result in outcomes().items())
    MANIFEST.write_text("{\n" + ",\n".join(entries) + "\n}\n")
