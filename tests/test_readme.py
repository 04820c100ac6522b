"""The README's library examples run as written."""

from __future__ import annotations

import doctest
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_examples():
    result = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert result.attempted > 0
    assert result.failed == 0
