"""Every Python file of the project parses as the oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_sources_parse_as_the_oldest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    assert oldest == (3, 10)
    # the check can fail: a 3.11 construct is rejected
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=oldest)
    sources = sorted(p for part in ("src", "tests", "bench") for p in (ROOT / part).rglob("*.py"))
    assert len(sources) > 20
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest)
