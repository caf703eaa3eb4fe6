"""The README's library example still runs against the package."""

from __future__ import annotations

import re
from pathlib import Path

import cvesentinel

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_imports():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library use'"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in cvesentinel.__all__ if not hasattr(cvesentinel, name)]
    assert missing == []
