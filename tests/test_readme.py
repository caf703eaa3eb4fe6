"""The README's library example still runs against the package."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import cvesentinel
from cvesentinel.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_imports():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library use'"
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in cvesentinel.__all__ if not hasattr(cvesentinel, name)]
    assert missing == []


def test_every_stats_line_takes_only_options_its_report_reads(tmp_path, monkeypatch, capsys):
    """Run where no store or file exists: a line may fail to read its input,
    but never on an option its report does not read or one it needs."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no sh block under 'Command line'"
    text = block.group(1).replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in text.splitlines()]
    stats = [argv[1:] for argv in lines if argv[:2] == ["sentinel", "stats"]]
    assert len(stats) == 5
    monkeypatch.chdir(tmp_path)
    for argv in stats:
        code = main([*argv, "--store", str(tmp_path / "store")])
        err = capsys.readouterr().err
        assert "is read only by" not in err and " needs " not in err, (argv, err)
        assert code in (0, 2), (argv, err)
