"""The README's library example and CLI examples run against the current API."""

import re
import shlex
from pathlib import Path

from directwf.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) > 1 - 1e-12


def test_cli_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"Examples:\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    commands = [shlex.split(line) for line in blocks[0].splitlines() if line.strip()]
    assert commands and all(argv[0] == "directwf" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert (tmp_path / argv[argv.index("--out") + 1]).is_file(), argv
