"""The README's examples run as written: its ``diffcoh check`` block is
the CLI report byte for byte, and its Library snippet prints the table
it computes."""

import pathlib

from diffcoh.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _fenced(info):
    """The bodies of the README's fenced blocks whose info string is ``info``."""
    blocks, body, tag = [], None, None
    for line in README.splitlines(keepends=True):
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            body, tag = [], line[3:].strip()
        else:
            if tag == info:
                blocks.append("".join(body))
            body = None
    return blocks


def test_check_example_is_the_cli_report(capsys, monkeypatch):
    (block,) = [b for b in _fenced("") if b.startswith("$ diffcoh check ")]
    command, expected = block.split("\n", 1)
    monkeypatch.chdir(ROOT)
    assert main(command.split()[2:]) == 0
    assert capsys.readouterr().out.encode() == expected.encode()


def test_library_example_prints_its_table(capsys):
    (snippet,) = _fenced("python")
    exec(snippet, {})
    assert capsys.readouterr().out == "1 1 0 1\n2 1 1 2\n"
