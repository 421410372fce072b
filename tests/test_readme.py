"""README claims checked against the code.

The Library example runs and prints what its trailing comments say,
the family short names listed are the registry's, importing the package
alone loads none of its modules, and every command-line transcript that
shows output replays through cli.run with the same stdout.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import iharazeta
from iharazeta.cli import run
from iharazeta.families import FAMILIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(section: str, lang: str):
    """Bodies of the ``lang`` fenced blocks under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, re.S)


def _sessions():
    """(argv, output lines) for each ``$`` command of the shell blocks."""
    sessions = []
    for block in _blocks("Command line", "sh"):
        for line in block.splitlines():
            if line.startswith("$ "):
                sessions.append((shlex.split(line[2:], comments=True), []))
            elif line:
                sessions[-1][1].append(line)
    return sessions


def test_library_example_prints_what_its_comments_say(capsys):
    (code,) = _blocks("Library example", "python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    claims = [line.split("#", 1)[1].strip()
              for line in code.splitlines() if line.startswith("print(")]
    assert claims and len(printed) == len(claims)
    for out, claim in zip(printed, claims):
        if "..." in claim:
            assert out.startswith(claim.split("...")[0].rstrip()), claim
        else:
            assert out == claim


def test_family_short_names_match_the_registry():
    para = README.split("Family specs use short names:", 1)[1]
    listed = para.split("\n\n", 1)[0].split("Long tag names", 1)[0]
    shorts = re.findall(r"`(\w+)\(", listed)
    assert sorted(shorts) == sorted(f.short for f in FAMILIES.values() if f.short)


def test_importing_the_package_loads_no_module():
    # a fresh interpreter: this one has already imported the modules
    env = dict(os.environ,
               PYTHONPATH=str(Path(iharazeta.__file__).resolve().parents[1]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, iharazeta; "
         "print(sorted(m for m in sys.modules if m.startswith('iharazeta.')))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert loaded == "[]\n"


def test_command_line_transcripts_replay(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    replayed = 0
    for argv, output in _sessions():
        if argv[0] == "printf":  # printf FORMAT > FILE
            fmt, redirect, name = argv[1:]
            assert redirect == ">"
            (tmp_path / name).write_text(fmt.encode().decode("unicode_escape"))
        elif argv[0] == "iharazeta" and output:
            assert run(argv[1:]) == 0, argv
            assert capsys.readouterr().out == "\n".join(output) + "\n", argv
            replayed += 1
        else:
            assert argv[0] == "iharazeta" and not output, argv
    assert replayed
