"""A cold ``import compident.cli`` loads no module that the commands never use.

``dataclasses`` alone pulls in ``inspect``, and with it ``ast``, ``dis`` and
``tokenize``: several milliseconds of every command's start-up.  The probe
runs in a fresh interpreter and compares against the modules that
interpreter had loaded before the import, since a ``site`` ``.pth`` file may
load some of them first.

Nor does the import build the command-line parser: main builds it on its
first call.  argparse loads ``locale`` (through ``gettext``) only when it
builds a parser, so a cold import that loads no ``locale`` built none.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def modules_added_by_import(preload: str = "sys") -> set[str]:
    # the modules a cold ``import compident.cli`` adds, after ``import preload``
    probe = (
        f"import {preload}\n"
        "before = set(sys.modules)\n"
        "import compident.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    added = modules_added_by_import()
    assert {"compident.cli", "compident.identities"} <= added
    assert added & UNUSED == set()


def test_cli_import_builds_no_parser():
    # argparse first: an interpreter whose gettext loads locale on import
    # has it loaded before the probe, and only a parser build adds it after
    added = modules_added_by_import("sys, argparse")
    assert "compident.cli" in added
    assert "locale" not in added
