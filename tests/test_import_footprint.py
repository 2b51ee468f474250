"""A cold ``import compident.cli`` loads no module that the commands never use.

``dataclasses`` alone pulls in ``inspect``, and with it ``ast``, ``dis`` and
``tokenize``: several milliseconds of every command's start-up.  The probe
runs in a fresh interpreter and compares against the modules that
interpreter had loaded before the import, since a ``site`` ``.pth`` file may
load some of them first.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import compident.cli\n"
    "print(*sorted(set(sys.modules) - before))\n"
)


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    added = set(result.stdout.split())
    assert {"compident.cli", "compident.identities"} <= added
    assert added & UNUSED == set()
