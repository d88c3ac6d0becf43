"""The dbcat modules each golden CLI command loads, and the source lines they compile.

    python3 tools/compiled_lines.py

Run it at the root of the repository.  Each of the benchmark's ten commands
(``CLI_COMMANDS`` in ``perfbench/workloads.py``, at the default bound) runs
once through ``dbcat.cli.main`` in a fresh interpreter with ``src`` on its
path and no bytecode cache, so the process compiles every line of each dbcat
module it loads.  One line per command gives the lines (as ``wc -l`` counts
them) and the modules; the next line gives the mean over the commands, and
the last the lines of every module, as ``wc -l src/dbcat/*.py`` totals them.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import CLI_COMMANDS, cli_argv  # noqa: E402

CHILD = """import contextlib, io, json, sys
from dbcat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps({name: m.__file__ for name, m in sys.modules.items() if name.split(".")[0] == "dbcat"}))
"""


def loaded_modules(argv: list) -> dict:
    """The dbcat module names one CLI command loads, each with its source file."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def source_lines(path) -> int:
    return Path(path).read_bytes().count(b"\n")


def main() -> int:
    totals = []
    for command, workspace, args in CLI_COMMANDS:
        modules = loaded_modules(cli_argv(command, workspace, args, "bounded"))
        totals.append(sum(map(source_lines, modules.values())))
        names = " ".join(sorted(name.removeprefix("dbcat.") for name in modules))
        print(f"{command:<14}{totals[-1]:>6,}  {names}")
    print(f"{'mean':<14}{statistics.fmean(totals):>6,.0f}")
    src = sum(map(source_lines, (ROOT / "src" / "dbcat").glob("*.py")))
    print(f"{'src':<14}{src:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
