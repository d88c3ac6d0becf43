"""The dbcat modules each golden CLI command loads, and the source lines they compile.

    python3 tools/compiled_lines.py

Run it at the root of the repository.  Each of the benchmark's ten commands
(``CLI_COMMANDS`` in ``perfbench/workloads.py``, at the default bound) runs
once through ``dbcat.cli.main`` in a fresh interpreter with ``src`` on its
path and no bytecode cache, so the process compiles every line of each dbcat
module it loads.  One line per command gives the lines (as ``wc -l`` counts
them) and the modules.  The ``read`` line gives them for reading the
commands' workspaces as the benchmark's ``cli`` setup does: ``import
dbcat.dsl``, then ``parse_workspace`` of each file.  The next line gives the
mean over the commands, the next the lines of every module, as ``wc -l
src/dbcat/*.py`` totals them, and the last the AST statements of every module.
"""
from __future__ import annotations

import ast
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import CLI_COMMANDS, DATA, cli_argv  # noqa: E402

LOADED = 'print(json.dumps({name: m.__file__ for name, m in sys.modules.items() if name.split(".")[0] == "dbcat"}))'
COMMAND = """import contextlib, io, json, sys
from dbcat.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
""" + LOADED
READ = """import json, sys
from dbcat.dsl import parse_workspace
for path in sys.argv[1:]:
    parse_workspace([path])
""" + LOADED


def loaded_modules(child: str, argv: list) -> dict:
    """The dbcat module names the script *child* loads when run on *argv*, each with its source file."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", child, *argv], cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def source_lines(path) -> int:
    return Path(path).read_bytes().count(b"\n")


def row(label: str, modules: dict) -> int:
    """Print the line of *modules*, labelled *label*; return their lines."""
    lines = sum(map(source_lines, modules.values()))
    print(f"{label:<14}{lines:>6,}  {' '.join(sorted(name.removeprefix('dbcat.') for name in modules))}")
    return lines


def main() -> int:
    totals = [row(c, loaded_modules(COMMAND, cli_argv(c, ws, args, "bounded"))) for c, ws, args in CLI_COMMANDS]
    row("read", loaded_modules(READ, [f"{DATA}/{ws}.dbc" for ws in sorted({ws for _, ws, _ in CLI_COMMANDS})]))
    print(f"{'mean':<14}{statistics.fmean(totals):>6,.0f}")
    paths = list((ROOT / "src" / "dbcat").glob("*.py"))
    print(f"{'src':<14}{sum(map(source_lines, paths)):>6,}")
    statements = sum(isinstance(node, ast.stmt) for path in paths for node in ast.walk(ast.parse(path.read_bytes())))
    print(f"{'statements':<14}{statements:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
