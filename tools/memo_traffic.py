"""Hits, calls and size of every dbcat memo under the benchmark's traffics.

    python3 tools/memo_traffic.py [SEED]

Run it at the root of the repository.  A memo is a ``functools`` cache
defined in a ``dbcat`` module, read by its ``cache_info``.  Three traffics run here:
``cli``, the benchmark's 20 golden commands (``CLI_COMMANDS`` at both bounds)
through ``dbcat.cli.main``, every memo cleared before each, and ``joins`` and
``closures``, two passes of each of those workloads (seed 4242 unless given)
with their ops run bare, every memo cleared before each workload.
Each line gives hits/calls and the size a memo was left at, for ``cli`` the
largest any command left.  Every ``dbcat`` module is imported first, so a
memo that a traffic never reaches is listed at 0/0.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
import dbcat  # noqa: E402
from dbcat.cli import main as cli_main  # noqa: E402

def memos() -> dict:
    """Each functools memo of the dbcat modules, by qualified name."""
    return {f"{name.removeprefix('dbcat.')}.{fn.__qualname__}": fn for name, module in list(sys.modules.items())
            if name.split(".")[0] == "dbcat" for fn in vars(module).values()
            if hasattr(fn, "cache_info") and fn.__module__ == name}


def clear():
    for fn in memos().values():
        fn.cache_clear()


def counts() -> dict:
    """(hits, calls, size) of every memo."""
    return {name: (i.hits, i.hits + i.misses, i.currsize) for name, fn in memos().items() for i in [fn.cache_info()]}


class Bare:
    """The benchmark's recorder reduced to running each op and its check."""

    def op(self, kind, fn, *args, check=None, label=None, **kwargs):
        out = fn(*args, **kwargs)
        problem = check and check(out)
        if problem:
            raise AssertionError(f"{label or kind}: {problem}")
        return out


def main() -> int:
    for info in pkgutil.iter_modules(dbcat.__path__):
        importlib.import_module(f"dbcat.{info.name}")
    cli: dict = {}
    for command, workspace, args in workloads.CLI_COMMANDS:
        for bound in workloads.CLI_BOUNDS:
            clear()
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(workloads.cli_argv(command, workspace, args, bound))
            for name, (hits, calls, size) in counts().items():
                h, c, s = cli.get(name, (0, 0, 0))
                cli[name] = (h + hits, c + calls, max(s, size))
    tables = {"cli": cli}
    for traffic in ("joins", "closures"):
        setup, inputs, run = workloads.WORKLOADS[traffic]
        state = setup(int(sys.argv[1]) if len(sys.argv) > 1 else 4242)
        clear()
        for index in range(2):
            run(Bare(), state, inputs(state, index))
        tables[traffic] = counts()
    for traffic, table in tables.items():
        for name, (hits, calls, size) in sorted(table.items()):
            print(f"{traffic:<10}{name:<32}{f'{hits}/{calls}':>12}{size:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
