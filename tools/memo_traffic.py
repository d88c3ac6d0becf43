"""Hits, calls and size of every dbcat memo under the benchmark's traffics.

    python3 tools/memo_traffic.py [SEED]

Run it at the root of the repository.  A memo is a ``functools`` cache
defined in a loaded ``dbcat`` module; ``powerview._PV_CACHE`` keeps no
counts and shows its size alone.  Two traffics run in this process: ``cli``,
the benchmark's 20 golden commands (``CLI_COMMANDS`` at both bounds) through
``dbcat.cli.main``, every memo cleared before each, and ``closures``, two
passes of that workload (seed 4242 unless given) with its ops run bare.
Each line gives hits/calls and the size a memo was left at, for ``cli`` the
largest any command left.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dbcat import powerview  # noqa: E402
from dbcat.cli import main as cli_main  # noqa: E402

PV_CACHE = "powerview._PV_CACHE"


def memos() -> dict:
    """Each functools memo of the loaded dbcat modules, by qualified name."""
    return {f"{name.removeprefix('dbcat.')}.{fn.__qualname__}": fn for name, module in list(sys.modules.items())
            if name.split(".")[0] == "dbcat" for fn in vars(module).values()
            if hasattr(fn, "cache_info") and fn.__module__ == name}


def clear():
    for fn in memos().values():
        fn.cache_clear()
    powerview._PV_CACHE.clear()


def counts() -> dict:
    """(hits, calls, size) of every memo."""
    out = {name: (i.hits, i.hits + i.misses, i.currsize) for name, fn in memos().items() for i in [fn.cache_info()]}
    return {**out, PV_CACHE: (0, 0, len(powerview._PV_CACHE))}


class Bare:
    """The benchmark's recorder reduced to running each op and its check."""

    def op(self, kind, fn, *args, check=None, label=None, **kwargs):
        out = fn(*args, **kwargs)
        problem = check and check(out)
        if problem:
            raise AssertionError(f"{label or kind}: {problem}")
        return out


def main() -> int:
    cli: dict = {}
    for command, workspace, args in workloads.CLI_COMMANDS:
        for bound in workloads.CLI_BOUNDS:
            clear()
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(workloads.cli_argv(command, workspace, args, bound))
            for name, (hits, calls, size) in counts().items():
                h, c, s = cli.get(name, (0, 0, 0))
                cli[name] = (h + hits, c + calls, max(s, size))
    state = workloads.closures_setup(int(sys.argv[1]) if len(sys.argv) > 1 else 4242)
    clear()
    for index in range(2):
        workloads.closures_pass(Bare(), state, workloads.closures_inputs(state, index))
    for traffic, table in (("cli", cli), ("closures", counts())):
        for name, (hits, calls, size) in sorted(table.items()):
            print(f"{traffic:<10}{name:<32}{'-' if name == PV_CACHE else f'{hits}/{calls}':>12}{size:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
