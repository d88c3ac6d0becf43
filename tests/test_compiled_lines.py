import re
import statistics
import subprocess
import sys
from pathlib import Path

from dbcat.powerview import MEMO_ENTRIES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dbcat"


def test_each_golden_command_gets_its_modules_and_their_lines():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compiled_lines.py")], cwd=ROOT, capture_output=True, text=True, check=True
    )
    rows = [line.split(maxsplit=2) for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == [
        "eval", "powerview", "iso", "flux", "compose", "laws", "check-model", "check-functor", "gamma-iso", "duality", "mean", "src"
    ]
    lines = {row[0]: int(row[1].replace(",", "")) for row in rows}
    modules = {row[0]: row[2].split() for row in rows[:-2]}
    files = {name: SRC / ("__init__.py" if name == "dbcat" else f"{name}.py") for name in modules["check-model"]}
    for command, names in modules.items():
        assert lines[command] == sum(files[name].read_bytes().count(b"\n") for name in names), command
    assert modules["iso"] == ["cli", "core", "dbcat", "dsl", "powerview", "schemas", "syntax"]
    assert lines["mean"] == round(statistics.fmean(lines[c] for c in modules))
    wc = subprocess.run(["wc", "-l", *sorted(map(str, SRC.glob("*.py")))], capture_output=True, text=True, check=True)
    assert lines["src"] == int(wc.stdout.splitlines()[-1].split()[0])  # the "total" line


def test_memo_traffic_lists_every_memo_of_both_traffics():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "memo_traffic.py")], cwd=ROOT, capture_output=True, text=True, check=True
    )
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in proc.stdout.splitlines()}
    memo = re.compile(r"^@(?:functools\.)?(?:lru_)?cache\b.*\ndef (\w+)", re.M)
    decorated = [name for path in SRC.glob("*.py") for name in memo.findall(path.read_text())]
    for traffic in ("cli", "closures"):
        names = [name for t, name in rows if t == traffic]
        assert sorted(n.rsplit(".", 1)[1] for n in names if n != "powerview._PV_CACHE") == sorted(decorated)
        assert int(rows[traffic, "powerview._PV_CACHE"][1]) <= MEMO_ENTRIES
    assert len(rows) == 2 * (len(decorated) + 1)
    assert rows["cli", "powerview._PV_CACHE"] == ["0/0", "0"]  # no command reads a bounded closure
    assert rows["cli", "syntax.copy_rule"] == ["32/42", "3"]
    hits, calls = map(int, rows["closures", "powerview._PV_CACHE"][0].split("/"))
    assert 0 < hits < calls and calls > MEMO_ENTRIES


def test_every_memo_is_bounded_by_memo_entries():
    import importlib
    import pkgutil

    import dbcat

    modules = [importlib.import_module(f"dbcat.{m.name}") for m in pkgutil.iter_modules(dbcat.__path__)]
    memos = {fn for module in modules for fn in vars(module).values() if hasattr(fn, "cache_parameters")}
    assert {fn.__name__ for fn in memos} == {"_block_plan", "_sum_layout", "copy_rule"}
    assert all(fn.cache_parameters()["maxsize"] == MEMO_ENTRIES for fn in memos)
    assert [path.name for path in SRC.glob("*.py") if "\nMEMO_ENTRIES = " in path.read_text()] == ["core.py"]
