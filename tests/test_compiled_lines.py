import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dbcat"


def test_each_golden_command_gets_its_modules_and_their_lines():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compiled_lines.py")], cwd=ROOT, capture_output=True, text=True, check=True
    )
    rows = [line.split(maxsplit=2) for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == [
        "eval", "powerview", "iso", "flux", "compose", "laws", "check-model", "check-functor", "gamma-iso", "duality", "mean"
    ]
    lines = {row[0]: int(row[1].replace(",", "")) for row in rows}
    modules = {row[0]: row[2].split() for row in rows[:-1]}
    files = {name: SRC / ("__init__.py" if name == "dbcat" else f"{name}.py") for name in modules["check-model"]}
    for command, names in modules.items():
        assert lines[command] == sum(files[name].read_bytes().count(b"\n") for name in names), command
    assert modules["iso"] == ["cli", "core", "dbcat", "dsl", "powerview", "schemas", "syntax"]
    assert lines["mean"] == round(statistics.fmean(lines[c] for c in modules))
