"""Alternating base/change pairs of the benchmark, summarised in BENCH_<issue>.json.

    python3 tools/bench_pairs.py --issue 7 --base HEAD~1 \
        --workloads joins closures cli --pairs 10 --seed 9101 --seconds 40 --trace 0 \
        --cli "check-functor G -i tests/data/system.dbc --depth -1"

Run it at the root of the repository.  The change is the commit ``HEAD``.
Both revisions are cloned from the repository into a temporary directory
(``git clone --shared``, offline) and checked out detached there, so the
working tree is never touched and the clones are removed afterwards.  Pair
``i`` runs ``perfbench/run.py`` of each revision once per workload with seed
``seed + i``; even pairs run the base first, odd pairs the change.  Each run's
last stdout line is its JSON result.  Each ``--cli`` command is then run once
per revision, in the same order, as a fresh ``python -m dbcat.cli`` process
of that checkout; its wall seconds, exit status and the SHA-256 of its stdout
and of its stderr are kept, so a refusal's one ``dbcat:`` line shows too.

Per workload and metric the file holds every run's value, each side's median
and quartiles, how many pairs the change won (by the direction BENCHMARK.json
gives the metric; ties count for neither side), whether the median gap
exceeds the base's interquartile range, whether a gain is ``claimable`` (at
least nine tenths of the pairs won and the median better by more than the
base's IQR) and, for an end-to-end metric with a bound in BENCHMARK.json,
whether the change's median is ``within_bound`` of the base's.  ``host`` names the machine: the
version of the Python running this tool, ``platform.platform()`` and the CPU
count, since pairs compare only on one machine.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def git(repo, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True, check=True).stdout.strip()


def checkout(repo, rev: str, dest: Path) -> Path:
    """A detached checkout of *rev* at *dest*, sharing *repo*'s objects."""
    git(repo, "clone", "--quiet", "--shared", "--no-checkout", str(Path(repo).resolve()), str(dest))
    git(dest, "checkout", "--quiet", "--detach", rev)
    return dest


def run_once(runner: list, tree: Path, argv: list) -> dict:
    proc = subprocess.run([*runner, *argv], cwd=tree, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(runner: list, tree: Path, args: str) -> dict:
    """One ``dbcat`` CLI command, *args* split as a shell would, in a fresh
    process of the checkout *tree*: its wall seconds, exit status and the
    hashes of its stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run([*runner, "-m", "dbcat.cli", *shlex.split(args)], cwd=tree, env=env, capture_output=True, timeout=1800)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "status": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare(base: list, change: list, better, bound=None) -> dict:
    """Both sides' spreads of one paired metric, the change's wins by the
    direction *better* gives and whether the median gap exceeds the base's IQR.

    ``claimable``: the change won at least nine tenths of the pairs and its
    median is better than the base's by more than the base's IQR.  With a
    *bound*, ``within_bound``: the change's median is no worse than the base's
    by more than that fraction of it."""
    b, c, sign = spread(base), spread(change), {"lower": -1, "higher": 1}.get(better)
    gain, iqr = (c["median"] - b["median"]) * (sign or 0), b["q3"] - b["q1"]
    wins = None if sign is None else sum(sign * (y - x) > 0 for x, y in zip(base, change))
    out = {
        "better": better,
        "base": b,
        "change": c,
        "change_wins": wins,
        "pairs": len(base),
        "gap_exceeds_base_iqr": abs(c["median"] - b["median"]) > iqr,
        "claimable": None if sign is None else wins >= 0.9 * len(base) and gain > iqr,
    }
    if bound is not None and sign is not None:
        out["within_bound"] = gain >= -bound * abs(b["median"])
    return out


def summarise(base_runs: list, change_runs: list, better: dict, bounds: dict) -> dict:
    """Per metric of a workload's paired runs, :func:`compare` of its values
    under its direction in *better* and its bound, if any, in *bounds*."""
    out = {}
    names = [name for name in base_runs[0]["metrics"] if all(name in r["metrics"] for r in base_runs + change_runs)]
    for name in names:
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        unit = base_runs[0]["metrics"][name].get("unit")
        out[name] = {"unit": unit, **compare(base, change, better.get(name), bounds.get(name))}
    return out


def bench_pairs(repo, issue, base, workloads, pairs, seed, extra, runner, cli=()) -> Path:
    refs = {"base": base, "change": "HEAD"}
    revs = {side: git(repo, "rev-parse", "--verify", f"{ref}^{{commit}}") for side, ref in refs.items()}
    seeds = list(range(seed, seed + pairs))
    runs = {w: {"base": [], "change": []} for w in workloads}
    commands = {args: {"base": [], "change": []} for args in cli}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: checkout(repo, rev, Path(tmp) / side) for side, rev in revs.items()}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", []) if "bound" in m}
        for i, s in enumerate(seeds):
            for w in workloads:
                argv = ["perfbench/run.py", "--workload", w, "--seed", str(s), *extra]
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    runs[w][side].append(run_once(runner, trees[side], argv))
            for args in cli:
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    commands[args][side].append(run_cli(runner, trees[side], args))
    result = {
        "issue": issue,
        "revisions": {side: {"ref": ref, "commit": revs[side]} for side, ref in refs.items()},
        "seeds": seeds,
        "order": "even pairs run the base first, odd pairs the change",
        "host": {"python": platform.python_version(), "platform": platform.platform(), "cpus": os.cpu_count()},
        "workloads": {
            w: {
                "argv": [*runner, "perfbench/run.py", "--workload", w, "--seed", "<seed>", *extra],
                "correct": {side: [r["correct"] for r in runs[w][side]] for side in revs},
                "failed": {side: [r["failed"] for r in runs[w][side]] for side in revs},
                "metrics": summarise(runs[w]["base"], runs[w]["change"], better, bounds),
            }
            for w in workloads
        },
    }
    if cli:
        result["cli"] = {
            args: {
                "argv": [*runner, "-m", "dbcat.cli", *shlex.split(args)],
                "status": {side: [r["status"] for r in commands[args][side]] for side in revs},
                "stdout_sha256": {side: [r["stdout_sha256"] for r in commands[args][side]] for side in revs},
                "stderr_sha256": {side: [r["stderr_sha256"] for r in commands[args][side]] for side in revs},
                "seconds": compare(*([r["seconds"] for r in commands[args][side]] for side in revs), "lower"),
            }
            for args in cli
        }
    path = Path(repo) / f"BENCH_{issue}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--issue", required=True, help="names the output file BENCH_<issue>.json")
    parser.add_argument("--base", default="HEAD~1", help="revision the change, HEAD, is compared with")
    parser.add_argument("--workloads", nargs="+", default=["joins", "closures", "cli"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli", action="append", default=[], metavar="ARGS", help="a dbcat CLI command to time per pair; repeatable")
    args = parser.parse_args(argv)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    path = bench_pairs(".", args.issue, args.base, args.workloads, args.pairs, args.seed, extra, ["python3"], args.cli)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
