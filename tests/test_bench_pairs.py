import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402

# Prints a line of chatter, then one JSON result whose wall_s is the checkout's
# speed file followed by the seed as decimals: seed 7 of speed 2 reads 2.7.
STUB = """echo "table chatter"
echo "{\\"correct\\": true, \\"attempted\\": 4, \\"failed\\": 0, \\"metrics\\": {\\"wall_s\\": {\\"value\\": $(cat speed).$5, \\"unit\\": \\"s\\"}, \\"peak_rss_mb\\": {\\"value\\": 20, \\"unit\\": \\"MB\\"}, \\"extra\\": {\\"value\\": $5, \\"unit\\": \\"\\"}}}"
"""


# Bounds as BENCHMARK.json gives them: the fraction of the base median by
# which the change's median may be worse.
SPEC = {
    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.24}, {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
}


def commit(repo, speed, message):
    (repo / "speed").write_text(f"{speed}\n")
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", message],
        check=True,
    )


def test_pairs_of_a_two_commit_repository_are_summarised(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    commit(repo, 2, "base")
    commit(repo, 1, "change")
    stub = tmp_path / "stub.sh"
    stub.write_text(STUB)
    (repo / "speed").write_text("9\n")  # the working tree is never measured

    extra = ["--seconds", "1", "--trace", "0"]
    path = bench_pairs.bench_pairs(repo, "7", "HEAD~1", ["joins"], 3, 4, extra, ["sh", str(stub)])

    assert path == repo / "BENCH_7.json"
    got = json.loads(path.read_text())
    assert set(got) == {"issue", "revisions", "seeds", "order", "host", "workloads"}
    assert got["host"] == {"python": platform.python_version(), "platform": platform.platform(), "cpus": os.cpu_count()}
    assert got["issue"] == "7" and got["seeds"] == [4, 5, 6]
    heads = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD~1", "HEAD"], capture_output=True, text=True)
    assert [got["revisions"][side]["commit"] for side in ("base", "change")] == heads.stdout.split()
    joins = got["workloads"]["joins"]
    assert set(joins) == {"argv", "correct", "failed", "metrics"}
    assert joins["argv"][-8:] == ["--workload", "joins", "--seed", "<seed>", "--seconds", "1", "--trace", "0"]
    assert joins["correct"] == {"base": [True] * 3, "change": [True] * 3}
    wall = joins["metrics"]["wall_s"]
    assert wall["base"]["runs"] == [2.4, 2.5, 2.6] and wall["change"]["runs"] == [1.4, 1.5, 1.6]
    assert (wall["base"]["median"], wall["change"]["median"]) == (2.5, 1.5)
    assert (wall["base"]["q1"], wall["base"]["q3"]) == (2.45, 2.55)
    assert wall["change_wins"] == 3 and wall["pairs"] == 3 and wall["gap_exceeds_base_iqr"] is True
    assert wall["claimable"] is True and wall["within_bound"] is True  # a win
    rss = joins["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and rss["gap_exceeds_base_iqr"] is False  # ties win for neither side
    assert rss["claimable"] is False and rss["within_bound"] is True  # a tie
    extra = joins["metrics"]["extra"]
    assert extra["better"] is None and extra["change_wins"] is None and extra["claimable"] is None
    assert "within_bound" not in extra  # no bound without a direction


def test_a_loss_beyond_the_bound_is_neither_claimable_nor_within_it(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    commit(repo, 1, "base")
    commit(repo, 2, "change")  # wall_s 2.x against 1.x: 67 % worse, beyond its 24 % bound
    stub = tmp_path / "stub.sh"
    stub.write_text(STUB)

    path = bench_pairs.bench_pairs(repo, "9", "HEAD~1", ["joins"], 3, 4, [], ["sh", str(stub)])

    wall = json.loads(path.read_text())["workloads"]["joins"]["metrics"]["wall_s"]
    assert wall["change_wins"] == 0 and wall["gap_exceeds_base_iqr"] is True
    assert wall["claimable"] is False and wall["within_bound"] is False


# As STUB, but a ``-m dbcat.cli`` command prints the checkout's speed file,
# its arguments and whether PYTHONPATH names the checkout's src/, writes a
# ``dbcat:`` line naming its status to stderr, and exits with the checkout's
# status file.
CLI_STUB = """if [ "$1" = "-m" ]; then
  cat speed; shift 2; echo "$@"; [ "$PYTHONPATH" = "$PWD/src" ] && echo src
  echo "dbcat: status $(cat status)" >&2
  exit $(cat status)
fi
""" + STUB


def test_named_cli_commands_are_timed_once_per_revision_and_pair(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    (repo / "status").write_text("0\n")
    commit(repo, 2, "base")
    (repo / "status").write_text("3\n")
    commit(repo, 1, "change")
    stub = tmp_path / "stub.sh"
    stub.write_text(CLI_STUB)

    cli = ["check-functor G --depth -1", "iso 'A 0' B"]
    path = bench_pairs.bench_pairs(repo, "8", "HEAD~1", ["joins"], 3, 4, [], ["sh", str(stub)], cli)

    got = json.loads(path.read_text())
    assert set(got) == {"issue", "revisions", "seeds", "order", "host", "workloads", "cli"}
    assert list(got["cli"]) == cli
    for args, printed in zip(cli, ["check-functor G --depth -1", "iso A 0 B"]):
        command = got["cli"][args]
        assert command["argv"][:4] == ["sh", str(stub), "-m", "dbcat.cli"]
        assert command["status"] == {"base": [0] * 3, "change": [3] * 3}
        for side, speed, status in (("base", 2, 0), ("change", 1, 3)):
            digest = hashlib.sha256(f"{speed}\n{printed}\nsrc\n".encode()).hexdigest()
            assert command["stdout_sha256"][side] == [digest] * 3
            digest = hashlib.sha256(f"dbcat: status {status}\n".encode()).hexdigest()
            assert command["stderr_sha256"][side] == [digest] * 3
        seconds = command["seconds"]
        assert seconds["better"] == "lower" and seconds["pairs"] == 3
        assert all(len(seconds[side]["runs"]) == 3 and min(seconds[side]["runs"]) > 0 for side in ("base", "change"))
