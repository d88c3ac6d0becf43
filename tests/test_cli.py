import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import dbcat
from dbcat.cli import COMMANDS, GRAPH_COMMANDS, _mapping_morphism, main, parse_argv, render, run
from dbcat.core import DEFAULT_CAP, DEFAULT_DEPTH, DEFAULT_MAX_ARITY, DbcatError, make_instance
from dbcat.dsl import parse_workspace, parse_workspace_text
from dbcat.interpret import gamma_instance, interpretation
from dbcat import powerview
from dbcat.category import compose, equivalent
from dbcat.powerview import instances_isomorphic, matching, merging
from dbcat.sketch import build_sketch
from dbcat.writer import serialize_workspace

DATA = pathlib.Path(__file__).parent / "data"
FILES = sorted(DATA.glob("*.dbc"))
GOLDEN = pathlib.Path(__file__).parent.parent / "perfbench" / "golden" / "cli.json"

# The benchmark's ten commands and its two bounds, read from the file that
# defines them, so every test here runs what the benchmark runs.
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "perfbench"))
from workloads import CLI_BOUNDS, CLI_COMMANDS  # noqa: E402

GOLDEN_COMMANDS = CLI_COMMANDS
GOLDEN_BOUNDS = {bound: list(flags) for bound, flags in CLI_BOUNDS.items()}


def ws(*names):
    return parse_workspace([DATA / n for n in names])


def test_eval_command():
    report = run("eval", ["A0", "q(X) :- r(X,Y)"], ws("demo.dbc"), 2, 4, 100000)
    assert report.passed
    ((cid, ok, detail),) = report.checks
    assert ok and detail == "{(1) (2)}"


def test_eval_cross_component_fails():
    report = run(
        "eval", ["S0", "j(X,Y) :- p(X), q(Y)"], ws("federation.dbc"), 2, 4, 100000
    )
    assert not report.passed
    assert "separated" in report.checks[0][2]


def test_eval_federated_succeeds():
    report = run(
        "eval", ["F0", "j(X,Y) :- p(X), q(Y)"], ws("federation.dbc"), 2, 4, 100000
    )
    assert report.passed
    assert report.checks[0][2] == "{(1,2)}"


def test_iso_command():
    report = run("iso", ["A0", "A0"], ws("demo.dbc"), 2, 4, 100000)
    assert report.passed
    report2 = run("iso", ["A0", "B0"], ws("demo.dbc"), 2, 4, 100000)
    assert not report2.passed


def test_powerview_command_deterministic():
    w = ws("demo.dbc")
    r1 = render("powerview", run("powerview", ["B0"], w, 2, 2, 100000), "lines")
    r2 = render("powerview", run("powerview", ["B0"], w, 2, 2, 100000), "lines")
    assert r1 == r2
    assert "PASS" in r1


def test_flux_and_compose_commands():
    report = run("flux", ["M", "A0", "B0"], ws("demo.dbc"), None, 2, 100000)
    assert report.passed
    report2 = run("compose", ["M", "N", "A0", "B0", "D0"], ws("demo.dbc"), None, 2, 100000)
    assert report2.passed
    assert any("kind" in cid and detail == "c-arrow" for cid, _, detail in report2.checks)


def test_check_model_and_functor_commands():
    w = ws("system.dbc")
    model = run("check-model", ["G"], w, None, 2, 100000)
    assert model.passed
    functor = run("check-functor", ["G"], w, None, 2, 100000)
    assert functor.passed
    gamma = run("gamma-iso", ["G"], w, None, 2, 100000)
    assert gamma.passed


def test_laws_and_duality_commands():
    w = ws("demo.dbc")
    laws = run("laws", [], w, None, 2, 100000)
    assert laws.passed
    duality = run("duality", ["A0", "B0"], w, None, 2, 100000)
    assert duality.passed


def test_report_lines_format():
    report = run("iso", ["A0", "A0"], ws("demo.dbc"), 2, 4, 100000)
    line = render("iso", report, "lines")
    cid, verdict, detail = line.split("\t")
    assert verdict == "PASS"


def test_main_exit_codes(tmp_path, capsys):
    demo = str(DATA / "demo.dbc")
    assert main(["iso", "A0", "A0", "-i", demo]) == 0
    capsys.readouterr()
    assert main(["iso", "A0", "B0", "-i", demo]) == 1
    capsys.readouterr()
    assert main(["eval", "A0", "q(X) :- r(X,Y)", "-i", "/nonexistent.dbc"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.dbc"
    bad.write_text("schema { }")
    assert main(["iso", "A0", "A0", "-i", str(bad)]) == 2
    capsys.readouterr()
    assert main(["no-such-command", "-i", demo]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["iso", "S0"], "iso takes INSTANCE INSTANCE (got 1 argument)"),
        (["iso", "S0", "F0", "extra"], "iso takes INSTANCE INSTANCE (got 3 arguments)"),
        (["compose", "M"], "compose takes MAPPING MAPPING SOURCE MIDDLE TARGET (got 1 argument)"),
        (["laws", "S0"], "laws takes no arguments (got 1 argument)"),
    ],
)
def test_wrong_argument_count_is_a_usage_error(argv, message, capsys):
    assert main([*argv, "-i", str(DATA / "federation.dbc")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"dbcat: {message}\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("schema A { r/1. r/2. }", "line 1, column 22: duplicate relation symbols in schema A (found '}')"),
        (
            "schema A { r/1. }\nschema B { s/1. }\n"
            "mapping M : A -> B { q(X) :- r(X) => s(X,Y). }",
            "line 3, column 44: right-side atom width differs from the left head (found '.')",
        ),
        (
            "schema _empty { r/1. }\nschema B { s/1. }\n"
            "mapping M : _empty -> B { q(X) :- r(X) => s(X). }\ngraph G { use M. }",
            "line 4, column 18: graph G: node name '_empty' is reserved (found '}')",
        ),
        (
            "schema B { s/1. }\nmapping M : B -> B { q(X) :- s(Y) => s(X). }",
            "line 2, column 35: head variable X does not occur in the body (found '=>')",
        ),
    ],
)
def test_semantic_input_error_is_a_usage_error(tmp_path, text, message, capsys):
    # a record's own error is positioned in its file, as a syntax error is
    bad = tmp_path / "bad.dbc"
    bad.write_text(text)
    assert main(["laws", "-i", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"dbcat: {bad}: {message}\n")


def test_inclusion_violation_with_mixed_value_types_is_a_failed_check(tmp_path, capsys):
    # the extra tuples mix ints and strings: they are listed in value order, not compared raw
    mixed = tmp_path / "mixed.dbc"
    mixed.write_text(
        "schema A { r/2. }\nschema B { s/1. }\n"
        "instance A0 of A { r(1,2). r('a',3). }\ninstance B0 of B { s(2). }\n"
        "mapping M : A -> B { q(X) :- r(X,Y) => s(X). }"
    )
    assert main(["flux", "M", "A0", "B0", "-i", str(mixed), "--format", "lines"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (
        "flux M\tFAIL\tview for s not contained in target: extra tuples [(1,), ('a',)]\n",
        "",
    )


QUERY_RIGHT_SIDE = (
    "schema A { r/1. } schema B { s/1. } instance A0 of A { r(1). r(2). } instance B0 of B { s(1). s(2). }\n"
    "mapping M : A -> B { q(X) :- r(X) => s(X) :- s(X), X = 1. } graph G { use M. }\n"
)


def test_an_arrow_command_refuses_a_query_right_side(tmp_path, capsys):
    """flux and compose read a pair's right side as a relation of the target;
    a query there is refused, not read as the relation its head names."""
    path = tmp_path / "query.dbc"
    path.write_text(QUERY_RIGHT_SIDE)
    refusal = "dbcat: mapping M: right side 's' is a query, not a relation of instance 'B0'\n"
    for argv in (["flux", "M", "A0", "B0"], ["compose", "M", "M", "A0", "B0", "B0"]):
        assert main([*argv, "-i", str(path)]) == 2
        assert capsys.readouterr() == ("", refusal)
    assert main(["check-model", "G", "-i", str(path), "--format", "lines"]) == 1  # s(2) is no s(X), X = 1
    assert "arrow phi_C_M_0\tFAIL\tsentinel dependency fails" in capsys.readouterr().out
    path.write_text(QUERY_RIGHT_SIDE.replace("=> s(X) :- s(X), X = 1.", "=> t(X)."))
    assert main(["flux", "M", "A0", "B0", "-i", str(path)]) == 2
    assert capsys.readouterr() == ("", "dbcat: mapping M: right side 't' is not a relation of instance 'B0'\n")


def test_exhausted_view_budget_is_a_usage_error(capsys):
    demo = str(DATA / "demo.dbc")
    assert main(["powerview", "A0", "-i", demo, "--depth", "-1", "--arity", "4", "--cap", "50"]) == 2
    assert "cap" in capsys.readouterr().err


def _verdict_runs():
    """(data file, argv) for every verdict command on each data file: iso and
    duality on every ordered pair of its instances, the graph commands on
    each of its graphs."""
    runs = []
    for path in FILES:
        w = parse_workspace([path])
        pairs = [[a, b] for a in sorted(w.instances) for b in sorted(w.instances)]
        runs += [(path.name, ["laws"])] + [(path.name, [c, *p]) for c in ("iso", "duality") for p in pairs]
        runs += [(path.name, [c, g]) for g in sorted(w.graphs) for c in GRAPH_COMMANDS]
    return runs


NO_BOUND = [[], ["--depth", "1"], ["--depth", "2"], ["--depth", "3", "--cap", "1"], ["--depth", "-1"]]


@pytest.mark.parametrize("name, argv", _verdict_runs(), ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_a_verdict_reads_no_bound(name, argv, capsys):
    """Every verdict is decided at fixpoint, so no depth or cap changes its
    report and no cap can stop it."""
    readings = []
    for bound in NO_BOUND:
        status = main([*argv, "-i", str(DATA / name), "--format", "lines", *bound])
        out, err = capsys.readouterr()
        assert err == "", (bound, err)
        readings.append((status, out))
    assert readings[0][0] in (0, 1) and readings == readings[:1] * len(NO_BOUND)


SAME_DOMAIN = """schema A { r/1. }
schema B { s/2. }
instance A0 of A { r(1). r(2). r(3). r(4). r(5). }
instance B0 of B { s(1,2). s(3,4). s(5,5). }
"""


@pytest.mark.parametrize("text, argv", [(None, ["iso", "A0", "D0"]), (SAME_DOMAIN, ["iso", "A0", "B0"])],
                         ids=["demo", "same-domain"])
def test_an_iso_that_a_bounded_closure_failed_passes(text, argv, tmp_path, capsys):
    """Each pair has one component over one domain, so their closures are
    equal at fixpoint; the default bound's closures differed, and it printed
    an unlabelled FAIL."""
    path = DATA / "demo.dbc"
    if text is not None:
        path = tmp_path / "same_domain.dbc"
        path.write_text(text)
    assert main([*argv, "-i", str(path), "--format", "lines"]) == 0
    assert capsys.readouterr() == (f"iso {argv[1]} {argv[2]}\tPASS\tsame views\n", "")


def test_a_listing_budget_error_names_no_check(capsys):
    assert main(["powerview", "A0", "-i", str(DATA / "demo.dbc"), "--depth", "-1"]) == 2
    assert capsys.readouterr() == (
        "", "dbcat: view enumeration exceeded cap of 100000 (component 0, level 4, 100001 views)\n"
    )


@pytest.mark.parametrize("flag, value", [("--depth", "-7"), ("--depth", "-2"), ("--cap", "-5"), ("--cap", "0")])
def test_out_of_range_bound_is_a_usage_error(flag, value, capsys):
    assert main(["iso", "S0", "F0", "-i", str(DATA / "federation.dbc"), flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"dbcat: {flag} must be at least ")


@pytest.mark.parametrize("argv", [["iso", "A0", "B0", "--arity", "-1"], ["powerview", "A0", "--arity", "-3"]])
def test_negative_arity_is_a_usage_error(argv, capsys):
    assert main(argv + ["-i", str(DATA / "demo.dbc")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"dbcat: --arity must be at least 0, not {argv[-1]}\n"


def _raise(*args):
    raise AssertionError("a closure was built")


def test_fixpoint_iso_is_decided_without_building_closures(monkeypatch, capsys):
    monkeypatch.setattr(powerview, "close_component", _raise)  # the closures are never built
    monkeypatch.setattr(powerview.ClosedForm, "of_seeds", _raise)  # nor any fixpoint description
    demo = str(DATA / "demo.dbc")
    status = main(["iso", "A0", "B0", "-i", demo, "--depth", "-1", "--format", "lines"])
    assert status in (0, 1)  # an exact verdict, not the exit 2 of a view-budget error
    detail = "same views" if status == 0 else "views differ"
    assert capsys.readouterr().out.endswith(f"\t{detail}\n")
    ring = lambda step: [tuple((i + step * k) % 50 for k in range(4)) for i in range(50)]  # |D| = 50
    pairs = [
        ({"r": [(1, 2), (3, 4)]}, {"r": [(1, 3), (2, 4)]}, 2, True),
        ({"r": ring(1)}, {"r": ring(3)}, 4, True),
        ({"r": ring(1)}, {"r": ring(3), "z": [()]}, 4, False),
    ]
    for ra, rb, arity, same in pairs:
        a, b = make_instance(ra), make_instance(rb)
        assert instances_isomorphic(a, b, None, arity) is same
        assert same or not instances_isomorphic(a, b, 2, arity)  # signatures differ: FAIL at any depth


FIXPOINT_ARROWS = {
    "demo": [["flux", "M", "A0", "B0"], ["flux", "N", "B0", "D0"], ["compose", "M", "N", "A0", "B0", "D0"]],
    "federation": [],
    "system": [["flux", "M1", "A1", "C1"]],
}


def test_fixpoint_commands_never_run_the_level_enumerator(monkeypatch, capsys):
    """Every verdict on the data files, at the default arity with and without
    ``--depth -1``, and every fixpoint listing within the cap (at arity 2)
    answers from descriptions."""
    monkeypatch.setattr(powerview, "close_component", _raise)
    for name, arrows in FIXPOINT_ARROWS.items():
        w = ws(f"{name}.dbc")
        pairs = [[a, b] for a in sorted(w.instances) for b in sorted(w.instances)]
        verdicts = [["laws"]] + [[c, *p] for c in ("iso", "duality") for p in pairs]
        verdicts += [[c, g] for g in w.graphs for c in ("check-functor", "gamma-iso")]
        listings = [["powerview", i, "--arity", "2"] for i in sorted(w.instances)]
        listings += [[*argv, "--arity", "2"] for argv in arrows]
        for argv in verdicts + listings:
            for bound in ([], ["--depth", "-1"]) if argv in verdicts else (["--depth", "-1"],):
                status = main([*argv, "-i", str(DATA / f"{name}.dbc"), *bound])
                assert status in ((0, 1) if argv in verdicts else (0,)) and capsys.readouterr().err == "", argv
        insts = [inst for _, inst in w.instances.values()]
        for a, b in itertools.product(insts, repeat=2):
            assert matching(a, b, None).fixpoint and merging(a, b, None).fixpoint
        morphisms = [_mapping_morphism(w, argv[1], *argv[2:4]) for argv in arrows if argv[0] == "flux"]
        if name == "demo":
            morphisms.append(compose(morphisms[1], morphisms[0]))
        same = {(f, g): equivalent(f, g, None) for f, g in itertools.product(morphisms, repeat=2)}
        assert all(same[f, f] for f in morphisms)
    with pytest.raises(AssertionError, match="a closure was built"):  # a bounded closure runs it
        main(["powerview", "B0", "-i", str(DATA / "demo.dbc"), "--depth", "1"])


DEMO_COMMANDS = [(command, args) for command, workspace, args in GOLDEN_COMMANDS if workspace == "demo"] + [
    ("iso", ["A0", "B0"]),
    ("check-model", ["G"]),
    ("check-functor", ["G"]),
    ("gamma-iso", ["G"]),
]


@pytest.mark.parametrize("depth", ["1", "-1"])
@pytest.mark.parametrize("command, args", DEMO_COMMANDS, ids=[c for c, _ in DEMO_COMMANDS])
def test_an_arity_below_the_widest_relation_is_raised_to_it(command, args, depth, capsys):
    """demo.dbc's widest relation is binary: --arity 1 closes at width 2."""
    readings = []
    for arity in ("1", "2"):
        status = main([command, *args, "-i", str(DATA / "demo.dbc"), "--depth", depth, "--arity", arity])
        readings.append((status, *capsys.readouterr()))
    assert readings[0] == readings[1]


@pytest.mark.parametrize("args", [["duality", "B0", "B0"], ["duality", "F0", "F0"], ["duality", "C1", "C1"],
                                  ["laws"], ["duality", "A0", "B0"], ["check-functor", "G"]])
def test_fixpoint_verdicts_are_exact_at_the_default_arity(args, capsys):
    """No fixpoint verdict is counted against the cap, which only listings spend."""
    name = {"F0": "federation", "C1": "system"}.get(args[-1], "demo")
    assert main([*args, "-i", str(DATA / f"{name}.dbc"), "--depth", "-1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("args", [["flux", "M", "A0", "B0"], ["compose", "M", "N", "A0", "B0", "D0"]])
def test_fixpoint_reports_count_their_channels_before_listing(args, capsys):
    start = time.perf_counter()
    assert main([*args, "-i", str(DATA / "demo.dbc"), "--depth", "-1", "--arity", "5"]) == 2
    assert time.perf_counter() - start < 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("dbcat: view enumeration exceeded cap of 100000")
    # a listed closure past the cap on its own is enumerated to say where
    assert main(["powerview", "A0", "-i", str(DATA / "demo.dbc"), "--depth", "-1"]) == 2
    assert capsys.readouterr() == ("", "dbcat: view enumeration exceeded cap of 100000 (component 0, level 4, 100001 views)\n")


def test_console_script_runs():
    demo = str(DATA / "demo.dbc")
    proc = subprocess.run(
        [sys.executable, "-m", "dbcat.cli", "iso", "A0", "A0", "-i", demo, "--format", "lines"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def _argparse_reading(argv):
    """How the argparse parser dbcat used to build read *argv*: the parsed
    line, "help" or "error"."""
    parser = argparse.ArgumentParser(prog="dbcat")
    parser.add_argument("command")
    parser.add_argument("args", nargs="*")
    parser.add_argument("--input", "-i", action="append", default=[])
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    parser.add_argument("--arity", type=int, default=DEFAULT_MAX_ARITY)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP)
    parser.add_argument("--format", choices=("text", "lines"), default="text")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        return "help" if exc.code == 0 else "error"
    except argparse.ArgumentError:
        return "error"
    values = {"--input": tuple(ns.input), "--depth": ns.depth, "--arity": ns.arity, "--cap": ns.cap}
    return ns.command, ns.args, {**values, "--format": ns.format}


def _our_reading(argv):
    try:
        parsed = parse_argv(argv)
    except DbcatError:
        return "error"
    return "help" if parsed is None else parsed


@st.composite
def option_groups(draw):
    """One option with its value, in any spelling argparse took: split or
    joined by ``=``, long or a prefix of it, ``-i`` also run together with
    its value; now and then a value that is refused, help or an unknown
    option."""
    name = draw(st.sampled_from(["--input", "--depth", "--arity", "--cap", "--format", "--help", "--bogus"]))
    if name in ("--help", "--bogus"):
        return [draw(st.sampled_from(["-h", "--help", "--he"]))] if name == "--help" else [name]
    values = {"--input": ["a.dbc", "b c.dbc", "-x.dbc", "-2"], "--format": ["text", "lines", "html"]}
    value = draw(st.sampled_from(values.get(name, ["0", "2", "-1", "-7", "12", "x", " 3 "])))
    spelling = draw(st.sampled_from([name[:k] for k in range(3, len(name) + 1)] + ["-i"] * (name == "--input")))
    form = draw(st.sampled_from(["split", "joined"] + ["run together"] * (spelling == "-i")))
    return [spelling, value] if form == "split" else [f"{spelling}={value}"] if form == "joined" else [f"-i{value}"]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(option_groups(), max_size=4),
    st.lists(st.sampled_from(["iso", "laws", "A0", "B0", "-1", "x y"]), max_size=4),
    st.data(),
)
@example([["--dep", "-1"], ["-ia.dbc"], ["--input=b.dbc"]], ["iso", "A0", "B0"], None)
@example([["--format", "lines"]], ["iso", "A0", "--", "B0"], None)
@example([], ["--", "iso", "A0"], None)
def test_options_are_read_as_argparse_read_them(groups, positionals, data):
    """Every line the old argparse parser took means the same; a line that
    the new parser refuses, argparse refused too; and arguments standing
    between options are read as if they stood after them.  A line holds at
    most one "--": argparse releases differ on what a second one means."""
    slots = [True] * len(groups) + [False] * len(positionals)
    slots = data.draw(st.permutations(slots)) if data else sorted(slots, reverse=True)
    if data and data.draw(st.booleans()):
        slots.insert(data.draw(st.integers(0, len(slots))), None)  # "--"
    queue, words, argv = iter(groups), iter(positionals), []
    for slot in slots:
        argv += next(queue) if slot else ["--"] if slot is None else [next(words)]
    reading, ours = _argparse_reading(argv), _our_reading(argv)
    if reading != "error":
        assert ours == reading, argv
    if ours == "error":
        assert reading == "error", argv
    if "--" not in argv and ours != "error":
        after = _argparse_reading([word for group in groups for word in group] + positionals)
        assert after in (ours, "error"), argv


@pytest.mark.parametrize(
    "argv, reading",
    [
        (["--", "iso", "--", "A0"], ("iso", ["--", "A0"])),
        (["iso", "A0", "--", "B0", "--"], ("iso", ["A0", "B0", "--"])),
        (["iso", "--", "A0", "--depth", "3"], ("iso", ["A0", "--depth", "3"])),
    ],
)
def test_every_word_after_the_first_double_dash_is_an_argument(argv, reading):
    command, args, values = parse_argv(argv)
    assert (command, args) == reading and values["--depth"] == DEFAULT_DEPTH


@pytest.mark.parametrize(
    "argv, message",
    [
        (["iso", "S0", "F0", "--bogus"], "unrecognized arguments: --bogus"),
        (["iso", "S0", "F0", "--depth"], "argument --depth: expected one argument"),
        (["iso", "S0", "F0", "--cap", "--depth", "3"], "argument --cap: expected one argument"),
        (["iso", "S0", "F0", "--arity", "two"], "argument --arity: invalid int value: 'two'"),
        (["iso", "S0", "F0", "--form=html"], "argument --format: invalid choice: 'html' (choose from 'text', 'lines')"),
        (["-i", "x.dbc"], "a command is required"),
        ([], "a command is required"),
    ],
)
def test_a_refused_command_line_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"dbcat: {message}\n")


@pytest.mark.parametrize("argv", [["-h"], ["iso", "A0", "--help"], ["--he", "--bogus"]])
def test_help_lists_the_commands_and_the_options(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: dbcat COMMAND")
    for word in [*COMMANDS, *COMMANDS.values(), "--input", "--depth", "--arity", "--cap", "--format", "--help"]:
        assert word in out, word


def test_input_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.dbc"
    bad.write_bytes(b"\xff\xfeschema A { r/1. }\n")
    with pytest.raises(DbcatError, match="bad.dbc: not UTF-8 text"):
        parse_workspace([bad])
    assert main(["laws", "-i", str(bad)]) == 2
    assert capsys.readouterr() == ("", f"dbcat: {bad}: not UTF-8 text (invalid start byte at byte 0)\n")


def test_a_parse_error_names_the_input_file(capsys):
    demo = str(DATA / "demo.dbc")
    assert main(["eval", "A0", "q(X) :- r(X,X)", "-i", demo, "-i", demo]) == 2
    assert capsys.readouterr() == ("", f"dbcat: {demo}: line 2, column 8: duplicate name 'A'\n")


def _modules_after(code: str, since: str = "()") -> list:
    """The modules loaded once *code* has run in a fresh interpreter, sorted,
    less those in the collection that the expression *since* then gives."""
    code += f"\nimport json, sys; print(json.dumps(sorted(set(sys.modules) - set({since}))), file=sys.stderr)"
    src = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stderr.splitlines()[-1])


def _dbcat_modules(code: str) -> list:
    return [m for m in _modules_after(code) if m.split(".")[0] == "dbcat"]


def test_import_loads_neither_dataclasses_nor_inspect():
    """The value classes share one base in dbcat.core, so start-up neither
    imports these modules nor generates dataclass code."""
    assert not {"dataclasses", "inspect"} & set(_modules_after("import dbcat.cli"))


def test_each_command_loads_only_the_modules_it_uses():
    """``import dbcat`` loads no submodule, and parsing a rule needs the
    syntax records alone; a CLI process loads the schema layer to parse a
    workspace, the rule engine ``rules`` only for commands that evaluate
    rules, ``powerview`` only for those that close an instance, ``category``
    only for those that build arrows, ``interpret``, ``sketch`` and
    ``constraints`` only for graphs, and never the SPJRU algebra
    (``queries``), the DSL writer, ``argparse``, ``gettext`` or ``locale``."""
    assert _dbcat_modules("import dbcat") == ["dbcat"]
    assert _dbcat_modules("import dbcat.core") == ["dbcat", "dbcat.core"]
    parse = {f"dbcat{m}" for m in ("", ".core", ".dsl", ".syntax")}
    assert _dbcat_modules("import dbcat.dsl") == sorted(parse)
    common = parse | {"dbcat.cli", "dbcat.schemas"}
    closes = common | {"dbcat.powerview"}
    arrows = closes | {"dbcat.category", "dbcat.rules"}
    loaded = {
        "eval": common | {"dbcat.rules"}, "powerview": closes, "iso": closes,
        "flux": arrows, "compose": arrows, "laws": arrows, "duality": arrows,
        **dict.fromkeys(GRAPH_COMMANDS, arrows | {"dbcat.constraints", "dbcat.interpret", "dbcat.sketch"}),
    }
    at_start = set(_modules_after(""))
    for command, workspace, args in GOLDEN_COMMANDS:
        argv = [command, *args, "-i", str(DATA / f"{workspace}.dbc")]
        modules = _modules_after(f"from dbcat.cli import main; main({argv!r})")
        assert [m for m in modules if m.split(".")[0] == "dbcat"] == sorted(loaded[command]), command
        assert not {"dbcat.writer", "argparse", "gettext", "locale"} & (set(modules) - at_start), command


def test_parsing_a_rule_loads_the_syntax_records_alone():
    """A rule needs neither the schema layer nor an engine to be parsed."""
    code = 'import dbcat.dsl as dsl; dsl.parse_rule_text("q(X) :- r(X,Y)")'
    assert _dbcat_modules(code) == ["dbcat", "dbcat.core", "dbcat.dsl", "dbcat.syntax"]


def _modules_added_by(setup: str, ops: str) -> list:
    """The ``dbcat`` modules that running *ops* loads, in a fresh interpreter
    that ran *setup* first."""
    code = f"{setup}\nimport sys\nbefore = set(sys.modules)\n{ops}"
    return [m for m in _modules_after(code, since="before") if m.split(".")[0] == "dbcat"]


def test_a_workloads_ops_load_no_module_its_imports_did_not():
    """The benchmark times each op, and a run's median has few of them, so a
    module that an op loads on first use would be compiled inside a timed op:
    the engines an op runs are loaded by the imports a workload makes first."""
    joins = """
from dbcat import constraints, dsl, queries
from dbcat.core import make_instance
from dbcat.queries import RelAtom, Var
X, Y, Z = Var("X"), Var("Y"), Var("Z")
q = dsl.parse_rule_text("q(X,Z) :- r(X,Y), r(Y,Z)")
tgd = constraints.Tgd(("X",), (RelAtom("r", (X, Y)),), (RelAtom("s", (X,)),))
egd = constraints.Egd((RelAtom("r", (X, Y)), RelAtom("r", (X, Z))), ("Y", "Z"))
inst = make_instance({"r": [(1, 2), (2, 3), (3, 3)], "s": [(1,), (2,), (3,)]})"""
    joins_ops = """
assert queries.eval_rule(q, inst).tuples == queries.eval_spjru(queries.rule_to_spjru(q), inst).tuples
assert constraints.check_tgd(tgd, inst) and constraints.check_egd(egd, inst)"""
    assert _modules_added_by(joins, joins_ops) == []
    closures = """
from dbcat import category, core
from dbcat import powerview as pv
a = core.make_instance({"r": [(1, 2), (2, 1)], "s": [(1,)]})
b = core.make_instance({"r": [(1, 2), (2, 1)], "s": [(2,)]})
assert core.closure_signature(a) == core.closure_signature(b)
closed, close_component = [], pv.close_component
pv.close_component = lambda *args: closed.append(args) or close_component(*args)"""
    closures_ops = """
pv.instances_isomorphic(a, b, 2, 2)
assert closed  # the level enumerator ran
pv.power_view_cached(a, None, 2), pv.matching(a, b, None, 2), pv.merging(a, b, None, 2)
category.verify_duality(a, b, depth=None, max_arity=2)
core.disjoint_union(a, b)"""
    assert _modules_added_by(closures, closures_ops) == []


#: The names ``dbcat`` exports, pinned.
EXPORTS = [
    "BOT", "BaseRel", "Builtin", "ColEq", "Const", "ConstEq", "CrossComponentQuery", "DbcatError",
    "EMPTY_SCHEMA", "Egd", "Flux", "Instance", "Interpretation", "Join", "MappingGraph",
    "ModeViolation", "Morphism", "Project", "RelAtom", "Relation", "Rename", "Rule", "SAtom",
    "SENTINEL_A", "SENTINEL_B", "Schema", "SchemaMapping", "Select", "Sentence", "Sentinel",
    "Sketch", "Tgd", "Union", "Var", "ViewMap", "ViewSet", "Workspace", "active_domain",
    "bottom_instance", "branch", "build_sketch", "check_egd", "check_functor", "check_gamma_iso",
    "check_model", "check_sentence", "check_tgd", "compose", "coproduct_morphism",
    "disjoint_union", "empty_morphism", "equivalent", "eval_rule", "eval_spjru", "fed",
    "federate", "flux", "identity", "injection", "instances_isomorphic", "interpret_arrow",
    "interpret_term", "interpretation", "is_empty_isomorphic", "make_atomic", "make_instance",
    "make_pair", "mapping_graph", "matching", "mediating", "merging", "pairing", "parse_workspace",
    "parse_workspace_text", "power_view", "projection", "rule", "rule_to_spjru",
    "schema_identity", "sep", "serialize_workspace", "term_layout",
    "verify_duality",
]


def test_package_exports_are_the_objects_of_their_home_modules():
    assert sorted(dbcat.__all__) == EXPORTS
    star: dict = {}
    exec("from dbcat import *", star)
    for name in EXPORTS:
        home = importlib.import_module(f"dbcat.{dbcat._HOME[name]}")
        value = getattr(dbcat, name)
        assert value is vars(home)[name] is star[name], name
        assert not callable(value) or value.__module__ == home.__name__, name
    assert set(EXPORTS) <= set(dir(dbcat))
    # the rule engine is at home in ``rules``; ``queries`` binds its names too
    assert dbcat._HOME["eval_rule"] == "rules" and dbcat._HOME["eval_spjru"] == "queries"
    for name in ("atom_components", "atom_constants", "bind", "eval_rule", "plan"):
        assert getattr(importlib.import_module("dbcat.queries"), name) is vars(importlib.import_module("dbcat.rules"))[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        dbcat.no_such_name


def test_byte_identical_reports_across_runs():
    for command, args in [
        ("powerview", ["A0"]),
        ("laws", []),
        ("duality", ["A0", "B0"]),
    ]:
        outs = set()
        for _ in range(2):
            w = ws("demo.dbc")  # fresh parse each time
            outs.add(render(command, run(command, args, w, 2, 2, 100000), "lines"))
        assert len(outs) == 1


def test_workspace_round_trip_on_data_files():
    for path in FILES:
        w1 = parse_workspace([path])
        text = serialize_workspace(w1)
        w2 = parse_workspace_text(text)
        assert w1 == w2, path
        assert serialize_workspace(w2) == text, path


def test_reports_match_the_golden_file(capsys):
    golden = json.loads(GOLDEN.read_text())
    for command, workspace, args in GOLDEN_COMMANDS:
        for bound, flags in GOLDEN_BOUNDS.items():
            argv = [command, *args, "-i", str(DATA / f"{workspace}.dbc"), "--format", "lines"]
            status = main(argv + flags)
            expected = golden[f"{bound} {command}"]
            assert (status, capsys.readouterr().out) == (expected["status"], expected["stdout"]), (
                bound,
                command,
            )


def test_the_default_text_format_lays_out_the_golden_rows(capsys):
    """Without --format a report is a header, one padded row per golden line
    and a summary of the status."""
    golden = json.loads(GOLDEN.read_text())
    for command, workspace, args in GOLDEN_COMMANDS:
        for bound, flags in GOLDEN_BOUNDS.items():
            expected = golden[f"{bound} {command}"]
            rows = [line.split("\t", 2) for line in expected["stdout"].splitlines()]
            width = max(len(cid) for cid, _, _ in rows)
            summary = "all checks passed" if expected["status"] == 0 else "some checks FAILED"
            text = [f"== {command} =="] + [f"{cid.ljust(width)}  {verdict}  {detail}" for cid, verdict, detail in rows]
            status = main([command, *args, "-i", str(DATA / f"{workspace}.dbc"), *flags])
            assert (status, capsys.readouterr().out) == (expected["status"], "\n".join(text + [summary]) + "\n"), (
                bound,
                command,
            )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["iso", "S0", "Nope"], "unknown instance 'Nope'"),
        (["flux", "Nope", "A0", "B0"], "unknown mapping 'Nope'"),
        (["flux", "M", "A0", "Nope"], "unknown instance 'Nope'"),
        (["check-model", "Nope"], "unknown graph 'Nope'"),
    ],
)
def test_unknown_command_argument_is_a_usage_error(argv, message, capsys):
    files = ["-i", str(DATA / "demo.dbc"), "-i", str(DATA / "federation.dbc")]
    assert main([*argv, *files]) == 2
    assert capsys.readouterr() == ("", f"dbcat: {message}\n")


REIFIED = """
schema A { r/2. }
schema B { s/1. }
instance A0 of A { r(1,2). r(2,3). }
instance B0 of B { s(1). s(2). }
mapping M : A -> B { q(X) :- r(X,Y) => t(X). }
graph G { use M. }
"""


def test_a_reified_relation_without_a_defining_query_is_the_mapped_view():
    w = parse_workspace_text(REIFIED)
    sketch = build_sketch(w.graphs["G"])
    ((node, added),) = sketch.gamma
    assert (node, added.name, added.arity) == ("B", "t", 1)
    assert (added.query, added.over) == (w.mappings["M"].pairs[0].lhs, "A")  # the mapped view, read over the source
    alpha = interpretation({"A": w.instances["A0"][1], "B": w.instances["B0"][1]}, w.schemas)
    enlarged = gamma_instance(alpha, sketch, "B")
    assert enlarged.names == ("s", "t") and enlarged.relation("s") == w.instances["B0"][1].relation("s")
    assert enlarged.relation("t").tuples == {(1,), (2,)}  # q over A0: B0 has no r
    assert gamma_instance(alpha, sketch, "A") == w.instances["A0"][1]
    for depth in (None, 2):
        for command in ("check-model", "gamma-iso"):
            report = run(command, ["G"], w, depth, 2, 100000)
            assert report.checks and report.passed, report.checks


def test_flux_of_an_exact_mapping_reports_a_view_that_differs_from_its_target():
    w = parse_workspace_text(
        "schema A { r/2. }\nschema B { s/1. }\n"
        "instance A0 of A { r(1,2). r(2,3). }\ninstance B0 of B { s(1). }\ninstance B1 of B { s(1). s(2). }\n"
        "mapping E : A -> B { exact. q(X) :- r(X,Y) => s(X). }"
    )
    assert w.mappings["E"].exact
    report = run("flux", ["E", "A0", "B0"], w, None, 2, 100000)
    assert not report.passed
    assert report.checks == (("flux E", False, "view for s differs from target projection ({(1) (2)} vs {(1)})"),)
    assert run("flux", ["E", "A0", "B1"], w, None, 2, 100000).passed


RELATIONLESS = """schema A { r/1. }
schema E { }
instance A0 of A { r(1). }
instance E0 of E { }
mapping M : A -> E { q(X) :- r(X) => t(X). }
mapping N : E -> A { exact. }
graph G { use M. use N. }
"""


RELATIONLESS_VERDICTS = {
    "check-model": (
        ("arrow map_A__E", "PASS"), ("model", "PASS"), ("schema A", "PASS"), ("schema E", "PASS"),
    ),
    "check-functor": (
        ("compose phi_E.map_A__E", "PASS"), ("functor", "PASS"), ("identity A", "PASS"),
        ("identity E", "PASS"), ("identity _empty", "PASS"), ("mapping map_A__E", "PASS"),
        ("sentence phi_A", "PASS"), ("sentence phi_E", "PASS"),
    ),
    # E's enlargement reifies t = {(1)} from A0, a value E0 lacks: gamma-iso
    # fails on every fresh bare reification whose values the target lacks, a
    # known defect that the relation-less node shares with nonempty targets.
    "gamma-iso": (("gamma-iso A", "PASS"), ("gamma-iso E", "FAIL")),
}


@pytest.mark.parametrize("depth", ["2", "-1"])
@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
def test_a_schema_without_relations_is_a_graph_node(tmp_path, command, depth, capsys):
    path = tmp_path / "relationless.dbc"
    path.write_text(RELATIONLESS)
    status = main([command, "G", "-i", str(path), "--depth", depth])
    assert capsys.readouterr().err == ""
    report = run(command, ["G"], parse_workspace_text(RELATIONLESS), None if depth == "-1" else int(depth), 2, 100000)
    assert {label: "PASS" if ok else "FAIL" for label, ok, _ in report.checks} == dict(RELATIONLESS_VERDICTS[command])
    assert status == (not report.passed) == (command == "gamma-iso")


def test_an_enlarged_relationless_node_drops_the_empty_relation():
    w = parse_workspace_text(RELATIONLESS)
    alpha = interpretation({"A": w.instances["A0"][1], "E": w.instances["E0"][1]}, w.schemas)
    enlarged = gamma_instance(alpha, build_sketch(w.graphs["G"]), "E")
    assert enlarged.names == ("t",) and enlarged.relation("t").tuples == {(1,)}  # _bot goes, as in the sums


BRANCHED = """schema A { r/1. }
schema B { s/1. }
schema C { t/1. }
instance A0 of A { r(1). }
instance B0 of B { s(1). }
instance C0 of C { t(1). }
mapping M1 : A -> B { q(X) :- r(X) => s(X). }
mapping M2 : A -> C { q(X) :- r(X) => t(X). }
"""


def test_a_repeated_branch_is_one_edge(tmp_path, capsys):
    reports = []
    for edges in ("M1 branch M2.", "M1 branch M2. M1 branch M2."):
        path = tmp_path / "branched.dbc"
        path.write_text(BRANCHED + f"graph G {{ {edges} }}\n")
        for command in sorted(GRAPH_COMMANDS):
            assert main([command, "G", "-i", str(path)]) == 0
            reports.append(capsys.readouterr())
    assert reports[:3] == reports[3:] and all(err == "" for _, err in reports)


@pytest.mark.parametrize("depth", [[], ["--depth", "-1"]])
def test_after_only_uses_both_mappings(tmp_path, depth, capsys):
    # Sch(G) forms N after M itself: writing the composite down changes no report.
    demo = (DATA / "demo.dbc").read_text()
    assert "graph G { use M. use N. N after M. }" in demo
    reports = []
    for edges in ("use M. use N. N after M.", "use M. use N."):
        path = tmp_path / "demo.dbc"
        path.write_text(demo.replace("use M. use N. N after M.", edges))
        for command in ("check-model", "check-functor", "gamma-iso"):
            status = main([command, "G", "-i", str(path), *depth])
            reports.append((status, capsys.readouterr()))
    assert reports[:3] == reports[3:] and all(out and not err for _, (out, err) in reports)


def test_two_mappings_may_add_one_relation_by_one_defining_query():
    w = parse_workspace_text(
        BRANCHED
        + "mapping N1 : A -> C { q(X) :- r(X) => u(X) :- t(X). }\n"
        + "mapping N2 : B -> C { q(X) :- s(X) => u(X) :- t(X). }\n"
        + "graph G { use N1. use N2. }\n"
    )
    ((node, added),) = build_sketch(w.graphs["G"]).gamma
    assert (node, added.name, added.over) == ("C", "u", "C")
    for command in sorted(GRAPH_COMMANDS):
        report = run(command, ["G"], w, None, 2, 100000)
        assert report.checks and report.passed, report.checks


# F supplies s but not u, and G reads both: u is a hidden element of G.F.
PARTIAL = """schema A { r/1. }
schema B { s/1. u/1. }
schema C { t/2. }
instance A0 of A { r(1). }
instance B0 of B { s(1). u(2). }
instance C0 of C { t(1,2). }
mapping F : A -> B { q(X) :- r(X) => s(X). }
mapping G : B -> C { p(X,Y) :- s(X), u(Y) => t(X,Y). }
"""


@pytest.mark.parametrize("fmt", ["text", "lines"])
@pytest.mark.parametrize("depth", ["2", "-1"])
def test_a_composite_with_an_unfed_input_is_reported_as_a_partial_arrow(tmp_path, depth, fmt, capsys):
    path = tmp_path / "partial.dbc"
    path.write_text(PARTIAL)
    assert main(["compose", "F", "G", "A0", "B0", "C0", "-i", str(path), "--depth", depth, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    kind = [line for line in out.splitlines() if line.startswith("compose G.F kind")]
    if fmt == "lines":
        assert kind == ["compose G.F kind\tPASS\tp-arrow"]
    else:
        assert [line.split() for line in kind] == [["compose", "G.F", "kind", "PASS", "p-arrow"]]
    assert err == ""
