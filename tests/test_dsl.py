import re

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dbcat.constraints import Egd, Tgd
from dbcat.core import make_instance
from dbcat.dsl import (
    ParseError,
    parse_rule_text,
    parse_workspace_text,
    tokenize,
)
from dbcat.queries import Const, RelAtom, Var
from dbcat.schemas import Schema, sep
from dbcat.syntax import Sentence
from dbcat.values import DbcatError
from dbcat.writer import serialize_workspace
from oracles import token_places

# The profile scales this file's own counts: x1 under `default`, x20 under
# `deep` (tests/conftest.py).
DEEP = settings.default.max_examples // 100

DEMO = """
# demo workspace
schema A { r/2. }
schema B { s/1. constraint forall X,Y: s(X), s(Y) => X = Y. }
compose D = A sep B
instance A0 of A { r(1,2). r(2,3). }
instance B0 of B { s(1). }
mapping M : A -> B { q(X) :- r(X,Y) => s(X). }
graph G { use M. }
"""


def test_schema_block():
    ws = parse_workspace_text("schema A { r/2. }")
    assert ws.schemas["A"].relsymbols == (("r", 2),)


def test_instance_block():
    ws = parse_workspace_text("schema A { r/2. }\ninstance A0 of A { r(1,2). r(2,3). }")
    _, inst = ws.instances["A0"]
    assert inst.relation("r").tuples == {(1, 2), (2, 3)}


def test_mapping_block():
    ws = parse_workspace_text(DEMO)
    m = ws.mappings["M"]
    assert len(m.pairs) == 1
    assert m.pairs[0].rhs_name == "s" and m.pairs[0].rhs_bare


def test_full_rule_right_side():
    text = (
        "schema A { r/1. }\nschema B { t/1. }\n"
        "mapping M : A -> B { q(X) :- r(X) => u(X) :- t(X). }"
    )
    m = parse_workspace_text(text).mappings["M"]
    assert m.pairs[0].rhs_name == "u" and not m.pairs[0].rhs_bare


def test_constraint_forms():
    ws = parse_workspace_text(
        "schema A { r/2. s/1."
        " constraint forall X,Y: r(X,Y) => s(X)."
        " constraint forall K,V,W: r(K,V), r(K,W) => V = W. }"
    )
    tgd, egd = ws.schemas["A"].constraints.items
    assert isinstance(tgd, Tgd) and tgd.weakly_full
    assert isinstance(egd, Egd) and egd.pair == ("V", "W")


def test_non_weakly_full_constraint_rejected():
    with pytest.raises(ParseError):
        parse_workspace_text(
            "schema A { r/1. s/2. constraint forall X: r(X) => exists Z: s(X,Z). }"
        )


def test_parse_rule_text():
    r = parse_rule_text("q(X) :- r(X,Y), s(Y)")
    assert r.head_name == "q"
    assert [a.name for a in r.body] == ["r", "s"]
    r2 = parse_rule_text("q(X) :- r(X,3), X = 1.")
    consts = [
        t
        for a in r2.body
        for t in (a.args if hasattr(a, "args") else (a.left, a.right))
        if isinstance(t, Const)
    ]
    assert {c.value for c in consts} == {3, 1}


def test_values_and_strings():
    ws = parse_workspace_text("schema A { r/2. }\ninstance A0 of A { r(1,'x y'). r(-2,'a'). }")
    _, inst = ws.instances["A0"]
    assert inst.relation("r").tuples == {(1, "x y"), (-2, "a")}


def test_parse_error_carries_position():
    try:
        parse_workspace_text("schema A { r/0. }")
    except ParseError as exc:
        assert exc.line == 1 and exc.col > 0
    else:
        pytest.fail("expected a parse error")


def test_unknown_reference_rejected():
    with pytest.raises(ParseError):
        parse_workspace_text("instance A0 of Nowhere { }")
    with pytest.raises(ParseError):
        parse_workspace_text("schema A { r/1. }\ngraph G { use M. }")


@pytest.mark.parametrize(
    "text, line, col",
    [
        ("schema A { r/1. }\ncompose D = A sep Nope", 2, 19),
        ("schema A { r/1. }\ninstance A0 of Nope { }", 2, 16),
        ("schema B { s/1. }\nmapping M : Nope -> B { }", 2, 13),
        ("schema A { r/1. }\nmapping M : A -> Nope { }", 2, 18),
    ],
)
def test_unknown_schema_reference_is_reported_at_its_token(text, line, col):
    with pytest.raises(ParseError, match="unknown schema or composition 'Nope'") as exc:
        parse_workspace_text(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_lowercase_relation_argument_is_reported_at_its_token():
    text = "schema A { r/2. }\nschema B { s/1. }\nmapping M : A -> B { q(X) :- r(X, y) => s(X). }"
    with pytest.raises(ParseError, match="not 'y' \\(found 'y'\\)$") as exc:
        parse_workspace_text(text)
    assert (exc.value.line, exc.value.col) == (3, 35)


@pytest.mark.parametrize(
    "text",
    [
        "schema A { r/1. }\ninstance A0 of A { r(#A). }",
        "schema A { r/1. }\nschema B { s/1. }\nmapping M : A -> B { q(X) :- r(X), X = #B => s(X). }",
    ],
)
def test_sentinels_cannot_be_written(text):
    # '#' starts a comment, so the sentinel and the rest of its line are never read
    with pytest.raises(ParseError):
        parse_workspace_text(text)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse_workspace_text("schema A { r/1. }\nschema A { s/1. }")
    with pytest.raises(ParseError):
        parse_workspace_text("schema A { r/1. }\ncompose A = A sep A")


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError):
        parse_workspace_text("schema A { r/2. }\ninstance A0 of A { r(1). }")


def test_instance_of_separated_term_components():
    ws = parse_workspace_text(
        "schema A { r/1. }\nschema B { s/1. }\ncompose D = A sep B\n"
        "instance D0 of D { r(1). s(2). }"
    )
    _, inst = ws.instances["D0"]
    assert inst.component_of("r") != inst.component_of("s")


def test_round_trip_fixpoint():
    ws = parse_workspace_text(DEMO)
    text = serialize_workspace(ws)
    ws2 = parse_workspace_text(text)
    assert ws == ws2
    assert serialize_workspace(ws2) == text


def test_round_trip_with_graph_operators():
    text = (
        "schema A { r/1. }\nschema B { s/1. }\nschema C { t/1. }\n"
        "mapping M : A -> B { q(X) :- r(X) => s(X). }\n"
        "mapping N : B -> C { p(X) :- s(X) => t(X). }\n"
        "mapping O : A -> C { o(X) :- r(X) => t(X). }\n"
        "graph G { use M. use N. N after M. M branch O. }"
    )
    ws = parse_workspace_text(text)
    g = ws.graphs["G"]
    assert [m.name for m in g.mappings] == ["M", "N", "O", "M+O"]
    out = serialize_workspace(ws)
    assert parse_workspace_text(out) == ws


BRANCHED = (
    "schema A { r/1. }\nschema B { s/1. }\nschema C { t/1. }\nschema Z { z/1. }\n"
    "mapping M1 : A -> B { q(X) :- r(X) => s(X). }\n"
    "mapping M2 : A -> C { q(X) :- r(X) => t(X). }\n"
)


@pytest.mark.parametrize("case", ["branch alone", "branch first", "untouched node"])
def test_a_graph_that_would_read_back_as_another_is_refused(case):
    from dbcat.schemas import branch, mapping_graph

    ws = parse_workspace_text(BRANCHED)
    m1, m2 = ws.mappings["M1"], ws.mappings["M2"]
    b = branch(m1, m2)
    ends = {"A": m1.source, b.target_name: b.target}
    g = ws.graphs["G"] = {
        "branch alone": mapping_graph("G", ends, [b]),
        "branch first": mapping_graph("G", {**ends, "B": m1.target, "C": m2.target}, [b, m1, m2]),
        "untouched node": mapping_graph("G", {"A": m1.source, "B": m1.target, "Z": ws.term("Z")}, [m1]),
    }[case]
    before = {kind: dict(pool) for kind, pool in vars(ws).items()}
    with pytest.raises(DbcatError, match="^graph G cannot be written: it would read back as a different graph$"):
        serialize_workspace(ws)
    assert vars(ws) == before and ws.graphs["G"] is g  # the check reads the workspace and leaves it as it was
    if case == "branch first":  # what its lines would give
        again = parse_workspace_text(BRANCHED + "graph G { M1 branch M2. use M1. use M2. }")
        assert [m.name for m in again.graphs["G"].mappings] == ["M1", "M2", "M1+M2"]


@pytest.mark.parametrize("graphs", [False, True])
def test_an_instance_holding_a_sentinel_is_refused(graphs):
    # '#A' would read back as a comment, so the writer names the sentinel instead
    from dbcat.core import make_instance
    from dbcat.values import SENTINEL_A

    ws = parse_workspace_text(BRANCHED + ("graph G { use M1. }" if graphs else ""))
    ws.instances["X"] = ("A", make_instance({"r": [(1,), (SENTINEL_A,)]}))
    with pytest.raises(DbcatError, match="^instance X cannot be written: the sentinel #A has no text form$"):
        serialize_workspace(ws)


@pytest.mark.parametrize("owner", ["mapping left", "mapping right", "schema"])
def test_a_rule_or_constraint_holding_a_sentinel_is_refused(owner):
    # '#B' in a rule or constraint would read back as a comment, as in an instance
    from dbcat.values import SENTINEL_A, SENTINEL_B
    from dbcat.schemas import Schema, SchemaMapping, make_pair
    from dbcat.syntax import Builtin, RelAtom, Rule, Sentence

    X = Var("X")
    ws = parse_workspace_text(BRANCHED)
    r, s, guard = RelAtom("r", (X,)), RelAtom("s", (X,)), Builtin("=", X, Const(SENTINEL_B))
    if owner == "schema":
        ws.schemas["S"] = Schema("S", (("r", 1), ("s", 1)), Sentence((Tgd(("X",), (r, guard), (s,)),)))
    elif owner == "mapping left":
        pair = make_pair(Rule("q", (X,), (r, guard)), s)
    else:
        pair = make_pair(Rule("q", (X,), (r,)), Rule("p", (X,), (s, Builtin("<=", Const(SENTINEL_A), X))))
    if owner != "schema":
        ws.mappings["M"] = SchemaMapping("M", "A", "B", ws.term("A"), ws.term("B"), (pair,))
    what = "schema S" if owner == "schema" else "mapping M"
    sentinel = "#A" if owner == "mapping right" else "#B"
    with pytest.raises(DbcatError, match=f"^{what} cannot be written: the sentinel {sentinel} has no text form$"):
        serialize_workspace(ws)


X, Y = Var("X"), Var("Y")
# Records the text cannot say, or would say as other records: each case
# puts one statement into BRANCHED with ``compose D = A sep B`` added.
UNWRITABLE = {
    "nullary relation": (
        "schema", "S", lambda: Schema("S", (("r", 0),)),
        "line 2, column 5: relation arity must be positive (found '0')",
    ),
    "existential right": (
        "schema", "S",
        lambda: Schema("S", (("r", 1), ("t", 2)), Sentence((Tgd(("X",), (RelAtom("r", (X,)),), (RelAtom("t", (X, Y)),)),))),
        "line 4, column 38: existential variables ['Y'] must be declared with 'exists' (found '.')",
    ),
    "reserved relation": ("schema", "S", lambda: Schema("S", (("use", 1),)), "line 2, column 3: 'use' is a reserved word"),
    "uppercase relation": (
        "schema", "S", lambda: Schema("S", (("R", 1),)),
        "line 2, column 3: relation names start lowercase (uppercase means a variable)",
    ),
    "reserved schema": ("schema", "graph", lambda: Schema("graph", (("r", 1),)), "line 1, column 8: 'graph' is a reserved word"),
    "foreign relation": (
        "instance", "X", lambda: ("A", make_instance({"z": [(1,)]})), "line 2, column 3: relation 'z' is not part of A"
    ),
    "not weakly full": (
        "schema", "S",
        lambda: Schema("S", (("r", 1), ("s", 1)), Sentence((Tgd(("X",), (RelAtom("r", (X,)),), (RelAtom("s", (X,)),)),))),
        None,
    ),
    "moved partition": ("instance", "X", lambda: ("D", make_instance({"r": [(1,)], "s": [(2,)]})), None),
}


@pytest.mark.parametrize("case", UNWRITABLE)
def test_a_statement_that_would_not_read_back_as_itself_is_refused_by_name(case):
    kind, name, make, parse_message = UNWRITABLE[case]
    ws = parse_workspace_text(BRANCHED + "compose D = A sep B\n")
    getattr(ws, kind + "s")[name] = made = make()
    before = {pool_name: dict(pool) for pool_name, pool in vars(ws).items()}
    with pytest.raises(DbcatError) as exc:
        serialize_workspace(ws)
    reason = parse_message or f"it would read back as a different {kind}"
    assert str(exc.value) == f"{kind} {name} cannot be written: {reason}"
    assert isinstance(exc.value.__cause__, ParseError) == bool(parse_message)
    assert vars(ws) == before and getattr(ws, kind + "s")[name] is made


def test_compositions_are_written_in_the_order_they_were_declared():
    # Z sorts after Y; each is written as its normal form, Z first as declared
    ws = parse_workspace_text(
        "schema A { r/1. } schema B { s/1. } compose Z = A sep B compose Y = Z fed A instance Y0 of Y { r#1(1). }"
    )
    out = serialize_workspace(ws)
    assert "compose Z = A sep B\ncompose Y = (A fed A) sep (B fed A)\n" in out
    again = parse_workspace_text(out)
    assert again == ws and serialize_workspace(again) == out


def test_a_composition_declared_as_another_is_written_as_its_normal_form():
    ws = parse_workspace_text("schema A { r/1. } compose Z = A sep A compose Y = Z compose X = Y fed A")
    out = serialize_workspace(ws)
    assert "compose Z = A sep A\ncompose Y = A sep A\ncompose X = (A fed A) sep (A fed A)\n" in out
    again = parse_workspace_text(out)
    assert again == ws and again.composes["Y"] == again.composes["Z"] == sep(again.term("A"), again.term("A"))


def test_workspaces_whose_compositions_differ_in_order_are_unequal():
    # the writer keeps declaration order, so equal workspaces must keep it too
    texts = ["schema A { r/1. } compose X = A sep A compose Y = A fed A", "schema A { r/1. } compose Y = A fed A compose X = A sep A"]
    first, second = map(parse_workspace_text, texts)
    assert first != second and first.composes == second.composes
    for ws in (first, second):
        out = serialize_workspace(ws)
        again = parse_workspace_text(out)
        assert again == ws and serialize_workspace(again) == out
    assert serialize_workspace(first) != serialize_workspace(second)


def test_comments_and_whitespace_ignored():
    ws = parse_workspace_text("# hello\nschema A { # inline\n r/1. }\n")
    assert "A" in ws.schemas


def test_left_existential_quantifier_syntax():
    ws = parse_workspace_text(
        "schema A { r/2. s/1. constraint forall X: exists Y: r(X,Y) => s(X). }"
    )
    (tgd,) = ws.schemas["A"].constraints.items
    assert tgd.universal == ("X",)
    assert tgd.weakly_full


def test_multi_file_workspace(tmp_path):
    from dbcat.dsl import parse_workspace

    one = tmp_path / "one.dbc"
    two = tmp_path / "two.dbc"
    one.write_text("schema A { r/1. }\n")
    two.write_text("instance A0 of A { r(1). }\nmapping M : A -> A { q(X) :- r(X) => r(X). }\n")
    ws = parse_workspace([one, two])
    assert "A" in ws.schemas and "A0" in ws.instances and "M" in ws.mappings
    # the same files in one blob parse to an equal workspace
    assert ws == parse_workspace_text(one.read_text() + two.read_text())


def test_a_parse_error_names_the_file_it_is_in(tmp_path):
    from dbcat.dsl import parse_workspace

    one, two = tmp_path / "one.dbc", tmp_path / "two.dbc"
    one.write_text("schema A { r/1. }\n")
    two.write_text("\ninstance A0 of B { r(1). }\n")
    with pytest.raises(ParseError) as exc:
        parse_workspace([one, two])
    assert str(exc.value) == f"{two}: line 2, column 16: unknown schema or composition 'B'"
    assert (exc.value.line, exc.value.col) == (2, 16)
    with pytest.raises(ParseError) as exc:  # text read from no file names none
        parse_workspace_text(one.read_text() + two.read_text())
    assert str(exc.value) == "line 3, column 16: unknown schema or composition 'B'"


@pytest.mark.parametrize(
    "parse, text, line, col, found",
    [
        (parse_workspace_text, "schema A { r/2. }\ninstance A0 of A { r(1 2). }", 2, 24, "2"),
        (parse_workspace_text, "schema A { r/2. }\ninstance A0 of A { r(3,4,). }", 2, 26, ")"),
        (parse_rule_text, "q(X Y) :- r(X Y,)", 1, 5, "Y"),
        (parse_rule_text, "q(X, Y) :- r(X Y)", 1, 16, "Y"),
        (parse_rule_text, "q(X, Y) :- r(X, Y,)", 1, 19, ")"),
    ],
)
def test_list_items_need_commas_between_them(parse, text, line, col, found):
    with pytest.raises(ParseError, match=re.escape(f"(found '{found}')")) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_string_escapes_survive_a_round_trip():
    text = (
        "schema A { r/1. }\ninstance A0 of A { r('it\\'s'). r('a\\\\'). }\n"
        "schema B { s/1. }\nmapping M : A -> B { q(X) :- r(X), X = 'it\\'s' => s(X). }"
    )
    ws = parse_workspace_text(text)
    assert ws.instances["A0"][1].relation("r").tuples == {("it's",), ("a\\",)}
    out = serialize_workspace(ws)
    assert parse_workspace_text(out) == ws
    assert serialize_workspace(parse_workspace_text(out)) == out


def test_instance_tuples_are_written_in_value_order():
    ws = parse_workspace_text(
        "schema A { r/2. }\n"
        "instance A0 of A { r(1,'a'). r('1','a'). r(1,'b'). r('1','b'). r(10,'x'). r(2,'x'). }"
    )
    assert serialize_workspace(ws) == (
        "schema A {\n  r/2.\n}\ninstance A0 of A {\n"
        "  r(1,'a').\n  r(1,'b').\n  r(2,'x').\n  r(10,'x').\n  r('1','a').\n  r('1','b').\n}\n"
    )


TWO = "schema A { r/2. }\n"
ONE_MAPPING = "schema A { r/1. }\nmapping M : A -> A { q(X) :- r(X) => r(X). }\n"
# M and N both run A -> B, O runs B -> A: O after N meets, N after M does not.
CHAIN = (
    "schema A { r/1. }\nschema B { s/1. }\n"
    "mapping M : A -> B { q(X) :- r(X) => s(X). }\n"
    "mapping N : A -> B { q(X) :- r(X) => s(X). }\n"
    "mapping O : B -> A { q(X) :- s(X) => r(X). }\n"
)


@pytest.mark.parametrize(
    "parse, text, message, line, col",
    [
        (parse_workspace_text, "schema A { r/1. }\n$", "unexpected character '$'", 2, 1),
        (parse_workspace_text, "schema A { r/1 }", "expected . (found '}')", 1, 16),
        (parse_workspace_text, "schema A { r/x. }", "expected int (found 'x')", 1, 14),
        (parse_workspace_text, "schema 7 { r/1. }", "expected schema name (found '7')", 1, 8),
        (parse_workspace_text, "compose 7 = A", "expected composition name (found '7')", 1, 9),
        (parse_workspace_text, "instance 7 of A { }", "expected instance name (found '7')", 1, 10),
        (parse_workspace_text, "mapping 7 : A -> A { }", "expected mapping name (found '7')", 1, 9),
        (parse_workspace_text, "graph 7 { }", "expected graph name (found '7')", 1, 7),
        (parse_workspace_text, "schema A { r/1. }\ninstance A0 of 7 { }", "expected schema name (found '7')", 2, 16),
        (
            parse_workspace_text,
            "schema A { r/1. }\ncompose D = A sep Nope",
            "unknown schema or composition 'Nope'",
            2,
            19,
        ),
        (parse_workspace_text, "schema A { r/1. }\nschema A { s/1. }", "duplicate name 'A'", 2, 8),
        (parse_workspace_text, ONE_MAPPING + "graph M { }", "duplicate name 'M'", 3, 7),
        (parse_workspace_text, TWO + "instance A0 of A { r(1,x). }", "expected a value (found 'x')", 2, 24),
        (
            parse_rule_text,
            "q(X) :- r(X, y)",
            "relation arguments are variables or values, not 'y' (found 'y')",
            1,
            14,
        ),
        (parse_rule_text, "q(X) :- X r", "expected '=' or '<=' after a bare term (found 'r')", 1, 11),
        (parse_rule_text, "q(x) :- r(X)", "head arguments must be variables (found 'x')", 1, 3),
        (parse_rule_text, "q(X) r(X)", "expected define (found 'r')", 1, 6),
        (
            parse_workspace_text,
            "schema A { r/1. s/2. constraint forall X: r(X) => exists Z: s(X,Z). }",
            "schema constraints must be weakly full: no existential variables on the right"
            " side (found '.')",
            1,
            67,
        ),
        (
            parse_workspace_text,
            "schema A { r/1. s/2. constraint forall X: r(X) => s(X,Z). }",
            "existential variables ['Z'] must be declared with 'exists' (found '.')",
            1,
            57,
        ),
        (
            parse_workspace_text,
            "schema A { r/1. s/1. constraint forall X,Y: r(X) => s(X). }",
            "universal variable Y missing from the left side (found '.')",
            1,
            57,
        ),
        (
            parse_workspace_text,
            "schema A { R/1. }",
            "relation names start lowercase (uppercase means a variable)",
            1,
            12,
        ),
        (parse_workspace_text, TWO + "instance A0 of A { s(1). }", "relation 's' is not part of A", 2, 20),
        (parse_workspace_text, TWO + "instance A0 of A { r(1). }", "r expects 2 values, got 1", 2, 20),
        (parse_workspace_text, "schema A { r/1. }\ngraph G { use M. }", "unknown mapping 'M'", 2, 15),
        (parse_workspace_text, ONE_MAPPING + "graph G { M after N. }", "unknown mapping 'N'", 3, 19),
        (parse_workspace_text, ONE_MAPPING + "graph G { M branch N. }", "unknown mapping 'N'", 3, 20),
        (parse_workspace_text, ONE_MAPPING + "graph G { M M. }", "expected 'after' or 'branch'", 3, 13),
        (
            parse_workspace_text,
            CHAIN + "graph G { N after M. }",
            "sequential composition endpoint mismatch (found '.')",
            6,
            20,
        ),
        (
            parse_workspace_text,
            CHAIN + "graph G { O after N after M. }",
            "sequential composition endpoint mismatch (found '.')",
            6,
            28,
        ),
        (
            parse_workspace_text,
            "schema A { r/1. } schema B { s/1. } schema C { t/1. }\ncompose D1 = A fed B compose D2 = B fed A\n"
            "mapping M1 : A -> D1 { q(X) :- r(X) => u(X). } mapping M2 : D2 -> C { q(X) :- s(X) => v(X). }\n"
            "graph G { M2 after M1. }",  # D1 and D2 are identical terms but two nodes
            "sequential composition endpoint mismatch (found '.')",
            4,
            22,
        ),
        (
            parse_workspace_text,
            "schema A { r/1. } schema P { r/1. } schema B { s/1. } schema C { t/1. }\n"
            "compose D1 = A sep P compose D2 = P sep A\n"
            "mapping M1 : D1 -> B { q(X) :- r#1(X) => s(X). } mapping M2 : D2 -> C { q(X) :- r#1(X) => t(X). }\n"
            "graph H { M1 branch M2. }",  # r#1 is A's relation in D1, P's in D2
            "branching needs a common source (found '.')",
            4,
            23,
        ),
        (
            parse_workspace_text,
            "schema A { r/1. }\nsketch G { }",
            "expected a declaration, found 'sketch'",
            2,
            1,
        ),
    ],
)
def test_each_parse_error_site_keeps_its_message_and_position(parse, text, message, line, col):
    # One row per place the front end raises; the arity check has its own test.
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line, exc.value.col) == (
        f"line {line}, column {col}: {message}",
        line,
        col,
    )


@pytest.mark.parametrize(
    "text, word, line, col",
    [
        ("schema empty { r/1. }", "empty", 1, 8),
        ("schema A { r/1. }\nmapping use : A -> A { q(X) :- r(X) => r(X). }", "use", 2, 9),
        ("schema A { r/1. }\ncompose fed = A sep A", "fed", 2, 9),
        ("schema A { r/1. }\ninstance of of A { }", "of", 2, 10),
        ("graph after { }", "after", 1, 7),
        ("schema A { exact/1. }", "exact", 1, 12),
        ("schema A { constraint/1. }", "constraint", 1, 12),
    ],
)
def test_reserved_words_cannot_be_declared(text, word, line, col):
    with pytest.raises(ParseError, match=f"^line {line}, column {col}: '{word}' is a reserved word$") as exc:
        parse_workspace_text(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("arity", ["0", "-2"])
def test_bad_arity_is_reported_at_its_token(arity):
    with pytest.raises(ParseError) as exc:
        parse_workspace_text(f"schema A {{ r/{arity}. }}")
    assert (exc.value.line, exc.value.col) == (1, 14)
    assert str(exc.value) == f"line 1, column 14: relation arity must be positive (found '{arity}')"


def test_exact_mappings_the_empty_term_and_nested_compositions_survive_a_round_trip():
    ws = parse_workspace_text(
        "schema A { r/2. }\nschema B { s/1. }\n"
        "compose AB = A sep B\ncompose ABE = (AB fed empty) sep B\ncompose E = empty\n"
        "mapping X : A -> B { exact. q(X) :- r(X,Y) => s(X). }\n"
        "mapping I : A -> B { q(X) :- r(X,Y) => s(X). }"
    )
    assert ws.mappings["X"].exact and not ws.mappings["I"].exact
    assert ws.composes["ABE"] == sep(ws.composes["AB"], ws.term("B"))
    out = serialize_workspace(ws)
    assert "compose ABE = A sep B sep B\n" in out and "compose E = empty\n" in out
    assert "mapping X : A -> B {\n  q(X) :- r(X,Y) => s(X).\n  exact.\n}\n" in out
    assert "mapping I : A -> B {\n  q(X) :- r(X,Y) => s(X).\n}\n" in out
    again = parse_workspace_text(out)
    assert again == ws and serialize_workspace(again) == out


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "mapping M : B -> B { q(X) :- s(Y) => s(X). }\n",
            "line 1, column 35: head variable X does not occur in the body (found '=>')",
        ),
        ("schema D { s/1. s/2. }\n", "line 1, column 22: duplicate relation symbols in schema D (found '}')"),
        (
            "schema D { d/1. constraint forall X: d(X) => X = Y. }\n",
            "line 1, column 51: equated variable Y missing from the left side (found '.')",
        ),
    ],
)
def test_a_records_error_names_the_file_and_line_it_is_in(tmp_path, text, message):
    from dbcat.dsl import parse_workspace

    one, two = tmp_path / "one.dbc", tmp_path / "two.dbc"
    one.write_text("schema B { s/1. }\n")
    two.write_text(text)
    with pytest.raises(ParseError) as exc:
        parse_workspace([one, two])
    assert str(exc.value) == f"{two}: {message}"


# Pieces of text the reader knows, strings and comments among them that span
# lines or hold a quote; drawn side by side, they also run into each other.
_TOKEN_ALPHABET = [
    "schema", "A", "r_1", "X#2", "7", "-12", "'a'", "'it\\'s'", "'two\nlines'", "''",
    "# note", "# 'quote\n", ":-", "=>", "->", "<=", "{", "}", "(", ")", ",", ".", ";", ":", "=", "/",
    " ", "\t", "\n", "\n\n  ",
]
_STRAYS = ["@", "\u00e9", "-", "'"]


@st.composite
def _scanner_texts(draw):
    pieces = draw(st.lists(st.sampled_from(_TOKEN_ALPHABET), max_size=30))
    if draw(st.integers(0, 3)) == 0:  # now and then one stray character
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(_STRAYS)))
    return "".join(pieces)


def _scan(scanner, text):
    """What *scanner* reads from *text*, or its refusal as ``(message, line, col)``."""
    try:
        return scanner(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


@settings(max_examples=200 * DEEP, deadline=None)
@given(_scanner_texts())
@example("r('a\nbc', 'd\ne')\n  .")  # a token after a string that spans lines
def test_tokens_are_placed_and_stray_characters_refused_as_the_oracle_does(text):
    tokens = _scan(lambda t: [(tok.kind, tok.value, tok.line, tok.col) for tok in tokenize(t)], text)
    assert tokens == _scan(token_places, text)
