import pytest

from dbcat.constraints import Egd, Tgd
from dbcat.dsl import (
    ParseError,
    parse_rule_text,
    parse_workspace_text,
    serialize_workspace,
)
from dbcat.queries import Const, Var

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
    assert len(g.seqs) == 1 and g.seqs[0].chain[0].name == "N"
    assert len(g.branches) == 1
    out = serialize_workspace(ws)
    assert parse_workspace_text(out) == ws


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
