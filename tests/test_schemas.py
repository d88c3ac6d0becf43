import itertools

import pytest

from dbcat.constraints import Egd, Sentence, Tgd, check_tgd
from dbcat.core import make_instance
from dbcat.dsl import ParseError, parse_workspace_text
from dbcat.interpret import interpret_term, interpretation
from dbcat.queries import CrossComponentQuery, RelAtom, Var, rule
from dbcat.schemas import (
    EMPTY_NODE,
    EMPTY_SCHEMA,
    SAtom,
    Schema,
    SchemaError,
    SchemaMapping,
    branch,
    fed,
    make_pair,
    mapping_graph,
    schema_identity,
    sep,
    term_layout,
    term_sentence,
)
from dbcat.sketch import HelperSchema, build_sketch
from dbcat.values import SENTINEL_A, SENTINEL_B

SA = Schema("A", (("r", 1),))
SB = Schema("B", (("s", 1),))
SC = Schema("C", (("t", 1), ("w", 2)))


def test_monoid_laws():
    for op in (sep, fed):
        assert schema_identity(op(op(SA, SB), SC), op(SA, op(SB, SC)))
        assert schema_identity(op(SA, SB), op(SB, SA))
    # the empty schema is 1 in N[schemas]: fed's unit, while sep(A, empty) is A + 1
    assert schema_identity(fed(SA, EMPTY_SCHEMA), SA)
    assert schema_identity(fed(EMPTY_SCHEMA, SA), SA)
    assert not schema_identity(sep(SA, EMPTY_SCHEMA), SA)
    assert not schema_identity(sep(EMPTY_SCHEMA, SA), SA)


def test_distribution_of_federation_over_separation():
    lhs = fed(SA, sep(SB, SC))
    rhs = sep(fed(SA, SB), fed(SA, SC))
    assert schema_identity(lhs, rhs)


def test_no_accidental_idempotence():
    assert not schema_identity(sep(SA, SA), SA)
    assert not schema_identity(fed(SA, SA), SA)
    assert not schema_identity(sep(SA, SB), fed(SA, SB))


def test_exhaustive_small_terms():
    atoms = [SAtom(SA), SAtom(SB), SAtom(SC), EMPTY_SCHEMA]
    terms1 = [op(x, y) for op in (sep, fed) for x in atoms for y in atoms]
    for t in terms1:
        assert not schema_identity(sep(t, EMPTY_SCHEMA), t)
        assert schema_identity(fed(t, EMPTY_SCHEMA), t)
    for op in (sep, fed):
        for x, y, z in itertools.product(atoms, atoms, atoms):
            assert schema_identity(op(op(x, y), z), op(x, op(y, z)))
    for x, y, z in itertools.product(atoms, repeat=3):
        assert schema_identity(fed(x, sep(y, z)), sep(fed(x, y), fed(x, z)))


def test_layout_qualifies_collisions():
    layout = term_layout(sep(SA, SA))
    assert sorted(layout.relsymbols()) == ["r#1", "r#2"]
    assert layout.component_of("r#1") != layout.component_of("r#2")

    single = term_layout(sep(SA, EMPTY_SCHEMA))
    assert sorted(single.relsymbols()) == ["r"]
    assert single.component_of("r") == 0


def test_fed_layout_single_component():
    layout = term_layout(fed(SA, SB))
    assert {layout.component_of(n) for n in layout.relsymbols()} == {0}
    separated = term_layout(sep(SA, SB))
    assert {separated.component_of(n) for n in separated.relsymbols()} == {1, 2}


def test_term_sentence_renames_constraints():
    x = Var("X")
    constrained = Schema(
        "K",
        (("r", 1),),
        Sentence((Tgd(("X",), (RelAtom("r", (x,)),), (RelAtom("r", (x,)),), True),)),
    )
    s = term_sentence(sep(constrained, constrained))
    names = {a.name for item in s.items for a in item.left}
    assert names == {"r#1", "r#2"}


def test_layout_results_are_pinned():
    # fed(sep(A, B), A) normalizes to the groups (A, A) and (B, A); r occurs
    # under leaves 1, 2 and 4, s only under leaf 3.  k counts the occurrences
    # of r, not the leaves, so the last r is r#3.
    x = Var("X")

    def loop(rel):
        return Sentence((Tgd(("X",), (RelAtom(rel, (x,)),), (RelAtom(rel, (x,)),), True),))

    a, b = Schema("A", (("r", 1),), loop("r")), Schema("B", (("s", 1),), loop("s"))
    term = fed(sep(a, b), a)
    layout = term_layout(term)
    assert [(q, c) for _, c, names in layout.leaves for _, q in names] == [
        ("r#1", 1), ("r#2", 1), ("s", 2), ("r#3", 2)
    ]
    alpha = interpretation({"A": make_instance({"r": [(1,), (2,)]}), "B": make_instance({"s": [(3,)]})})
    inst = interpret_term(alpha, term)
    assert [(r.name, sorted(r.tuples)) for r in inst.relations] == [
        ("r#1", [(1,), (2,)]), ("r#2", [(1,), (2,)]), ("r#3", [(1,), (2,)]), ("s", [(3,)])
    ]
    assert inst.partition == (("r#1", 1), ("r#2", 1), ("r#3", 2), ("s", 2))
    assert [item.left[0].name for item in term_sentence(term).items] == ["r#1", "r#2", "s", "r#3"]

    pair = make_pair(rule("q", ["X"], [("r", "X")]), RelAtom("s", (x,)))
    m1 = SchemaMapping("M1", "A", "B", SAtom(a), SAtom(b), (pair,))
    both = branch(m1, m1)
    assert [(p.rhs_name, p.rhs.body) for p in both.pairs] == [
        ("s#1", (RelAtom("s#1", (x,)),)), ("s#2", (RelAtom("s#2", (x,)),))
    ]


def test_graph_node_name_for_the_empty_schema_is_reserved():
    q = rule("q", ["X"], [("r", "X")])
    with pytest.raises(SchemaError, match="reserved"):
        _graph_single(make_pair(q, RelAtom("t", (Var("X"),))), src=(EMPTY_NODE, SA))


X, Y = Var("X"), Var("Y")


@pytest.mark.parametrize(
    "item, message",
    [
        (Tgd(("X",), (RelAtom("nope", (X,)),), (RelAtom("r", (X,)),)), "constraint of K uses unknown relation nope"),
        (Tgd(("X",), (RelAtom("r", (X,)),), (RelAtom("nope", (X,)),)), "constraint of K uses unknown relation nope"),
        (Tgd(("X",), (RelAtom("r", (X,)),), (RelAtom("s", (X,)),)), "constraint of K uses s at the wrong arity"),
        (Egd((RelAtom("r", (X,)), RelAtom("r", (X, Y))), ("X", "Y")), "constraint of K uses r at the wrong arity"),
    ],
)
def test_schema_constraint_validation(item, message):
    with pytest.raises(SchemaError) as exc:
        Schema("K", (("r", 1), ("s", 2)), Sentence((item,)))
    assert str(exc.value) == message


def test_declared_relation_names_cannot_look_qualified():
    # B's r#2 would otherwise meet the name term_layout gives A's second leaf
    with pytest.raises(SchemaError, match="may not contain '#'"):
        Schema("B", (("r#2", 2),))


def test_mapping_rejects_cross_component_query():
    q = rule("q", ["X", "Y"], [("r", "X"), ("s", "Y")])
    with pytest.raises(CrossComponentQuery):
        SchemaMapping(
            "M",
            "D",
            "B",
            sep(SA, SB),
            SAtom(SB),
            (make_pair(q, RelAtom("s", (Var("X"), Var("Y")))),),
        )


def test_mapping_admissible_over_federation():
    q = rule("q", ["X", "Y"], [("r", "X"), ("s", "Y")])
    m = SchemaMapping(
        "M",
        "D",
        "C",
        fed(SA, SB),
        SAtom(SC),
        (make_pair(q, RelAtom("w", (Var("X"), Var("Y")))),),
    )
    assert m.pairs[0].rhs_name == "w"


def test_branch_unites_pairs_and_commutes():
    qa = rule("q", ["X"], [("r", "X")])
    m1 = SchemaMapping("M1", "A", "B", SAtom(SA), SAtom(SB), (make_pair(qa, RelAtom("s", (Var("X"),))),))
    m2 = SchemaMapping("M2", "A", "C", SAtom(SA), SAtom(SC), (make_pair(qa, RelAtom("t", (Var("X"),))),))
    b12 = branch(m1, m2)
    assert schema_identity(b12.target, sep(SAtom(SB), SAtom(SC)))
    assert len(b12.pairs) == 2
    assert {p.rhs_name for p in b12.pairs} == {"s", "t"}
    b21 = branch(m2, m1)
    assert schema_identity(b12.target, b21.target)
    assert {p.rhs_name for p in b21.pairs} == {"s", "t"}


def test_branch_with_empty_mapping():
    qa = rule("q", ["X"], [("r", "X")])
    m1 = SchemaMapping("M1", "A", "B", SAtom(SA), SAtom(SB), (make_pair(qa, RelAtom("s", (Var("X"),))),))
    m0 = SchemaMapping("M0", "A", "C", SAtom(SA), SAtom(SC), ())
    b = branch(m1, m0)
    assert schema_identity(b.target, sep(SAtom(SB), SAtom(SC)))
    assert len(b.pairs) == 1  # the silent component receives nothing


def test_branch_requires_common_source():
    qa = rule("q", ["X"], [("r", "X")])
    qb = rule("q", ["X"], [("s", "X")])
    m1 = SchemaMapping("M1", "A", "B", SAtom(SA), SAtom(SB), (make_pair(qa, RelAtom("s", (Var("X"),))),))
    m2 = SchemaMapping("M2", "B", "C", SAtom(SB), SAtom(SC), (make_pair(qb, RelAtom("t", (Var("X"),))),))
    with pytest.raises(SchemaError):
        branch(m1, m2)


def _graph_single(pair, name="M", src=("A", SA), tgt=("C", SC)):
    m = SchemaMapping(name, src[0], tgt[0], SAtom(src[1]), SAtom(tgt[1]), (pair,))
    return mapping_graph("G", {src[0]: SAtom(src[1]), tgt[0]: SAtom(tgt[1])}, [m])


def test_helper_name_may_not_be_a_graph_node():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("t", (Var("X"),))), tgt=("C_M_0", SC))
    with pytest.raises(SchemaError, match="helper C_M_0 of mapping M clashes with the graph node"):
        build_sketch(g)
    # a fresh relation needs no helper, so the same node name is fine there
    build_sketch(_graph_single(make_pair(q, RelAtom("fresh", (Var("X"),))), tgt=("C_M_0", SC)))


def _helpers(sk):
    return [obj for _, obj in sk.nodes if isinstance(obj, HelperSchema)]


def _arrows(sk, src, tgt):
    """The arrows from *src* to *tgt*, identities aside."""
    return [a for a in sk.arrows if a.kind != "identity" and (a.src, a.tgt) == (src, tgt)]


def test_sketch_case1_fresh_relation():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("fresh", (Var("X"),))))
    sk = build_sketch(g)
    assert [(n, a.name) for n, a in sk.gamma] == [("C", "fresh")]
    (arrow,) = _arrows(sk, "A", "C")
    assert arrow.kind == "mapping"
    assert arrow.viewpairs[0][1] == "fresh"
    assert _helpers(sk) == []


def test_sketch_case2_helper():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("t", (Var("X"),))))
    sk = build_sketch(g)
    assert sk.gamma == ()
    (helper,) = _helpers(sk)
    assert helper.arity == 2  # one tag column on top of the shared width
    assert _arrows(sk, "A", helper.name) and _arrows(sk, "C", helper.name)
    phi = [a for a in sk.arrows if a.name == f"phi_{helper.name}"]
    assert phi and phi[0].tgt == EMPTY_NODE


def test_sentinel_tgd_semantics():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("t", (Var("X"),))))
    sk = build_sketch(g)
    (helper,) = _helpers(sk)
    c = helper.relation
    ok = make_instance({c: [(1, SENTINEL_A), (1, SENTINEL_B)]})
    bad = make_instance({c: [(1, SENTINEL_A)]})
    assert check_tgd(helper.sentinel, ok)
    assert not check_tgd(helper.sentinel, bad)


def test_sketch_merges_parallel_arrows():
    q1 = rule("q", ["X"], [("r", "X")])
    q2 = rule("p", ["X"], [("r", "X")])
    m1 = SchemaMapping("M1", "A", "C", SAtom(SA), SAtom(SC), (make_pair(q1, RelAtom("f1", (Var("X"),))),))
    m2 = SchemaMapping("M2", "A", "C", SAtom(SA), SAtom(SC), (make_pair(q2, RelAtom("f2", (Var("X"),))),))
    g = mapping_graph("G", {"A": SAtom(SA), "C": SAtom(SC)}, [m1, m2])
    sk = build_sketch(g)
    (arrow,) = _arrows(sk, "A", "C")
    assert len(arrow.viewpairs) == 2


def test_sketch_one_arrow_between_nodes():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("fresh", (Var("X"),))))
    sk = build_sketch(g)
    seen = set()
    for a in sk.arrows:
        if a.kind == "identity":
            continue
        assert (a.src, a.tgt) not in seen
        seen.add((a.src, a.tgt))


def test_sketch_diagram_classes_empty_and_identities_present():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("t", (Var("X"),))))
    sk = build_sketch(g)
    assert type(sk)._fields == ("nodes", "gamma", "arrows")  # no diagrams or cones
    names = [n for n, _ in sk.nodes]
    assert [(a.src, a.tgt) for a in sk.arrows if a.kind == "identity"] == list(zip(names, names))


def test_empty_graph_sketch():
    sk = build_sketch(mapping_graph("G", {}, []))
    assert [n for n, _ in sk.nodes] == [EMPTY_NODE]
    assert len(sk.arrows) == 1 and sk.arrows[0].kind == "identity"


def test_conflicting_gamma_additions_rejected():
    q = rule("q", ["X"], [("r", "X")])
    m1 = SchemaMapping("M1", "A", "C", SAtom(SA), SAtom(SC), (make_pair(q, RelAtom("fresh", (Var("X"),))),))
    other = rule("q", ["X"], [("t", "X")])
    m2 = SchemaMapping(
        "M2", "C", "C", SAtom(SC), SAtom(SC), (make_pair(other, rule("fresh", ["X"], [("t", "X")])),)
    )
    g = mapping_graph("G", {"A": SAtom(SA), "C": SAtom(SC)}, [m1, m2])
    with pytest.raises(SchemaError):
        build_sketch(g)


MAPPING_SCHEMAS = "schema A { r/2. }\nschema U { v/1. }\nschema B { s/1. w/2. }\ncompose AU = A sep U\n"


@pytest.mark.parametrize(
    "source, pair, error, message",
    [
        ("A", "q(X) :- z(X) => s(X)", SchemaError, "mapping M: z not in source schema"),
        ("A", "q(X) :- r(X) => s(X)", SchemaError, "mapping M: r used at the wrong arity"),
        ("A", "q(X) :- r(X,Y) => w(X)", SchemaError, "mapping M: w used at the wrong arity"),
        ("A", "q(X) :- r(X,Y) => p(X) :- s(X), w(X,X,Y)", SchemaError, "mapping M: w used at the wrong arity"),
        ("A", "q(X) :- r(X,Y) => p(X,Y) :- w(X,Y)", SchemaError, "mapping M: the two sides have different widths"),
        ("A", "q(X) :- r(X,Y) => p(X) :- z(X)", SchemaError, "mapping M: right-side query uses unknown relation z"),
        ("AU", "q(X) :- r(X,Y), v(X) => s(X)", CrossComponentQuery, "mapping M: query spans separated source components"),
    ],
)
def test_a_mapping_checks_its_pairs_against_its_schemas(source, pair, error, message):
    with pytest.raises(ParseError) as exc:  # the parser positions the mapping's own error
        parse_workspace_text(MAPPING_SCHEMAS + f"mapping M : {source} -> B {{ {pair}. }}")
    cause = exc.value.__cause__
    assert type(cause) is error and str(cause) == message
    assert str(exc.value) == f"line 5, column {exc.value.col}: {message} (found '}}')"
    parse_workspace_text(MAPPING_SCHEMAS + f"mapping M : {source} -> B {{ q(X) :- r(X,Y) => s(X). }}")


def test_a_graph_names_each_mapping_once():
    q = rule("q", ["X"], [("r", "X")])
    m = SchemaMapping("M", "A", "C", SAtom(SA), SAtom(SC), (make_pair(q, RelAtom("fresh", (Var("X"),))),))
    with pytest.raises(SchemaError, match="^graph G: two mappings are named M$"):
        mapping_graph("G", {"A": SAtom(SA), "C": SAtom(SC)}, [m, m])


SELF_BRANCH = (
    "schema R { r/2. s/1. }\nschema M { r/2. }\ncompose F = (empty fed R)\n"
    "instance R0 of R { s(1). }\ninstance M0 of M { r(1,1). }\n"
    "mapping C : M -> F { q(X) :- r(X,X) => p1(V) :- s(V). }\n"
    "graph G { C branch C. }\n"
)


def test_a_mapping_branched_with_itself_adds_each_relation_once_per_side():
    from dbcat.cli import run
    from dbcat.writer import serialize_workspace

    ws = parse_workspace_text(SELF_BRANCH)
    both = ws.graphs["G"].mappings[-1]
    # both sides add p1: the sum names them as it names its colliding relations
    assert [(p.rhs_name, p.rhs.body) for p in both.pairs] == [
        ("p1#1", (RelAtom("s#1", (Var("V"),)),)), ("p1#2", (RelAtom("s#2", (Var("V"),)),))
    ]
    for command in ("check-model", "check-functor"):
        for depth in (2, -1):
            report = run(command, ["G"], ws, depth, 4, 100000)
            assert report.passed, (command, depth, report.checks)
    text = serialize_workspace(ws)
    assert parse_workspace_text(text) == ws and serialize_workspace(parse_workspace_text(text)) == text


# M1 adds s, a relation C holds; M2 adds t, a relation B holds, and u.
CAPTURE = (
    "schema A { r/1. } schema B { t/1. } schema C { s/1. }\n"
    "instance A0 of A { r(1). r(2). } instance B0 of B { t(7). } instance C0 of C { s(9). }\n"
    "mapping M1 : A -> B { q(X) :- r(X) => s(X). q(X) :- r(X) => t(X). }\n"
    "mapping M2 : A -> C { q(X) :- r(X) => s(X). q(X) :- r(X) => t(X). q(X) :- r(X) => u(X). }\n"
    "mapping M3 : A -> C { q(X) :- r(X) => u(X). }\n"
)


@pytest.mark.parametrize("left, right", itertools.product(["M1", "M2", "M3"], repeat=2))
def test_a_branched_pair_writes_into_a_declared_relation_exactly_when_its_own_pair_does(left, right):
    ws = parse_workspace_text(CAPTURE)
    m1, m2 = ws.mappings[left], ws.mappings[right]
    both = branch(m1, m2)
    held = term_layout(both.target).relsymbols()
    declared = [p.rhs_name in term_layout(m.target).relsymbols() for m in (m1, m2) for p in m.pairs]
    assert [p.rhs_name in held for p in both.pairs] == declared


def test_a_relation_one_side_adds_is_not_captured_by_the_other_sides_target():
    from dbcat.cli import run

    text = CAPTURE.split("mapping")[0] + (
        "mapping M1 : A -> B { q(X) :- r(X) => s(X). }\n"
        "mapping M2 : A -> C { q(X) :- r(X) => s(X). }\n"
        "graph G { M1 branch M2. }\n"
    )
    refusal = r"^mapping M1\+M2: cannot place 's#1' in a separated target without a defining query$"
    with pytest.raises(SchemaError, match=refusal):
        run("check-model", ["G"], parse_workspace_text(text), None, 2, 100000)
    ws = parse_workspace_text(text.replace("=> s(X). }", "=> s(X) :- t(X). }", 1))
    checks = {check: (ok, detail) for check, ok, detail in run("check-model", ["G"], ws, None, 2, 100000).checks}
    assert checks["arrow map_A__B_sep_C"] == (False, "view for s#1 not contained in target: extra tuples [(1,), (2,)]")
    assert not any("C_M1+M2_0" in check for check in checks)
