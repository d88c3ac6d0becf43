import itertools

import pytest

from dbcat.constraints import Sentence, Tgd, check_tgd
from dbcat.core import SENTINEL_A, SENTINEL_B, make_instance
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
    build_sketch,
    fed,
    identity_mapping,
    make_pair,
    mapping_graph,
    schema_identity,
    sep,
    seq_compose,
    term_layout,
    term_sentence,
)

SA = Schema("A", (("r", 1),))
SB = Schema("B", (("s", 1),))
SC = Schema("C", (("t", 1), ("w", 2)))


def test_monoid_laws():
    for op in (sep, fed):
        assert schema_identity(op(op(SA, SB), SC), op(SA, op(SB, SC)))
        assert schema_identity(op(SA, EMPTY_SCHEMA), SA)
        assert schema_identity(op(EMPTY_SCHEMA, SA), SA)
        assert schema_identity(op(SA, SB), op(SB, SA))


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
        assert schema_identity(sep(t, EMPTY_SCHEMA), t)
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


def test_schema_constraint_validation():
    x = Var("X")
    with pytest.raises(SchemaError):
        Schema(
            "K",
            (("r", 1),),
            Sentence((Tgd(("X",), (RelAtom("nope", (x,)),), (RelAtom("r", (x,)),)),)),
        )


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


def test_seq_compose_associative_and_unit():
    m1 = identity_mapping("idA", "A", SAtom(SA))
    qa = rule("q", ["X"], [("r", "X")])
    m = SchemaMapping("M", "A", "B", SAtom(SA), SAtom(SB), (make_pair(qa, RelAtom("s", (Var("X"),))),))
    qb = rule("q", ["X"], [("s", "X")])
    n = SchemaMapping("N", "B", "C", SAtom(SB), SAtom(SC), (make_pair(qb, RelAtom("t", (Var("X"),))),))
    qc = rule("q", ["X"], [("t", "X")])
    o = SchemaMapping("O", "C", "A", SAtom(SC), SAtom(SA), (make_pair(qc, RelAtom("r", (Var("X"),))),))

    assert seq_compose(seq_compose(o, n), m) == seq_compose(o, seq_compose(n, m))
    assert seq_compose(m, m1).chain == (m,)
    with pytest.raises(SchemaError):
        seq_compose(m, n)  # endpoints do not align


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


def test_sketch_case1_fresh_relation():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("fresh", (Var("X"),))))
    sk = build_sketch(g)
    assert [(n, a.name) for n, a in sk.gamma] == [("C", "fresh")]
    (arrow,) = sk.arrows_between("A", "C")
    assert arrow.kind == "mapping"
    assert arrow.viewpairs[0][1] == "fresh"
    assert sk.helpers == ()


def test_sketch_case2_helper():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("t", (Var("X"),))))
    sk = build_sketch(g)
    assert sk.gamma == ()
    (helper,) = sk.helpers
    assert helper.arity == 2  # one tag column on top of the shared width
    assert sk.arrows_between("A", helper.name) and sk.arrows_between("C", helper.name)
    phi = [a for a in sk.arrows if a.name == f"phi_{helper.name}"]
    assert phi and phi[0].tgt == EMPTY_NODE


def test_sentinel_tgd_semantics():
    q = rule("q", ["X"], [("r", "X")])
    g = _graph_single(make_pair(q, RelAtom("t", (Var("X"),))))
    sk = build_sketch(g)
    (helper,) = sk.helpers
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
    (arrow,) = sk.arrows_between("A", "C")
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
    assert sk.diagrams == () and sk.cones == ()
    for node in sk.node_names():
        assert sk.identity_of(node).kind == "identity"


def test_empty_graph_sketch():
    sk = build_sketch(mapping_graph("G", {}, []))
    assert sk.node_names() == (EMPTY_NODE,)
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
