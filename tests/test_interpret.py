import json
import pathlib

import pytest

from dbcat import interpret
from dbcat.category import equivalent, flux, identity
from dbcat.cli import main
from dbcat.constraints import Egd, Sentence, Tgd
from dbcat.core import (
    SENTINEL_A,
    SENTINEL_B,
    Instance,
    Relation,
    bottom_instance,
    is_empty_isomorphic,
    make_instance,
)
from dbcat.interpret import (
    InterpretationError,
    check_functor,
    check_gamma_iso,
    check_model,
    gamma_instance,
    helper_instance,
    interpret_arrow,
    interpret_term,
    interpretation,
)
from dbcat.powerview import instances_isomorphic
from dbcat.queries import RelAtom, Var, rule
from dbcat.schemas import (
    EMPTY_NODE,
    EMPTY_SCHEMA,
    SAtom,
    Schema,
    SchemaMapping,
    fed,
    make_pair,
    mapping_graph,
    sep,
)
from dbcat.sketch import HelperSchema, build_sketch

X, Y = Var("X"), Var("Y")

SA = Schema("A", (("r", 1),))
SB = Schema("B", (("s", 1),))
SC = Schema("C", (("t", 1),))
SE = Schema("E", ())  # no relations: its instance is the bottom instance


def alpha_with(r=(), s=(), t=()):
    return interpretation(
        {
            "A": make_instance({"r": set(r)}, arities={"r": 1}),
            "B": make_instance({"s": set(s)}, arities={"s": 1}),
            "C": make_instance({"t": set(t)}, arities={"t": 1}),
        },
        {"A": SA, "B": SB, "C": SC},
    )


def test_interpretation_validates_against_schema():
    with pytest.raises(InterpretationError):
        interpretation({"A": make_instance({"other": [(1,)]})}, {"A": SA})
    with pytest.raises(InterpretationError):
        interpretation({"A": make_instance({"r": [(1, 2)]})}, {"A": SA})
    with pytest.raises(InterpretationError):
        interpretation({"A": make_instance({"r": [(SENTINEL_A,)]})}, {"A": SA})


def test_interpret_empty_term_is_bottom():
    alpha = alpha_with(r=[(1,)])
    assert interpret_term(alpha, EMPTY_SCHEMA) == bottom_instance()


def test_interpret_sep_with_empty_is_plain():
    alpha = alpha_with(r=[(1,)])
    plain = interpret_term(alpha, SAtom(SA))
    padded = interpret_term(alpha, sep(SAtom(SA), EMPTY_SCHEMA))
    assert padded == plain
    assert instances_isomorphic(plain, padded, None, 2)


def test_fed_and_sep_differ_only_in_components():
    alpha = alpha_with(r=[(1,)], s=[(2,)])
    federated = interpret_term(alpha, fed(SAtom(SA), SAtom(SB)))
    separated = interpret_term(alpha, sep(SAtom(SA), SAtom(SB)))
    assert {r.tuples for r in federated.relations} == {
        r.tuples for r in separated.relations
    }
    assert {federated.component_of(n) for n in federated.names} == {0}
    assert {separated.component_of(n) for n in separated.names} == {1, 2}


def test_interpret_duplicated_leaf():
    alpha = alpha_with(r=[(1,)])
    doubled = interpret_term(alpha, sep(SAtom(SA), SAtom(SA)))
    assert doubled.names == ("r#1", "r#2")
    assert doubled.relation("r#1").tuples == doubled.relation("r#2").tuples


def _helpers(sk):
    return [obj for _, obj in sk.nodes if isinstance(obj, HelperSchema)]


def _model_fixture():
    """A -> C comparison mapping (helper) and B -> C reified view mapping."""
    m1 = SchemaMapping(
        "M1", "A", "C", SAtom(SA), SAtom(SC), (make_pair(rule("q", ["X"], [("r", "X")]), RelAtom("t", (X,))),)
    )
    m2 = SchemaMapping(
        "M2",
        "B",
        "C",
        SAtom(SB),
        SAtom(SC),
        (make_pair(rule("q", ["X"], [("s", "X")]), rule("u", ["X"], [("t", "X")])),),
    )
    g = mapping_graph("G", {"A": SAtom(SA), "B": SAtom(SB), "C": SAtom(SC)}, [m1, m2])
    return g, build_sketch(g)


def test_check_model_positive():
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[(2,)], t=[(1,), (2,)])
    report = check_model(alpha, sk)
    assert report.passed
    assert all(ok for _, ok, _ in report.checks)


def test_check_model_detects_mapping_violation():
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[(2,)], t=[(2,)])  # r has 1, t does not
    report = check_model(alpha, sk)
    assert not report.passed
    failing = [cid for cid, ok, _ in report.checks if cid.startswith("arrow ") and not ok]
    assert any("C_M1_0" in name for name in failing)


def test_check_model_detects_constraint_violation():
    key = Schema(
        "A",
        (("r", 1),),
        Sentence(
            (
                Egd(
                    (RelAtom("r", (X,)), RelAtom("r", (Y,))),
                    ("X", "Y"),
                ),
            )
        ),
    )
    g = mapping_graph("G", {"A": SAtom(key)}, [])
    sk = build_sketch(g)
    good = interpretation({"A": make_instance({"r": [(1,)]})}, {"A": key})
    bad = interpretation({"A": make_instance({"r": [(1,), (2,)]})}, {"A": key})
    assert check_model(good, sk).passed
    report = check_model(bad, sk)
    assert not report.passed
    assert any("egd" in detail for cid, ok, detail in report.checks if cid.startswith("schema ") and not ok)


def test_helper_instance_tags():
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[], t=[(1,)])
    (helper,) = _helpers(sk)
    inst = helper_instance(alpha, sk, helper)
    (rel,) = inst.relations
    assert rel.tuples == {(1, SENTINEL_A), (1, SENTINEL_B)}
    assert all(t[-1] in (SENTINEL_A, SENTINEL_B) for t in rel.tuples)


def test_helper_tgd_equals_inclusion():
    g, sk = _model_fixture()
    from dbcat.constraints import check_tgd

    (helper,) = _helpers(sk)
    for r_content, t_content in [
        ([(1,)], [(1,)]),
        ([(1,)], [(2,)]),
        ([], [(2,)]),
        ([(1,), (2,)], [(1,), (2,)]),
        ([(1,), (2,)], [(1,)]),
    ]:
        alpha = alpha_with(r=r_content, s=[], t=t_content)
        inst = helper_instance(alpha, sk, helper)
        assert check_tgd(helper.sentinel, inst) == (set(r_content) <= set(t_content))


def test_interpret_arrow_sentence_satisfied():
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[], t=[(1,)])
    phi_a = next(a for a in sk.arrows if a.name == "phi_A")
    image = interpret_arrow(alpha, sk, phi_a)
    assert image.ok
    assert image.morphism.target == bottom_instance()
    assert flux(image.morphism, None, 2).extensions() == {frozenset()}


def test_interpret_arrow_sentence_violated_is_marker():
    key = Schema(
        "A",
        (("r", 1),),
        Sentence((Egd((RelAtom("r", (X,)), RelAtom("r", (Y,))), ("X", "Y")),)),
    )
    g = mapping_graph("G", {"A": SAtom(key)}, [])
    sk = build_sketch(g)
    alpha = interpretation({"A": make_instance({"r": [(1,), (2,)]})}, {"A": key})
    phi = next(a for a in sk.arrows if a.name == "phi_A")
    image = interpret_arrow(alpha, sk, phi)
    assert not image.ok
    assert image.morphism.source == bottom_instance()  # the stand-in loop


def test_violated_sentence_on_empty_instance_is_fine():
    # an empty instance satisfies everything vacuously, so use a tautology
    # plus emptiness to hit the always-functorial branch
    g, sk = _model_fixture()
    alpha = alpha_with()
    phi_a = next(a for a in sk.arrows if a.name == "phi_A")
    image = interpret_arrow(alpha, sk, phi_a)
    assert image.ok and is_empty_isomorphic(image.morphism.source)


def test_empty_instance_is_model_regardless_of_constraints():
    # an existence demand (empty universal prefix) genuinely fails on the
    # empty instance, yet the empty instance still counts as a model
    demanding = Schema(
        "A",
        (("r", 1),),
        Sentence((Tgd((), (), (RelAtom("r", (X,)),)),)),  # "some row exists"
    )
    g = mapping_graph("G", {"A": SAtom(demanding)}, [])
    sk = build_sketch(g)
    empty_alpha = interpretation(
        {"A": make_instance({"r": []}, arities={"r": 1})}, {"A": demanding}
    )
    filled_alpha = interpretation(
        {"A": make_instance({"r": [(1,)]})}, {"A": demanding}
    )
    assert check_model(empty_alpha, sk).passed
    assert check_functor(empty_alpha, sk).passed
    assert check_model(filled_alpha, sk).passed
    assert check_functor(filled_alpha, sk).passed


def test_interpret_identity_arrow():
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[], t=[(1,)])
    (ida,) = [a for a in sk.arrows if a.kind == "identity" and a.src == "A"]
    image = interpret_arrow(alpha, sk, ida)
    inst = interpret_term(alpha, SAtom(SA))
    assert equivalent(image.morphism, identity(inst))


def test_functor_iff_model_on_fixture():
    g, sk = _model_fixture()
    cases = [
        alpha_with(r=[(1,)], s=[(2,)], t=[(1,), (2,)]),  # model
        alpha_with(r=[(1,)], s=[], t=[(2,)]),  # r not inside t
        alpha_with(r=[], s=[(1,)], t=[]),  # s not inside t
        alpha_with(),  # everything empty: a model
    ]
    for alpha in cases:
        model = check_model(alpha, sk).passed
        functor = check_functor(alpha, sk).passed
        assert model == functor, alpha


def test_gamma_iso_for_models_and_negative_control():
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[(2,)], t=[(1,), (2,)])
    verdicts = check_gamma_iso(alpha, sk)
    assert [cid for cid, _, _ in verdicts.checks] == ["gamma-iso A", "gamma-iso B", "gamma-iso C"]
    assert verdicts.passed

    # hand-built enlargement holding a value outside the original closure
    base = interpret_term(alpha, SAtom(SC))
    foreign = Instance(
        base.relations + (Relation("u", 1, frozenset({(99,)})),),
        base.partition + (("u", 0),),
    )
    assert not instances_isomorphic(base, foreign, None, 2)


def test_each_check_materializes_each_node_once(monkeypatch):
    terms, queries = [], []
    real_term, real_eval = interpret.interpret_term, interpret.eval_rule

    def interpreting(alpha, term):
        terms.append(term)
        return real_term(alpha, term)

    def evaluating(q, inst):  # an added relation or a helper's side
        queries.append(id(q))
        return real_eval(q, inst)

    monkeypatch.setattr(interpret, "interpret_term", interpreting)
    monkeypatch.setattr(interpret, "eval_rule", evaluating)
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[(2,)], t=[(1,), (2,)])
    checks = [lambda: check_model(alpha, sk), lambda: check_functor(alpha, sk)]
    checks += [lambda: check_gamma_iso(alpha, sk)]
    for check in checks:
        terms.clear()
        queries.clear()
        check()
        assert terms and len(terms) == len(set(terms))
        assert len(queries) == len(set(queries))
    assert len(terms) == 3 and len(queries) == 1  # gamma-iso: the terms of A, B and C, then u := t


def test_gamma_instance_materializes_defining_query():
    g, sk = _model_fixture()
    alpha = alpha_with(r=[(1,)], s=[(2,)], t=[(1,), (2,)])
    enlarged = gamma_instance(alpha, sk, "C")
    assert enlarged.relation("u").tuples == {(1,), (2,)}  # u := t


def test_functor_homomorphism_laws_on_terms():
    alpha = alpha_with(r=[(1,)], s=[(2,)], t=[])
    a, b = SAtom(SA), SAtom(SB)
    # separation becomes disjoint union, federation a shared component
    from dbcat.core import disjoint_union, federate

    ia, ib = interpret_term(alpha, a), interpret_term(alpha, b)
    assert instances_isomorphic(
        interpret_term(alpha, sep(a, b)), disjoint_union(ia, ib), None, 2
    )
    assert instances_isomorphic(
        interpret_term(alpha, fed(a, b)), federate(ia, ib), None, 2
    )
    assert interpret_term(alpha, EMPTY_SCHEMA) == bottom_instance()
    # schema identity turns into instance isomorphism
    assert instances_isomorphic(
        interpret_term(alpha, sep(a, sep(b, EMPTY_SCHEMA))),
        interpret_term(alpha, sep(sep(a, b), EMPTY_SCHEMA)),
        None,
        2,
    )


SMALL_ATOMS = [SAtom(SA), SAtom(SB), SAtom(SC), EMPTY_SCHEMA]
SMALL_TERMS = SMALL_ATOMS + [op(x, y) for op in (sep, fed) for x in SMALL_ATOMS for y in SMALL_ATOMS]


def test_homomorphism_on_all_small_terms():
    import itertools

    from dbcat.core import disjoint_union, federate
    from dbcat.schemas import schema_identity

    alpha = alpha_with(r=[(1,)], s=[(2,)], t=[(1,)])
    atoms, terms = SMALL_ATOMS, SMALL_TERMS

    # operator translation on every depth-2 combination
    for x, y in itertools.product(atoms, terms):
        ix, iy = interpret_term(alpha, x), interpret_term(alpha, y)
        assert instances_isomorphic(
            interpret_term(alpha, sep(x, y)), disjoint_union(ix, iy), None, 2
        )
        if len(x.groups) == 1 and len(y.groups) == 1:
            # the flat reading of federation applies to one-group operands;
            # over a separated operand it distributes instead (checked below)
            assert instances_isomorphic(
                interpret_term(alpha, fed(x, y)), federate(ix, iy), None, 2
            )

    # identical terms interpret to isomorphic instances, which in particular
    # realizes the distribution of federation over separation
    for t1, t2 in itertools.combinations(terms, 2):
        if schema_identity(t1, t2):
            assert instances_isomorphic(
                interpret_term(alpha, t1), interpret_term(alpha, t2), None, 2
            )
    for x, y, z in itertools.product(atoms[:3], repeat=3):
        assert instances_isomorphic(
            interpret_term(alpha, fed(x, sep(y, z))),
            interpret_term(alpha, sep(fed(x, y), fed(x, z))),
            None,
            2,
        )


def _term_text(term) -> str:
    return " sep ".join(f"({' fed '.join(s.name for s in g)})" if g else "empty" for g in term.groups)


@pytest.mark.parametrize(
    "term",
    SMALL_TERMS
    + [fed(x, sep(y, z)) for x in SMALL_ATOMS[:3] for y in SMALL_ATOMS[:3] for z in SMALL_ATOMS]
    + [sep(fed(SAtom(SA), SAtom(SA)), sep(SAtom(SA), SAtom(SB))), fed(sep(SAtom(SA), SAtom(SB)), sep(SAtom(SA), EMPTY_SCHEMA))]
    + [sep(SAtom(SE), SAtom(SB)), sep(sep(SAtom(SA), SAtom(SE)), fed(SAtom(SE), SAtom(SB))), fed(sep(SAtom(SE), SAtom(SA)), SAtom(SE))],
)
def test_a_parsed_instance_of_a_composition_is_the_fold_of_its_leaves(term):
    # The DSL names and places a composition's relations by the term layout,
    # interpret_term by the sums: the two must build one instance.
    from dbcat.dsl import parse_workspace_text
    from dbcat.schemas import term_layout

    leaves = alpha_with(r=[(1,), (2,)], s=[(2,)], t=[]).assignment
    alpha = interpretation(dict(leaves, E=bottom_instance()), {"A": SA, "B": SB, "C": SC, "E": SE})
    rows = [
        f"{q}({','.join(map(str, row))})."
        for schema, _, names in term_layout(term).leaves
        for base, q in names
        for row in alpha.instance_for(schema.name).relation(base).tuples
    ]
    text = "schema A { r/1. }\nschema B { s/1. }\nschema C { t/1. }\nschema E { }\n"
    text += f"compose D = {_term_text(term)}\ninstance D0 of D {{ {' '.join(rows)} }}\n"
    parsed = parse_workspace_text(text).instances["D0"][1]
    assert parsed == interpret_term(alpha, term)


def test_a_leaf_instance_holds_only_its_schemas_relations():
    alpha = interpretation({"A": make_instance({"r": [(1,)], "other": [(2,)]})})  # no schemas to check against
    with pytest.raises(InterpretationError, match="^schema 'A' has no relation 'other'$"):
        interpret_term(alpha, sep(SAtom(SA), SAtom(SA)))
    # the implicit empty relation is every schema's
    alpha = interpretation({"A": make_instance({"r": [(1,)]}), "E": bottom_instance()}, {"A": SA, "E": SE})
    assert interpret_term(alpha, sep(SAtom(SE), SAtom(SA))) == interpret_term(alpha, SAtom(SA))
    assert interpret_term(alpha, fed(SAtom(SE), SAtom(SE))) == bottom_instance()


# -- the functor check reads the shape of Sch(G) -------------------------------

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent.parent / "perfbench" / "golden" / "cli.json"
BOUNDS = {"bounded": [], "fixpoint": ["--depth", "-1", "--arity", "2"]}
# N after M and P share their ends, and P carries less than N after M.
TRIANGLE = (
    "schema A { r/1. } schema B { s/1. } schema C { u/1. }\n"
    "instance A0 of A { r(1). r(2). } instance B0 of B { s(1). s(2). } instance C0 of C { u(1). u(2). }\n"
    "mapping M : A -> B { q(X) :- r(X) => t(X). } mapping N : B -> C { q(X) :- s(X) => v(X). }\n"
    "mapping P : A -> C { q(X) :- r(X), X = 1 => w(X). } graph G { use M. use N. use P. }\n"
)
# check-functor G on demo.dbc, at either bound, as before it stopped comparing fluxes
DEMO_FUNCTOR = """compose phi_C_M_0.map_A__C_M_0\tPASS\tagainst direct arrow phi_A
compose phi_C_M_0.map_B__C_M_0\tPASS\tagainst direct arrow phi_B
compose phi_C_N_0.map_B__C_N_0\tPASS\tagainst direct arrow phi_B
compose phi_C_N_0.map_D__C_N_0\tPASS\tagainst direct arrow phi_D
functor\tPASS\tinterpretation extends to a functor
identity A\tPASS\tmaps to the identity arrow
identity B\tPASS\tmaps to the identity arrow
identity C_M_0\tPASS\tmaps to the identity arrow
identity C_N_0\tPASS\tmaps to the identity arrow
identity D\tPASS\tmaps to the identity arrow
identity _empty\tPASS\tmaps to the identity arrow
mapping map_A__C_M_0\tPASS\tinterpretable
mapping map_B__C_M_0\tPASS\tinterpretable
mapping map_B__C_N_0\tPASS\tinterpretable
mapping map_D__C_N_0\tPASS\tinterpretable
sentence phi_A\tPASS\tmaps into the bottom object
sentence phi_B\tPASS\tmaps into the bottom object
sentence phi_C_M_0\tPASS\tmaps into the bottom object
sentence phi_C_N_0\tPASS\tmaps into the bottom object
sentence phi_D\tPASS\tmaps into the bottom object
"""


@pytest.mark.parametrize("bound", BOUNDS)
def test_a_composite_beside_a_direct_arrow_of_its_ends_is_free(bound, tmp_path, capsys):
    """Sch(G) has no diagram asking N after M to equal P: the triangle is a model and a functor."""
    path = tmp_path / "triangle.dbc"
    path.write_text(TRIANGLE)
    for command in ("check-model", "check-functor"):
        assert main([command, "G", "-i", str(path), *BOUNDS[bound], "--format", "lines"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "compose map_B__C.map_A__B\tPASS\tfree composite" in out.splitlines()


def _refuse(*args, **kwargs):
    raise AssertionError("check-functor closed an instance or read a flux")


def test_check_functor_reads_no_closure_and_no_flux(monkeypatch, capsys):
    from dbcat import category, powerview

    assert not {"compose", "equivalent", "flux"} & set(vars(interpret))  # patching category reaches every call
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(powerview, "close_component", _refuse)
    monkeypatch.setattr(powerview.ClosedForm, "count", _refuse)
    monkeypatch.setattr(powerview.ClosedForm, "listing", _refuse)
    for name in ("flux", "compose", "equivalent"):
        monkeypatch.setattr(category, name, _refuse)
    for workspace in ("demo", "system"):
        for bound, flags in BOUNDS.items():
            expected = DEMO_FUNCTOR if workspace == "demo" else golden[f"{bound} check-functor"]["stdout"]
            assert main(["check-functor", "G", "-i", str(DATA / f"{workspace}.dbc"), *flags, "--format", "lines"]) == 0
            assert capsys.readouterr() == (expected, ""), (workspace, bound)


def test_every_composite_into_the_bottom_object_carries_its_direct_arrows_flux():
    """The bottom instance is terminal in DB: the flux comparison the functor
    check no longer makes holds on every composite into it."""
    from dbcat.category import compose
    from dbcat.cli import _schema_instances
    from dbcat.dsl import parse_workspace_text

    compared = 0
    for text in [TRIANGLE] + [path.read_text() for path in sorted(DATA.glob("*.dbc"))]:
        ws = parse_workspace_text(text)
        for graph in ws.graphs.values():
            sk = build_sketch(graph)
            alpha = interpretation(_schema_instances(ws, graph), ws.schemas)
            images = {(a.src, a.tgt): interpret_arrow(alpha, sk, a).morphism for a in sk.arrows if a.kind != "identity"}
            for (src, mid), f in images.items():
                if (mid, EMPTY_NODE) in images and src != mid:
                    assert equivalent(images[src, EMPTY_NODE], compose(images[mid, EMPTY_NODE], f))
                    compared += 1
    assert compared == 3 + 4 + 3  # the triangle, demo, system
