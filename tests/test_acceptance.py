"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Closure bounds are stated per criterion; closures marked "fixpoint"
assert that the enumeration genuinely stabilized, so set comparisons there
are exact rather than bounded.
"""
import itertools
import pathlib
import random

import pytest

from dbcat.category import (
    ModeViolation,
    ViewMap,
    compose,
    coproduct_morphism,
    empty_morphism,
    equivalent,
    flux,
    flux_intersection,
    identity,
    injection,
    make_atomic,
    mediating,
    projection,
)
from dbcat.constraints import Egd, Sentence, Tgd, check_tgd
from dbcat.core import (
    Instance,
    Relation,
    bottom_instance,
    disjoint_union,
    federate,
    is_empty_isomorphic,
    make_instance,
)
from dbcat.interpret import (
    check_functor,
    check_gamma_iso,
    check_model,
    helper_instance,
    interpret_term,
    interpretation,
)
from dbcat.powerview import instances_isomorphic, power_view
from dbcat.queries import (
    CrossComponentQuery,
    RelAtom,
    Var,
    eval_rule,
    eval_spjru,
    rule,
    rule_to_spjru,
)
from dbcat.schemas import (
    EMPTY_SCHEMA,
    SAtom,
    Schema,
    SchemaMapping,
    fed,
    make_pair,
    mapping_graph,
    schema_identity,
    sep,
)
from dbcat.sketch import HelperSchema, build_sketch

from oracles import random_instance, random_rule

FIX = dict(depth=None, max_arity=2)
EMPTY = frozenset()


def report(number, name, detail):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


# -- shared corpora -----------------------------------------------------------

TINY_CORPUS = [
    bottom_instance(),
    make_instance({"r": []}, arities={"r": 1}),
    make_instance({"r": []}, arities={"r": 2}),
    make_instance({"r": [(1,)]}),
    make_instance({"r": [(1,), (2,)]}),
    make_instance({"r": [(1, 1)]}),
    make_instance({"r": [(1, 2)]}),
    make_instance({"r": [(1, 2), (2, 1)]}),
    make_instance({"r": [(1, 2), (2, 2)]}),
    make_instance({"r": [(1,)], "s": [(2,)]}),
    make_instance({"r": [(1,)], "s": [(1, 2)]}),
]

UNARY_POOL = {
    "a": make_instance({"a": [(1,), (2,)]}),
    "b": make_instance({"b": [(1,)]}),
    "c": make_instance({"c": [(2,)]}),
    "d": make_instance({"d": [(1,), (2,)]}),
}


def unary_arrows(src, tgt):
    """All small valid atomic morphisms between two unary instances."""
    rel, trel = src.names[0], tgt.names[0]
    bodies = [[(rel, "X")]] + [[(rel, "X"), ("=", "X", v)] for v in (1, 2)]
    out = []
    for body in bodies:
        try:
            out.append(make_atomic([ViewMap(rule("q", ["X"], body), trel)], src, tgt))
        except ModeViolation:
            pass
    out.append(empty_morphism(src, tgt))
    return out


def test_criterion_01_oracle_equivalence():
    rng = random.Random(1_000_003)
    pairs = 0
    for _ in range(1000):
        inst = random_instance(rng)
        q = random_rule(rng, inst)
        assert eval_spjru(rule_to_spjru(q), inst).tuples == eval_rule(q, inst).tuples
        pairs += 1
    assert pairs == 1000
    report(1, "oracle equivalence rule vs algebra", f"{pairs} pairs, zero mismatches")


def test_criterion_02_power_view_laws_at_fixpoint():
    bot_views = power_view(bottom_instance(), None, 2)
    assert bot_views.extensions() == {EMPTY}
    checked = 0
    for inst in TINY_CORPUS:
        m = max(1, inst.max_arity())
        ta = power_view(inst, None, m)
        assert ta.fixpoint
        assert EMPTY in ta.extensions()  # bottom is a view of everything
        for r in inst.relations:
            if r.tuples:
                assert r.tuples in ta  # the instance sits inside its views
        tta = power_view(ta.as_instance(), None, m)
        assert tta.canonical() == ta.canonical()  # closure is idempotent
        checked += 1
    report(2, "view-closure laws at fixpoint", f"{checked} corpus instances, exact equality")


def test_criterion_03_coproduct_laws():
    pairs = [
        (a, b)
        for a, b in itertools.combinations(TINY_CORPUS, 2)
        if max(a.max_arity(), b.max_arity()) <= 2
    ][:12]
    for a, b in pairs:
        m = max(1, a.max_arity(), b.max_arity())
        ab = disjoint_union(a, b)
        va, vb, vab = (
            power_view(a, None, m),
            power_view(b, None, m),
            power_view(ab, None, m),
        )
        assert vab.canonical() == tuple(sorted(va.canonical() + vb.canonical()))
        assert equivalent(coproduct_morphism(identity(a), identity(b)), identity(ab))
    for a in TINY_CORPUS:
        if not is_empty_isomorphic(a):
            m = max(1, a.max_arity())
            assert not instances_isomorphic(a, disjoint_union(a, a), None, m)

    bot = bottom_instance()
    names = list(UNARY_POOL)
    triangle_pairs = 0
    for na, nb in itertools.permutations(names, 2):
        a, b, c = UNARY_POOL[na], UNARY_POOL[nb], UNARY_POOL["d"]
        if nb == "d" or na == "d":
            continue
        for f in unary_arrows(a, c):
            assert equivalent(coproduct_morphism(f, empty_morphism(bot, bot)), f)
            for g in unary_arrows(b, c):
                k = mediating(f, g)
                in_a, in_b = injection(a, b, "left"), injection(a, b, "right")
                assert equivalent(compose(k, in_a), f)
                assert equivalent(compose(k, in_b), g)
                triangle_pairs += 1
        p_a = projection(a, b, "left")
        assert equivalent(compose(p_a, injection(a, b, "left")), identity(a))
    assert triangle_pairs >= 20
    report(
        3,
        "coproduct laws",
        f"{len(pairs)} tagged-union checks, {triangle_pairs} mediating triangles",
    )


def test_criterion_04_category_laws():
    rng = random.Random(424242)
    names = list(UNARY_POOL)
    arrow_cache = {}

    def arrows(x, y):
        if (x, y) not in arrow_cache:
            arrow_cache[(x, y)] = unary_arrows(UNARY_POOL[x], UNARY_POOL[y])
        return arrow_cache[(x, y)]

    triples = 0
    while triples < 500:
        na, nb, nc, nd = (rng.choice(names) for _ in range(4))
        if len({na, nb, nc, nd}) < 4:
            continue
        f = rng.choice(arrows(na, nb))
        g = rng.choice(arrows(nb, nc))
        h = rng.choice(arrows(nc, nd))
        assert equivalent(compose(h, compose(g, f)), compose(compose(h, g), f))
        assert equivalent(compose(identity(UNARY_POOL[nb]), f), f)
        assert equivalent(compose(f, identity(UNARY_POOL[na])), f)
        gf = compose(g, f)
        ff, fg, fgf = flux(f, **FIX), flux(g, **FIX), flux(gf, **FIX)
        assert fgf.canonical() == flux_intersection(ff, fg).canonical()
        assert fgf.extensions() <= ff.extensions()
        assert fgf.extensions() <= fg.extensions()
        triples += 1
    report(4, "category laws up to flux equivalence", f"{triples} composable triples")


def test_criterion_05_schema_monoid_and_distribution():
    sa = Schema("A", (("r", 1),))
    sb = Schema("B", (("s", 1),))
    sc = Schema("C", (("t", 1),))
    atoms = [SAtom(sa), SAtom(sb), SAtom(sc), EMPTY_SCHEMA]
    depth1 = [op(x, y) for op in (sep, fed) for x in atoms for y in atoms]
    depth2 = [op(x, y) for op in (sep, fed) for x in atoms for y in depth1]
    checks = 0
    for t in atoms + depth1 + depth2:
        for op in (sep, fed):
            assert schema_identity(op(t, EMPTY_SCHEMA), t)
            assert schema_identity(op(EMPTY_SCHEMA, t), t)
            checks += 2
    for op in (sep, fed):
        for x, y, z in itertools.product(atoms, atoms, atoms + depth1):
            assert schema_identity(op(op(x, y), z), op(x, op(y, z)))
            checks += 1
        for x, y in itertools.product(atoms, atoms + depth1):
            assert schema_identity(op(x, y), op(y, x))
            checks += 1
    for x, y, z in itertools.product(atoms, atoms, atoms + depth1):
        assert schema_identity(fed(x, sep(y, z)), sep(fed(x, y), fed(x, z)))
        checks += 1
    report(5, "schema monoid and distribution laws", f"{checks} identities on terms up to depth 3")


# -- the fixed three-node system for criteria 6 and 7 -------------------------

S_A = Schema(
    "A",
    (("r", 1),),
    Sentence((Egd((RelAtom("r", (Var("X"),)), RelAtom("r", (Var("Y"),))), ("X", "Y")),)),
)
S_B = Schema("B", (("s", 1),))
S_C = Schema(
    "C",
    (("t", 1), ("w", 1)),
    Sentence(
        (
            Tgd(
                ("X",),
                (RelAtom("t", (Var("X"),)),),
                (RelAtom("w", (Var("X"),)),),
                weakly_full=True,
            ),
        )
    ),
)

M1 = SchemaMapping(
    "M1",
    "A",
    "C",
    SAtom(S_A),
    SAtom(S_C),
    (make_pair(rule("q", ["X"], [("r", "X")]), RelAtom("t", (Var("X"),))),),
)
M2 = SchemaMapping(
    "M2",
    "B",
    "C",
    SAtom(S_B),
    SAtom(S_C),
    (make_pair(rule("q", ["X"], [("s", "X")]), rule("u", ["X"], [("t", "X")])),),
)
SYSTEM = mapping_graph(
    "SYS", {"A": SAtom(S_A), "B": SAtom(S_B), "C": SAtom(S_C)}, [M1, M2]
)

SUBSETS = [frozenset(), frozenset({(1,)}), frozenset({(2,)}), frozenset({(1,), (2,)})]


def _all_interpretations():
    for r, s, t, w in itertools.product(SUBSETS, repeat=4):
        yield interpretation(
            {
                "A": make_instance({"r": r}, arities={"r": 1}),
                "B": make_instance({"s": s}, arities={"s": 1}),
                "C": make_instance({"t": t, "w": w}, arities={"t": 1, "w": 1}),
            },
            {"A": S_A, "B": S_B, "C": S_C},
        ), (r, s, t, w)


def _expected_model(r, s, t, w):
    return len(r) <= 1 and t <= w and r <= t and s <= t


MODELS = []


def test_criterion_06_model_iff_functor():
    sketch = build_sketch(SYSTEM)
    total = discord = model_count = 0
    for alpha, (r, s, t, w) in _all_interpretations():
        model = check_model(alpha, sketch)
        is_model = model.passed
        assert is_model == _expected_model(r, s, t, w), (r, s, t, w)
        functor = check_functor(alpha, sketch)
        functor_ok = functor.passed
        # each arrow's model verdict is its functor verdict
        arrow_verdicts = {
            cid: ok for cid, ok, _ in functor.checks if cid.split()[0] in ("mapping", "sentence")
        }
        paired = {}
        for line, ok, _ in model.checks:
            kind, name = line.split(" ", 1)
            if kind == "schema":
                paired[f"sentence phi_{name}"] = ok
            else:
                paired[("sentence " if name.startswith("phi_") else "mapping ") + name] = ok
        assert paired == arrow_verdicts, (r, s, t, w)
        if is_model != functor_ok:
            discord += 1
        if is_model:
            model_count += 1
            MODELS.append(alpha)
        total += 1
    assert total == 256
    assert discord == 0
    assert 0 < model_count < total
    report(
        6,
        "model iff functor",
        f"{total} interpretations exhaustively, {model_count} models, 0 discordant",
    )


def test_criterion_07_gamma_isomorphism():
    sketch = build_sketch(SYSTEM)
    if not MODELS:  # direct invocation without criterion 6
        for alpha, shape in _all_interpretations():
            if _expected_model(*shape):
                MODELS.append(alpha)
    checked = 0
    for alpha in MODELS:
        verdicts = check_gamma_iso(alpha, sketch)
        assert [cid for cid, _, _ in verdicts.checks] == ["gamma-iso A", "gamma-iso B", "gamma-iso C"]
        assert verdicts.passed
        checked += len(verdicts.checks)

    # negative control: an enlargement carrying a value the closure never saw
    alpha = MODELS[0]
    base = interpret_term(alpha, SAtom(S_C))
    foreign = Instance(
        base.relations + (Relation("u", 1, frozenset({(99,)})),),
        base.partition + (("u", 0),),
    )
    assert not instances_isomorphic(base, foreign, None, 2)
    report(7, "gamma isomorphism for models", f"{checked} node checks pass, negative control fails")


def test_criterion_08_sentinel_dependency_equivalence():
    rng = random.Random(88)
    sa = Schema("S", (("a", 1),))
    st = Schema("T", (("b", 1),))
    graph = mapping_graph(
        "H",
        {"S": SAtom(sa), "T": SAtom(st)},
        [
            SchemaMapping(
                "M",
                "S",
                "T",
                SAtom(sa),
                SAtom(st),
                (make_pair(rule("q", ["X"], [("a", "X")]), RelAtom("b", (Var("X"),))),),
            )
        ],
    )
    sketch = build_sketch(graph)
    (helper,) = [obj for _, obj in sketch.nodes if isinstance(obj, HelperSchema)]
    values = [1, 2, 3, "x"]
    agree = 0
    for _ in range(200):
        left = frozenset((rng.choice(values),) for _ in range(rng.randint(0, 4)))
        right = frozenset((rng.choice(values),) for _ in range(rng.randint(0, 4)))
        alpha = interpretation(
            {
                "S": make_instance({"a": left}, arities={"a": 1}),
                "T": make_instance({"b": right}, arities={"b": 1}),
            }
        )
        inst = helper_instance(alpha, sketch, helper)
        tgd_verdict = check_tgd(helper.sentinel, inst)
        direct = (
            eval_rule(helper.lhs, interpret_term(alpha, SAtom(sa))).tuples
            <= eval_rule(helper.rhs, interpret_term(alpha, SAtom(st))).tuples
        )
        assert tgd_verdict == direct
        agree += 1
    assert agree == 200
    report(8, "sentinel dependency equals containment", f"{agree} generated comparisons")


def test_criterion_09_separation_rejection():
    rng = random.Random(909)
    cases = 0
    for _ in range(60):
        a = make_instance({"p": {(rng.randint(1, 3),) for _ in range(rng.randint(1, 3))}})
        b = make_instance(
            {"q": {(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))}}
        )
        q = rule("j", ["X", "Y"], [("p", "X"), ("q", "X", "Y")])
        with pytest.raises(CrossComponentQuery):
            eval_rule(q, disjoint_union(a, b))
        eval_rule(q, federate(a, b))  # must not raise
        cases += 1
    report(9, "separation rejects cross queries", f"{cases} generated rules, federation accepts all")


def test_criterion_10_cli_determinism_and_round_trip(capsys):
    from dbcat.cli import render, run
    from dbcat.dsl import parse_workspace, parse_workspace_text
    from dbcat.writer import serialize_workspace

    data = pathlib.Path(__file__).parent / "data"
    files = sorted(data.glob("*.dbc"))
    assert files
    for path in files:
        ws1 = parse_workspace([path])
        text = serialize_workspace(ws1)
        ws2 = parse_workspace_text(text)
        assert ws1 == ws2
        assert serialize_workspace(ws2) == text

    commands = [
        ("demo.dbc", "powerview", ["A0"]),
        ("demo.dbc", "laws", []),
        ("system.dbc", "check-model", ["G"]),
        ("system.dbc", "check-functor", ["G"]),
        ("federation.dbc", "iso", ["S0", "F0"]),
    ]
    for fname, command, args in commands:
        renders = {
            render(command, run(command, args, parse_workspace([data / fname]), None, 2, 100000), "lines")
            for _ in range(2)
        }
        assert len(renders) == 1
    with capsys.disabled():
        report(10, "deterministic reports and text round-trip", f"{len(files)} files, {len(commands)} commands")
