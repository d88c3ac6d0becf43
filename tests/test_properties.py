"""Property tests for the algebraic laws, driven by hypothesis."""
import itertools

import hypothesis.strategies as st
import pytest

from hypothesis import HealthCheck, assume, event, example, given, settings

from dbcat.constraints import Egd, Sentence, Tgd, check_egd, check_tgd, find_egd_violation, find_tgd_violation
from dbcat import core, powerview
from dbcat.core import (
    bottom_instance,
    disjoint_union,
    disjoint_union_with_maps,
    federate,
    make_instance,
)
from dbcat.cli import run
from dbcat.dsl import Workspace, parse_workspace_text
from dbcat.interpret import interpret_term, interpretation
from dbcat.category import (
    Flux,
    ViewMap,
    compose,
    coproduct_morphism,
    flux,
    identity,
    injection,
    make_atomic,
    mediating,
    pairing,
    projection,
    verify_duality,
)
from dbcat.powerview import (
    MEMO_ENTRIES,
    ClosedForm,
    ViewBudgetExceeded,
    close_component,
    instances_isomorphic,
    matching,
    merging,
    power_view,
    power_view_cached,
)
from dbcat.queries import BaseRel, Builtin, Const, EmptyRel, Join, Project, RelAtom, Rule, Select, Var
from dbcat.queries import eval_rule, eval_spjru, rule, rule_to_spjru
from dbcat.schemas import EMPTY_SCHEMA, SAtom, Schema, fed, schema_identity, sep, term_layout
from dbcat.values import SENTINEL_A, SENTINEL_B, DbcatError, Instance, Relation, index_tuples, qualified_names
from dbcat.writer import serialize_workspace

from oracles import (
    brute_force_egd,
    brute_force_flux_same,
    brute_force_rule,
    brute_force_signature,
    closed_form_views,
    brute_force_tgd,
    counted_qualified_names,
    least_egd_violation,
    least_tgd_violation,
    nested_atomic,
    nested_compose,
    nested_copies,
    nested_reading,
    nested_sum,
    sorted_closure_form,
)

# The properties CI's deep step runs keep counts of their own, which the loaded
# profile scales: x1 under `default`, x20 under `deep` (tests/conftest.py).
DEEP = settings.default.max_examples // 100

values = st.sampled_from([1, 2, 3])
tuples1 = st.tuples(values)
tuples2 = st.tuples(values, values)


@st.composite
def instances(draw, max_tuples=4):
    rels = {}
    arities = {}
    n = draw(st.integers(1, 2))
    for i in range(n):
        arity = draw(st.integers(1, 2))
        strat = tuples1 if arity == 1 else tuples2
        rels[f"r{i}"] = draw(st.sets(strat, max_size=max_tuples))
        arities[f"r{i}"] = arity
    return make_instance(rels, arities=arities)


@st.composite
def rules_over(draw, inst):
    rel_atoms = []
    var_names = ["X", "Y", "Z"]
    n = draw(st.integers(1, 2))
    pool = [r for r in inst.relations]
    for _ in range(n):
        r = draw(st.sampled_from(pool))
        args = [draw(st.sampled_from(var_names)) for _ in range(r.arity)]
        rel_atoms.append((r.name, *args))
    body_vars = sorted({a for atom in rel_atoms for a in atom[1:]})
    width = draw(st.integers(1, min(2, len(body_vars))))
    head = [draw(st.sampled_from(body_vars)) for _ in range(width)]
    if draw(st.booleans()):
        rel_atoms.append(("=", draw(st.sampled_from(body_vars)), draw(values)))
    return rule("q", head, rel_atoms)


@st.composite
def instance_rule_pairs(draw):
    inst = draw(instances())
    return inst, draw(rules_over(inst))


@settings(max_examples=60 * DEEP, deadline=None)
@given(instance_rule_pairs(), st.booleans())
def test_rule_translation_agrees_with_direct_evaluation(pair, contradict):
    inst, q = pair
    if contradict:  # a built-in equating two distinct constants
        q = Rule(q.head_name, q.head_vars, (*q.body, Builtin("=", Const(0), Const(1))))
    term = rule_to_spjru(q)
    assert eval_spjru(term, inst).tuples == eval_rule(q, inst).tuples
    # the SPC normal form: a projection of at most one selection of a left-deep chain of pairless joins
    assert isinstance(term, Project)
    joins = term.child.child if isinstance(term.child, Select) else term.child
    if contradict:
        assert isinstance(joins, Join) and joins.pairs == () and joins.right == EmptyRel()
        joins = joins.left
    while isinstance(joins, Join):
        assert joins.pairs == () and isinstance(joins.right, BaseRel)
        joins = joins.left
    assert isinstance(joins, BaseRel)


@settings(max_examples=40, deadline=None)
@given(instance_rule_pairs(), st.sets(tuples2, max_size=2))
def test_rule_evaluation_is_monotone(pair, extra):
    inst, q = pair
    grown = {
        r.name: set(r.tuples) | {t[: r.arity] for t in extra} for r in inst.relations
    }
    bigger = make_instance(grown, arities={r.name: r.arity for r in inst.relations})
    assert eval_rule(q, inst).tuples <= eval_rule(q, bigger).tuples


@settings(max_examples=25, deadline=None)
@given(instances(max_tuples=2), instances(max_tuples=2))
def test_disjoint_union_commutes_up_to_isomorphism(a, b):
    m = max(1, a.max_arity(), b.max_arity())
    assert instances_isomorphic(disjoint_union(a, b), disjoint_union(b, a), None, m)


@settings(max_examples=25, deadline=None)
@given(instances(max_tuples=2))
def test_views_grow_with_depth(inst):
    m = max(1, inst.max_arity())
    assert power_view(inst, 0, m).extensions() <= power_view(inst, 1, m).extensions()


@settings(max_examples=25, deadline=None)
@given(instances(max_tuples=2), instances(max_tuples=2))
def test_federation_dominates_separation(a, b):
    m = max(1, a.max_arity(), b.max_arity())
    separated = power_view(disjoint_union(a, b), 1, m).extensions()
    federated = power_view(federate(a, b), 1, m).extensions()
    assert separated <= federated


LEAVES = [Schema("A", (("r", 1),)), Schema("B", (("s", 1),)), Schema("C", (("t", 2),))]
schemas = st.sampled_from([SAtom(s) for s in LEAVES] + [EMPTY_SCHEMA])


@st.composite
def schema_terms(draw, depth=2, leaves=schemas):
    if depth == 0 or draw(st.booleans()):
        return draw(leaves)
    op = draw(st.sampled_from([sep, fed]))
    return op(draw(schema_terms(depth - 1, leaves)), draw(schema_terms(depth - 1, leaves)))


@settings(max_examples=60, deadline=None)
@given(schema_terms(), schema_terms(), schema_terms())
def test_schema_operators_are_monoidal(x, y, z):
    for op in (sep, fed):
        assert schema_identity(op(op(x, y), z), op(x, op(y, z)))
        assert schema_identity(op(x, y), op(y, x))
    # the empty schema is 1 in N[schemas]: fed's unit, while sep adds it as a group
    assert schema_identity(fed(x, EMPTY_SCHEMA), x)
    assert not schema_identity(sep(x, EMPTY_SCHEMA), x)


@settings(max_examples=60, deadline=None)
@given(schema_terms(), schema_terms(), schema_terms())
def test_federation_distributes_over_separation(x, y, z):
    assert schema_identity(fed(x, sep(y, z)), sep(fed(x, y), fed(x, z)))


@st.composite
def nested(draw, items, join):
    """*items* joined pairwise by *join*, in order, associated at random."""
    if len(items) == 1:
        return items[0]
    k = draw(st.integers(1, len(items) - 1))
    return join(draw(nested(items[:k], join)), draw(nested(items[k:], join)))


@st.composite
def terms_with_folds(draw):
    """A sep of fed groups over up to four schemas that may share relation
    names, and the empty schema, with an interpretation, and the same nesting
    of ``disjoint_union`` over the groups of ``federate`` over each group's
    leaf instances, the empty schema's being the bottom instance."""
    pool = []
    for i in range(draw(st.integers(1, 4))):
        rels = draw(st.lists(st.sampled_from("rst"), min_size=1, max_size=3, unique=True))
        data = {rel: draw(st.sets(tuples1, max_size=2)) for rel in rels}
        inst = make_instance(data, arities=dict.fromkeys(rels, 1))
        pool.append((Schema(f"S{i}", tuple((rel, 1) for rel in rels)), inst))
    alpha = interpretation({s.name: inst for s, inst in pool}, {s.name: s for s, _ in pool})
    leaf = st.sampled_from([(SAtom(s), inst) for s, inst in pool] + [(EMPTY_SCHEMA, bottom_instance())])
    leaves = st.lists(leaf, min_size=1, max_size=3)
    groups = [
        draw(nested(draw(leaves), lambda x, y: (fed(x[0], y[0]), federate(x[1], y[1]))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    term, folded = draw(nested(groups, lambda x, y: (sep(x[0], y[0]), disjoint_union(x[1], y[1]))))
    return alpha, term, folded


@settings(max_examples=150, deadline=None)
@given(terms_with_folds())
def test_interpretation_is_the_sum_of_the_leaf_instances(case):
    alpha, term, folded = case
    inst = interpret_term(alpha, term)
    assert inst.names == folded.names
    assert inst.relations == folded.relations
    assert inst.partition == folded.partition


# active domains of three sizes, so that iso, which compares closures, tells the leaves apart
LEAF_ALPHA = interpretation(
    {"A": make_instance({"r": [(1,), (2,)]}), "B": make_instance({"s": [(3,)]}), "C": make_instance({"t": [(1, 2), (2, 3)]})},
    {s.name: s for s in LEAVES},
)


@st.composite
def identical_terms(draw):
    """A term, and another with its groups and their leaves permuted, each
    group rebuilt by a random nesting of ``fed`` over its leaves and up to two
    empty schemas (fed's unit; an empty group is at least one of them), the
    groups by a random nesting of ``sep``."""
    x = draw(schema_terms(4))
    groups = []
    for g in draw(st.permutations(x.groups)):
        factors = [SAtom(s) for s in g] + [EMPTY_SCHEMA] * draw(st.integers(0 if g else 1, 2))
        groups.append(draw(nested(draw(st.permutations(factors)), fed)))
    return x, draw(nested(groups, sep))


@settings(max_examples=60 * DEEP, deadline=None)
@given(identical_terms(), schema_terms(4))
def test_identity_of_terms_is_a_congruence_and_keeps_the_interpretation(pair, z):
    x, y = pair
    assert schema_identity(x, y)
    for op in (sep, fed):
        assert schema_identity(op(z, x), op(z, y)) and schema_identity(op(x, z), op(y, z))
    assert instances_isomorphic(interpret_term(LEAF_ALPHA, x), interpret_term(LEAF_ALPHA, y))


@st.composite
def with_nullary(draw):
    """An instance with an extra nullary relation ``z``, empty or ``{()}``,
    and three bodies over it: each a relation atom of the instance, ``z()``,
    and at random a second atom of the instance."""
    base = draw(instances(max_tuples=3))
    rels = {r.name: r.tuples for r in base.relations}
    rels["z"] = draw(st.sampled_from([set(), {()}]))
    inst = make_instance(rels, arities={"z": 0, **{r.name: r.arity for r in base.relations}})

    def atom():
        r = draw(st.sampled_from(base.relations))
        return RelAtom(r.name, tuple(Var(draw(st.sampled_from("XYZ"))) for _ in range(r.arity)))

    bodies = []
    for _ in range(3):
        body = [atom(), RelAtom("z", ())] + ([atom()] if draw(st.booleans()) else [])
        bodies.append(tuple(draw(st.permutations(body))))
    return inst, bodies


def _names(atoms) -> list:
    return sorted({v.name for a in atoms for v in a.variables()})


@settings(max_examples=80, deadline=None)
@given(with_nullary())
def test_nullary_atoms_filter_as_the_oracles_say(case):
    inst, (body, left, right) = case
    head = _names(body)[:1]
    q = rule("q", head, body)
    assert eval_rule(q, inst).tuples == brute_force_rule(q, inst) == eval_spjru(rule_to_spjru(q), inst).tuples
    universal = tuple(_names(left)[:1])
    t = Tgd(universal, left, right)
    assert check_tgd(t, inst) == brute_force_tgd(universal, left, right, inst)
    pair = (_names(left)[0], _names(left)[-1])
    assert check_egd(Egd(left, pair), inst) == brute_force_egd(left, pair, inst)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["r", "s", "r#1", "r#2", "r#10", "r#x", "s#3", "t"]), max_size=8))
def test_qualified_names_agree_with_counting_the_bases(names):
    assert qualified_names(names) == counted_qualified_names(names)


@st.composite
def summands(draw, depth=2):
    """A leaf instance whose relation names may hold ``#`` and which may hold
    the nullary ``z``, the bottom instance, or a sum or federation of two
    smaller summands; its closure signature may have been computed."""
    kind = draw(st.sampled_from(["leaf", "bottom", "sum", "federation"] if depth else ["leaf", "bottom"]))
    if kind == "bottom":
        inst = bottom_instance()
    elif kind != "leaf":
        join = disjoint_union if kind == "sum" else federate
        inst = join(draw(summands(depth - 1)), draw(summands(depth - 1)))
    else:
        names = draw(st.lists(st.sampled_from(["r", "s", "r#1", "r#2", "r#10", "r#x", "z"]), min_size=1, max_size=3, unique=True))
        arities = {name: 0 if name == "z" else draw(st.integers(1, 2)) for name in names}
        rels = {name: draw(st.sets((st.just(()), tuples1, tuples2)[arities[name]], max_size=2)) for name in names}
        partition = {name: draw(st.integers(0, 2)) for name in names}
        inst = make_instance(rels, arities=arities, partition=partition)
    if draw(st.booleans()):
        inst.closure_signature
    return inst


def rebuilt(inst):
    """*inst* built again through the checked public constructors."""
    relations = tuple(Relation(r.name, r.arity, r.tuples) for r in inst.relations)
    return Instance(relations, inst.partition)


@settings(max_examples=150, deadline=None)
@given(summands(), summands())
def test_sums_equal_their_checked_rebuilds(a, b):
    ab, *maps = disjoint_union_with_maps(a, b)
    fa = federate(a, b)
    for inst in (ab, fa):
        again = rebuilt(inst)
        assert inst == again and hash(inst) == hash(again) and repr(inst) == repr(again)
        assert [inst.component_of(n) for n in inst.names] == [again.component_of(n) for n in again.names]
    assert fa.relations == ab.relations and {c for _, c in fa.partition} <= {0}
    for side, name_map in zip((a, b), maps[:2]):
        for old, new in name_map.items():
            assert ab.relation(new).tuples == side.relation(old).tuples


@settings(max_examples=150 * DEEP, deadline=None)
@given(summands(), summands())
def test_a_sum_is_born_with_the_state_of_its_rebuild(a, b):
    known = all("closure_signature" in vars(x) for x in (a, b))
    ab, *maps = disjoint_union_with_maps(a, b)
    fa = federate(a, b)
    if ab is not a and ab is not b:  # not the unit case, where the sum is a summand itself
        born = {"relations", "partition", "_by_name"}
        assert set(vars(ab)) == born | ({"closure_signature"} if known else set()) and set(vars(fa)) == born
        # a renamed relation carries its fields alone, no value cached under its old name
        renamed = [ab.relation(new) for name_map in maps[:2] for old, new in name_map.items() if new != old]
        assert all(list(vars(r)) == list(Relation._fields) for r in renamed)
    for inst in (ab, fa):
        again = rebuilt(inst)
        assert inst._by_name == again._by_name and list(inst._by_name) == list(again._by_name)
        assert inst.closure_signature == again.closure_signature
    core._sum_layout.cache_clear()
    assert disjoint_union_with_maps(a, b)[1:] == tuple(maps)


@settings(max_examples=150 * DEEP, deadline=None)
@given(summands(), summands())
def test_closure_signatures_agree_with_counting_the_components(a, b):
    for inst in (a, disjoint_union(a, b), federate(a, b)):  # leaves, sums and federations
        assert inst.closure_signature == brute_force_signature(inst)


PLAN_VALUES = [1, 2, "a"]


@st.composite
def plan_instances(draw):
    """An instance of r/2, s/1 and the nullary z."""
    pairs = st.tuples(st.sampled_from(PLAN_VALUES), st.sampled_from(PLAN_VALUES))
    rels = {
        "r": draw(st.sets(pairs, max_size=5)),
        "s": draw(st.sets(st.tuples(st.sampled_from(PLAN_VALUES)), max_size=3)),
        "z": draw(st.sampled_from([set(), {()}])),
    }
    return make_instance(rels, arities={"r": 2, "s": 1, "z": 0})


@st.composite
def plan_bodies(draw, names="XYZ"):
    """A body over r, s and z: a relation atom first, then atoms that may hold
    constants, a variable repeated within one atom, ``z()``, and ``=`` or
    ``<=`` built-ins, which alone name the variable V."""
    terms = st.sampled_from([*map(Var, names), Const(1), Const("a")])
    body = [RelAtom("r", (Var(names[0]), draw(terms)))]
    for kind in draw(st.lists(st.sampled_from(["r", "s", "z", "=", "<="]), min_size=1, max_size=3)):
        if kind in ("=", "<="):
            body.append(Builtin(kind, *draw(st.permutations([Var("V"), draw(terms)]))))
        else:
            body.append(RelAtom(kind, tuple(draw(terms) for _ in range({"r": 2, "s": 1, "z": 0}[kind]))))
    return tuple(draw(st.permutations(body)))


@st.composite
def kept_plan_cases(draw):
    body, left, right = draw(plan_bodies()), draw(plan_bodies("XY")), draw(plan_bodies("XW"))
    head = tuple(Var(v) for v in _names(body) if v != "V")[:2]
    universal = tuple(v for v in _names(left) if v != "V" and draw(st.booleans()))
    pair = (_names(left)[0], _names(left)[-1])
    return (head, body), (universal, left, right), pair, (draw(plan_instances()), draw(plan_instances()))


@settings(max_examples=80, deadline=None)
@given(kept_plan_cases())
def test_kept_plans_answer_over_any_instance(case):
    (head, body), (universal, left, right), pair, instances = case
    for order in (instances, instances[::-1]):
        q, t, e = Rule("q", head, body), Tgd(universal, left, right), Egd(left, pair)  # fresh: nothing kept
        for inst in order:
            assert eval_rule(q, inst).tuples == brute_force_rule(q, inst)
            assert check_tgd(t, inst) == brute_force_tgd(universal, left, right, inst)
            assert check_egd(e, inst) == brute_force_egd(left, pair, inst)
        assert {"_plan"} <= q.__dict__.keys() and {"_left", "_right"} <= t.__dict__.keys()


MIXED_VALUES = [1, "1", 2, "a", SENTINEL_A, SENTINEL_B]


@settings(max_examples=200, deadline=None)
@given(
    st.frozensets(st.tuples(*[st.sampled_from(MIXED_VALUES)] * 3), max_size=8),
    st.lists(st.integers(0, 2), max_size=3, unique=True),
)
@example(frozenset({(1, "a", 2), ("1", "a", 2), (SENTINEL_A, 2, 2)}), [0])  # unique keys, 1 beside "1"
@example(frozenset({(1, "a", 2), (1, "1", 2), (SENTINEL_A, 2, 2)}), [0])  # a repeated key
@example(frozenset({(1, "a", 2), (1, "a", 1), ("1", "a", 2)}), [2, 0])  # several columns, repeated
def test_index_tuples_groups_like_a_naive_grouping(tuples, cols):
    naive = {}
    for t in tuples:
        key = tuple(t[c] for c in cols)
        naive.setdefault(key[0] if len(cols) == 1 else key, []).append(t)
    idx = index_tuples(tuples, cols)
    assert {k: sorted(map(repr, v)) for k, v in idx.items()} == {k: sorted(map(repr, v)) for k, v in naive.items()}
    if not cols and tuples:
        assert idx[()] is tuples  # the empty key holds the tuple set itself


@st.composite
def repeating_instances(draw):
    """r/2 and s/1 over mixed values, where some value repeats in each column of r."""
    values = st.sampled_from(MIXED_VALUES)
    r = draw(st.sets(st.tuples(values, values), min_size=1, max_size=5))
    a, b = draw(st.sampled_from(sorted(r, key=repr)))
    c = draw(values.filter(lambda v: v not in (a, b)))
    r |= {(a, c), (c, b)}
    s = draw(st.sets(st.tuples(values), max_size=3))
    return make_instance({"r": r, "s": s}, arities={"s": 1})


X, Y, Z = Var("X"), Var("Y"), Var("Z")
RXY, RYZ, RXZ, RZY, RXX = (RelAtom("r", args) for args in ((X, Y), (Y, Z), (X, Z), (Z, Y), (X, X)))
SY = RelAtom("s", (Y,))
REPEAT_RULES = [
    Rule("q", (X, Z), (RXY, RYZ)),  # probes r on column 0
    Rule("q", (X, Z), (RXY, RZY)),  # probes r on column 1
    Rule("q", (X, Y), (RXY, RXZ, SY)),
]
REPEAT_TGDS = [
    Tgd(("Y",), (RXY,), (RYZ,)),  # a witness probed on column 0
    Tgd(("X", "Y"), (RXY,), (RZY, RelAtom("s", (Z,)))),
    Tgd(("X",), (RXY, RYZ), (SY,)),
]
REPEAT_EGDS = [
    Egd((RXY, RXZ), ("Y", "Z")),  # the key EGD: fails where column 0 repeats
    Egd((RXY, RZY), ("X", "Z")),
    Egd((RXX, RXY), ("X", "Y")),  # the equated X repeats within one atom
    Egd((RXY, RXZ), ("X", "X")),  # equates a variable with itself: never fails
]


@settings(max_examples=100, deadline=None)
@given(repeating_instances())
def test_the_engine_agrees_with_the_oracles_where_probed_columns_repeat(inst):
    for q in REPEAT_RULES:
        assert eval_rule(q, inst).tuples == brute_force_rule(q, inst) == eval_spjru(rule_to_spjru(q), inst).tuples
    for t in REPEAT_TGDS:
        assert check_tgd(t, inst) == brute_force_tgd(t.universal, t.left, t.right, inst)
        assert find_tgd_violation(t, inst) == least_tgd_violation(t.universal, t.left, t.right, inst)
    for e in REPEAT_EGDS:
        assert check_egd(e, inst) == brute_force_egd(e.left, e.pair, inst)
        assert find_egd_violation(e, inst) == least_egd_violation(e.left, e.pair, inst)
    assert check_egd(REPEAT_EGDS[-1], inst) and find_egd_violation(REPEAT_EGDS[-1], inst) is None


# ---------------------------------------------------------------------------
# fixpoint closures kept as descriptions, and the seed refutation of iso


@st.composite
def closure_instances(draw):
    """One or two components over at most 3 values, of arity at most 2, each
    holding the nullary ``{()}`` sometimes."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        base = draw(instances(max_tuples=3))
        rels = {r.name: r.tuples for r in base.relations}
        arities = {r.name: r.arity for r in base.relations}
        if draw(st.booleans()):
            rels["z"], arities["z"] = {()}, 0
        parts.append(make_instance(rels, arities=arities))
    return parts[0] if len(parts) == 1 else disjoint_union(*parts)


# views of arity 0 to 3, some of mixed arity, some over the value 4 no instance holds
candidate_views = st.frozensets(
    st.one_of(st.just(()), st.tuples(st.integers(1, 4)), tuples2, st.tuples(values, values, values)), max_size=3
)


@settings(max_examples=60, deadline=None)
@given(closure_instances(), closure_instances(), st.lists(candidate_views, max_size=12))
def test_a_fixpoint_closure_is_described_as_it_lists(x, y, candidates):
    m = max(1, x.max_arity(), y.max_arity())
    forms = {}  # description -> its closed-form listing
    for inst in (x, y):
        listed = closed_form_views(inst, m)
        vs = power_view(inst, None, m)
        assert sorted(c for c, _ in vs.components) == sorted(listed)
        forms.update((d, listed[c]) for c, d in vs.components)
    forms.update((d | e, ld | le) for (d, ld), (e, le) in itertools.combinations(list(forms.items()), 2))
    for d, ld in forms.items():
        assert frozenset(d) == ld and len(d) == len(ld) and bool(d)
        assert all(v in d for v in ld)
        assert all((v in d) == (v in ld) for v in candidates)
    for (d, ld), (e, le) in itertools.product(forms.items(), repeat=2):
        assert frozenset(d & e) == ld & le and frozenset(d | e) == ld | le
        assert len(d & e) == len(ld & le) and bool(d & e) == bool(ld & le)
        assert d - le == ld - le
        assert (d == e) == (ld == le) and (d != e) == (ld != le)
        assert d != ld and (d != e or hash(d) == hash(e))


@settings(max_examples=40 * DEEP, deadline=None)
@given(closure_instances(), closure_instances())
def test_fixpoint_verdicts_over_descriptions_agree_with_listings(x, y):
    m = max(1, x.max_arity(), y.max_arity())
    arrows = [identity(x), identity(y), injection(x, y), projection(x, y), compose(projection(x, y), injection(x, y))]
    fluxes = [flux(f, None, m) for f in arrows]
    listed = [Flux(tuple((s, t, frozenset(e)) for s, t, e in fx.channels)) for fx in fluxes]
    for (f, lf), (g, lg) in itertools.product(zip(fluxes, listed), repeat=2):
        assert f.same(g) == brute_force_flux_same(lf, lg)
    views = [frozenset().union({frozenset()}, *closed_form_views(inst, m).values()) for inst in (x, y, federate(x, y))]
    assert matching(x, y, None, m).extensions() == views[0] & views[1]
    assert merging(x, y, None, m).extensions() == views[2]
    assert verify_duality(x, y, depth=None, max_arity=m).passed


@st.composite
def description_pairs(draw):
    """Two descriptions, the second drawn on its own, or the first with its
    values substituted, or the first rebuilt: its domains in another order,
    a subset of each, an empty domain and trailing empty arities added, none
    of which changes the description."""
    values = [1, 2, "1", "a"]
    domains = st.lists(st.frozensets(st.sampled_from(values), max_size=3), max_size=3)
    blocks, nullary = draw(st.lists(domains, max_size=3)), draw(st.booleans())
    how = draw(st.sampled_from(["other", "substituted", "rebuilt"]))
    if how == "other":
        return ClosedForm(blocks, nullary), ClosedForm(draw(st.lists(domains, max_size=3)), draw(st.booleans()))
    if how == "substituted":
        sub = draw(st.fixed_dictionaries({v: st.sampled_from(values) for v in values}))
        return ClosedForm(blocks, nullary), ClosedForm([[frozenset(map(sub.get, d)) for d in doms] for doms in blocks], nullary)
    padded = [draw(st.permutations([*doms, *(frozenset(sorted(d, key=str)[1:]) for d in doms), frozenset()])) for doms in blocks]
    return ClosedForm(blocks, nullary), ClosedForm(padded + [[]] * draw(st.integers(0, 2)), nullary)


@settings(max_examples=300, deadline=None)
@given(description_pairs())
def test_a_description_order_key_is_equal_exactly_when_the_descriptions_are(pair):
    d, e = pair
    assert (d.order_key() == e.order_key()) == (d == e)


@st.composite
def signature_twins(draw):
    """Two instances with equal closure signatures: component by component,
    the second's values go through a random bijection onto the first's
    domain, and both hold ``{()}`` or neither does."""
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        a, c = draw(instances(max_tuples=2)), draw(instances(max_tuples=2))
        da, dc = ({v for r in i.relations for t in r.tuples for v in t} for i in (a, c))
        assume(da and len(da) == len(dc))
        image = dict(zip(sorted(dc), draw(st.permutations(sorted(da)))))
        rels = [{r.name: set(r.tuples) for r in a.relations}, {r.name: {tuple(map(image.get, t)) for t in r.tuples} for r in c.relations}]
        arities = [{r.name: r.arity for r in i.relations} for i in (a, c)]
        if draw(st.booleans()):
            for rs, ars in zip(rels, arities):
                rs["z"], ars["z"] = {()}, 0
        pairs.append([make_instance(rs, arities=ars) for rs, ars in zip(rels, arities)])
    return tuple(p[0] if len(p) == 1 else disjoint_union(*p) for p in zip(*pairs))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(signature_twins(), st.integers(1, 3), st.integers(2, 3))
def test_a_bounded_iso_refuted_by_the_seeds_agrees_with_the_closures(pair, depth, arity):
    cap = 2000
    for a, b in (pair, pair[::-1]):
        assert a.closure_signature == b.closure_signature
        try:
            want = power_view(a, depth, arity, cap).canonical() == power_view(b, depth, arity, cap).canonical()
        except ViewBudgetExceeded:
            want = None
        try:
            got = instances_isomorphic(a, b, depth, arity, cap)
        except ViewBudgetExceeded:
            got = None
        assert got == want or (want is None and got is False)  # no error becomes a PASS


FRESH = itertools.count(1000)  # values no drawn instance holds


def closed_or_stopped(inst, depth, arity, cap):
    """The cached closure, or where and why its budget error stopped it."""
    try:
        return power_view_cached(inst, depth, arity, cap)
    except ViewBudgetExceeded as exc:
        return exc.level, exc.views, exc.pairs, exc.component, str(exc)


@settings(max_examples=80, deadline=None)
@given(instances(), st.sampled_from([1, 2, 3, None]), st.integers(1, 2), st.integers(1, 60))
@example(make_instance({"r": [(1, 2), (2, 3)]}), 2, 2, 1)  # past the view cap
@example(make_instance({"r": [(2, 3), (3, 2), (2, 2)], "s": [(2, 3), (3, 3)]}), 3, 1, 17)  # past the pair limit
def test_a_closure_rebuilt_after_its_eviction_is_the_evicted_one(inst, depth, arity, cap):
    """Once ``MEMO_ENTRIES`` fresh closures have pushed it out of the memo,
    a closure is built again, equal to the first, or stops at the same
    budget error: the process's one ``PYTHONHASHSEED`` fixes the order its
    levels are visited in, which a pair count follows."""
    before = closed_or_stopped(inst, depth, arity, cap)
    for _ in range(MEMO_ENTRIES):
        power_view_cached(make_instance({"e": [(next(FRESH),)]}), 1, 1)
    closed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(powerview, "close_component", lambda *args: closed.append(args) or close_component(*args))
        after = closed_or_stopped(inst, depth, arity, cap)
    if isinstance(before, tuple):
        assert after == before
    else:
        assert after is not before and after == before
        assert after.canonical() == before.canonical() and after.extensions() == before.extensions()
        assert after.fixpoint == before.fixpoint
        assert len(closed) == (len(after.components) if depth is not None else 0)


@st.composite
def closure_pairs(draw):
    """Two instances of one or two components over at most three values, a
    component sometimes holding a nullary ``z``.  Each component of the second
    is a fresh draw or the first's own with its values permuted, and the
    second's components may come in the other order, so equal and unequal
    closures both occur."""
    pairs = []
    for _ in range(draw(st.integers(1, 2))):
        a = draw(instances(max_tuples=3))
        c = a if draw(st.booleans()) else draw(instances(max_tuples=3))
        image = dict(zip((1, 2, 3), draw(st.permutations((1, 2, 3)))))
        rels = [{r.name: set(r.tuples) for r in a.relations}, {r.name: {tuple(map(image.get, t)) for t in r.tuples} for r in c.relations}]
        arities = [{r.name: r.arity for r in i.relations} for i in (a, c)]
        for rs, ars in zip(rels, arities):
            if draw(st.booleans()):
                rs["z"], ars["z"] = {()}, 0
        pairs.append([make_instance(rs, arities=ars) for rs, ars in zip(rels, arities)])
    a, b = ([p[side] for p in pairs] for side in (0, 1))
    if draw(st.booleans()):
        b.reverse()
    return tuple(p[0] if len(p) == 1 else disjoint_union(*p) for p in (a, b))


@settings(max_examples=60 * DEEP, deadline=None)
@given(closure_pairs())
def test_a_view_set_compares_as_its_identitys_flux(pair):
    """A view set's key is its identity flux's key, and equal keys agree with
    two oracles that use no canonical form: sorted listings of every view, and
    a search over renamings of the identities' listed channels."""
    for depth in (1, 2, None):
        views = [power_view(x, depth, 2) for x in pair]
        fluxes = [flux(identity(x), depth, 2) for x in pair]
        for vs, fx in zip(views, fluxes):
            assert vs.canonical() == fx.canonical()
        same = views[0].canonical() == views[1].canonical()
        assert same == (sorted_closure_form(views[0]) == sorted_closure_form(views[1]))
        listed = [Flux(tuple((s, t, frozenset(e)) for s, t, e in fx.channels)) for fx in fluxes]
        assert same == brute_force_flux_same(*listed)


# Every relation holds every tuple over {1, 2}, so each unary view fits any
# target relation.  The first two share the name r, which a sum of arrows out
# of or into both renames; the third has two components.
CHAIN_OBJECTS = (
    make_instance({"r": [(1,), (2,)], "v": [(1,), (2,)]}),
    make_instance({"r": [(1,), (2,)], "s": [(1,), (2,)]}),
    make_instance({"t": [(1, 1), (1, 2), (2, 1), (2, 2)], "u": [(1,), (2,)]}, partition={"u": 1}),
)
_pick = st.integers(0, 8)  # an index, taken modulo the choices there are
chain_steps = st.lists(
    st.one_of(
        st.tuples(st.just("atomic"), _pick, _pick, st.lists(st.tuples(_pick, st.integers(1, 3)), min_size=1, max_size=2).map(tuple)),
        st.tuples(st.just("compose"), _pick, _pick, st.booleans()),
        st.tuples(st.sampled_from(["coproduct", "mediating", "pairing", "injection", "projection"]), _pick, _pick, st.booleans()),
    ),
    min_size=1,
    max_size=8,
)
# f: P -> Q writes s from r; g: Q -> P reads r and s; g after f hides Q's r;
# its sum with f renames the r both sources read to r#1 and r#2.
HIDDEN_UNDER_A_SUM = [
    ("atomic", 0, 1, ((1, 1),)),
    ("atomic", 1, 0, ((0, 3),)),
    ("compose", 0, 0, True),
    ("coproduct", 0, 0, False),
]
# Then e: P -> P reads r and v, and e after (g after f) hides P's v beside Q's r;
# that composite after g keeps both hidden leaves, and so does its sum with f.
HIDDEN_ON_BOTH_SIDES = [
    *HIDDEN_UNDER_A_SUM[:3],
    ("atomic", 0, 0, ((1, 3),)),
    ("compose", 0, 1, True),
    ("compose", 0, 0, True),
    ("coproduct", 0, 0, False),
]


def _chain_viewmap(src, tgt, k: int, mask: int) -> ViewMap:
    """A unary view map into the *k*-th relation of *tgt*, joining on the first
    column the relations of *src* that *mask* picks in the first one's component."""
    picked = [n for b, n in enumerate(src.names) if mask >> b & 1] or src.names[:1]
    picked = [n for n in picked if src.component_of(n) == src.component_of(picked[0])]
    body = [(n, "X", *(f"Y{b}_{c}" for c in range(1, src.relation(n).arity))) for b, n in enumerate(picked)]
    return ViewMap(rule("q", ["X"], body), tgt.names[k % len(tgt.names)])


def _run_chain(steps) -> list:
    """Each morphism the steps build, beside the nested trees the oracle builds
    for it.  Atomic arrows, injections and projections join the instances of
    :data:`CHAIN_OBJECTS`; the other steps join the last arrow built, as the
    later factor or the right summand when the step's flag is set, with an
    arrow built before."""
    built = []
    fits = {
        "compose": lambda f, g: g.source == f.target,
        "coproduct": lambda f, g: True,
        "mediating": lambda f, g: f.target == g.target,
        "pairing": lambda f, g: f.source == g.source,
    }
    for op, i, j, arg in steps:
        a, b = CHAIN_OBJECTS[i % 3], CHAIN_OBJECTS[j % 3]
        if op == "atomic":
            vms = [_chain_viewmap(a, b, k, mask) for k, mask in arg]
            m, trees = make_atomic(vms, a, b), nested_atomic(vms)
        elif op in ("injection", "projection"):
            into, names = op == "injection", disjoint_union_with_maps(a, b)[1 if arg else 2]
            m = (injection if into else projection)(a, b, "left" if arg else "right")
            trees = nested_copies(a if arg else b, names, into)
        else:
            pairs = [(x, built[-1]) if arg else (built[-1], x) for x in built]
            pairs = [(f, g) for f, g in pairs if fits[op](f[0], g[0])]
            if not pairs:
                continue
            (f, tf), (g, tg) = pairs[(i * 9 + j) % len(pairs)]
            if op == "compose":
                m, trees = compose(g, f), nested_compose(tg, tf, f.target)
            else:
                build = {"coproduct": coproduct_morphism, "mediating": mediating, "pairing": pairing}[op]
                leaves = disjoint_union_with_maps(f.source, g.source)[1:3] if op != "pairing" else ({}, {})
                roots = disjoint_union_with_maps(f.target, g.target)[1:3] if op != "mediating" else ({}, {})
                m = build(f, g)
                trees = nested_sum(tf, leaves[0], roots[0]) + nested_sum(tg, leaves[1], roots[1])
        built.append((m, trees))
    return built


@settings(max_examples=150, deadline=None)
@given(chain_steps)
@example(HIDDEN_UNDER_A_SUM)
@example(HIDDEN_ON_BOTH_SIDES)
def test_a_morphisms_trees_read_as_the_nested_trees_it_stands_for(steps):
    for m, trees in _run_chain(steps):
        kind, d0, d1, shown = nested_reading(trees)
        assert (m.kind, m.d0(), m.d1()) == (kind, d0, d1)
        assert tuple((t.target, t.opens, t.hidden) for t in m.trees) == shown


def test_the_chain_example_sums_a_hidden_leaf_under_a_renamed_one():
    *_, (summed, trees) = _run_chain(HIDDEN_UNDER_A_SUM)
    assert summed.parts[0] == "sum" and summed.kind == "p-arrow"
    assert summed.trees[0].opens == {"r#1"} and summed.trees[0].hidden == {("r", CHAIN_OBJECTS[1])}
    assert nested_reading(trees)[3][0] == ("r#1", frozenset({"r#1"}), frozenset({("r", CHAIN_OBJECTS[1])}))


# -- workspaces as DSL text ----------------------------------------------------

DSL_VALUES = ("0", "1", "-2", "''", "'a'", "'it\\'s'", "'a\\\\b'")


def _pick(draw, items):
    """One of *items*, drawn by its index: an integer strategy is cached, a sampled one is built on each call."""
    items = tuple(items)
    return items[draw(st.integers(0, len(items) - 1))]


def _dsl_atom(draw, rels: dict, variables="XY") -> tuple:
    """A relation atom over one of *rels*: its text and its variables in order."""
    rel = _pick(draw, sorted(rels))
    args = [_pick(draw, variables) for _ in range(rels[rel])]
    return f"{rel}({','.join(args)})", list(dict.fromkeys(args))


def _dsl_schema(draw, name: str) -> str:
    """One to three relations of arity 1–2, with weakly full TGDs and EGDs over
    them; an EGD's atoms range over three variables, so that keys occur.  A
    relation may be named ``_bot``: no name is reserved for the empty relation."""
    names = draw(st.lists(st.sampled_from(("_bot", "r", "s", "t")), min_size=1, max_size=3, unique=True))
    rels = {rel: draw(st.integers(1, 2)) for rel in names}
    items = [f"{rel}/{arity}." for rel, arity in rels.items()]
    for _ in range(draw(st.integers(0, 2))):
        egd = draw(st.booleans())
        left = [_dsl_atom(draw, rels, "XYZ" if egd else "XY") for _ in range(draw(st.integers(1, 2)))]
        used = sorted({v for _, vs in left for v in vs})
        if egd:
            right = f"{_pick(draw, used)} = {_pick(draw, used)}"
        else:  # a weakly full TGD: every variable is universal
            right = _dsl_atom(draw, rels, used)[0]
        items.append(f"constraint forall {','.join(used)}: {', '.join(a for a, _ in left)} => {right}.")
    return f"schema {name} {{ {' '.join(items)} }}"


def _dsl_term(draw, schemas: list, composes: list, depth: int = 2) -> str:
    """``(left op right)``, each side a leaf or, while *depth* lasts, such a
    term; a leaf is as often an earlier composition as a schema or ``empty``."""

    def side() -> str:
        if depth > 1 and draw(st.booleans()):
            return _dsl_term(draw, schemas, composes, depth - 1)
        return _pick(draw, composes if composes and draw(st.booleans()) else [*schemas, "empty"])

    return f"({side()} {_pick(draw, ('sep', 'fed'))} {side()})"


def _dsl_pair(draw, source: dict, target: dict, head: str) -> str:
    """A mapping line: a query over *source* (perhaps guarded by a value) and a
    query right side named *head* or a bare one over *target*, perhaps fresh."""
    lhs, lvars = _dsl_atom(draw, source)
    if draw(st.booleans()):
        lhs += f", {_pick(draw, lvars)} {_pick(draw, ('=', '<='))} {_pick(draw, DSL_VALUES)}"
    if target and draw(st.booleans()):
        rhs, rvars = _dsl_atom(draw, target, "UV")
        width = draw(st.integers(1, min(len(lvars), len(rvars))))
        rhs = f"{head}({','.join(rvars[:width])}) :- {rhs}"
    else:
        width = draw(st.integers(1, len(lvars)))
        rhs = f"{_pick(draw, [r for r, a in target.items() if a == width] + ['n'])}({','.join('UV'[:width])})"
    return f"q({','.join(lvars[:width])}) :- {lhs} => {rhs}."


@st.composite
def workspace_texts(draw, wired: bool = False) -> str:
    """DSL text of a workspace: schemas, compositions that name earlier ones
    whatever their names sort to, one instance of each schema and some of
    compositions, of ints and of strings holding a quote or a backslash,
    mappings whose query right sides each add a relation of its own name, and
    graphs of ``use``, ``after`` and ``branch``.  When *wired*, the first
    mapping leaves a term with relations and has a pair, and the first graph a line."""
    # A reversed pool: even a near-identity permutation names a later composition with an earlier letter.
    names, ws, statements = iter(draw(st.permutations("SRQPONMLKJIHGFEDCBA"))), Workspace(), []
    heads = (f"p{i}" for i in itertools.count())

    def declare(text: str):
        parse_workspace_text(text, ws)  # read as it goes, so that later statements see each term's relations
        statements.append(text)

    def relsymbols(term: str) -> dict:
        return term_layout(ws.term(term)).relsymbols()

    for _ in range(draw(st.integers(1, 3))):
        declare(_dsl_schema(draw, next(names)))
    for _ in range(draw(st.integers(1, 3))):
        declare(f"compose {next(names)} = {_dsl_term(draw, [*ws.schemas], [*ws.composes])}")
    terms = [*ws.schemas, *ws.composes]
    for term in [*ws.schemas, *(_pick(draw, ws.composes) for _ in range(draw(st.integers(0, 2))))]:
        rels, rows = relsymbols(term), []
        for _ in range(draw(st.integers(0, 3)) if rels else 0):
            rel = _pick(draw, sorted(rels))
            rows.append(f"{rel}({','.join(_pick(draw, DSL_VALUES) for _ in range(rels[rel]))}).")
        declare(f"instance {next(names)} of {term} {{ {' '.join(rows)} }}")
    for i in range(draw(st.integers(wired, 3))):
        first = wired and i == 0
        src, tgt = _pick(draw, [t for t in terms if relsymbols(t)] if first else terms), _pick(draw, terms)
        pairs = [_dsl_pair(draw, relsymbols(src), relsymbols(tgt), next(heads)) for _ in range(draw(st.integers(first, 2)) if relsymbols(src) else 0)]
        exact = " exact." if draw(st.booleans()) else ""
        declare(f"mapping {next(names)} : {src} -> {tgt} {{ {' '.join(pairs)}{exact} }}")
    ms = ws.mappings.values()
    lines = [f"use {m.name}." for m in ms]
    lines += [f"{n.name} after {m.name}." for m in ms for n in ms if m.target_name == n.source_name]
    lines += [f"{m.name} branch {n.name}." for m in ms for n in ms if m.source_name == n.source_name]
    for i in range(draw(st.integers(wired, 2)) if lines else 0):
        declare(f"graph {next(names)} {{ {' '.join(_pick(draw, lines) for _ in range(draw(st.integers(wired and i == 0, 3))))} }}")
    return "\n".join(statements)


def _edit_statement(draw, ws) -> tuple:
    """Edit one statement of *ws* through the records into one the text
    cannot say or would say as another: ``(kind, name)`` of the statement."""
    insts = [n for n, (_, inst) in ws.instances.items() if inst.relations]
    tgds = [n for n, s in ws.schemas.items() if any(isinstance(c, Tgd) for c in s.constraints.items)]
    edit = _pick(draw, ["nullary relation"] + ["sentinel", "moved partition"] * bool(insts) + ["not weakly full"] * bool(tgds))
    if edit in ("sentinel", "moved partition"):
        name = _pick(draw, insts)
        term, inst = ws.instances[name]
        first, *rest = inst.relations
        if edit == "sentinel":
            first = Relation(first.name, first.arity, first.tuples | {(SENTINEL_A,) * first.arity})
            ws.instances[name] = (term, Instance((first, *rest), inst.partition))
        else:
            moved = tuple((rel, comp + (rel == first.name)) for rel, comp in inst.partition)
            ws.instances[name] = (term, Instance(inst.relations, moved))
        return "instance", name
    name = _pick(draw, tgds if edit == "not weakly full" else sorted(ws.schemas))
    s = ws.schemas[name]
    if edit == "nullary relation":
        ws.schemas[name] = Schema(name, (*s.relsymbols, ("z", 0)), s.constraints)
    else:
        items = tuple(Tgd(c.universal, c.left, c.right) if isinstance(c, Tgd) else c for c in s.constraints.items)
        ws.schemas[name] = Schema(name, s.relsymbols, Sentence(items))
    return "schema", name


@settings(max_examples=60 * DEEP, deadline=None)
@given(workspace_texts(), st.data())
def test_a_parsed_workspace_round_trips_and_an_edited_one_round_trips_or_is_refused_by_name(text, data):
    ws = parse_workspace_text(text)
    out = serialize_workspace(ws)
    again = parse_workspace_text(out)
    assert again == ws and serialize_workspace(again) == out
    kind, name = _edit_statement(data.draw, again)
    try:
        edited = serialize_workspace(again)
    except DbcatError as exc:
        assert str(exc).startswith(f"{kind} {name} cannot be written: ")
    else:
        assert parse_workspace_text(edited) == again


# -- criterion 06 on drawn graphs ----------------------------------------------

TRIANGLE = (
    "schema A { r/1. } schema B { s/1. } schema C { u/1. }\n"
    "instance A0 of A { r(1). r(2). } instance B0 of B { s(1). s(2). } instance C0 of C { u(1). u(2). }\n"
    "mapping M : A -> B { q(X) :- r(X) => t(X). } mapping N : B -> C { q(X) :- s(X) => v(X). }\n"
    "mapping P : A -> C { q(X) :- r(X), X = 1 => w(X). } graph G { use M. use N. use P. }"
)


def _graph_status(command: str, graph: str, ws, depth):
    """The exit status of a graph command, 0 or 1, or ``(2, reason)`` when it cannot run."""
    try:
        return int(not run(command, [graph], ws, depth, 2, core.DEFAULT_CAP).passed)
    except DbcatError as exc:
        return 2, str(exc)


@settings(max_examples=40 * DEEP, deadline=None)
@given(workspace_texts(wired=True))
@example(TRIANGLE)
def test_a_drawn_graph_is_a_model_exactly_when_it_is_a_functor(text):
    ws = parse_workspace_text(text)
    for graph in ws.graphs:
        for depth in (None, 1):
            model = _graph_status("check-model", graph, ws, depth)
            event("refused" if isinstance(model, tuple) else "decided")
            assert model == _graph_status("check-functor", graph, ws, depth), (graph, depth)
