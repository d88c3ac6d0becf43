"""Property tests for the algebraic laws, driven by hypothesis."""
import hypothesis.strategies as st
from hypothesis import given, settings

from dbcat.core import disjoint_union, federate, make_instance
from dbcat.interpret import interpret_term, interpretation
from dbcat.powerview import instances_isomorphic, power_view
from dbcat.queries import eval_rule, eval_spjru, rule, rule_to_spjru
from dbcat.schemas import EMPTY_SCHEMA, SAtom, Schema, fed, schema_identity, sep

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


@settings(max_examples=60, deadline=None)
@given(instance_rule_pairs())
def test_rule_translation_agrees_with_direct_evaluation(pair):
    inst, q = pair
    assert eval_spjru(rule_to_spjru(q), inst).tuples == eval_rule(q, inst).tuples


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


schemas = st.sampled_from(
    [
        SAtom(Schema("A", (("r", 1),))),
        SAtom(Schema("B", (("s", 1),))),
        SAtom(Schema("C", (("t", 2),))),
        EMPTY_SCHEMA,
    ]
)


@st.composite
def schema_terms(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(schemas)
    op = draw(st.sampled_from([sep, fed]))
    return op(draw(schema_terms(depth=depth - 1)), draw(schema_terms(depth=depth - 1)))


@settings(max_examples=60, deadline=None)
@given(schema_terms(), schema_terms(), schema_terms())
def test_schema_operators_are_monoidal(x, y, z):
    for op in (sep, fed):
        assert schema_identity(op(op(x, y), z), op(x, op(y, z)))
        assert schema_identity(op(x, y), op(y, x))
        assert schema_identity(op(x, EMPTY_SCHEMA), x)


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
    names, with an interpretation, and the same nesting of ``disjoint_union``
    over the groups of ``federate`` over each group's leaf instances."""
    pool = []
    for i in range(draw(st.integers(1, 4))):
        rels = draw(st.lists(st.sampled_from("rst"), min_size=1, max_size=3, unique=True))
        data = {rel: draw(st.sets(tuples1, max_size=2)) for rel in rels}
        inst = make_instance(data, arities=dict.fromkeys(rels, 1))
        pool.append((Schema(f"S{i}", tuple((rel, 1) for rel in rels)), inst))
    alpha = interpretation({s.name: inst for s, inst in pool}, {s.name: s for s, _ in pool})
    leaf = st.sampled_from([(SAtom(s), inst) for s, inst in pool])
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
