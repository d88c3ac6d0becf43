import itertools
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given

from dbcat import constraints, core, queries, rules
from dbcat.constraints import Egd, Tgd, check_egd, check_tgd
from dbcat.core import disjoint_union, federate, make_instance
from dbcat.queries import (
    BaseRel,
    ColEq,
    Const,
    ConstEq,
    CrossComponentQuery,
    EmptyRel,
    Join,
    Project,
    QueryArityError,
    QueryError,
    Rename,
    RelAtom,
    Rule,
    Select,
    TranslationError,
    Union,
    UnknownRelation,
    Var,
    eval_rule,
    eval_spjru,
    rule,
    rule_to_spjru,
)
from dbcat.syntax import copy_rule

from oracles import (
    brute_force_egd,
    brute_force_spjru,
    brute_force_rule,
    brute_force_tgd,
    random_body,
    random_instance,
    random_rule,
)

R12_23 = make_instance({"r": [(1, 2), (2, 3)]})


def test_project_first_column():
    # brute-force oracle on {(1,2),(2,3)}: first components are 1 and 2
    out = eval_spjru(Project(BaseRel("r"), (0,)), R12_23)
    assert out.tuples == {(1,), (2,)}


def test_union_idempotent():
    out = eval_spjru(Union(BaseRel("r"), BaseRel("r")), R12_23)
    assert out.tuples == R12_23.relation("r").tuples


def test_select_no_match_is_empty():
    out = eval_spjru(Select(BaseRel("r"), (ConstEq(0, 99),)), make_instance({"r": [(1, 2)]}))
    assert out.tuples == frozenset()


def test_select_col_eq_and_rename():
    inst = make_instance({"r": [(1, 1), (1, 2)]})
    assert eval_spjru(Select(BaseRel("r"), (ColEq(0, 1),)), inst).tuples == {(1, 1)}
    assert eval_spjru(Rename(BaseRel("r"), (1, 0)), inst).tuples == {(1, 1), (2, 1)}


def test_join_cartesian_and_pairs():
    inst = make_instance({"r": [(1, 2)], "s": [(2,), (9,)]})
    assert eval_spjru(Join(BaseRel("r"), BaseRel("s"), ()), inst).tuples == {
        (1, 2, 2),
        (1, 2, 9),
    }
    assert eval_spjru(Join(BaseRel("r"), BaseRel("s"), ((1, 0),)), inst).tuples == {
        (1, 2, 2)
    }


def test_eval_errors():
    with pytest.raises(UnknownRelation):
        eval_spjru(BaseRel("nope"), R12_23)
    with pytest.raises(QueryArityError):
        eval_spjru(Project(BaseRel("r"), (5,)), R12_23)
    with pytest.raises(QueryArityError):
        eval_spjru(Union(BaseRel("r"), Project(BaseRel("r"), (0,))), R12_23)


def test_eval_rule_simple_projection():
    # oracle: valuations X=1,Y=2 and X=2,Y=3
    q = rule("q", ["X"], [("r", "X", "Y")])
    assert eval_rule(q, R12_23).tuples == {(1,), (2,)}


def test_eval_rule_unsatisfiable_body():
    q = rule("q", ["X", "Y"], [("r", "X", "Y"), ("=", "X", "Y")])
    assert eval_rule(q, make_instance({"r": [(1, 2)]})).tuples == frozenset()


def test_eval_rule_constants_and_le():
    inst = make_instance({"r": [(1, 2), (2, 3), (3, 3)]})
    q = rule("q", ["X"], [("r", "X", 3)])
    assert eval_rule(q, inst).tuples == {(2,), (3,)}
    q2 = rule("q", ["X", "Y"], [("r", "X", "Y"), ("<=", "Y", 2)])
    assert eval_rule(q2, inst).tuples == {(1, 2)}


def test_eval_rule_repeated_head_variable():
    q = rule("q", ["X", "X"], [("r", "X", "Y")])
    assert eval_rule(q, R12_23).tuples == {(1, 1), (2, 2)}


def test_cross_component_rule_rejected():
    a = make_instance({"r": [(1, 2)]})
    b = make_instance({"s": [(1,)]})
    separated = disjoint_union(a, b)
    q = rule("q", ["X"], [("r", "X", "Y"), ("s", "X")])
    with pytest.raises(CrossComponentQuery):
        eval_rule(q, separated)
    # the same rule over the federated instance evaluates
    assert eval_rule(q, federate(a, b)).tuples == {(1,)}


def test_cross_component_term_rejected():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1,)]})
    separated = disjoint_union(a, b)
    with pytest.raises(CrossComponentQuery):
        eval_spjru(Join(BaseRel("r"), BaseRel("s"), ()), separated)


def test_rule_validation():
    with pytest.raises(Exception):
        Rule("q", (), ())  # no relation atom
    with pytest.raises(Exception):
        rule("q", ["Z"], [("r", "X", "Y")])  # head variable not in body


def test_translation_simple_shapes():
    q = rule("q", ["X"], [("r", "X", "Y")])
    t = rule_to_spjru(q)
    assert isinstance(t, Project) and t.cols == (0,)

    q2 = rule("q", ["X"], [("r", "X", "X")])
    t2 = rule_to_spjru(q2)
    assert isinstance(t2, Project)
    assert isinstance(t2.child, Select)

    q3 = rule("q", ["X"], [("r", "X", "Y"), ("s", "Y")])
    t3 = rule_to_spjru(q3)
    assert eval_spjru(t3, make_instance({"r": [(1, 2), (4, 5)], "s": [(2,)]})).tuples == {
        (1,)
    }

    # a contradiction empties the body at any width, the nullary one included
    for q4, inst in (
        (rule("q", [], [("z",), ("=", 1, 2)]), make_instance({"z": [()]})),
        (rule("q", ["X"], [("r", "X", "Y"), ("=", 1, 2)]), R12_23),
    ):
        assert eval_spjru(rule_to_spjru(q4), inst).tuples == eval_rule(q4, inst).tuples == set()


def test_translation_rejects_le():
    q = rule("q", ["X"], [("r", "X", "Y"), ("<=", "X", "Y")])
    with pytest.raises(TranslationError):
        rule_to_spjru(q)


def test_translation_matches_rule_semantics_randomized():
    rng = random.Random(20240811)
    agree = 0
    for _ in range(300):
        inst = random_instance(rng)
        q = random_rule(rng, inst)
        got = eval_spjru(rule_to_spjru(q), inst).tuples
        want = eval_rule(q, inst).tuples
        assert got == want
        agree += 1
    assert agree == 300


def test_eval_rule_matches_brute_force_oracle():
    rng = random.Random(99)
    for _ in range(200):
        inst = random_instance(rng)
        q = random_rule(rng, inst, allow_le=True)
        assert eval_rule(q, inst).tuples == brute_force_rule(q, inst)


def test_monotonicity():
    rng = random.Random(7)
    for _ in range(100):
        inst = random_instance(rng)
        q = random_rule(rng, inst)
        bigger = make_instance(
            {
                r.name: set(r.tuples) | {tuple(1 for _ in range(r.arity))}
                for r in inst.relations
            },
        )
        assert eval_rule(q, inst).tuples <= eval_rule(q, bigger).tuples


def test_rules_are_satisfiable_constructively():
    # freezing the body atoms into an instance satisfies the rule
    rng = random.Random(13)
    for _ in range(100):
        inst = random_instance(rng)
        q = random_rule(rng, inst)
        if any(not hasattr(a, "name") for a in q.body):
            continue  # built-ins may contradict; the claim is for pure bodies
        fill = {}
        for a in q.body:
            fill.setdefault(a.name, set()).add(
                tuple(t.value if hasattr(t, "value") else 1 for t in a.args)
            )
        arities = {r.name: r.arity for r in inst.relations}
        witness = make_instance(
            {name: fill.get(name, set()) for name in arities}, arities=arities
        )
        assert eval_rule(q, witness).tuples != frozenset()


def test_hash_join_matches_the_nested_loop_definition():
    rng = random.Random(31)
    for _ in range(200):
        inst = random_instance(rng, max_tuples=8)
        left, right = (rng.choice(inst.relations) for _ in range(2))
        # several pairs, and the same column in more than one pair
        pairs = tuple(
            (rng.randrange(left.arity), rng.randrange(right.arity)) for _ in range(rng.randint(0, 3))
        )
        want = {
            x + y
            for x, y in itertools.product(left.tuples, right.tuples)
            if all(x[i] == y[j] for i, j in pairs)
        }
        got = eval_spjru(Join(BaseRel(left.name), BaseRel(right.name), pairs), inst).tuples
        assert got == want


def test_out_of_range_columns_and_separated_joins_are_rejected():
    inst = make_instance({"r": [(1, 2)], "e": []}, arities={"e": 2})
    for bad in (
        Select(BaseRel("r"), (ColEq(0, 2),)),
        Select(BaseRel("r"), (ConstEq(2, 1),)),
        Join(BaseRel("r"), BaseRel("r"), ((2, 0),)),
        Join(BaseRel("r"), BaseRel("e"), ((0, 2),)),  # also with an empty side
        Join(BaseRel("e"), BaseRel("r"), ((-1, 0),)),
    ):
        with pytest.raises(QueryArityError):
            eval_spjru(bad, inst)
    separated = disjoint_union(make_instance({"r": [(1,)]}), make_instance({"s": [(1,)]}))
    with pytest.raises(CrossComponentQuery):
        eval_spjru(Join(BaseRel("r"), BaseRel("s"), ((0, 0),)), separated)


def test_three_atom_rules_with_constants_and_builtins_match_brute_force():
    rng = random.Random(5150)
    for _ in range(300):
        inst = random_instance(rng, max_tuples=5)
        body = random_body(rng, inst)
        names = sorted({v.name for a in body for v in a.variables()})
        q = Rule("q", tuple(Var(v) for v in rng.sample(names, min(2, len(names)))), tuple(body))
        want = brute_force_rule(q, inst)
        assert eval_rule(q, inst).tuples == want
        if all(a.op == "=" for a in body if not isinstance(a, RelAtom)) and "V" not in names:
            assert eval_spjru(rule_to_spjru(q), inst).tuples == want


def counting_builds(monkeypatch) -> list:
    """The (relation name, cols) of each index an instance builds, filled in as it builds them."""
    builds, index = [], core.Instance.index

    def counting(self, name, cols):
        if (name, cols) not in self._indexes:
            builds.append((name, cols))
        return index(self, name, cols)

    monkeypatch.setattr(core.Instance, "index", counting)
    return builds


def test_tgd_witness_search_builds_each_index_once(monkeypatch):
    builds = counting_builds(monkeypatch)
    n = 2000
    r = {(x, (7 * x) % n) for x in range(n)}
    inst = make_instance({"r": r, "s": {(x,) for x, _ in r}})
    assert builds == []  # nothing is built when the instance is made
    X, Y = Var("X"), Var("Y")
    assert check_tgd(Tgd(("X",), (RelAtom("r", (X, Y)),), (RelAtom("s", (X,)),)), inst)
    assert builds == [("r", (0,))]  # r's keys on X, less s's own tuples: s(X) binds every column
    assert check_tgd(Tgd(("X",), (RelAtom("r", (X, Y)),), (RelAtom("s", (X,)),)), inst)
    assert builds == [("r", (0,))]  # cached on the instance, and s is never indexed


def test_rule_and_algebra_build_each_index_once(monkeypatch):
    builds, indexed, real_index = counting_builds(monkeypatch), [], core.index_tuples
    inst = make_instance({"r": [(1, 2), (2, 3), (3, 1), (3, 3)]})

    def indexing(tuples, cols):  # every index, the instance's or one built for itself
        indexed.append(tuple(cols))
        return real_index(tuples, cols)

    monkeypatch.setattr(core, "index_tuples", indexing)
    q = rule("q", ["X", "Z"], [("r", "X", "Y"), ("r", "Y", "Z")])
    assert rule_to_spjru(q) == Project(Join(BaseRel("r"), BaseRel("r"), ((1, 0),)), (0, 3))
    rows, built = eval_rule(q, inst).tuples, list(inst._indexes)
    assert builds.count(("r", (0,))) == 1
    assert eval_spjru(rule_to_spjru(q), inst).tuples == rows == brute_force_rule(q, inst)
    assert builds.count(("r", (0,))) == 1  # the join probes the instance's index
    assert list(inst._indexes) == built and indexed == [cols for _, cols in builds]  # and builds none of its own


def test_full_key_probes_read_the_relations_own_tuples(monkeypatch):
    builds = counting_builds(monkeypatch)
    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    r, t, u = (RelAtom(name, args) for name, args in (("r", (X, Y)), ("t", (Y, X)), ("u", ())))
    rules = [
        rule("q", ["X", "Y"], [("r", "X", "Y"), ("t", "Y", "X")]),  # the last atom is a semi-join
        rule("q", ["Y"], [("r", 1, "Y"), ("t", "Y", 1)]),  # a key with a constant
        rule("q", ["X", "Y"], [("r", "X", "Y"), ("u",)]),  # a nullary atom
    ]
    tgds = [
        Tgd(("X", "Y"), (r,), (t,)),  # two columns, swapped
        Tgd(("X",), (r,), (RelAtom("t", (X, Const(1))),)),
        Tgd(("X",), (r,), (RelAtom("u", ()),)),
    ]
    egds = [Egd((r, RelAtom("r", (X, Z)), RelAtom("t", (Y, Z))), ("Y", "Z")), Egd((r, t, u), ("X", "Y"))]
    rng, pairs = random.Random(2121), [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for _ in range(60):
        inst = make_instance(
            {"r": rng.sample(pairs, rng.randint(0, 5)), "t": rng.sample(pairs, rng.randint(0, 6)), "u": rng.choice([[], [()]])},
            arities={"r": 2, "t": 2, "u": 0},
        )
        for q in rules:
            assert eval_rule(q, inst).tuples == brute_force_rule(q, inst)
        for d in tgds:
            assert check_tgd(d, inst) == brute_force_tgd(d.universal, d.left, d.right, inst)
        for d in egds:
            assert check_egd(d, inst) == brute_force_egd(d.left, d.pair, inst)
    assert builds and {name for name, _ in builds} == {"r"}  # t and u are never indexed


def test_a_projected_join_streams_what_the_rule_and_the_oracle_find():
    rng = random.Random(2122)
    for _ in range(200):
        inst = random_instance(rng, max_tuples=6)
        body = [
            RelAtom(rel.name, tuple(Var(rng.choice("XYZW")) for _ in range(rel.arity)))
            for rel in (rng.choice(inst.relations) for _ in range(rng.randint(2, 3)))
        ]
        names = sorted({v.name for a in body for v in a.variables()})
        q = Rule("q", tuple(Var(v) for v in rng.sample(names, rng.randint(1, min(3, len(names))))), tuple(body))
        term = rule_to_spjru(q)
        if isinstance(term.child, Select):  # a repeat within one atom
            continue
        assert isinstance(term.child, Join)
        joined = eval_spjru(term.child, inst).tuples  # the join as a set, then projected
        want = {tuple(x[c] for c in term.cols) for x in joined}
        assert eval_spjru(term, inst).tuples == eval_rule(q, inst).tuples == brute_force_rule(q, inst) == want


X, Y = Var("X"), Var("Y")
S12 = {"s": [(1,), (2,)]}


@pytest.mark.parametrize("r, holds", [([], False), ([()], True)])
def test_nullary_atom_is_a_membership_test(r, holds):
    inst = make_instance({**S12, "r": r}, arities={"r": 0})
    q = rule("q", ["X"], [("s", "X"), ("r",)])
    want = frozenset({(1,), (2,)}) if holds else frozenset()
    assert eval_rule(q, inst).tuples == brute_force_rule(q, inst) == eval_spjru(rule_to_spjru(q), inst).tuples == want
    tgd = Tgd(("X",), (RelAtom("s", (X,)),), (RelAtom("r", ()),))
    assert check_tgd(tgd, inst) == brute_force_tgd(tgd.universal, tgd.left, tgd.right, inst) == holds
    egd = Egd((RelAtom("s", (X,)), RelAtom("s", (Y,)), RelAtom("r", ())), ("X", "Y"))
    assert check_egd(egd, inst) == brute_force_egd(egd.left, egd.pair, inst) == (not holds)


def test_valuation_domain_is_built_only_for_builtin_variables(monkeypatch):
    built = []
    real_rule, real_constraint = rules._rule_domain, constraints._constraint_domain

    def rule_domain(*args):
        built.append("rule")
        return real_rule(*args)

    def constraint_domain(*args, **kwargs):
        built.append("constraint")
        return real_constraint(*args, **kwargs)

    monkeypatch.setattr(rules, "_rule_domain", rule_domain)
    monkeypatch.setattr(constraints, "_constraint_domain", constraint_domain)
    n = 2000
    inst = make_instance({"r": {(x, (7 * x) % n) for x in range(n)}, "s": {(x,) for x in range(n)}})
    assert len(eval_rule(rule("q", ["X", "Z"], [("r", "X", "Y"), ("r", "Y", "Z")]), inst).tuples) == n
    X, Y = Var("X"), Var("Y")
    assert check_tgd(Tgd(("X",), (RelAtom("r", (X, Y)),), (RelAtom("s", (X,)),)), inst)
    assert built == []
    # a variable that only a built-in names ranges over the domain: built once
    assert eval_rule(rule("q", ["X", "V"], [("r", "X", 0), ("<=", "V", 0)]), inst).tuples == {(0, 0)}
    assert built == ["rule"]


def test_each_record_plans_once(monkeypatch):
    planned = []
    real = rules.plan

    def planning(body, bound=(), out=(), unequal=()):
        planned.append(body)
        return real(body, bound, out, unequal)

    monkeypatch.setattr(rules, "plan", planning)
    a = make_instance({"r": [(1, 2), (2, 3)], "s": [(1,), (2,)]})
    b = make_instance({"r": [(2, 2), (3, 1)], "s": [(3,)]})
    q = rule("q", ["X", "Z"], [("r", "X", "Y"), ("r", "Y", "Z")])
    tgd = Tgd(("X",), (RelAtom("r", (X, Y)),), (RelAtom("s", (X,)),))  # an IND: decided on key views
    egd = Egd((RelAtom("r", (X, Y)), RelAtom("r", (X, Var("Z")))), ("Y", "Z"))  # an FD, which a and b satisfy
    # outside those shapes: two atoms on the left, and an EGD over two relations
    joined = Tgd(("X",), (RelAtom("r", (X, Y)), RelAtom("r", (Y, Var("Z")))), (RelAtom("s", (X,)),))
    across = Egd((RelAtom("r", (X, Y)), RelAtom("s", (Y,))), ("X", "Y"))
    cases = ((q, eval_rule, 1), (egd, check_egd, 0), (tgd, check_tgd, 0), (across, check_egd, 1), (joined, check_tgd, 2))
    for record, run, plans in cases:
        planned.clear()
        for inst in (a, b, a, b):
            run(record, inst)
        assert len(planned) == plans
    assert [eval_rule(q, inst).tuples for inst in (a, b)] == [brute_force_rule(q, inst) for inst in (a, b)]
    assert eval_rule(Rule(q.head_name, q.head_vars, q.body), a) == eval_rule(q, a) and len(planned) == 3


def test_a_copy_rule_answers_with_the_relation_itself(monkeypatch):
    planned = []
    real = rules.plan
    monkeypatch.setattr(rules, "plan", lambda body, *args: planned.append(body) or real(body, *args))
    inst = make_instance({"r": [(1, 2), (2, 2), (3, 1)], "z": [()]})
    X, Y = Var("X"), Var("Y")
    copies = [copy_rule("c", "r", 2), Rule("q", (), (RelAtom("z", ()),)), Rule("q", (Y, X), (RelAtom("r", (Y, X)),))]
    for q in copies:
        got = eval_rule(q, inst)
        assert got.tuples is inst.relation(q.body[0].name).tuples
        assert got.tuples == brute_force_rule(q, inst) and got.arity == len(q.head_vars)
    assert planned == []
    for q in (Rule("q", (X, X), (RelAtom("r", (X, X)),)), Rule("q", (Y, X), (RelAtom("r", (X, Y)),))):
        assert eval_rule(q, inst).tuples == brute_force_rule(q, inst)
    assert len(planned) == 2
    with pytest.raises(QueryArityError):
        eval_rule(Rule("q", (X,), (RelAtom("r", (X,)),)), inst)  # the atom is still checked


def test_names_and_values_never_enter_a_kernel(monkeypatch):
    sources = []
    real = rules._kernel

    def compiling(source):
        sources.append(source)
        return real(source)

    monkeypatch.setattr(rules, "_kernel", compiling)
    name, value = "r'); import os; ('", "it's\n\"here\""
    inst = make_instance({name: [(1, value), (2, 3), (value, value)], "s": [(1,), (2,), (value,)]})
    q = rule("q", ["X"], [(name, "X", value), ("s", "X")])
    assert eval_rule(q, inst).tuples == brute_force_rule(q, inst) == {(1,), (value,)}
    q = rule("q", ["X"], [(name, "X", "X"), ("<=", "X", value)])
    assert eval_rule(q, inst).tuples == brute_force_rule(q, inst) == {(value,)}
    tgd = Tgd(("X",), (RelAtom("s", (X,)),), (RelAtom(name, (X, Const(value))),))
    assert check_tgd(tgd, inst) == brute_force_tgd(tgd.universal, tgd.left, tgd.right, inst) is False
    egd = Egd((RelAtom(name, (X, Y)), RelAtom("s", (Y,))), ("X", "Y"))
    assert check_egd(egd, inst) == brute_force_egd(egd.left, egd.pair, inst) is False
    assert sources and not any(name in s or value in s or "it's" in s for s in sources)
    # the first rule probes its first atom on one column: the key is the bare slot
    assert re.search(r"for \[s1, _, \] in x0\(s0, \(\)\):", sources[0])
    assert re.search(r"^ +if s\d+ == s\d+: continue$", sources[-1], re.M)  # the EGD's kernel tests its pair


def test_bodies_deeper_than_the_nesting_limit_run_in_stages():
    # each atom of a 25-atom chain opens a loop: more than one generated function can nest
    n = 3
    inst = make_instance({"r": [(i, (i + 1) % n) for i in range(n)], "s": [(i,) for i in range(n)]})
    chain = [("r", f"X{i}", f"X{i + 1}") for i in range(25)]
    q = rule("q", ["X0", "X25"], chain)
    want = {(i, (i + 25) % n) for i in range(n)}
    assert eval_rule(q, inst).tuples == eval_spjru(rule_to_spjru(q), inst).tuples == want
    left = rule("q", [], chain).body
    assert check_tgd(Tgd(("X0", "X25"), left, (RelAtom("s", (Var("X25"),)),)), inst)
    assert check_tgd(Tgd(("X0", "X25"), left, (RelAtom("r", (Var("X0"), Var("X25"))),)), inst)  # 25 = 1 mod 3
    assert not check_tgd(Tgd(("X0", "X25"), left, (RelAtom("r", (Var("X25"), Var("X0"))),)), inst)


# 1, True and "1": the first two are equal values, the last is not
TERM_VALUES = (1, True, "1", 2)


@st.composite
def algebra_cases(draw):
    """An instance, possibly separated, of up to three relations of arity 0-3,
    any of them empty, and a term over it of depth at most 3: products and
    joins on several pairs, selections that may contradict, projections that
    repeat columns or keep none, renames, unions (under joins too) and
    EmptyRel; now and then a column out of range, a rename that is no
    permutation, a union of two widths or an unknown relation."""
    rows = lambda arity: st.lists(st.tuples(*[st.sampled_from(TERM_VALUES)] * arity), max_size=4)
    arities = {f"r{i}": draw(st.integers(0, 3)) for i in range(draw(st.integers(1, 3)))}
    rels = {name: draw(rows(arity)) for name, arity in arities.items()}
    inst = make_instance(rels, arities=arities)
    if len(rels) > 1 and draw(st.booleans()):
        first = draw(st.sets(st.sampled_from(sorted(rels)), min_size=1, max_size=len(rels) - 1))
        part = [{n: r for n, r in rels.items() if (n in first) == side} for side in (True, False)]
        inst = disjoint_union(*(make_instance(p, arities={n: arities[n] for n in p}) for p in part))

    def column(arity):  # in range but for about one draw in twenty
        inside = arity and draw(st.sampled_from((True,) * 19 + (False,)))
        return draw(st.integers(0, arity - 1)) if inside else draw(st.sampled_from((-1, arity)))

    def term(depth):
        kinds = ("base", "select", "project", "join", "base", "rename", "union", "empty")
        kind = draw(st.sampled_from(kinds if depth else ("base",) * 7 + ("empty",)))
        if kind == "base":
            name = draw(st.sampled_from(sorted(arities) * 12 + ["nope"]))
            return BaseRel(name), arities.get(name, 0)
        if kind == "empty":
            return EmptyRel(), 0
        child, arity = term(depth - 1)
        if kind == "select":
            conds = [
                ColEq(column(arity), column(arity)) if draw(st.booleans()) else ConstEq(column(arity), draw(st.sampled_from(TERM_VALUES)))
                for _ in range(draw(st.integers(1, 3)))
            ]
            return Select(child, tuple(conds)), arity
        if kind == "project":
            cols = tuple(column(arity) for _ in range(draw(st.integers(0, 3))))
            return Project(child, cols), len(cols)
        if kind == "rename":
            perm = draw(st.permutations(range(arity)))
            return Rename(child, tuple(perm if draw(st.sampled_from((True,) * 9 + (False,))) else perm[1:] + [0])), arity
        right, r_arity = term(depth - 1)
        if kind == "join":
            pairs = tuple((column(arity), column(r_arity)) for _ in range(draw(st.sampled_from((0, 1, 2, 2, 3)))))
            return Join(child, right, pairs), arity + r_arity
        if r_arity != arity and (r_arity or not arity) and draw(st.sampled_from((True,) * 9 + (False,))):  # mostly one width
            right = Project(right, tuple(column(r_arity) for _ in range(arity)))
        return Union(child, right), arity

    return inst, term(3)[0]


@given(algebra_cases())
@example((make_instance({"r": [(1, "1"), (True, 2)]}), Select(BaseRel("r"), (ConstEq(0, 1), ConstEq(0, "1")))))
@example((make_instance({"r": [(1, 1), (2, "1")]}), Project(Select(BaseRel("r"), (ColEq(1, 0), ConstEq(1, True))), (1, 1, 0))))
@example((make_instance({"r": [(1,), (2,)], "s": []}, arities={"s": 0}), Project(Join(BaseRel("r"), BaseRel("s")), ())))
@example((make_instance({"r": [(1, 2), (1, 3)], "s": [(1, 2), (True, 4)]}), Join(BaseRel("r"), BaseRel("s"), ((0, 0), (1, 1)))))
@example((
    make_instance({"r": [(1, 2), (2, 1)], "s": [(2,), ("1",)]}),
    Join(Union(BaseRel("s"), Project(BaseRel("r"), (0,))), Join(BaseRel("r"), EmptyRel()), ((0, 1), (0, 0))),
))
def test_algebra_blocks_agree_with_the_nested_loop_oracle(case):
    """Each term's blocks, run on the rule engine's kernels, give the tuples
    and the width that operator-by-operator nested loops give, and an
    ill-formed term raises the oracle's error with its message."""
    inst, t = case
    try:
        want = brute_force_spjru(t, inst)
    except QueryError as exc:
        event(type(exc).__name__)
        with pytest.raises(QueryError) as got:
            eval_spjru(t, inst)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    event("empty" if not want[0] else "nonempty")
    got = eval_spjru(t, inst)
    assert (got.tuples, got.arity) == want
