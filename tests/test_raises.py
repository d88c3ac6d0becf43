"""Each typed error that no other test reaches, raised by the smallest input
that gets there: its class and its whole message are checked."""
import re

import pytest

from dbcat.category import Morphism, ViewMap, flux, make_atomic
from dbcat.core import make_instance
from dbcat.interpret import InterpretationError, interpretation
from dbcat.queries import eval_spjru, rule_to_spjru
from dbcat.rules import eval_rule
from dbcat.schemas import (
    MappingGraph,
    SAtom,
    Schema,
    SchemaError,
    SchemaMapping,
    make_pair,
    sep,
    term_layout,
)
from dbcat.syntax import (
    Builtin,
    Const,
    QueryArityError,
    QueryError,
    RelAtom,
    Rule,
    TranslationError,
    UnknownRelation,
    Var,
)
from dbcat.values import ArityError, DbcatError, Instance, Record, Relation

X, Y = Var("X"), Var("Y")
R1 = make_instance({"r": [(1,)]})
SA, SB = Schema("A", (("r", 1),)), Schema("B", (("s", 1),))
COPY = Rule("q", (X,), (RelAtom("r", (X,)),))


def _record_with_a_default_first():
    class Bad(Record):
        a: int = 0
        b: int


def _graph(nodes, source_name="A"):
    m = SchemaMapping("M", source_name, "A", SAtom(SA), SAtom(SA), (make_pair(COPY, RelAtom("r", (X,))),))
    return MappingGraph("G", nodes, (m,))


CASES = {
    "rules-unknown-relation": (
        lambda: eval_rule(Rule("q", (X,), (RelAtom("nope", (X,)),)), R1), UnknownRelation, "unknown relation 'nope'"),
    "category-unknown-mode": (lambda: ViewMap(COPY, "r", "bogus"), DbcatError, "unknown mode 'bogus'"),
    "category-narrow-target": (
        lambda: make_atomic(
            [ViewMap(Rule("q", (X, Y), (RelAtom("r", (X, Y)),)), "t")],
            make_instance({"r": [(1, 2)]}), make_instance({"t": [(1,)]}),
        ),
        QueryArityError, "target t has arity 1, narrower than the mapped view (2)"),
    "category-unknown-structure": (
        lambda: flux(Morphism(R1, R1, ("bogus",))), DbcatError, "unknown morphism structure 'bogus'"),
    "core-empty-relation": (
        lambda: make_instance({"r": []}), ArityError, "empty relation 'r' needs an explicit arity"),
    "interpret-no-instance": (
        lambda: interpretation({"A": R1}).instance_for("B"), InterpretationError, "no instance assigned to schema 'B'"),
    "interpret-unknown-schema": (
        lambda: interpretation({"Z": R1}, {"A": SA}), InterpretationError, "unknown schema 'Z'"),
    "queries-not-a-term": (lambda: eval_spjru("r", R1), QueryError, "not a query term: 'r'"),
    "queries-builtin-only-variable": (
        lambda: rule_to_spjru(Rule("q", (X,), (RelAtom("r", (X,)), Builtin("=", Y, Const(1))))),
        TranslationError, "variable Y occurs only in built-ins; not translatable"),
    "schemas-not-a-term": (lambda: sep("A", SAtom(SA)), SchemaError, "not a schema term: 'A'"),
    "schemas-unknown-relation": (
        lambda: term_layout(SAtom(SA)).component_of("s"), SchemaError, "unknown relation 's'"),
    "schemas-bad-right-side": (lambda: make_pair(COPY, 42), SchemaError, "not a valid mapping right side: 42"),
    "schemas-duplicate-node": (
        lambda: MappingGraph("G", (("A", SAtom(SA)), ("A", SAtom(SB))), ()), SchemaError,
        "duplicate node names in graph"),
    "schemas-unknown-node": (
        lambda: _graph((("A", SAtom(SA)),), "Z"), SchemaError, "graph G: unknown node 'Z'"),
    "schemas-node-disagrees": (
        lambda: _graph((("A", SAtom(SB)),)), SchemaError, "graph G: mapping M disagrees with node 'A'"),
    "syntax-unsupported-builtin": (lambda: Builtin("<", X, Y), QueryError, "unsupported built-in '<'"),
    "syntax-constant-head": (
        lambda: Rule("q", (Const(1),), (RelAtom("r", (X,)),)), QueryError, "head arguments must be variables"),
    "values-default-first": (
        _record_with_a_default_first, TypeError, "Bad: a field without a default follows one with a default"),
    "values-negative-arity": (lambda: Relation("r", -1), ArityError, "negative arity for r"),
    "values-partition-mismatch": (
        lambda: Instance((Relation("r", 1),), (("s", 0),)), DbcatError, "partition must cover exactly the relation names"),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_each_raise_site_gives_its_class_and_message(case):
    call, error, message = case
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is error
