"""Database schemas, the separation/federation algebra, mapping graphs.

A schema term composes atomic schemas with two operators: separation keeps
the operands under independent query engines (queries may not mix them),
federation puts them under one.  A term is its normal form, built once by
:func:`sep` and :func:`fed`: the ordered groups of atomic schemas that share
one engine, empty groups kept.  ``==`` compares the groups in order;
:func:`schema_identity` compares them up to order, empty groups included:
equality in the semiring N[schemas], ``sep`` its sum, ``fed`` its product and
the empty schema its 1.  So both operators are associative and commutative,
federation distributes over separation, and identity is a congruence; but
``empty`` is the unit of federation only (``sep(empty, A)`` is ``1 + A``).

A mapping graph holds view-based mappings between terms, each once; their
composites are arrows of Sch(G), whose sketch :mod:`dbcat.sketch` builds.
"""
from __future__ import annotations

from .syntax import CrossComponentQuery, RelAtom, Rule, Sentence, Tgd, Var
from .values import DbcatError, Record, qualified_names

EMPTY_NODE = "_empty"


class SchemaError(DbcatError):
    pass


def _check_atoms(atoms, arities: dict, owner: str, unknown: str, wrong: str) -> None:
    """Raise :class:`SchemaError` at the first relation atom of *atoms* that
    names no relation of *arities*, or one at another arity: the message
    *unknown* or *wrong*, formatted with *owner* and the relation's name."""
    for a in atoms:
        if isinstance(a, RelAtom) and arities.get(a.name) != len(a.args):
            raise SchemaError((wrong if a.name in arities else unknown).format(owner, a.name))


# ---------------------------------------------------------------------------
# schemas and terms


class Schema(Record):
    """An atomic schema: relation symbols with arities plus constraints."""

    name: str
    relsymbols: tuple
    constraints: Sentence = Sentence()

    def __post_init__(self):
        object.__setattr__(self, "relsymbols", tuple(sorted(self.relsymbols)))
        arities = dict(self.relsymbols)
        if len(arities) != len(self.relsymbols):
            raise SchemaError(f"duplicate relation symbols in schema {self.name}")
        if any("#" in rel for rel in arities):
            raise SchemaError(f"relation names of schema {self.name} may not contain '#'")
        atoms = [a for item in self.constraints.items for a in item.left + (item.right if isinstance(item, Tgd) else ())]
        unknown, wrong = "constraint of {} uses unknown relation {}", "constraint of {} uses {} at the wrong arity"
        _check_atoms(atoms, arities, self.name, unknown, wrong)


class SchemaTerm(Record):
    """A composed schema as its normal form: a sequence of groups, each a
    tuple of atomic schemas in leaf order that share one engine."""

    groups: tuple


def SAtom(schema: Schema) -> SchemaTerm:
    """The term of one atomic schema."""
    return SchemaTerm(((schema,),))


EMPTY_SCHEMA = SchemaTerm(((),))


def _groups(t) -> tuple:
    if isinstance(t, Schema):
        return ((t,),)
    if isinstance(t, SchemaTerm):
        return t.groups
    raise SchemaError(f"not a schema term: {t!r}")


def sep(a, b) -> SchemaTerm:
    """Separated composition: two independent engines, no cross queries."""
    return SchemaTerm(_groups(a) + _groups(b))


def fed(a, b) -> SchemaTerm:
    """Federated composition: one engine, queries may span both operands.
    Federation distributes over separation: each group of *a* joins each of *b*."""
    return SchemaTerm(tuple(ga + gb for ga in _groups(a) for gb in _groups(b)))


def schema_identity(a: SchemaTerm, b: SchemaTerm) -> bool:
    """Term equality in N[schemas]: the same groups up to order, empty ones
    included, each compared as the sorted (name, relation symbols) of its leaves."""
    left, right = (sorted(sorted((s.name, s.relsymbols) for s in g) for g in _groups(t)) for t in (a, b))
    return left == right


# ---------------------------------------------------------------------------
# term layout: qualified relation names, components, merged constraints


class Layout(Record):
    """A term's leaves in normal-form order, one ``(schema, component,
    ((base, qualified), ...))`` per atomic-schema occurrence."""

    leaves: tuple

    def relsymbols(self) -> dict:
        return {
            q: arity
            for s, _, names in self.leaves
            for (_, arity), (_, q) in zip(s.relsymbols, names)
        }

    def component_of(self, qualified: str) -> int:
        for _, comp, names in self.leaves:
            if any(q == qualified for _, q in names):
                return comp
        raise SchemaError(f"unknown relation {qualified!r}")

    def components(self) -> frozenset:
        return frozenset(comp for _, comp, names in self.leaves if names)


def term_layout(term: SchemaTerm) -> Layout:
    """Qualified relation symbols of a term.

    Groups that hold a relation get component ids 1..n (0 when there is only
    one), as in the sums, whose unit every other group interprets to.  The
    leaves' relation names, in normal-form order, are qualified by
    :func:`~dbcat.values.qualified_names`: a name occurring under several
    leaves becomes ``name#k``, k being the occurrence's rank.
    """
    groups = [c for c in term.groups if c]
    rels = [rel for comp in groups for s in comp for rel, _ in s.relsymbols]
    held = [any(s.relsymbols for s in comp) for comp in groups]
    qualified, leaves, comp_id, many = iter(qualified_names(rels)), [], 0, sum(held) > 1
    for comp, holds in zip(groups, held):
        comp_id += holds and many
        for s in comp:
            leaves.append((s, comp_id, tuple((rel, next(qualified)) for rel, _ in s.relsymbols)))
    return Layout(tuple(leaves))


def term_sentence(term: SchemaTerm) -> Sentence:
    """All leaf constraints, with atoms renamed to the term's qualified names."""
    items = []
    for s, _, names in term_layout(term).leaves:
        items.extend(s.constraints.rename_relations(dict(names)).items)
    return Sentence(tuple(items))


# ---------------------------------------------------------------------------
# mappings


class MappingPair(Record):
    """One ``lhs-query => rhs`` entry of a view-based mapping.

    The right side is either a bare atom (``rhs_bare``) naming a relation, or
    a full rule read as a query over the target.
    """

    lhs: Rule
    rhs: Rule
    rhs_name: str
    rhs_bare: bool


class SchemaMapping(Record):
    name: str
    source_name: str
    target_name: str
    source: SchemaTerm
    target: SchemaTerm
    pairs: tuple
    exact: bool = False

    def __post_init__(self):
        src, tgt = term_layout(self.source), term_layout(self.target)
        src_rels, tgt_rels = src.relsymbols(), tgt.relsymbols()
        wrong = "mapping {}: {} used at the wrong arity"
        for p in self.pairs:
            _check_atoms(p.lhs.body, src_rels, self.name, "mapping {}: {} not in source schema", wrong)
            comps = {
                src.component_of(a.name)
                for a in p.lhs.body
                if isinstance(a, RelAtom)
            }
            if len(comps) > 1:
                raise CrossComponentQuery(
                    f"mapping {self.name}: query spans separated source components"
                )
            if len(p.lhs.head_vars) != len(p.rhs.head_vars):
                raise SchemaError(
                    f"mapping {self.name}: the two sides have different widths"
                )
            # a bare right side may name a fresh relation, so its atom is checked only when declared
            right = [a for a in p.rhs.body if not p.rhs_bare or a.name in tgt_rels]
            _check_atoms(right, tgt_rels, self.name, "mapping {}: right-side query uses unknown relation {}", wrong)


def make_pair(lhs: Rule, rhs) -> MappingPair:
    """Build a pair from a lhs rule and either a RelAtom or a Rule right side."""
    if isinstance(rhs, RelAtom):
        vars_ = tuple(a for a in rhs.args if isinstance(a, Var))
        if len(vars_) != len(rhs.args) or len(set(vars_)) != len(vars_):
            raise SchemaError(
                "a bare right-side atom must use distinct variables; spell the "
                "query out as a rule instead"
            )
        if len(vars_) != len(lhs.head_vars):
            raise SchemaError("right-side atom width differs from the left head")
        as_rule = Rule(f"q_{rhs.name}", vars_, (rhs,))
        return MappingPair(lhs, as_rule, rhs.name, True)
    if isinstance(rhs, Rule):
        return MappingPair(lhs, rhs, rhs.head_name, False)
    raise SchemaError(f"not a valid mapping right side: {rhs!r}")


def branch(m1: SchemaMapping, m2: SchemaMapping) -> SchemaMapping:
    """Branching: two mappings out of one source, into the separated targets.

    Each side's target relations take their names in ``sep(t1, t2)``.  A
    relation side k adds is renamed ``name#k`` when the other side adds it
    too or the separated target holds a relation of that name, so no pair
    writes into a relation it did not add."""
    if term_layout(m1.source) != term_layout(m2.source):
        raise SchemaError("branching needs a common source")
    target = sep(m1.target, m2.target)
    layout = term_layout(target)
    # The leaves of sep(t1, t2) are those of t1 followed by those of t2; zip
    # stops at the end of t1's leaves without drawing on ``outer`` again.
    outer = iter(layout.leaves)
    renames = [
        {
            q: outer_q
            for (_, _, inner), (_, _, outer_names) in zip(term_layout(m.target).leaves, outer)
            for (_, q), (_, outer_q) in zip(inner, outer_names)
        }
        for m in (m1, m2)
    ]
    added = [{p.rhs_name for p in m.pairs}.difference(names) for m, names in zip((m1, m2), renames)]
    pairs = []
    for k, (m, names) in enumerate(zip((m1, m2), renames), 1):
        names.update((name, f"{name}#{k}") for name in added[k - 1] & (added[2 - k] | layout.relsymbols().keys()))
        for p in m.pairs:
            rhs = p.rhs.rename_relations(names)
            pairs.append(
                MappingPair(p.lhs, rhs, names.get(p.rhs_name, p.rhs_name), p.rhs_bare)
            )
    return SchemaMapping(
        f"{m1.name}+{m2.name}",
        m1.source_name,
        f"{m1.target_name}_sep_{m2.target_name}",
        m1.source,
        target,
        tuple(pairs),
        exact=m1.exact and m2.exact,
    )


# ---------------------------------------------------------------------------
# mapping graphs


class MappingGraph(Record):
    name: str
    nodes: tuple  # ((node_name, SchemaTerm), ...)
    mappings: tuple

    def __post_init__(self):
        names = dict(self.nodes)
        if len(names) != len(self.nodes):
            raise SchemaError("duplicate node names in graph")
        if EMPTY_NODE in names:
            raise SchemaError(f"graph {self.name}: node name {EMPTY_NODE!r} is reserved")
        for i, m in enumerate(self.mappings):
            if any(m.name == other.name for other in self.mappings[:i]):
                raise SchemaError(f"graph {self.name}: two mappings are named {m.name}")
            for end, term in ((m.source_name, m.source), (m.target_name, m.target)):
                if end not in names:
                    raise SchemaError(f"graph {self.name}: unknown node {end!r}")
                if names[end] != term:
                    raise SchemaError(
                        f"graph {self.name}: mapping {m.name} disagrees with node {end!r}"
                    )


def mapping_graph(name, nodes: dict, mappings) -> MappingGraph:
    return MappingGraph(name, tuple(sorted(nodes.items())), tuple(mappings))


def __getattr__(name):  # perfbench/tracing.py finds build_sketch here; dbcat.sketch loads on use
    if name != "build_sketch":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .sketch import build_sketch

    return build_sketch
