"""Database schemas, the separation/federation algebra, mapping graphs, sketches.

A schema term composes atomic schemas with two operators: separation keeps
the operands under independent query engines (queries may not mix them),
federation puts them under one.  Terms are compared through a normal form --
a multiset of federated groups -- under which both operators are associative
with the empty schema as unit and federation distributes over separation.

A mapping graph records view-based mappings between terms; its sketch adds,
per mapping pair, either a fresh reified relation on the target (when the
pair's right side names a symbol the target lacks) or a helper schema whose
single relation tags tuples with the two reserved sentinels and whose
dependency expresses the pair's containment.
"""
from __future__ import annotations

from functools import cached_property

from .constraints import Sentence, Tgd
from .core import SENTINEL_A, SENTINEL_B, DbcatError, Record, qualified_names
from .queries import Builtin, Const, CrossComponentQuery, RelAtom, Rule, Var, copy_rule

EMPTY_NODE = "_empty"


class SchemaError(DbcatError):
    pass


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
        for item in self.constraints.items:
            atoms = item.left + (item.right if isinstance(item, Tgd) else ())
            for a in atoms:
                if isinstance(a, RelAtom):
                    if a.name not in arities:
                        raise SchemaError(
                            f"constraint of {self.name} uses unknown relation {a.name}"
                        )
                    if arities[a.name] != len(a.args):
                        raise SchemaError(
                            f"constraint of {self.name} uses {a.name} at the wrong arity"
                        )

    def arity(self, rel: str) -> int:
        return dict(self.relsymbols)[rel]

    def sort_key(self):
        return (self.name, self.relsymbols)


class SAtom(Record):
    schema: Schema


class SepTerm(Record):
    left: "SchemaTerm"
    right: "SchemaTerm"


class FedTerm(Record):
    left: "SchemaTerm"
    right: "SchemaTerm"


class EmptyTerm(Record):
    pass


SchemaTerm = SAtom | SepTerm | FedTerm | EmptyTerm
EMPTY_SCHEMA = EmptyTerm()


def _coerce(t) -> SchemaTerm:
    return SAtom(t) if isinstance(t, Schema) else t


def sep(a, b) -> SepTerm:
    """Separated composition: two independent engines, no cross queries."""
    return SepTerm(_coerce(a), _coerce(b))


def fed(a, b) -> FedTerm:
    """Federated composition: one engine, queries may span both operands."""
    return FedTerm(_coerce(a), _coerce(b))


def nf_components(term: SchemaTerm) -> tuple:
    """Normal form: a sequence of groups, each group a sequence of atomic
    schemas sharing one engine.  Federation distributes over separation."""
    term = _coerce(term)
    if isinstance(term, SAtom):
        return ((term.schema,),)
    if isinstance(term, EmptyTerm):
        return ((),)
    if isinstance(term, SepTerm):
        return nf_components(term.left) + nf_components(term.right)
    if isinstance(term, FedTerm):
        return tuple(
            cl + cr
            for cl in nf_components(term.left)
            for cr in nf_components(term.right)
        )
    raise SchemaError(f"not a schema term: {term!r}")


def canonical_nf(term: SchemaTerm) -> tuple:
    groups = [
        tuple(sorted((s.sort_key() for s in comp)))
        for comp in nf_components(term)
        if comp
    ]
    return tuple(sorted(groups))


def schema_identity(a: SchemaTerm, b: SchemaTerm) -> bool:
    """Term equality in the two-monoid algebra, decided on normal forms."""
    return canonical_nf(_coerce(a)) == canonical_nf(_coerce(b))


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

    Groups that survive normalization get component ids 1..n (0 when there is
    only one).  The leaves' relation names, in normal-form order, are
    qualified by :func:`~dbcat.core.qualified_names`: a name occurring under
    several leaves becomes ``name#k``, k being the occurrence's rank.
    """
    groups = [c for c in nf_components(term) if c]
    rels = [rel for comp in groups for s in comp for rel, _ in s.relsymbols]
    qualified, leaves = iter(qualified_names(rels)), []
    for idx, comp in enumerate(groups):
        comp_id = 0 if len(groups) == 1 else idx + 1
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
    is_identity: bool = False

    def __post_init__(self):
        src, tgt = term_layout(self.source), term_layout(self.target)
        src_rels, tgt_rels = src.relsymbols(), tgt.relsymbols()
        for p in self.pairs:
            for a in p.lhs.body:
                if isinstance(a, RelAtom):
                    if a.name not in src_rels:
                        raise SchemaError(
                            f"mapping {self.name}: {a.name} not in source schema"
                        )
                    if src_rels[a.name] != len(a.args):
                        raise SchemaError(
                            f"mapping {self.name}: {a.name} used at the wrong arity"
                        )
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
            for a in p.rhs.body:
                if not isinstance(a, RelAtom):
                    continue
                if a.name in tgt_rels:
                    if tgt_rels[a.name] != len(a.args):
                        raise SchemaError(
                            f"mapping {self.name}: {a.name} used at the wrong arity"
                        )
                elif not p.rhs_bare:
                    raise SchemaError(
                        f"mapping {self.name}: right-side query uses unknown "
                        f"relation {a.name}"
                    )


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


def identity_mapping(name: str, node_name: str, term: SchemaTerm) -> SchemaMapping:
    pairs = []
    for rel, arity in sorted(term_layout(term).relsymbols().items()):
        lhs = copy_rule(rel, rel, arity)
        pairs.append(make_pair(lhs, RelAtom(rel, lhs.head_vars)))
    return SchemaMapping(
        name, node_name, node_name, term, term, tuple(pairs), is_identity=True
    )


class SeqEdge(Record):
    """A recorded sequential composition of mapping edges (right-to-left)."""

    chain: tuple

    @property
    def source(self):
        return self.chain[-1].source

    @property
    def target(self):
        return self.chain[0].target


def seq_compose(m2, m1) -> SeqEdge:
    """Record ``m2 after m1``; associative, identity edges normalize away."""
    left = m2.chain if isinstance(m2, SeqEdge) else (m2,)
    right = m1.chain if isinstance(m1, SeqEdge) else (m1,)
    if not schema_identity(right[0].target, left[-1].source):
        raise SchemaError("sequential composition endpoint mismatch")
    chain = tuple(m for m in left + right if not m.is_identity)
    if not chain:
        chain = (left + right)[:1]
    return SeqEdge(chain)


def branch(m1: SchemaMapping, m2: SchemaMapping) -> SchemaMapping:
    """Branching: two mappings out of one source, into the separated targets."""
    if not schema_identity(m1.source, m2.source):
        raise SchemaError("branching needs a common source")
    target = sep(m1.target, m2.target)
    # The leaves of sep(t1, t2) are those of t1 followed by those of t2; zip
    # stops at the end of t1's leaves without drawing on ``outer`` again.
    outer = iter(term_layout(target).leaves)
    pairs = []
    for m in (m1, m2):
        names = {
            q: outer_q
            for (_, _, inner), (_, _, outer_names) in zip(term_layout(m.target).leaves, outer)
            for (_, q), (_, outer_q) in zip(inner, outer_names)
        }
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
    seqs: tuple = ()
    branches: tuple = ()

    def __post_init__(self):
        names = dict(self.nodes)
        if len(names) != len(self.nodes):
            raise SchemaError("duplicate node names in graph")
        if EMPTY_NODE in names:
            raise SchemaError(f"graph {self.name}: node name {EMPTY_NODE!r} is reserved")
        for m in self.mappings:
            for end, term in ((m.source_name, m.source), (m.target_name, m.target)):
                if end not in names:
                    raise SchemaError(f"graph {self.name}: unknown node {end!r}")
                if names[end] != term:
                    raise SchemaError(
                        f"graph {self.name}: mapping {m.name} disagrees with node {end!r}"
                    )


def mapping_graph(name, nodes: dict, mappings, seqs=(), branches=()) -> MappingGraph:
    return MappingGraph(
        name, tuple(sorted(nodes.items())), tuple(mappings), tuple(seqs), tuple(branches)
    )


# ---------------------------------------------------------------------------
# sketches


class GammaAddition(Record):
    """A relation added to a target schema by sketch construction."""

    name: str
    arity: int
    defining: Rule | None  # query over the target's own relations
    from_lhs: Rule | None  # fallback: the mapping's left query over the source
    source_node: str
    component: int


class HelperSchema(Record):
    """Comparison schema for a pair whose right side is a genuine query."""

    name: str
    relation: str
    arity: int
    lhs: Rule
    rhs: Rule
    source_node: str
    target_node: str
    sentinel: Tgd


class SketchArrow(Record):
    name: str
    kind: str  # identity | mapping | sentence
    src: str
    tgt: str
    viewpairs: tuple = ()  # (lhs_rule, target_relation, mode)
    sentence: Sentence | None = None


class Sketch(Record):
    """The small category generated from a mapping graph.

    ``diagrams`` and ``cones`` stay empty: mapping systems never impose
    commutativity through diagram classes here.
    """

    graph_name: str
    nodes: tuple  # ((name, SchemaTerm | HelperSchema), ...)
    gamma: tuple  # ((node_name, GammaAddition), ...)
    helpers: tuple  # (HelperSchema, ...)
    arrows: tuple
    diagrams: tuple = ()
    cones: tuple = ()

    @cached_property
    def node_map(self) -> dict:
        """Node name -> schema term or helper schema, built on first use."""
        return dict(self.nodes)

    def identity_of(self, node: str) -> SketchArrow:
        for a in self.arrows:
            if a.kind == "identity" and a.src == node:
                return a
        raise SchemaError(f"no identity arrow for {node!r}")

    def node_names(self) -> tuple:
        return tuple(n for n, _ in self.nodes)

    def additions_for(self, node: str) -> tuple:
        return tuple(add for n, add in self.gamma if n == node)

    def arrows_between(self, src: str, tgt: str) -> tuple:
        return tuple(
            a for a in self.arrows if a.kind != "identity" and a.src == src and a.tgt == tgt
        )


def _sentinel_tgd(relation: str, width: int) -> Tgd:
    xs = tuple(Var(f"X{i}") for i in range(width))
    y, z = Var("Y"), Var("Z")
    left = (RelAtom(relation, xs + (y,)), Builtin("=", y, Const(SENTINEL_A)))
    right = (RelAtom(relation, xs + (z,)), Builtin("=", z, Const(SENTINEL_B)))
    return Tgd(tuple(v.name for v in xs), left, right)


def build_sketch(graph: MappingGraph) -> Sketch:
    """Expand a mapping graph into its sketch.

    Every node gets an identity and a constraint arrow into the empty schema.
    A mapping pair whose right side names a symbol absent from the target
    reifies it: the symbol joins the target and the mapping contributes to a
    single arrow between the two nodes.  A pair whose right side queries
    existing target relations gets a helper node with a sentinel-tagged
    relation, two feeding arrows, and a dependency arrow expressing that
    every left tuple is matched on the right.
    """
    node_terms = dict(graph.nodes)
    gamma: list = []
    gamma_names: dict = {}
    helpers: list = []
    mapping_arrows: dict = {}

    def add_gamma(node: str, addition: GammaAddition):
        prev = gamma_names.get((node, addition.name))
        if prev is not None:
            if prev != addition:
                raise SchemaError(
                    f"conflicting definitions for added relation {addition.name!r} on {node}"
                )
            return
        gamma_names[(node, addition.name)] = addition
        gamma.append((node, addition))

    for m in graph.mappings:
        tgt_layout = term_layout(m.target)
        tgt_rels = tgt_layout.relsymbols()
        for i, p in enumerate(m.pairs):
            mode = "exact" if m.exact else "inclusion"
            if p.rhs_name not in tgt_rels:
                # reified relation on the target
                if p.rhs_bare:
                    defining, from_lhs = None, p.lhs
                    comps = tgt_layout.components()
                    if len(comps) > 1:
                        raise SchemaError(
                            f"mapping {m.name}: cannot place {p.rhs_name!r} in a "
                            "separated target without a defining query"
                        )
                    component = next(iter(comps), 0)
                else:
                    defining, from_lhs = p.rhs, None
                    comps = {
                        tgt_layout.component_of(a.name)
                        for a in p.rhs.body
                        if isinstance(a, RelAtom)
                    }
                    if len(comps) > 1:
                        raise CrossComponentQuery(
                            f"mapping {m.name}: defining query spans components"
                        )
                    component = next(iter(comps), 0)
                add_gamma(
                    m.target_name,
                    GammaAddition(
                        p.rhs_name,
                        len(p.lhs.head_vars),
                        defining,
                        from_lhs,
                        m.source_name,
                        component,
                    ),
                )
                key = (m.source_name, m.target_name)
                mapping_arrows.setdefault(key, []).append((p.lhs, p.rhs_name, mode))
            else:
                helper = HelperSchema(
                    name=f"C_{m.name}_{i}",
                    relation=f"c_{m.name}_{i}",
                    arity=len(p.lhs.head_vars) + 1,
                    lhs=p.lhs,
                    rhs=p.rhs,
                    source_node=m.source_name,
                    target_node=m.target_name,
                    sentinel=_sentinel_tgd(f"c_{m.name}_{i}", len(p.lhs.head_vars)),
                )
                helpers.append(helper)
                mapping_arrows.setdefault((m.source_name, helper.name), []).append(
                    (p.lhs, helper.relation, "inclusion")
                )
                mapping_arrows.setdefault((m.target_name, helper.name), []).append(
                    (p.rhs, helper.relation, "inclusion")
                )

    nodes: list = list(sorted(node_terms.items()))
    nodes.extend((h.name, h) for h in helpers)
    nodes.append((EMPTY_NODE, EMPTY_SCHEMA))

    arrows: list = []
    for name, _ in nodes:
        arrows.append(SketchArrow(f"id_{name}", "identity", name, name))
    for node, term in node_terms.items():
        arrows.append(
            SketchArrow(
                f"phi_{node}", "sentence", node, EMPTY_NODE, sentence=term_sentence(term)
            )
        )
    for h in helpers:
        arrows.append(
            SketchArrow(
                f"phi_{h.name}",
                "sentence",
                h.name,
                EMPTY_NODE,
                sentence=Sentence((h.sentinel,)),
            )
        )
    for (src, tgt), pairs in sorted(mapping_arrows.items()):
        arrows.append(
            SketchArrow(f"map_{src}__{tgt}", "mapping", src, tgt, viewpairs=tuple(pairs))
        )

    sk = Sketch(
        graph.name,
        tuple(nodes),
        tuple(gamma),
        tuple(helpers),
        tuple(arrows),
    )
    _check_one_arrow(sk)
    return sk


def _check_one_arrow(sk: Sketch):
    seen = set()
    for a in sk.arrows:
        if a.kind == "identity":
            continue
        key = (a.src, a.tgt)
        if key in seen:
            raise SchemaError(f"two arrows between {key[0]} and {key[1]}")
        seen.add(key)
