"""The sketch Sch(G) of a mapping graph G: per mapping pair, a fresh reified
relation on the target or a helper schema whose sentinel-tagged relation
expresses the pair's containment (see :func:`build_sketch`)."""
from __future__ import annotations

from functools import cached_property

from .schemas import EMPTY_NODE, EMPTY_SCHEMA, MappingGraph, SchemaError, term_layout, term_sentence
from .syntax import Builtin, Const, CrossComponentQuery, RelAtom, Rule, Sentence, Tgd, Var
from .values import SENTINEL_A, SENTINEL_B, Record


class GammaAddition(Record):
    """A relation added to a target schema by sketch construction: the answer
    of ``query`` over the plain instance of the node ``over``, which is the
    target for a defining query and the source for a mapped view."""

    name: str
    arity: int
    query: Rule
    over: str
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
    """The small category generated from a mapping graph.  It holds no
    diagrams or cones: mapping systems impose no commutativity here."""

    nodes: tuple  # ((name, SchemaTerm | HelperSchema), ...): the graph's, the helpers, the empty node
    gamma: tuple  # ((node_name, GammaAddition), ...)
    arrows: tuple

    @cached_property
    def node_map(self) -> dict:
        """Node name -> schema term or helper schema, built on first use."""
        return dict(self.nodes)

    def additions_for(self, node: str) -> tuple:
        return tuple(add for n, add in self.gamma if n == node)


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
    every left tuple is matched on the right.  Mapping names are unique in
    a graph, so the helpers' names are, and no two arrows share their ends.
    """
    node_terms = dict(graph.nodes)
    gamma: dict = {}  # (node, relation) -> GammaAddition
    helpers: list = []
    mapping_arrows: dict = {}

    for m in graph.mappings:
        tgt_layout = term_layout(m.target)
        tgt_rels = tgt_layout.relsymbols()
        for i, p in enumerate(m.pairs):
            mode = "exact" if m.exact else "inclusion"
            if p.rhs_name not in tgt_rels:
                # reified relation on the target: its defining query over the
                # target, or else the mapped view over the source
                if p.rhs_bare:
                    query, over = p.lhs, m.source_name
                    comps = tgt_layout.components()
                    if len(comps) > 1:
                        raise SchemaError(
                            f"mapping {m.name}: cannot place {p.rhs_name!r} in a "
                            "separated target without a defining query"
                        )
                else:
                    query, over = p.rhs, m.target_name
                    comps = {
                        tgt_layout.component_of(a.name)
                        for a in p.rhs.body
                        if isinstance(a, RelAtom)
                    }
                    if len(comps) > 1:
                        raise CrossComponentQuery(
                            f"mapping {m.name}: defining query spans components"
                        )
                addition = GammaAddition(
                    p.rhs_name, len(p.lhs.head_vars), query, over, next(iter(comps), 0)
                )
                if gamma.setdefault((m.target_name, p.rhs_name), addition) != addition:
                    raise SchemaError(
                        f"conflicting definitions for added relation {p.rhs_name!r} "
                        f"on {m.target_name}"
                    )
                key = (m.source_name, m.target_name)
                mapping_arrows.setdefault(key, []).append((p.lhs, p.rhs_name, mode))
            else:
                hname = f"C_{m.name}_{i}"
                if hname in node_terms:
                    raise SchemaError(
                        f"graph {graph.name}: helper {hname} of mapping {m.name} "
                        f"clashes with the graph node {hname}"
                    )
                helper = HelperSchema(
                    name=hname,
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

    arrows = [SketchArrow(f"id_{name}", "identity", name, name) for name, _ in nodes]
    for name, obj in nodes[:-1]:  # each node but the empty one has its constraint arrow
        if isinstance(obj, HelperSchema):
            sentence = Sentence((obj.sentinel,))
        else:
            sentence = term_sentence(obj)
        arrows.append(
            SketchArrow(f"phi_{name}", "sentence", name, EMPTY_NODE, sentence=sentence)
        )
    for (src, tgt), pairs in sorted(mapping_arrows.items()):
        arrows.append(
            SketchArrow(f"map_{src}__{tgt}", "mapping", src, tgt, viewpairs=tuple(pairs))
        )

    additions = tuple((node, add) for (node, _), add in gamma.items())
    return Sketch(tuple(nodes), additions, tuple(arrows))
