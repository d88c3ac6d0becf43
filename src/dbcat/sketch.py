"""The sketch Sch(G) of a mapping graph G: per mapping pair, a fresh reified
relation on the target or a helper schema whose sentinel-tagged relation
expresses the pair's containment (see :func:`build_sketch`)."""
from __future__ import annotations

from functools import cached_property

from .core import SENTINEL_A, SENTINEL_B, Record
from .schemas import EMPTY_NODE, EMPTY_SCHEMA, MappingGraph, SchemaError, term_layout, term_sentence
from .syntax import Builtin, Const, CrossComponentQuery, RelAtom, Rule, Sentence, Tgd, Var


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

    sk = Sketch(tuple(nodes), tuple(gamma), tuple(helpers), tuple(arrows))
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
