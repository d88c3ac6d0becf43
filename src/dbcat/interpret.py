"""Interpretations of schema terms and functorial model checking.

An interpretation assigns a concrete instance to every atomic schema.  It
extends to terms (separation becomes disjoint union, federation a shared
component) and, through a sketch, to arrows: mapping arrows become view-based
morphisms, satisfied constraint arrows become the unique morphism into the
bottom instance, and an unsatisfied constraint on a non-empty instance leaves
only a stand-in loop on the bottom object, flagged as unusable.
``_Nodes.image`` is the one place a sketch arrow gets its image.  The sketch
holds no diagrams, so the model and functor checks read their verdicts off
those images and the sketch's shape, and close no instance.

Relations that sketch construction added to a target schema are not assigned
by the interpretation; they are materialized from their defining queries
(or, lacking one, from the mapped view itself), as are the helper relations
with their sentinel tags.
"""
from __future__ import annotations

from functools import reduce

from .category import Morphism, ModeViolation, ViewMap, empty_morphism, identity, make_atomic
from .constraints import find_sentence_violation
from .core import (
    SENTINEL_A,
    SENTINEL_B,
    DbcatError,
    Instance,
    Record,
    Relation,
    Sentinel,
    Verdicts,
    bottom_instance,
    disjoint_union,
    federate,
    is_empty_isomorphic,
)
from .powerview import instances_isomorphic
from .rules import eval_rule
from .schemas import EMPTY_NODE, SchemaTerm
from .sketch import Sketch, SketchArrow


class InterpretationError(DbcatError):
    pass


class Interpretation(Record):
    """Assignment of one unpartitioned instance per atomic schema."""

    assignment: tuple  # ((schema_name, Instance), ...)

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(sorted(self.assignment)))

    def instance_for(self, schema_name: str) -> Instance:
        for name, inst in self.assignment:
            if name == schema_name:
                return inst
        raise InterpretationError(f"no instance assigned to schema {schema_name!r}")


def interpretation(assign: dict, schemas: dict | None = None) -> Interpretation:
    """Build and validate an interpretation from ``schema name -> instance``."""
    if schemas:
        for name, inst in assign.items():
            schema = schemas.get(name)
            if schema is None:
                raise InterpretationError(f"unknown schema {name!r}")
            rels = dict(schema.relsymbols)
            if sorted(rels) != sorted(inst.names):
                raise InterpretationError(
                    f"instance for {name!r} has relations {sorted(inst.names)}, "
                    f"schema declares {sorted(rels)}"
                )
            for r in inst.relations:
                if r.arity != rels[r.name]:
                    raise InterpretationError(
                        f"instance for {name!r}: relation {r.name} has arity "
                        f"{r.arity}, schema says {rels[r.name]}"
                    )
    for name, inst in assign.items():
        for r in inst.relations:
            for t in r.tuples:
                if any(isinstance(v, Sentinel) for v in t):
                    raise InterpretationError(
                        f"instance for {name!r} uses a reserved sentinel value"
                    )
    return Interpretation(tuple(assign.items()))


def interpret_term(alpha: Interpretation, term: SchemaTerm) -> Instance:
    """Extend the assignment to a composed term: the fold of the sums over its
    normal form, from their unit, the bottom instance.  Each group's leaf
    instances are federated and the groups disjointly united, so separation
    becomes disjoint union and federation a shared component by construction.
    """
    inst = bottom_instance()
    for group in term.groups:
        leaves = [alpha.instance_for(s.name) for s in group]
        for s, leaf in zip(group, leaves):
            extra = set(leaf.names) - set(dict(s.relsymbols))
            if extra:
                raise InterpretationError(
                    f"schema {s.name!r} has no relation {min(extra)!r}"
                )
        inst = disjoint_union(inst, reduce(federate, leaves, bottom_instance()))
    return inst


def gamma_instance(alpha: Interpretation, sketch: Sketch, node: str) -> Instance:
    """The node's instance extended with the sketch's added relations."""
    return _Nodes(alpha, sketch)[node, False]


def helper_instance(alpha: Interpretation, sketch: Sketch, helper) -> Instance:
    """Materialize a helper node: left tuples tagged A, right tuples tagged B."""
    return _Nodes(alpha, sketch).helper(helper)


class _Nodes(dict):
    """The instance of each sketch node for one check, helpers and the empty
    node included, built on first use and kept, so a check materializes each
    node once.  Under ``(node, True)`` is the plain instance: a schema node's
    interpreted term, or a helper's materialized relation; under
    ``(node, False)`` a schema node is enlarged by the relations the sketch
    added to it."""

    def __init__(self, alpha: Interpretation, sketch: Sketch):
        self.alpha, self.sketch = alpha, sketch

    def __missing__(self, key) -> Instance:
        node, plain = key
        if plain:
            obj = self.sketch.node_map[node]
            inst = self.helper(obj) if hasattr(obj, "sentinel") else interpret_term(self.alpha, obj)
        else:
            inst = base = self[node, True]
            additions = self.sketch.additions_for(node)
            if additions:
                relations, partition = list(base.relations), dict(base.partition)
                for add in additions:
                    answer = eval_rule(add.query, self[add.over, True])
                    relations.append(Relation(add.name, add.arity, answer.tuples))
                    partition[add.name] = add.component
                inst = Instance(tuple(relations), tuple(partition.items()))
        self[key] = inst
        return inst

    def helper(self, helper) -> Instance:
        left = eval_rule(helper.lhs, self[helper.source_node, True]).tuples
        right = eval_rule(helper.rhs, self[helper.target_node, True]).tuples
        tuples = frozenset(t + (SENTINEL_A,) for t in left) | frozenset(t + (SENTINEL_B,) for t in right)
        return Instance((Relation(helper.relation, helper.arity, tuples),), ((helper.relation, 0),))

    def image(self, arrow: SketchArrow) -> "ArrowImage":
        src = self[arrow.src, False]
        if arrow.kind == "identity":
            return ArrowImage(identity(src), True)
        if arrow.kind == "sentence":
            subject = self[arrow.src, True]
            violation = find_sentence_violation(arrow.sentence, subject)
            if violation is None or is_empty_isomorphic(subject):
                return ArrowImage(empty_morphism(src, bottom_instance()), True)
            return ArrowImage(identity(bottom_instance()), False, violation)
        viewmaps = tuple(ViewMap(lhs, target, mode) for lhs, target, mode in arrow.viewpairs)
        try:
            return ArrowImage(make_atomic(viewmaps, src, self[arrow.tgt, False]), True)
        except ModeViolation as exc:
            return ArrowImage(None, False, str(exc))


# ---------------------------------------------------------------------------
# arrows, the model check and the functor check


class ArrowImage(Record):
    morphism: Morphism | None
    ok: bool
    note: str = ""


def interpret_arrow(alpha: Interpretation, sketch: Sketch, arrow: SketchArrow) -> ArrowImage:
    """Translate one sketch arrow to an instance-level morphism.

    Constraint arrows are judged on the node's plain instance (a helper's
    materialized relation).  Satisfied (or empty) ones become the unique
    morphism to the bottom instance.  An unsatisfied constraint on a
    non-empty instance yields the bottom identity as a stand-in, flagged as
    unusable.  Mapping arrows whose mode check fails are flagged likewise.
    """
    return _Nodes(alpha, sketch).image(arrow)


def _arrow_images(alpha: Interpretation, sketch: Sketch) -> list:
    """(arrow, image) for every arrow of the sketch but the identities, in
    its order, from one :class:`_Nodes`."""
    nodes = _Nodes(alpha, sketch)
    return [(arrow, nodes.image(arrow)) for arrow in sketch.arrows if arrow.kind != "identity"]


def check_model(alpha: Interpretation, sketch: Sketch) -> Verdicts:
    """Verdicts for every constraint and every mapping arrow of the sketch,
    each read off the arrow's image.

    An instance with only empty relations counts as a model of its schema no
    matter what the constraints say, mirroring how such instances collapse
    onto the bottom object.
    """
    checks = []
    for arrow, image in _arrow_images(alpha, sketch):
        if arrow.kind == "mapping":
            checks.append((f"arrow {arrow.name}", image.ok, image.note or "holds"))
        elif hasattr(sketch.node_map[arrow.src], "sentinel"):  # a helper's sentinel dependency
            detail = "holds" if image.ok else "sentinel dependency fails"
            checks.append((f"arrow {arrow.name}", image.ok, detail))
        else:
            checks.append((f"schema {arrow.src}", image.ok, image.note or "satisfied"))
    return Verdicts(tuple(sorted(checks)))


def check_functor(alpha: Interpretation, sketch: Sketch) -> Verdicts:
    """Does the interpretation extend to a functor out of the sketch?

    Sch(G) holds no diagrams, so the functor is fixed by the arrow images,
    and each line is read off them and the sketch's shape; no bound is read.
    An identity maps to its node's identity by construction; a mapping or
    sentence line is its image's verdict.  A composite fails when a factor
    has no usable image.  One into the empty node meets the direct arrow
    ``phi_X`` of its source, and agrees with it, since every arrow into the
    terminal bottom instance carries only the empty view: it fails only when
    ``phi_X`` has no usable image.  Any other composite is free.
    """
    images = _arrow_images(alpha, sketch)
    phi = {f.src: (f, fi) for f, fi in images if f.tgt == EMPTY_NODE}
    checks = [(f"identity {node}", True, "maps to the identity arrow") for node, _ in sketch.nodes]
    for f, fi in images:
        fine = "maps into the bottom object" if f.kind == "sentence" else "interpretable"
        checks.append((f"{f.kind} {f.name}", fi.ok, fi.note or fine))
        for g, gi in images:
            if f.tgt != g.src or f is g:  # a loop does not compose with itself here
                continue
            cid = f"compose {g.name}.{f.name}"
            if not (fi.ok and gi.ok):
                checks.append((cid, False, "a factor has no usable image"))
            elif g.tgt != EMPTY_NODE:
                checks.append((cid, True, "free composite"))
            else:
                h, hi = phi[f.src]
                detail = f"against direct arrow {h.name}" if hi.ok else f"direct arrow {h.name} has no usable image"
                checks.append((cid, hi.ok, detail))
    return Verdicts(tuple(sorted(checks)))


def check_gamma_iso(alpha: Interpretation, sketch: Sketch) -> Verdicts:
    """A ``gamma-iso <node>`` line per graph node: is its plain instance
    isomorphic to its enlarged one?  Closure signatures decide it at
    fixpoint, so no bound is read.

    An addition by a defining query is a view of the node, so it adds no view
    to a model's closure; a bare fresh reification, read over the source, may.
    """
    nodes, checks = _Nodes(alpha, sketch), []
    for node, obj in sketch.nodes:
        if node != EMPTY_NODE and not hasattr(obj, "sentinel"):
            ok = instances_isomorphic(nodes[node, True], nodes[node, False])
            detail = "enlargement adds no views" if ok else "enlargement changes the view closure"
            checks.append((f"gamma-iso {node}", ok, detail))
    return Verdicts(tuple(checks))
