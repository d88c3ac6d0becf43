"""Interpretations of schema terms and functorial model checking.

An interpretation assigns a concrete instance to every atomic schema.  It
extends to terms (separation becomes disjoint union, federation a shared
component) and, through a sketch, to arrows: mapping arrows become view-based
morphisms, satisfied constraint arrows become the unique morphism into the
bottom instance, and an unsatisfied constraint on a non-empty instance leaves
only a stand-in loop on the bottom object whose endpoints cannot fit the
sketch -- which is exactly how non-models fail the functor check.

Relations that sketch construction added to a target schema are not assigned
by the interpretation; they are materialized from their defining queries
(or, lacking one, from the mapped view itself), as are the helper relations
with their sentinel tags.
"""
from __future__ import annotations


from .category import (
    Morphism,
    ModeViolation,
    ViewMap,
    compose,
    empty_morphism,
    equivalent,
    identity,
    make_atomic,
)
from .constraints import check_tgd, find_sentence_violation
from .core import (
    SENTINEL_A,
    SENTINEL_B,
    DbcatError,
    Instance,
    Record,
    Relation,
    Sentinel,
    bottom_instance,
    is_empty_isomorphic,
)
from .powerview import DEFAULT_CAP, instances_isomorphic
from .queries import eval_rule
from .schemas import MappingGraph, SchemaTerm, Sketch, SketchArrow, term_layout, term_sentence


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
            names = [r.name for r in inst.relations]
            if sorted(rels) != sorted(names):
                raise InterpretationError(
                    f"instance for {name!r} has relations {sorted(names)}, "
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
    """Extend the assignment to a composed term.

    Separated groups become distinct components; every schema inside one
    federated group lands in the same component.  A term without leaves,
    such as the empty term, maps to the bottom instance.
    """
    relations, partition = [], {}
    for schema, comp, names in term_layout(term).leaves:
        renames = dict(names)
        for r in alpha.instance_for(schema.name).relations:
            if r.name not in renames:
                raise InterpretationError(f"schema {schema.name!r} has no relation {r.name!r}")
            relations.append(Relation(renames[r.name], r.arity, r.tuples, r.attributes))
            partition[renames[r.name]] = comp
    if relations:
        return Instance(tuple(relations), tuple(partition.items()))
    return bottom_instance()


def gamma_instance(alpha: Interpretation, sketch: Sketch, node: str) -> Instance:
    """The node's instance extended with the sketch's added relations."""
    term = sketch.node_map[node]
    base = interpret_term(alpha, term)
    additions = sketch.additions_for(node)
    if not additions:
        return base
    relations = list(base.relations)
    partition = dict(base.partition)
    for add in additions:
        if add.defining is not None:
            ext = eval_rule(add.defining, base).tuples
        else:
            src_term = sketch.node_map[add.source_node]
            ext = eval_rule(add.from_lhs, interpret_term(alpha, src_term)).tuples
        relations.append(Relation(add.name, add.arity, ext))
        partition[add.name] = add.component
    return Instance(tuple(relations), tuple(partition.items()))


def helper_instance(alpha: Interpretation, sketch: Sketch, helper) -> Instance:
    """Materialize a helper node: left tuples tagged A, right tuples tagged B."""
    src = interpret_term(alpha, sketch.node_map[helper.source_node])
    tgt = interpret_term(alpha, sketch.node_map[helper.target_node])
    left = eval_rule(helper.lhs, src).tuples
    right = eval_rule(helper.rhs, tgt).tuples
    tuples = frozenset(t + (SENTINEL_A,) for t in left) | frozenset(
        t + (SENTINEL_B,) for t in right
    )
    return Instance(
        (Relation(helper.relation, helper.arity, tuples),),
        ((helper.relation, 0),),
    )


def node_instance(alpha: Interpretation, sketch: Sketch, node: str) -> Instance:
    """Instance of any sketch node, including helpers and the empty node."""
    obj = sketch.node_map[node]
    if hasattr(obj, "sentinel"):  # a helper schema
        return helper_instance(alpha, sketch, obj)
    return gamma_instance(alpha, sketch, node)


# ---------------------------------------------------------------------------
# model checking


class ModelReport(Record):
    schema_checks: tuple  # (node, ok, detail)
    arrow_checks: tuple  # (arrow name, ok, detail)

    @property
    def is_model(self) -> bool:
        return all(ok for _, ok, _ in self.schema_checks + self.arrow_checks)

    def lines(self) -> tuple:
        out = [("schema " + n, ok, d) for n, ok, d in self.schema_checks]
        out += [("arrow " + n, ok, d) for n, ok, d in self.arrow_checks]
        return tuple(sorted(out))


def _viewmaps_of(arrow: SketchArrow) -> tuple:
    return tuple(ViewMap(lhs, target, mode) for lhs, target, mode in arrow.viewpairs)


def check_model(alpha: Interpretation, graph: MappingGraph, sketch: Sketch) -> ModelReport:
    """Verdicts for every constraint and every mapping arrow of the sketch.

    An instance with only empty relations counts as a model of its schema no
    matter what the constraints say, mirroring how such instances collapse
    onto the bottom object.
    """
    schema_checks = []
    for node, term in graph.nodes:
        inst = interpret_term(alpha, term)
        witness = find_sentence_violation(term_sentence(term), inst)
        ok = witness is None or is_empty_isomorphic(inst)
        schema_checks.append((node, ok, witness if not ok else "satisfied"))

    arrow_checks = []
    for arrow in sketch.arrows:
        if arrow.kind != "mapping":
            continue
        src = node_instance(alpha, sketch, arrow.src)
        tgt = node_instance(alpha, sketch, arrow.tgt)
        try:
            make_atomic(_viewmaps_of(arrow), src, tgt)
            arrow_checks.append((arrow.name, True, "holds"))
        except ModeViolation as exc:
            arrow_checks.append((arrow.name, False, str(exc)))
    for helper in sketch.helpers:
        inst = helper_instance(alpha, sketch, helper)
        ok = check_tgd(helper.sentinel, inst)
        arrow_checks.append(
            (f"phi_{helper.name}", ok, "holds" if ok else "sentinel dependency fails")
        )
    return ModelReport(tuple(sorted(schema_checks)), tuple(sorted(arrow_checks)))


# ---------------------------------------------------------------------------
# arrows and the functor check


class ArrowImage(Record):
    morphism: Morphism | None
    ok: bool
    note: str = ""


def interpret_arrow(
    alpha: Interpretation, sketch: Sketch, arrow: SketchArrow
) -> ArrowImage:
    """Translate one sketch arrow to an instance-level morphism.

    Constraint arrows of satisfied (or empty) instances become the unique
    morphism to the bottom instance.  An unsatisfied constraint on a
    non-empty instance yields the bottom identity as a stand-in, flagged as
    unusable.  Mapping arrows whose mode check fails are flagged likewise.
    """
    if arrow.kind == "identity":
        return ArrowImage(identity(node_instance(alpha, sketch, arrow.src)), True)
    if arrow.kind == "sentence":
        inst = _sentence_subject(alpha, sketch, arrow.src)
        violation = find_sentence_violation(arrow.sentence, inst)
        if violation is None or is_empty_isomorphic(inst):
            return ArrowImage(
                empty_morphism(node_instance(alpha, sketch, arrow.src), bottom_instance()),
                True,
            )
        bot = bottom_instance()
        return ArrowImage(identity(bot), False, violation)
    src = node_instance(alpha, sketch, arrow.src)
    tgt = node_instance(alpha, sketch, arrow.tgt)
    try:
        return ArrowImage(make_atomic(_viewmaps_of(arrow), src, tgt), True)
    except ModeViolation as exc:
        return ArrowImage(None, False, str(exc))


def _sentence_subject(alpha: Interpretation, sketch: Sketch, node: str) -> Instance:
    """Instance a constraint arrow is judged on: helpers use their materialized
    relation, schema nodes their plain (non-enlarged) interpretation."""
    obj = sketch.node_map[node]
    if hasattr(obj, "sentinel"):
        return helper_instance(alpha, sketch, obj)
    return interpret_term(alpha, obj)


class FunctorReport(Record):
    checks: tuple  # (check id, ok, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def lines(self) -> tuple:
        return tuple(sorted(self.checks))


def check_functor(
    alpha: Interpretation,
    sketch: Sketch,
    depth: int | None = None,
    max_arity: int = 2,
    cap: int = DEFAULT_CAP,
) -> FunctorReport:
    """Does the interpretation extend to a functor out of the sketch?

    Checks that identities land on identities, that every arrow has a usable
    image (constraint arrows must be satisfied unless their instance is
    empty), and that composable pairs compose -- agreeing with the direct
    arrow whenever the sketch holds one.
    """
    checks = []
    images: dict = {}
    for arrow in sketch.arrows:
        if arrow.kind == "identity":
            continue
        images[arrow.name] = interpret_arrow(alpha, sketch, arrow)

    for node, _ in sketch.nodes:
        ida = sketch.identity_of(node)
        image = interpret_arrow(alpha, sketch, ida)
        inst = node_instance(alpha, sketch, node)
        ok = image.ok and image.morphism.source == inst and image.morphism.target == inst
        checks.append((f"identity {node}", ok, "maps to the identity arrow"))

    for arrow in sketch.arrows:
        if arrow.kind == "identity":
            continue
        image = images[arrow.name]
        if arrow.kind == "sentence":
            checks.append(
                (
                    f"sentence {arrow.name}",
                    image.ok,
                    image.note or "maps into the bottom object",
                )
            )
        else:
            checks.append(
                (f"mapping {arrow.name}", image.ok, image.note or "interpretable")
            )

    direct: dict = {}
    for arrow in sketch.arrows:
        if arrow.kind != "identity":
            direct[(arrow.src, arrow.tgt)] = arrow
    for f in sketch.arrows:
        for g in sketch.arrows:
            if f.kind == "identity" or g.kind == "identity":
                continue
            if f.tgt != g.src or (f.src, f.tgt) == (g.src, g.tgt):
                continue
            fi, gi = images[f.name], images[g.name]
            cid = f"compose {g.name}.{f.name}"
            if not (fi.ok and gi.ok):
                checks.append((cid, False, "a factor has no usable image"))
                continue
            try:
                composed = compose(gi.morphism, fi.morphism)
            except DbcatError as exc:
                checks.append((cid, False, f"images do not compose: {exc}"))
                continue
            h = direct.get((f.src, g.tgt))
            if h is None:
                checks.append((cid, True, "free composite"))
                continue
            hi = images[h.name]
            if not hi.ok:
                checks.append((cid, False, f"direct arrow {h.name} has no usable image"))
                continue
            ok = equivalent(hi.morphism, composed, depth, max_arity, cap)
            checks.append(
                (cid, ok, f"against direct arrow {h.name}")
            )
    return FunctorReport(tuple(sorted(checks)))


def check_gamma_iso(
    alpha: Interpretation,
    sketch: Sketch,
    node: str,
    depth: int | None = None,
    max_arity: int = 2,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Is the node's plain instance isomorphic to its enlarged one?

    The added relations are materialized from their defining queries, so for
    any model they contribute no views beyond the closure of the original.
    """
    term = sketch.node_map[node]
    plain = interpret_term(alpha, term)
    enlarged = gamma_instance(alpha, sketch, node)
    m = max(max_arity, plain.max_arity(), enlarged.max_arity())
    return instances_isomorphic(plain, enlarged, depth, m, cap)
