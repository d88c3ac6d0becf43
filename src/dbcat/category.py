"""Morphisms between instances: view mappings, composition, sums, and flux.

A morphism is held as the parts it was put together from: the view mappings
of an atomic arrow (each a conjunctive query plus a target relation), the two
factors of a composite, or the two arrows of a sum.  Its trees of view
mappings are read off those parts when asked: leaves name source relations,
and the inputs of a composite that its earlier factor does not supply are
hidden elements, which make the result only a partial arrow.

The meaning of a morphism is its information flux: the closure of the view
extensions it actually carries across.  Fluxes are kept per channel, where a
channel is a pair (source component, target component); composition
intersects channels that meet in the shared middle object, and coproducts
take tagged unions of channels.  Two morphisms are equivalent when their
fluxes agree up to component renaming.
"""
from __future__ import annotations

from functools import cached_property

from .core import (
    DEFAULT_CAP,
    DEFAULT_DEPTH,
    DEFAULT_MAX_ARITY,
    Verdicts,
    disjoint_union,
    disjoint_union_with_maps,
    format_closure,
    format_extension,
    is_empty_isomorphic,
    tuple_key,
)
from .powerview import (
    EMPTY_EXT,
    canonical_form,
    close_seed_sets,
    instances_isomorphic,
    spend,
    view_closure,
)
from .rules import eval_rule
from .syntax import QueryArityError, Rule, copy_rule
from .values import DbcatError, Instance, Record


class ModeViolation(DbcatError):
    """The view produced by a mapping is not supported by its target relation."""


# ---------------------------------------------------------------------------
# view maps and trees


class ViewMap(Record):
    """One component of a mapping: a query over the source feeding a target
    relation, under a soundness (`inclusion`) or exactness (`exact`) promise."""

    query: Rule
    target: str
    mode: str = "inclusion"

    def __post_init__(self):
        if self.mode not in ("inclusion", "exact"):
            raise DbcatError(f"unknown mode {self.mode!r}")

    @property
    def sources(self) -> frozenset:
        return self.query.relation_names()


class Tree(Record):
    """What one tree of view maps shows: the relation its root writes, the
    source relations its open leaves read, and its hidden leaves, the inputs
    that no earlier arrow supplies, as (relation, middle instance) pairs."""

    target: str
    opens: frozenset
    hidden: frozenset = frozenset()


# ---------------------------------------------------------------------------
# morphisms


class Morphism(Record):
    """An arrow between two instances, held as the parts it was put together from.

    ``parts`` drives the structural flux computation.  It has one of three shapes:

    - ``("atomic", viewmaps)``: view maps over ``source`` (``()`` for the
      empty arrow), each evaluated once: the arrow keeps the extensions
      (``_views``) outside equality and hashing;
    - ``("compose", g, f)``: ``g`` after ``f``;
    - ``("sum", (f, scomps, tcomps, snames, tnames), (g, ...))``: ``f`` and
      ``g`` side by side, each with the (old, new) component pairs and name
      pairs of its source and target in the summed ends (empty for a shared
      end).  This one shape covers f+g, [f,g] and <f,g>.

    Its :attr:`trees` are read off the parts when first asked, and kept
    outside equality and hashing as ``_views`` is.
    """

    source: Instance
    target: Instance
    parts: tuple

    @cached_property
    def trees(self) -> tuple:
        """One :class:`Tree` per tree of view maps.  An atomic arrow has one
        per view map.  ``g`` after ``f`` keeps each tree of g that reads
        something f writes, with the trees of f that write it grafted under
        it and its other inputs hidden.  A sum renames each tree's open
        leaves and root into the summed ends."""
        kind, *parts = self.parts
        if kind == "atomic":
            return tuple(Tree(vm.target, vm.sources) for vm in parts[0])
        if kind == "compose":
            g, f = parts
            writes = {s.target for s in f.trees}
            kept = []
            for t in g.trees:
                fed = [s for s in f.trees if s.target in t.opens]
                if fed:
                    hidden = t.hidden.union({(n, f.target) for n in t.opens - writes}, *(s.hidden for s in fed))
                    kept.append(Tree(t.target, frozenset().union(*(s.opens for s in fed)), hidden))
            return tuple(kept)
        renamed = []
        for h, _, _, snames, tnames in parts:
            leaf, root = dict(snames), dict(tnames)
            for t in h.trees:
                renamed.append(Tree(root.get(t.target, t.target), frozenset(leaf.get(n, n) for n in t.opens), t.hidden))
        return tuple(renamed)

    @property
    def kind(self) -> str:
        return "p-arrow" if any(t.hidden for t in self.trees) else "c-arrow"

    def d0(self) -> frozenset:
        """The stored relations the arrow reads: none for an arrow with no tree."""
        return frozenset().union(*(t.opens for t in self.trees))

    def d1(self) -> frozenset:
        """The stored relations the arrow writes: none for an arrow with no tree."""
        return frozenset(t.target for t in self.trees)

    def width(self, max_arity: int) -> int:
        """*max_arity* raised to the widest relation of every instance the arrow reads, middle objects included."""
        parts = [p if isinstance(p, Morphism) else p[0] for p in self.parts[1:] if self.parts[0] != "atomic"]
        return max([max_arity, self.source.max_arity(), self.target.max_arity(), *(p.width(0) for p in parts)])

    @cached_property
    def _views(self) -> tuple:
        """((source component, target component), extension) of each view map
        of an atomic arrow, in order: the one place a view map is evaluated
        and its channel read (:func:`make_atomic` checks the modes on it)."""
        viewmaps = self.parts[1]
        exts = [eval_rule(vm.query, self.source).tuples for vm in viewmaps]
        # eval_rule raised unless the rule's relations (at least one) share a component
        src, tgt = self.source.component_of, self.target.component_of
        return tuple(((src(min(vm.sources)), tgt(vm.target)), ext) for vm, ext in zip(viewmaps, exts))


def _projected_target(inst: Instance, name: str, width: int) -> frozenset:
    r = inst.relation(name)
    if r.arity < width:
        raise QueryArityError(
            f"target {name} has arity {r.arity}, narrower than the mapped view ({width})"
        )
    return r.tuples if r.arity == width else frozenset(t[:width] for t in r.tuples)


def make_atomic(viewmaps, source: Instance, target: Instance) -> Morphism:
    """Build a complete arrow from view mappings, enforcing their modes.

    Each query's extension over *source*, as the arrow's ``_views`` holds it,
    must be contained in (mode ``inclusion``) or equal to (mode ``exact``)
    the matching-width prefix projection of its target relation.
    """
    m = Morphism(source, target, ("atomic", tuple(viewmaps)))
    for vm, (_, ext) in zip(m.parts[1], m._views):
        proj = _projected_target(target, vm.target, len(vm.query.head_vars))
        if vm.mode == "inclusion" and not ext <= proj:
            extra = sorted(ext - proj, key=tuple_key)[:3]
            raise ModeViolation(f"view for {vm.target} not contained in target: extra tuples {extra}")
        if vm.mode == "exact" and ext != proj:
            raise ModeViolation(
                f"view for {vm.target} differs from target projection "
                f"({format_extension(ext)} vs {format_extension(proj)})"
            )
    return m


def empty_morphism(source: Instance, target: Instance) -> Morphism:
    """The banal arrow carrying nothing but the empty view: the atomic arrow
    with no view maps, so it equals ``make_atomic([], source, target)``."""
    return Morphism(source, target, ("atomic", ()))


def _copy_arrow(origin: Instance, source: Instance, target: Instance, reads: dict, writes: dict):
    """One exact copy mapping per relation of *origin*, reading it from
    *source* and writing it to *target* under the names *reads* and *writes*
    give it (its own name where they give none)."""
    vms = [
        ViewMap(
            copy_rule(r.name, reads.get(r.name, r.name), r.arity),
            writes.get(r.name, r.name),
            "exact",
        )
        for r in origin.relations
    ]
    return make_atomic(vms, source, target)


def identity(inst: Instance) -> Morphism:
    """One exact copy mapping per relation; carries every view of the instance."""
    return _copy_arrow(inst, inst, inst, {}, {})


def compose(g: Morphism, f: Morphism) -> Morphism:
    """Sequential composition ``g after f``; its trees are read off the
    factors when asked (:attr:`Morphism.trees`)."""
    if g.source != f.target:
        raise DbcatError("composition endpoint mismatch")
    return Morphism(f.source, g.target, ("compose", g, f))


def _side_by_side(f: Morphism, g: Morphism, sources, targets) -> Morphism:
    """*f* and *g* as one arrow between the disjoint unions of their sources,
    of their targets, or both, each given as :func:`disjoint_union_with_maps`
    returns it; an end given as None is shared.  In DB the disjoint union is
    both coproduct and product, so this one construction gives f+g, the
    copairing [f,g] and the pairing <f,g>."""
    if sources is None and f.source != g.source:
        raise DbcatError("paired arrows need a common source")
    if targets is None and f.target != g.target:
        raise DbcatError("mediating arrows need a common target")
    shared = {}, {}, {}, {}  # an end not summed: no names or components change
    src, snames_f, snames_g, scomps_f, scomps_g = sources or (f.source, *shared)
    tgt, tnames_f, tnames_g, tcomps_f, tcomps_g = targets or (f.target, *shared)
    parts = (
        "sum",
        (f, *(tuple(m.items()) for m in (scomps_f, tcomps_f, snames_f, tnames_f))),
        (g, *(tuple(m.items()) for m in (scomps_g, tcomps_g, snames_g, tnames_g))),
    )
    return Morphism(src, tgt, parts)


def coproduct_morphism(f: Morphism, g: Morphism) -> Morphism:
    """Component-tagged union of two arrows: ``f + g`` between the coproducts."""
    sums = (disjoint_union_with_maps(f.source, g.source), disjoint_union_with_maps(f.target, g.target))
    return _side_by_side(f, g, *sums)


def _summand(summed, a: Instance, b: Instance, side: str, into: bool) -> Morphism:
    """The injection of one summand into the sum *summed* of *a* and *b*, as
    :func:`disjoint_union_with_maps` returns it, or (not *into*) its projection."""
    if side not in ("left", "right"):
        raise DbcatError(f"side must be 'left' or 'right', not {side!r}")
    inst, origin, names = summed[0], *((a, summed[1]) if side == "left" else (b, summed[2]))
    return _copy_arrow(origin, origin, inst, {}, names) if into else _copy_arrow(origin, inst, origin, names, {})


def injection(a: Instance, b: Instance, side: str = "left") -> Morphism:
    """Monomorphism embedding one summand into the coproduct."""
    return _summand(disjoint_union_with_maps(a, b), a, b, side, True)


def projection(a: Instance, b: Instance, side: str = "left") -> Morphism:
    """Epimorphism collapsing the coproduct back onto one summand."""
    return _summand(disjoint_union_with_maps(a, b), a, b, side, False)


def mediating(f: Morphism, g: Morphism) -> Morphism:
    """The arrow out of the coproduct induced by two arrows into a common target."""
    return _side_by_side(f, g, disjoint_union_with_maps(f.source, g.source), None)


def pairing(f: Morphism, g: Morphism) -> Morphism:
    """The arrow into the product induced by two arrows out of a common source."""
    return _side_by_side(f, g, None, disjoint_union_with_maps(f.target, g.target))


# ---------------------------------------------------------------------------
# information flux


class Flux(Record):
    """What a morphism transmits: per-channel closed sets of view extensions.

    A channel pairs a source component with a target component; the flux
    is its channels ``(source, target, closure)`` alone.  The empty view
    flows through every morphism and stays implicit.
    """

    channels: tuple

    def extensions(self) -> frozenset:
        return frozenset({EMPTY_EXT}.union(*(exts for _, _, exts in self.channels)))

    def canonical(self) -> tuple:
        """Channel structure up to renaming components on either side:
        :func:`~dbcat.powerview.canonical_form` of the channels
        (:meth:`serialize` is the report form)."""
        return canonical_form(self.channels)

    def same(self, other: "Flux") -> bool:
        """Equal labelled channels are one relabelling: no canonical form is needed."""
        return self.channels == other.channels or self.canonical() == other.canonical()

    def serialize(self, cap: int = DEFAULT_CAP) -> list:
        """Report form; the views of every channel :func:`~dbcat.powerview.spend`
        *cap* before any is listed."""
        spend(self.channels, cap)
        return format_closure(self.channels, (0, 0))


def flux(
    m: Morphism,
    depth: int | None = DEFAULT_DEPTH,
    max_arity: int = DEFAULT_MAX_ARITY,
    cap: int = DEFAULT_CAP,
) -> Flux:
    """Information flux of a morphism at the given bound and its one width.

    Atomic arrows close, channel by channel, the extensions their view maps
    produce, each evaluated once per arrow.  Composites intersect the factor
    fluxes across the shared middle object; side-by-side arrows re-tag the
    factor channels through their component maps.
    """
    return _flux(m, depth, m.width(max_arity), cap)


def _flux(m: Morphism, depth, width: int, cap) -> Flux:  # width already raised over m
    kind = m.parts[0]
    if kind == "atomic":
        channels, _ = close_seed_sets(m._views, depth, width, cap)
        return Flux(tuple((s, t, closed) for (s, t), closed in channels))
    if kind == "compose":
        g, f = m.parts[1], m.parts[2]
        return flux_intersection(
            _flux(f, depth, width, cap), _flux(g, depth, width, cap)
        )
    if kind != "sum":
        raise DbcatError(f"unknown morphism structure {kind!r}")
    chans = []
    for h, scomps, tcomps, *_ in m.parts[1:]:
        fh = _flux(h, depth, width, cap)
        smap, tmap = dict(scomps), dict(tcomps)
        chans.extend((smap.get(s, s), tmap.get(t, t), exts) for s, t, exts in fh.channels)
    return Flux(tuple(sorted(chans)))


def flux_intersection(a: Flux, b: Flux) -> Flux:
    """Channel-matched intersection, as used when composing morphisms."""
    merged: dict = {}
    for s1, t1, e1 in a.channels:
        for s2, t2, e2 in b.channels:
            if t1 == s2:
                shared = e1 & e2
                if shared:
                    key = s1, t2
                    merged[key] = merged[key] | shared if key in merged else shared
    return Flux(tuple(sorted((s, t, e) for (s, t), e in merged.items())))


def equivalent(f: Morphism, g: Morphism) -> bool:
    """Flux equality at fixpoint, at the two arrows' shared width: exact, and no cap is read."""
    m = f.width(g.width(0))
    return _flux(f, None, m, None).same(_flux(g, None, m, None))


# ---------------------------------------------------------------------------
# duality report


SET_COUNTEREXAMPLE_NOTE = (
    "In the category of plain sets this duality fails: two one-element sets "
    "have a one-element cartesian product but a two-element disjoint union, "
    "so product and coproduct cannot coincide there.  Here the disjoint union "
    "serves as both."
)


def verify_duality(
    a: Instance,
    b: Instance,
    depth: int | None = None,
    max_arity: int = 2,
) -> Verdicts:
    """Check that the coproduct of *a* and *b* also behaves as their product:
    its projections undo its injections, and paired they form the product
    triangles (``f`` and ``g`` in the reports are the projections).
    """
    sum_ab = disjoint_union_with_maps(a, b)  # built once, for every arrow into or out of it
    in_a, in_b, p_a, p_b = (_summand(sum_ab, a, b, side, into) for into in (True, False) for side in ("left", "right"))
    paired = _side_by_side(p_a, p_b, None, sum_ab)
    max_arity = max(max_arity, a.max_arity(), b.max_arity())
    laws = (
        ("projection-after-injection-left", compose(p_a, in_a), identity(a), "p_A . in_A ~ id_A"),
        ("projection-after-injection-right", compose(p_b, in_b), identity(b), "p_B . in_B ~ id_B"),
        ("product-triangle-left", compose(p_a, paired), p_a, "p_A . <f,g> ~ f"),
        ("product-triangle-right", compose(p_b, paired), p_b, "p_B . <f,g> ~ g"),
    )
    checks = [(cid, _flux(lhs, depth, max_arity, DEFAULT_CAP).same(_flux(rhs, depth, max_arity, DEFAULT_CAP)), law)
              for cid, lhs, rhs, law in laws]
    va, vb, vab = (view_closure(x, depth, max_arity) for x in (a, b, sum_ab[0]))
    summed = tuple(sorted(va.canonical() + vb.canonical())) == vab.canonical()
    checks.append(("views-of-coproduct", summed, "views(A+B) = views(A) (+) views(B)"))
    if not is_empty_isomorphic(a):
        replica = instances_isomorphic(a, disjoint_union(a, a), depth, max_arity)
        checks.append(("replication-not-isomorphic", not replica, "A+A is a genuine replication of nonempty A"))
    return Verdicts(tuple(checks))
