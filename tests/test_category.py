import itertools
import pathlib
import random
import sys

import pytest

from dbcat.category import (
    Flux,
    ModeViolation,
    Morphism,
    Tree,
    ViewMap,
    compose,
    coproduct_morphism,
    empty_morphism,
    equivalent,
    flux,
    flux_intersection,
    identity,
    injection,
    make_atomic,
    mediating,
    pairing,
    projection,
    verify_duality,
)
from dbcat import category, core, powerview
from dbcat.core import bottom_instance, disjoint_union, disjoint_union_with_maps, make_instance
from dbcat.powerview import ViewBudgetExceeded, instances_isomorphic, power_view
from dbcat.queries import rule
from dbcat.values import DbcatError

from oracles import brute_force_flux_same

EMPTY = frozenset()
FIX = dict(depth=None, max_arity=2)


def vm(body, target, head=("X",), mode="inclusion"):
    return ViewMap(rule("q", list(head), body), target, mode)


def test_make_atomic_identity_shaped():
    a = make_instance({"r": [(1, 2)]})
    m = make_atomic([vm([("r", "X", "Y")], "r", head=("X", "Y"), mode="exact")], a, a)
    assert m.kind == "c-arrow"
    assert m.d0() == {"r"} and m.d1() == {"r"}


def test_make_atomic_inclusion_check():
    a = make_instance({"r": [(1, 2)]})
    good = make_instance({"s": [(1, 9)]})
    bad = make_instance({"s": [(7, 9)]})
    m = make_atomic([vm([("r", "X", "Y")], "s")], a, good)
    assert m.kind == "c-arrow"
    with pytest.raises(ModeViolation):
        make_atomic([vm([("r", "X", "Y")], "s")], a, bad)


def test_make_atomic_exact_check():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(1,), (2,)]})
    make_atomic([vm([("r", "X")], "s", mode="exact")], a, b)
    bigger = make_instance({"s": [(1,), (2,), (3,)]})
    with pytest.raises(ModeViolation):
        make_atomic([vm([("r", "X")], "s", mode="exact")], a, bigger)


def test_compose_grafts_and_hides():
    # f: A -> B supplies s only; g needs s and u, so u becomes hidden
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1,)], "u": [(2,)]})
    c = make_instance({"t": [(1, 2)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    g = make_atomic([vm([("s", "X"), ("u", "Y")], "t", head=("X", "Y"))], b, c)
    h = compose(g, f)
    assert h.kind == "p-arrow"
    # f's tree for s is grafted under g's, so the open leaf is f's r; u is hidden in b
    assert h.trees == (Tree("t", frozenset({"r"}), frozenset({("u", b)})),)


def test_compose_drops_unfed_trees():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1,)], "u": [(2,)]})
    c = make_instance({"t": [(2,)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    g = make_atomic([vm([("u", "X")], "t")], b, c)  # reads only u, unfed by f
    h = compose(g, f)
    assert h.trees == ()
    assert flux(h, **FIX).extensions() == {EMPTY}


def test_compose_endpoint_mismatch():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1,)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    with pytest.raises(Exception):
        compose(f, f)


def test_flux_of_empty_and_identity():
    a = make_instance({"r": [(1,), (2,)]})
    assert flux(empty_morphism(a, a), **FIX).extensions() == {EMPTY}
    assert flux(identity(a), **FIX).canonical() == power_view(a, None, 2).canonical()


def test_a_flux_budget_error_names_its_channel_as_a_report_does():
    """A channel past the cap is named ``s->t`` at a bounded depth, where the
    level enumerator stops it, as when a fixpoint report counts it."""
    a = disjoint_union(make_instance({"s": [(5,)]}), make_instance({"r": [(1, 2), (2, 3), (3, 1)]}))
    with pytest.raises(ViewBudgetExceeded) as bounded:
        flux(identity(a), 3, 3, cap=500)
    assert (bounded.value.component, bounded.value.level, bounded.value.views) == ("2->2", 3, 501)
    assert str(bounded.value) == "view enumeration exceeded cap of 500 (component 2->2, level 3, 501 views)"
    with pytest.raises(ViewBudgetExceeded) as listed:
        flux(identity(a), None, 3).serialize(500)
    assert listed.value.component == "2->2"
    assert str(listed.value) == "view enumeration exceeded cap of 500 (component 2->2)"


def test_flux_of_disjoint_transmissions_is_bottom():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(1,), (2,)]})
    c = make_instance({"t": [(2,)]})
    f = make_atomic([vm([("r", "X"), ("=", "X", 1)], "s")], a, b)
    g = make_atomic([vm([("s", "X"), ("=", "X", 2)], "t")], b, c)
    h = compose(g, f)
    assert flux(h, **FIX).extensions() == {EMPTY}
    assert equivalent(h, empty_morphism(a, c))


def test_flux_composition_law_for_atomic_factors():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(1,), (2,)]})
    c = make_instance({"t": [(1,), (2,)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    g = make_atomic([vm([("s", "X"), ("=", "X", 1)], "t")], b, c)
    h = compose(g, f)
    want = flux_intersection(flux(f, **FIX), flux(g, **FIX))
    assert flux(h, **FIX).canonical() == want.canonical()
    assert flux(h, **FIX).extensions() <= flux(f, **FIX).extensions()
    assert flux(h, **FIX).extensions() <= flux(g, **FIX).extensions()


def test_flux_canonical_form_is_exact_above_five_components():
    def channels(pairs):
        return Flux(
            tuple((s, t, frozenset({frozenset({(k,)})})) for s, t, k in pairs)
        )

    for n in (5, 6):
        base = channels((s, s, s) for s in range(n))
        assert base.same(channels(((s + 1) % n, s, s) for s in range(n)))  # sources permuted
        assert base.same(channels((s, (s + 1) % n, s) for s in range(n)))  # targets permuted
        # two channels sharing a target is another structure
        assert not base.same(channels((s, min(s, n - 2), s) for s in range(n)))


def test_flux_canonical_form_splits_disconnected_parts():
    one = frozenset({frozenset({(1,)})})

    def channels(pairs, ext=one):
        return Flux(tuple((s, t, ext) for s, t in pairs))

    n = 50  # one colour class of n sources: factorial without the split
    base = channels((s, s) for s in range(n))
    assert base.same(channels(((s + 7) % n, (s * 3) % n) for s in range(n)))
    assert not base.same(channels((s, min(s, n - 2)) for s in range(n)))
    assert not base.same(channels(((s, s) for s in range(n)), frozenset({frozenset({(2,)})})))
    # a disjoint union's form is its parts' forms
    path = [(0, 0), (1, 0), (1, 1)]
    assert channels(path + [(9, 9)]).canonical() == tuple(
        sorted((channels(path).canonical()[0], channels([(0, 0)]).canonical()[0]))
    )


def test_flux_same_agrees_with_a_search_over_relabellings():
    rng = random.Random(6)
    pool = [frozenset({frozenset({(v,)})}) for v in (1, 2)]
    pool.append(pool[0] | pool[1])
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        ns, nt = rng.randint(1, 5), rng.randint(1, 5)
        pairs = {(rng.randrange(ns), rng.randrange(nt)) for _ in range(rng.randint(1, 8))}
        chans = {p: rng.choice(pool) for p in pairs}
        srcs, tgts = rng.sample(range(10), ns), rng.sample(range(10), nt)
        moved = {(srcs[s], tgts[t]): e for (s, t), e in chans.items()}
        if rng.random() < 0.6:  # change one channel's key, or move it
            (s, t), e = rng.choice(sorted(moved.items(), key=lambda c: c[0]))
            del moved[s, t]
            if rng.random() < 0.5:
                moved[s, t] = rng.choice(pool)
            else:
                moved.setdefault((rng.choice(srcs), rng.choice(tgts)), e)
        f = Flux(tuple((s, t, e) for (s, t), e in sorted(chans.items(), key=lambda c: c[0])))
        g = Flux(tuple((s, t, e) for (s, t), e in sorted(moved.items(), key=lambda c: c[0])))
        want = brute_force_flux_same(f, g)
        verdicts[want] += 1
        assert f.same(g) == want and g.same(f) == want
    assert min(verdicts.values()) > 50, verdicts  # equal and unequal pairs


def test_verdicts_do_not_sort_extensions(monkeypatch):
    a = make_instance({"r": [(1, 2), (3, 4)]})
    b = make_instance({"r": [(1, 3), (2, 4)]})
    small = make_instance({"r": [(1, 2), (2, 1)]})

    def refuse(ext):
        raise AssertionError("a verdict sorted the extensions")

    binders = [
        module
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == "dbcat" and vars(module).get("ext_key") is core.ext_key
    ]
    assert core in binders and powerview in binders
    for module in binders:
        monkeypatch.setattr(module, "ext_key", refuse)
    assert instances_isomorphic(a, b, None, 2)
    assert not instances_isomorphic(small, disjoint_union(small, small), None, 2)
    x, y = make_instance({"r": [(1,), (2,)]}), make_instance({"s": [(2, 3)]})
    assert verify_duality(x, y).passed


def test_verdicts_do_not_format_views(monkeypatch):
    def refuse(exts):
        raise AssertionError("a verdict formatted views")

    monkeypatch.setattr(core, "format_views", refuse)
    a = make_instance({"r": [(1, 2), (3, 4)]})
    b = make_instance({"s": [(1,), (3,)]})
    assert instances_isomorphic(a, a, 2, 2) and not instances_isomorphic(a, b, 2, 2)
    f = make_atomic([vm([("r", "X", "Y")], "s")], a, b)
    g = make_atomic([vm([("r", "X", "Y"), ("=", "Y", 2)], "s")], a, b)
    assert equivalent(f, f) and not equivalent(f, g)
    assert verify_duality(a, b).passed


def test_equivalence_of_different_syntaxes():
    a = make_instance({"r": [(1, 1), (1, 2)]})
    b = make_instance({"s": [(1,)]})
    # two distinct rules with the same extension over a
    f = make_atomic([vm([("r", "X", "X")], "s")], a, b)
    g = make_atomic([vm([("r", "X", "Y"), ("=", "Y", 1)], "s")], a, b)
    assert equivalent(f, g)
    assert not equivalent(f, empty_morphism(a, b))
    assert equivalent(f, f)


def test_identity_laws():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(1,), (2,)]})
    f = make_atomic([vm([("r", "X"), ("=", "X", 1)], "s")], a, b)
    assert equivalent(compose(identity(b), f), f)
    assert equivalent(compose(f, identity(a)), f)


def test_identity_of_bottom_is_banal():
    bot = bottom_instance()
    assert equivalent(identity(bot), empty_morphism(bot, bot))


def test_empty_morphism_absorbs():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1,)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    e = empty_morphism(b, b)
    assert equivalent(compose(e, f), empty_morphism(a, b))


def test_empty_vs_identity_on_empty_instance():
    empty = make_instance({"r": []}, arities={"r": 1})
    assert equivalent(empty_morphism(empty, empty), identity(empty))
    nonempty = make_instance({"r": [(1,)]})
    assert not equivalent(empty_morphism(nonempty, nonempty), identity(nonempty))


def test_associativity_sample():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(1,), (2,)]})
    c = make_instance({"t": [(1,), (2,)]})
    d = make_instance({"u": [(1,), (2,)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    g = make_atomic([vm([("s", "X"), ("=", "X", 1)], "t")], b, c)
    h = make_atomic([vm([("t", "X")], "u")], c, d)
    assert equivalent(compose(h, compose(g, f)), compose(compose(h, g), f))


def test_coproduct_of_identities():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1, 2)]})
    lhs = coproduct_morphism(identity(a), identity(b))
    rhs = identity(disjoint_union(a, b))
    assert equivalent(lhs, rhs)


def test_coproduct_with_banal_summand():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(1,), (2,)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    bot = bottom_instance()
    left = coproduct_morphism(f, empty_morphism(bot, bot))
    right = coproduct_morphism(empty_morphism(bot, bot), f)
    assert equivalent(left, f)
    assert equivalent(right, f)


def test_coproduct_is_associative_on_the_nose():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"r": [(2,)], "s": [(1, 3)]})
    f, g, h = identity(a), identity(b), injection(a, b)
    lhs = coproduct_morphism(coproduct_morphism(f, g), h)
    rhs = coproduct_morphism(f, coproduct_morphism(g, h))
    assert lhs.source == rhs.source and lhs.target == rhs.target
    assert lhs.target.names == ("r#1", "r#2", "r#3", "r#4", "s#1", "s#2")
    for depth in (1, None):
        assert flux(lhs, depth, 2) == flux(rhs, depth, 2)


def test_coproduct_flux_is_tagged_union():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(2,)]})
    fa = make_atomic([vm([("r", "X")], "r", mode="exact")], a, a)
    fb = make_atomic([vm([("s", "X")], "s", mode="exact")], b, b)
    fx = flux(coproduct_morphism(fa, fb), **FIX)
    assert len(fx.channels) == 2
    per_channel = sorted(frozenset(exts) for _, _, exts in fx.channels)
    want = sorted(
        [
            frozenset(e for e in flux(fa, **FIX).extensions() if e),
            frozenset(e for e in flux(fb, **FIX).extensions() if e),
        ]
    )
    assert per_channel == want


def _arrow(src, tgt, *edges):
    """Atomic arrow copying unary relation s into t for each (s, t, value),
    restricted to X = value unless value is None."""
    vms = [vm([(s, "X")] + ([("=", "X", v)] if v is not None else []), t) for s, t, v in edges]
    return make_atomic(vms, src, tgt)


# Two components a side, with component ids that the disjoint union renumbers.
_A = make_instance({"a0": [(1,), (2,)], "a1": [(3,)]}, partition={"a0": 7, "a1": 3})
_B = make_instance({"b0": [(1,), (2,)], "b1": [(2,), (3,)]}, partition={"b0": 5, "b1": 2})
_C = make_instance({"c0": [(5,)], "c1": [(6,), (7,)]}, partition={"c0": 4, "c1": 9})
_D = make_instance({"d0": [(5,), (6,)], "d1": [(7,)]}, partition={"d0": 8, "d1": 1})
_S = make_instance({"s0": [(1,), (5,)], "s1": [(3,), (7,)]}, partition={"s0": 2, "s1": 6})
_T = make_instance(
    {"t0": [(1,), (2,), (5,)], "t1": [(2,), (3,), (6,), (7,)]}, partition={"t0": 6, "t1": 0}
)


@pytest.mark.parametrize(
    "build, f, g, sources, targets, tags",
    [
        (
            coproduct_morphism,
            _arrow(_A, _B, ("a0", "b0", None), ("a1", "b1", None), ("a0", "b1", 2)),
            _arrow(_C, _D, ("c0", "d0", None), ("c1", "d1", 7)),
            True,
            True,
            {(2, 2), (1, 1), (2, 1), (3, 4), (4, 3)},
        ),
        (
            mediating,
            _arrow(_A, _T, ("a0", "t0", None), ("a1", "t1", None), ("a0", "t1", 2)),
            _arrow(_C, _T, ("c0", "t0", None), ("c1", "t1", 7)),
            True,
            False,
            {(2, 6), (1, 0), (2, 0), (3, 6), (4, 0)},
        ),
        (
            pairing,
            _arrow(_S, _B, ("s0", "b0", 1), ("s1", "b1", 3)),
            _arrow(_S, _D, ("s0", "d0", 5), ("s1", "d1", 7)),
            False,
            True,
            {(2, 2), (6, 1), (2, 4), (6, 3)},
        ),
    ],
    ids=["f+g", "[f,g]", "<f,g>"],
)
def test_side_by_side_flux_is_the_retagged_factor_fluxes(build, f, g, sources, targets, tags):
    m = build(f, g)
    assert m.parts[0] == "sum"
    # oracle: each factor's channels, re-tagged through the component maps of
    # the summed ends; a shared end keeps its tags
    smaps = disjoint_union_with_maps(f.source, g.source)[3:] if sources else ({}, {})
    tmaps = disjoint_union_with_maps(f.target, g.target)[3:] if targets else ({}, {})
    want = []
    for h, smap, tmap in zip((f, g), smaps, tmaps):
        fh = flux(h, **FIX)
        assert fh.channels
        want.extend((smap.get(s, s), tmap.get(t, t), exts) for s, t, exts in fh.channels)
    fx = flux(m, **FIX)
    assert fx.channels == tuple(sorted(want))
    assert {(s, t) for s, t, _ in fx.channels} == tags
    assert {s for s, _ in tags} <= {c for _, c in m.source.partition}
    assert {t for _, t in tags} <= {c for _, c in m.target.partition}


def test_copairing_and_pairing_need_a_shared_end():
    f, g = identity(_A), identity(_C)
    with pytest.raises(DbcatError, match="^mediating arrows need a common target$"):
        mediating(f, g)
    with pytest.raises(DbcatError, match="^paired arrows need a common source$"):
        pairing(f, g)


def test_empty_morphism_is_the_atomic_arrow_without_view_maps():
    e = empty_morphism(_A, _B)
    assert e == make_atomic([], _A, _B)
    assert equivalent(e, make_atomic([], _A, _B))
    assert e.parts == ("atomic", ()) and e.kind == "c-arrow" and e.d0() == e.d1() == frozenset()
    assert flux(e, **FIX) == Flux(())
    # no name stands for ⊥: a relation the user calls _bot is an end like any other
    s0 = make_instance({"_bot": [(1,), (2,)]})
    assert identity(s0).d0() == identity(s0).d1() == {"_bot"}
    assert empty_morphism(s0, s0).d0() == empty_morphism(s0, s0).d1() == frozenset()


def test_injection_flux_is_whole_view_set():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(2,)]})
    in_a = injection(a, b, "left")
    in_b = injection(a, b, "right")
    assert flux(in_a, **FIX).canonical() == power_view(a, None, 2).canonical()
    assert flux(in_b, **FIX).canonical() == power_view(b, None, 2).canonical()
    shared = flux(in_a, **FIX).extensions() & flux(in_b, **FIX).extensions()
    assert shared == {EMPTY}


@pytest.mark.parametrize("arrow", [injection, projection])
def test_summand_side_must_be_left_or_right(arrow):
    a, b = make_instance({"r": [(1,)]}), make_instance({"s": [(2,)]})
    with pytest.raises(DbcatError, match="'left' or 'right'"):
        arrow(a, b, "middle")


def test_injection_into_sum_with_bottom():
    a = make_instance({"r": [(1,)]})
    in_a = injection(a, bottom_instance(), "left")
    assert flux(in_a, **FIX).canonical() == power_view(a, None, 2).canonical()


def test_mediating_triangles():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(2,)]})
    c = make_instance({"t": [(1,), (2,)]})
    f = make_atomic([vm([("r", "X"), ("=", "X", 1)], "t")], a, c)
    g = make_atomic([vm([("s", "X")], "t")], b, c)
    k = mediating(f, g)
    in_a, in_b = injection(a, b, "left"), injection(a, b, "right")
    assert equivalent(compose(k, in_a), f)
    assert equivalent(compose(k, in_b), g)
    # the mediating flux is the tagged union of the factor fluxes
    ka = flux(k, **FIX)
    assert ka.extensions() == flux(f, **FIX).extensions() | flux(g, **FIX).extensions()


def test_mediating_of_empties_is_banal():
    bot = bottom_instance()
    k = mediating(empty_morphism(bot, bot), empty_morphism(bot, bot))
    assert flux(k, **FIX).extensions() == {EMPTY}


def test_mediating_unique_up_to_equivalence():
    a = make_instance({"a": [(1,)]})
    b = make_instance({"b": [(2,)]})
    c = make_instance({"c": [(1,), (2,)]})
    f = make_atomic([vm([("a", "X")], "c")], a, c)
    g = make_atomic([vm([("b", "X")], "c")], b, c)
    k = mediating(f, g)
    in_a, in_b = injection(a, b, "left"), injection(a, b, "right")
    ab = k.source

    # enumerate candidate atomic morphisms ab -> c over a small rule space
    bodies = []
    for rel in ("a", "b"):
        bodies.append([(rel, "X")])
        for v in (1, 2):
            bodies.append([(rel, "X"), ("=", "X", v)])
    pool = []
    for body in bodies:
        try:
            pool.append(make_atomic([vm(body, "c")], ab, c))
        except ModeViolation:
            pass
    candidates = list(pool)
    for m1, m2 in itertools.combinations(pool, 2):
        vms = m1.parts[1] + m2.parts[1]
        candidates.append(make_atomic(vms, ab, c))

    matching_k = [
        m
        for m in candidates
        if equivalent(compose(m, in_a), f)
        and equivalent(compose(m, in_b), g)
    ]
    assert matching_k, "the enumeration must rediscover the mediating arrow"
    for m in matching_k:
        assert equivalent(m, k)


def test_projection_after_injection():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1, 2)]})
    p_a = projection(a, b, "left")
    in_a = injection(a, b, "left")
    assert equivalent(compose(p_a, in_a), identity(a))


def test_verify_duality_report():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(2,)]})
    rep = verify_duality(a, b)
    assert rep.passed
    ids = {cid for cid, _, _ in rep.checks}
    assert "views-of-coproduct" in ids
    assert "replication-not-isomorphic" in ids
    assert "sets" in category.SET_COUNTEREXAMPLE_NOTE or "set" in category.SET_COUNTEREXAMPLE_NOTE


def test_fixpoint_duality_evaluates_each_view_map_once(monkeypatch):
    calls, built = [], []
    real_eval, real_make = category.eval_rule, category.make_atomic

    def evaluating(q, inst):
        calls.append(q)
        return real_eval(q, inst)

    def making(viewmaps, source, target):
        built.extend(viewmaps)
        return real_make(viewmaps, source, target)

    monkeypatch.setattr(category, "eval_rule", evaluating)
    monkeypatch.setattr(category, "make_atomic", making)
    a = make_instance({"r": [(1, 2), (2, 1)], "s": [(1,)]}, partition={"s": 1})
    b = make_instance({"r": [(3,)], "t": [(3, 4)]})
    assert verify_duality(a, b, **FIX).passed
    # injections, projections and identities: three arrows per relation
    assert len(built) == 3 * (len(a.relations) + len(b.relations))
    assert len(calls) == len(built)


@pytest.mark.parametrize("depth", [None, 2])
def test_duality_needs_no_canonical_form_when_the_laws_fluxes_agree(monkeypatch, depth):
    def canonical(self):
        raise AssertionError("a law's fluxes were put in canonical form")

    monkeypatch.setattr(Flux, "canonical", canonical)
    # consecutive pairs of these shapes: {1,2} binary; {1,2} unary and binary;
    # that beside a {1,2} binary component; {1,2,3} unary and binary
    shapes = [
        make_instance({"r": [(1, 2), (2, 1)]}),
        make_instance({"r": [(1,)], "s": [(1, 2), (2, 2)]}),
        make_instance({"r": [(2,)], "s": [(1, 2)], "t": [(2, 1), (2, 2)]}, partition={"t": 1}),
        make_instance({"r": [(3,)], "s": [(1, 2), (2, 3)]}),
    ]
    for a, b in zip(shapes, shapes[1:]):
        assert verify_duality(a, b, depth=depth, max_arity=2).passed


def test_atomic_morphism_built_directly_has_its_flux():
    a = make_instance({"r": [(1, 2)], "s": [(3,)]}, partition={"s": 1})
    t = make_instance({"u": [(1, 2), (2, 2)], "v": [(3,), (4,)]}, partition={"v": 1})
    maps = [vm([("r", "X", "Y")], "u", head=("X", "Y")), vm([("s", "X")], "v")]
    made = make_atomic(maps, a, t)
    direct = Morphism(a, t, ("atomic", tuple(maps)))
    assert direct == made
    for depth in (1, 2, None):
        assert flux(direct, depth, 2) == flux(made, depth, 2)
    want = {(0, 0, frozenset({(1, 2)})), (1, 1, frozenset({(3,)}))}
    assert {(s, t, e) for s, t, exts in flux(direct, 0, 2).channels for e in exts} == want
    assert equivalent(compose(identity(t), direct), made)


def test_set_counterexample_cardinalities():
    # in plain sets: |{x} x {y}| = 1 but |{x} + {y}| = 2
    x, y = {("x",)}, {("y",)}
    product = {(p, q) for p in x for q in y}
    coproduct = {(0, p) for p in x} | {(1, q) for q in y}
    assert len(product) != len(coproduct)


def test_pairing_triangles():
    c = make_instance({"u": [(1,), (2,)]})
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(2,)]})
    f = make_atomic([vm([("u", "X")], "r")], c, a)
    g = make_atomic([vm([("u", "X"), ("=", "X", 2)], "s")], c, b)
    paired = pairing(f, g)
    p_a, p_b = projection(a, b, "left"), projection(a, b, "right")
    assert equivalent(compose(p_a, paired), f)
    assert equivalent(compose(p_b, paired), g)


def test_kind_classification_matches_tree_scan():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1,)], "u": [(1,)]})
    c = make_instance({"t": [(1, 1)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    g = make_atomic([vm([("s", "X"), ("u", "Y")], "t", head=("X", "Y"))], b, c)
    assert f.kind == "c-arrow" and f.trees == (Tree("s", frozenset({"r"})),)
    h = compose(g, f)
    assert h.kind == "p-arrow" and h.trees == (Tree("t", frozenset({"r"}), frozenset({("u", b)})),)


def test_flux_contains_bottom_and_is_closed():
    a = make_instance({"r": [(1,), (2,)]})
    b = make_instance({"s": [(1,), (2,)]})
    f = make_atomic([vm([("r", "X")], "s")], a, b)
    fx = flux(f, **FIX)
    assert EMPTY in fx.extensions()
    # closed: materializing and closing again adds nothing
    from dbcat.powerview import power_view as pv
    from dbcat.values import Instance, Relation

    for s, t, exts in fx.channels:
        rels = tuple(
            Relation(f"v{i}", len(next(iter(e))), e) for i, e in enumerate(sorted(exts, key=lambda e: sorted(map(str, e))))
        )
        inst = Instance(rels, tuple((r.name, 0) for r in rels))
        reclosed = pv(inst, None, 2).extensions() - {EMPTY}
        assert reclosed == frozenset(exts)


def test_randomized_category_laws():
    rng = random.Random(31337)
    insts = [
        make_instance({"r0": [(1,), (2,)]}),
        make_instance({"r1": [(1,)]}),
        make_instance({"r2": [(2,)]}),
        make_instance({"r3": [(1,), (2,)]}),
    ]

    def random_arrow(src, tgt):
        rel = src.names[0]
        body = [(rel, "X")]
        if rng.random() < 0.5:
            body.append(("=", "X", rng.choice((1, 2))))
        try:
            return make_atomic([vm(body, tgt.names[0])], src, tgt)
        except ModeViolation:
            return empty_morphism(src, tgt)

    for _ in range(30):
        a, b, c, d = rng.sample(insts, 4)
        f, g, h = random_arrow(a, b), random_arrow(b, c), random_arrow(c, d)
        assert equivalent(compose(h, compose(g, f)), compose(compose(h, g), f))
        assert equivalent(compose(identity(b), f), f)
        assert equivalent(compose(f, identity(a)), f)
        gf = compose(g, f)
        assert flux(gf, **FIX).extensions() <= flux(f, **FIX).extensions()
        assert flux(gf, **FIX).extensions() <= flux(g, **FIX).extensions()


def test_duality_builds_each_sum_once(monkeypatch):
    sums = []
    real = core._sum

    def summing(a, b, federated):
        sums.append((a, b))
        return real(a, b, federated)

    monkeypatch.setattr(core, "_sum", summing)  # the one sum builder, under every sum
    a = make_instance({"r": [(1, 2), (2, 1)], "s": [(1,)]}, partition={"s": 1})
    b = make_instance({"r": [(3,)], "t": [(3, 4)]})
    assert verify_duality(a, b, **FIX).passed
    assert sums == [(a, b), (a, a)]  # A+B for every arrow into or out of it, then A+A


def test_fixpoint_verdicts_never_list_a_closure(monkeypatch):
    def listing(self):
        raise AssertionError("a verdict listed a fixpoint closure")

    powerview._power_view_memo.cache_clear()
    monkeypatch.setattr(powerview.ClosedForm, "listing", listing)
    a = make_instance({"r": [(1, 2), (2, 1)], "s": [(1,)]}, partition={"s": 1})
    b = make_instance({"r": [(2,)], "t": [(2, 3)], "z": [()]})
    assert power_view(a, **FIX).fixpoint and power_view(b, **FIX).fixpoint
    f, g = identity(a), compose(projection(a, b), injection(a, b))
    assert flux(f, **FIX).same(flux(g, **FIX)) and equivalent(f, g)
    assert not equivalent(identity(b), f)
    shared = powerview.matching(a, b, **FIX)
    assert shared.fixpoint and len(shared.components[0][1]) == 2  # {(2,)} and {(2, 2)}
    assert frozenset({(2, 2)}) in shared and frozenset({(1,)}) not in shared
    merged = powerview.merging(a, b, **FIX)
    assert merged.fixpoint and len(merged.components[0][1]) == 2**3 - 1 + 2**9 - 1 + 1
    assert verify_duality(a, b, **FIX).passed
    assert instances_isomorphic(disjoint_union(a, b), disjoint_union(b, a), **FIX)
    assert not instances_isomorphic(a, disjoint_union(a, a), **FIX)


def test_fixpoint_verdicts_at_arity_four_never_list_or_count(monkeypatch):
    """|D| = 3 at arity 4 is 2^81 views per closure: every verdict compares descriptions."""
    from dbcat.cli import run
    from dbcat.dsl import parse_workspace

    def refuse(self):
        raise AssertionError("a verdict listed or counted a fixpoint closure")

    powerview._power_view_memo.cache_clear()
    monkeypatch.setattr(powerview.ClosedForm, "listing", refuse)
    monkeypatch.setattr(powerview.ClosedForm, "count", refuse)
    ws = parse_workspace([str(pathlib.Path(__file__).parent / "data" / "demo.dbc")])
    for command, args in (("laws", []), ("check-functor", ["G"]), ("gamma-iso", ["G"]), ("duality", ["A0", "B0"])):
        assert run(command, args, ws, None, 4, core.DEFAULT_CAP).passed, command
    a, b = ws.instances["A0"][1], ws.instances["B0"][1]
    assert verify_duality(a, b, depth=None, max_arity=4).passed
    assert equivalent(identity(a), compose(projection(a, b), injection(a, b)))
    assert not equivalent(identity(a), identity(b))
    assert not instances_isomorphic(a, b, None, 4) and instances_isomorphic(a, a, None, 4)
    assert powerview.matching(a, b, None, 4).fixpoint and powerview.merging(a, b, None, 4).fixpoint
    ring = make_instance({"r": [tuple((i + k) % 50 for k in range(4)) for i in range(50)]})  # |D| = 50
    assert verify_duality(ring, b, depth=None, max_arity=4).passed


def test_one_call_closes_every_flux_at_one_width():
    """f carries {(1, 1)} and g {(1,)}: at width 2 both close to {(1,)} and {(1, 1)}."""
    a, u = make_instance({"r": [(1, 1)]}), make_instance({"u": [(1, 1)]})
    t, v = make_instance({"t": [(1,)]}), make_instance({"v": [(1,)]})
    f = make_atomic([vm([("r", "X", "Y")], "u", head=("X", "Y"))], a, u)
    g = make_atomic([vm([("t", "X")], "v")], t, v)
    assert equivalent(f, g)
    assert flux(g, None, 1) != flux(g, None, 2)  # an arrow alone widens only to its own instances


def test_a_sum_of_a_composite_with_a_hidden_leaf_keeps_what_its_factors_have():
    a0, a = make_instance({"p": [(1, 2), (2, 3)]}), make_instance({"r": [(1, 2), (2, 3)]})
    b, d = make_instance({"s": [(1,), (2,)], "v": [(1,), (3,)]}), make_instance({"u": [(1,), (2,), (3,)]})
    e = make_atomic([vm([("p", "X", "Y")], "r", head=("X", "Y"))], a0, a)
    f = make_atomic([vm([("r", "X", "Y")], "s")], a, b)
    g = make_atomic([vm([("s", "X"), ("v", "X")], "u")], b, d)
    h = identity(a)  # its source shares the name r with f's: the sum renames the nested leaves
    gf = compose(g, f)  # f supplies s, not v: a hidden leaf beside f's tree
    for left in (gf, compose(gf, e)):  # grafting e's tree under r passes the hidden leaf through
        (tree,) = left.trees
        assert tree.hidden == {("v", b)}
        summed = coproduct_morphism(left, h)
        src_maps = disjoint_union_with_maps(left.source, h.source)[1:3]
        tgt_maps = disjoint_union_with_maps(left.target, h.target)[1:3]
        assert summed.kind == left.kind == "p-arrow" and h.kind == "c-arrow"
        assert summed.trees[0] == Tree(tgt_maps[0]["u"], frozenset(src_maps[0][n] for n in tree.opens), tree.hidden)
        assert summed.d0() == {src_maps[0][n] for n in left.d0()} | {src_maps[1][n] for n in h.d0()}
        assert summed.d1() == {tgt_maps[0][n] for n in left.d1()} | {tgt_maps[1][n] for n in h.d1()}
        assert summed.d0() == ({"r#1", "r#2"} if left is gf else {"p", "r"})
        for depth in (2, None):
            factors = flux(left, depth, 2).canonical() + flux(h, depth, 2).canonical()
            assert flux(left, depth, 2).channels and flux(summed, depth, 2).canonical() == tuple(sorted(factors))
