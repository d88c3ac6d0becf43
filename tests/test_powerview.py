import gc
import itertools
import random
import time
import weakref

import pytest

from dbcat import powerview
from dbcat.category import flux, identity
from dbcat.core import DbcatError, bottom_instance, disjoint_union, ext_key, make_instance
from dbcat.powerview import (
    MEMO_ENTRIES,
    ViewBudgetExceeded,
    close_component,
    instances_isomorphic,
    matching,
    merging,
    power_view,
    power_view_cached,
    view_closure,
)

from dbcat.queries import eval_spjru
from oracles import enumerate_views, random_instance, sorted_closure_form, view_term

EMPTY = frozenset()


def test_bottom_closure():
    for depth in (0, 1, 3, None):
        vs = power_view(bottom_instance(), depth, 2)
        assert vs.extensions() == {EMPTY}
        assert vs.fixpoint


def test_source_relations_are_views():
    a = make_instance({"r": [(1, 2)], "s": [(3,)]})
    vs = power_view(a, 2, 4)
    assert frozenset({(1, 2)}) in vs
    assert frozenset({(3,)}) in vs
    assert EMPTY in vs


def test_membership_does_not_build_the_union(monkeypatch):
    from dbcat.powerview import ViewSet

    ab = disjoint_union(make_instance({"r": [(1, 2)]}), make_instance({"s": [(5,)]}))
    vs = power_view(ab, None, 2)

    def refuse(self):
        raise AssertionError("membership built the union of every view")

    monkeypatch.setattr(ViewSet, "extensions", refuse)
    assert EMPTY in vs
    assert [(1, 2)] in vs and [(2, 1), (1, 1)] in vs
    assert frozenset({(5,)}) in vs and frozenset({(5, 5)}) in vs
    assert frozenset({(1,), (5,)}) not in vs
    assert frozenset({(1, 5)}) not in vs


def test_tiny_closure_matches_term_enumeration_oracle():
    # single unary fact at depth 2, arity bound 1: just the empty view and {(1)}
    a = make_instance({"r": [(1,)]})
    vs = power_view(a, 2, 1)
    assert vs.extensions() == {EMPTY, frozenset({(1,)})}
    assert vs.extensions() == enumerate_views(a, 2, 1)


def test_closure_matches_oracle_on_small_instances():
    cases = [
        make_instance({"r": [(1,), (2,)]}),
        make_instance({"r": [(1, 2)]}),
        make_instance({"r": [(1, 2), (2, 1)]}),
        make_instance({"r": [(1,)], "s": [(1, 2)]}),
    ]
    for inst in cases:
        for depth, m in ((1, 2), (2, 2)):
            assert power_view(inst, depth, m).extensions() == enumerate_views(
                inst, depth, m
            ), inst


def _repeated_column_instance(rng, max_arity, max_values):
    """One component: r repeats its first column in every tuple, and s, of
    r's arity, shares one tuple with r and holds one r lacks."""
    values = range(1, rng.randint(2, max_values) + 1)
    arity = rng.randint(2, min(3, max_arity))
    r = rng.sample(sorted({(v, v, w)[:arity] for v in values for w in values}), 2)
    s = [rng.choice(r), rng.choice([t for t in itertools.product(values, repeat=arity) if t not in r])]
    return make_instance({"r": r, "s": s})


def test_closure_matches_oracle_with_repeated_columns_and_overlapping_relations():
    rng = random.Random(1104)
    for depth, m in itertools.product((1, 2, 3), (2, 3, 4)):
        # over three values a depth-3, arity-4 oracle run can take seconds
        max_values = 2 if (depth, m) == (3, 4) else 3
        for _ in range(4):
            inst = _repeated_column_instance(rng, m, max_values)
            assert power_view(inst, depth, m).extensions() == enumerate_views(inst, depth, m), inst


def test_bounded_counts_and_budget_errors_are_pinned():
    # the counts of an enumerator that applies every operator to every column
    # and every ordered pair: skipping duplicate work and reordering emission
    # must not change a level's views
    r = make_instance({"r": [(1, 1, 2), (2, 2, 3)]})
    new_views = {1: 31, 2: 330, 3: 19_448}  # beyond the empty view and r itself
    for depth, n in new_views.items():
        assert len(power_view(r, depth, 4).extensions()) == n + 2
        for cap, level in ((n - 1, depth), (n, depth + 1)):
            with pytest.raises(ViewBudgetExceeded) as exc:
                power_view(r, None, 4, cap=cap)
            assert (exc.value.component, exc.value.level, exc.value.views, exc.value.cap) == (0, level, cap + 1, cap)


def test_fixpoint_idempotence():
    for tuples in ([(1,)], [(1,), (2,)], [(1, 2)], [(1, 2), (2, 1)]):
        a = make_instance({"r": tuples})
        ta = power_view(a, None, 2)
        assert ta.fixpoint
        tta = power_view(ta.as_instance(), None, 2)
        assert ta.canonical() == tta.canonical()


def _instance_with_components(rng):
    """1-2 components over at most 3 values, some with a nullary {()}."""
    parts = []
    for _ in range(rng.randint(1, 2)):
        base = random_instance(rng, max_values=3, max_tuples=4)
        rels = {r.name: r.tuples for r in base.relations}
        arities = {r.name: r.arity for r in base.relations}
        if rng.random() < 0.3:
            rels["z"], arities["z"] = {()}, 0
        parts.append(make_instance(rels, arities=arities))
    return parts[0] if len(parts) == 1 else disjoint_union(*parts)


def test_closed_form_fixpoint_matches_the_enumerator():
    rng = random.Random(1104)
    for _ in range(24):
        inst = _instance_with_components(rng)
        m = rng.randint(max(1, inst.max_arity()), 2)
        closed, enumerated = power_view(inst, None, m), power_view(inst, 60, m)
        assert enumerated.fixpoint and closed.fixpoint
        assert [(c, frozenset(e)) for c, e in closed.components] == list(enumerated.components), inst


def test_closed_form_reaches_a_domain_of_four():
    vs = power_view(make_instance({"r": [(1, 2), (3, 4)]}), None, 2)
    assert vs.fixpoint
    assert len(vs.extensions() - {EMPTY}) == (2**4 - 1) + (2**16 - 1) == 65_550


def test_a_description_counts_its_views_past_len():
    """|D| = 3 at arity 4: 82 bits of views, exact from count(); len() of it
    raises a typed error, and the cap check never computes such a count."""
    form = powerview.ClosedForm([[frozenset({1, 2, 3})]] * 4, False)
    assert form.count() == sum(2 ** (3**k) - 1 for k in range(1, 5)) and form.count().bit_length() == 82
    with pytest.raises(DbcatError, match="82-bit view count"):
        len(form)
    overlapping = powerview.ClosedForm([[frozenset({1, 2}), frozenset({2, 3})]], True)
    assert overlapping.count() == len(overlapping) == len(overlapping.listing()) == 1 + 3 + 3 - 1
    with pytest.raises(ViewBudgetExceeded):
        power_view(make_instance({"r": [(1, 2, 3, 1)]}), None, 4, 100)


def test_len_of_a_view_set_counts_each_view_once_and_lists_none(monkeypatch):
    """One view in two components is one view: r(1) + s(1) at arity 1 holds
    {} and {(1)}.  At fixpoint len() counts the descriptions' union; at
    arity 3 over 3 values a listing would make 2**27 sets."""
    overlap = disjoint_union(make_instance({"r": [(1,)]}), make_instance({"s": [(1,)]}))
    a = make_instance({"r": [(1, 2), (2, 3)], "z": [()]})
    for vs in (power_view(overlap, 2, 1), power_view(disjoint_union(a, a), 2, 2), power_view(a, 1, 3)):
        assert len(vs) == len(vs.extensions())
    assert len(power_view(overlap, 2, 1)) == 2

    def refuse(self):
        raise AssertionError("len() listed a description")

    monkeypatch.setattr(powerview.ClosedForm, "listing", refuse)
    assert len(view_closure(overlap, None, 1)) == 2
    assert len(view_closure(disjoint_union(a, a), None, 2)) == 1 + 1 + (2**3 - 1) + (2**9 - 1)
    assert len(view_closure(make_instance({"r": [(1, 2, 3)]}), None, 3)) == 1 + sum(2 ** (3**k) - 1 for k in (1, 2, 3))
    assert len(matching(a, overlap, None, 1)) == 3  # {}, {(1)} and {(1,1)}: r widens it to arity 2


def test_a_description_is_reported_without_asking_its_len(monkeypatch):
    """The report lists a description's views; it never counts them first."""

    def refuse(self):
        raise AssertionError("the report asked len() of a description")

    monkeypatch.setattr(powerview.ClosedForm, "__len__", refuse)
    vs = view_closure(make_instance({"r": [(1,), (2,)], "s": [(3,)]}, partition={"r": 0, "s": 1}), None, 1)
    assert {type(exts) for _, exts in vs.components} == {powerview.ClosedForm}
    assert vs.serialize() == [[0, ["{}", "{(1)}", "{(1) (2)}", "{(2)}"]], [1, ["{}", "{(3)}"]]]


def test_a_listing_counts_each_description_once(monkeypatch):
    """``power_view`` and a flux report spend the cap with one count per
    component or channel."""
    counted = []
    count = powerview.ClosedForm.count
    monkeypatch.setattr(powerview.ClosedForm, "count", lambda self: counted.append(self) or count(self))
    inst = make_instance({"r": [(1, 2)], "s": [(3,)]}, partition={"r": 0, "s": 1})
    vs = power_view(inst, None, 2)
    assert len(counted) == len(vs.components) == 2
    counted.clear()
    fx = flux(identity(inst), None, 2)
    assert fx.serialize()[0][:2] == [0, 0] and len(counted) == len(fx.channels) == 2


def test_a_canonical_form_orders_descriptions_past_len():
    """Two channels of one part hold 82-bit descriptions: their keys are
    ordered by hash and exact form, never by a count."""
    wide = [powerview.ClosedForm([[frozenset(d)]] * 4, False) for d in ({1, 2, 3}, {4, 5, 6})]
    one = powerview.canonical_form([(0, 0, wide[0]), (0, 1, wide[1])])
    assert one == powerview.canonical_form([(5, 7, wide[1]), (5, 2, wide[0])])
    assert len(one) == 1 and len(one[0]) == 2
    assert powerview.canonical_form([(0, 0, wide[0]), (0, 1, wide[0])]) != one


def _assert_sound(vs, inst, sample=None, rng=None):
    """Each view of each component of *vs* (or *sample* of them, drawn by
    *rng*) is the answer of a select/project/product/union term over that
    component's relations of *inst*: evaluation refuses a term that mixes
    separated components."""
    for comp, exts in vs.components:
        views = sorted(exts, key=ext_key)
        for ext in views if sample is None else rng.sample(views, min(sample, len(views))):
            assert eval_spjru(view_term(ext, inst, comp), inst).tuples == ext, (comp, ext)


def test_fixpoint_views_are_terms_over_their_component():
    rng = random.Random(4899)
    a = make_instance({"r": [(1, 2), (2, 3)], "z": [()]})
    b = make_instance({"s": [(2,), (5,)]})
    for inst in (a, disjoint_union(a, b)):
        vs = power_view(inst, None, 2)
        assert frozenset({()}) in vs and (frozenset({(5,)}) in vs) == (inst is not a)
        _assert_sound(vs, inst, 60, rng)


def test_monotone_in_bounds():
    a = make_instance({"r": [(1, 2), (2, 3)]})
    small = power_view(a, 1, 2).extensions()
    deeper = power_view(a, 2, 2).extensions()
    wider = power_view(a, 1, 4).extensions()
    assert small <= deeper
    assert small <= wider


def test_budget_cap():
    a = make_instance({"r": [(1, 2), (2, 3), (3, 1)]})
    with pytest.raises(ViewBudgetExceeded):
        power_view(a, None, 3, cap=500)
    # the cap counts new views summed over components: 17 in each copy
    swap = make_instance({"r": [(1, 2), (2, 1)]})
    with pytest.raises(ViewBudgetExceeded):
        power_view(disjoint_union(swap, swap), None, 2, cap=33)
    assert power_view(disjoint_union(swap, swap), None, 2, cap=34).fixpoint


def test_budget_error_says_where_it_stopped():
    a = make_instance({"r": [(1, 2), (2, 3), (3, 1)]})
    with pytest.raises(ViewBudgetExceeded, match="^view enumeration exceeded cap of 500") as exc:
        power_view(a, None, 3, cap=500)
    assert (exc.value.component, exc.value.cap, exc.value.views) == (0, 500, 501)
    assert exc.value.level == 3
    # passing the cap only in the sum over components: no level, the last component
    swap = make_instance({"r": [(1, 2), (2, 1)]})
    with pytest.raises(ViewBudgetExceeded) as exc:
        power_view(disjoint_union(swap, swap), None, 2, cap=33)
    assert (exc.value.component, exc.value.level, exc.value.views, exc.value.cap) == (2, None, 34, 33)


def test_only_a_component_past_the_cap_alone_is_enumerated(monkeypatch):
    depths = []
    real = powerview.close_component
    monkeypatch.setattr(
        powerview, "close_component", lambda seeds, depth, *rest: depths.append(depth) or real(seeds, depth, *rest)
    )
    swap, a = make_instance({"r": [(1, 2), (2, 1)]}), make_instance({"r": [(1, 2), (2, 3), (3, 1)]})
    with pytest.raises(ViewBudgetExceeded) as exc:
        power_view(disjoint_union(swap, a), None, 3, cap=500)
    assert (exc.value.component, exc.value.level, exc.value.views) == (2, 3, 501)
    assert depths == [501]  # swap's closure is never listed


def test_the_pair_limit_stops_a_wide_unary_listing_at_once():
    """17 values at arity 1: 2^17 - 1 views pass the cap, and naming the
    level used to visit 30.9 million pairs of unions first."""
    wide = disjoint_union(
        make_instance({"s": [(i,) for i in range(16)]}), make_instance({"r": [(i,) for i in range(100, 117)]})
    )
    start = time.perf_counter()
    with pytest.raises(ViewBudgetExceeded) as exc:
        power_view(wide, None, 1)
    assert time.perf_counter() - start < 1
    err = exc.value
    assert (err.component, err.level, err.views, err.cap) == (2, 4, None, 100_000)
    assert err.pairs > powerview.PAIRS_PER_VIEW * err.cap
    assert str(err) == f"view enumeration exceeded cap of 100000 (component 2, level 4, {err.pairs} pairs)"


def test_a_closure_within_the_pair_limit_is_the_unlimited_closure(monkeypatch):
    rng = random.Random(7)
    cases = []
    for _ in range(40):
        inst = _instance_with_components(rng)
        seeds = frozenset(r.tuples for r in inst.relations if r.tuples)
        cases.append((seeds, rng.randint(1, 4), rng.randint(max(1, inst.max_arity()), 3), rng.choice((10, 50, 500))))
    # unary: 2^n - 1 views, found after more pairs than views
    cases += [(frozenset({frozenset((i,) for i in range(n))}), 9, 1, cap) for n, cap in ((7, 150), (8, 300), (9, 600))]
    limit, stopped = powerview.PAIRS_PER_VIEW, 0
    for seeds, depth, m, cap in cases:
        readings = []
        for factor in (limit, 10**9):
            monkeypatch.setattr(powerview, "PAIRS_PER_VIEW", factor)
            try:
                readings.append(close_component(seeds, depth, m, cap))
            except ViewBudgetExceeded as exc:
                readings.append((exc.level, exc.views, exc.pairs))
        limited, unlimited = readings
        if len(limited) == 3 and limited[2] is not None:  # stopped by the pair limit
            assert limited[1] is None and limited[2] > limit * cap
            stopped += 1
        else:
            assert limited == unlimited, (seeds, depth, m, cap)
    assert stopped >= 3


def test_the_closure_memos_hold_at_most_memo_entries(monkeypatch):
    monkeypatch.setattr(powerview, "_PV_CACHE", {})
    seeds = lambda k: frozenset({(k, k + 1)})  # a seed set no other k shares
    first = weakref.ref(power_view_cached(make_instance({"r": seeds(0)}), 2, 2))
    for k in range(1, 2 * MEMO_ENTRIES):
        power_view_cached(make_instance({"r": seeds(k)}), 2, 2)
        assert len(powerview._PV_CACHE) <= MEMO_ENTRIES
    gc.collect()
    assert first() is None  # no memo keeps the first closure


def test_isomorphism_reflexive_and_vs_bottom():
    a = make_instance({"r": [(1,)]})
    assert instances_isomorphic(a, a, 2, 2)
    assert not instances_isomorphic(a, bottom_instance(), 2, 2)


def test_instance_isomorphic_to_its_view_closure():
    a = make_instance({"r": [(1,)]})
    ta = power_view(a, None, 2)
    assert instances_isomorphic(a, ta.as_instance(), None, 2)


def test_name_erasure():
    a = make_instance({"r": [(1, 2)]})
    b = make_instance({"other_name": [(1, 2)]})
    assert instances_isomorphic(a, b, None, 2)


def test_coproduct_views_are_tagged_unions():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1, 2)]})
    ab = disjoint_union(a, b)
    va, vb, vab = (
        power_view(a, None, 2),
        power_view(b, None, 2),
        power_view(ab, None, 2),
    )
    assert vab.canonical() == tuple(sorted(va.canonical() + vb.canonical()))
    # no view mixes the components
    cross = frozenset({(1,), (1, 2)})
    assert cross not in vab


def test_matching_examples():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(1,)]})
    assert matching(a, bottom_instance(), 2, 2).extensions() == {EMPTY}
    assert matching(a, a, None, 2).extensions() == power_view(a, None, 2).extensions()
    assert frozenset({(1,)}) in matching(a, b, 2, 2)


def test_matching_holds_only_views_of_both():
    a = make_instance({"r": [(1, 2)]})
    b = make_instance({"s": [(1,)]})
    for depth in (2, None):
        common = matching(a, b, depth, 2)
        assert frozenset({(1, 2)}) not in common  # a view of a alone
        assert frozenset({(1,)}) in common
        for inst in (a, b):  # every shared view is a term over either input
            _assert_sound(common, inst, 40, random.Random(1))


def test_every_view_set_holds_the_empty_view():
    a = make_instance({"r": [(1, 2), (2, 3)], "z": [()]})
    b = make_instance({"s": [(2,), (5,)]})
    sets = [
        (power_view(inst, depth, 2), inst) for inst in (a, bottom_instance()) for depth in (2, None)
    ]
    sets.append((matching(a, b, 2, 2), a))
    for vs, inst in sets:
        assert EMPTY in vs and EMPTY not in {e for _, exts in vs.components for e in exts}
        for probe in (inst, bottom_instance()):
            assert eval_spjru(view_term(EMPTY, inst, 0), probe).tuples == EMPTY


def test_merging_examples():
    a = make_instance({"r": [(1, 2)]})
    b = make_instance({"s": [(2, 3)]})
    assert (
        merging(a, bottom_instance(), 2, 4).extensions()
        == power_view(a, 2, 4).extensions()
    )
    mg = merging(a, b, 2, 4)
    assert power_view(a, 2, 4).extensions() <= mg.extensions()
    assert power_view(b, 2, 4).extensions() <= mg.extensions()
    # the equality-join of the two relations only exists under one engine
    joined = merging(a, b, 3, 4)
    assert frozenset({(1, 2, 3)}) in joined
    assert frozenset({(1, 2, 3)}) not in matching(a, b, 3, 4)


def test_separation_vs_federation_gap():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(2,)]})
    separated = power_view(disjoint_union(a, b), 2, 2)
    federated = merging(a, b, 2, 2)
    assert separated.extensions() < federated.extensions()
    assert frozenset({(1,), (2,)}) in federated
    assert frozenset({(1,), (2,)}) not in separated


def test_max_arity_widens_to_the_widest_relation():
    a = make_instance({"r": [(1, 2, 3)]})
    assert power_view(a, 2, 2) == power_view(a, 2, 3)
    assert powerview.view_closure(a, None, 2) == powerview.view_closure(a, None, 3)


def test_serialization_is_deterministic():
    a = make_instance({"r": [(2, 1), (1, 2)]})
    s1 = power_view(a, 1, 2).serialize()
    s2 = power_view(a, 1, 2).serialize()
    assert s1 == s2


def test_serialization_golden():
    assert power_view(make_instance({"r": [(1,)]}), 2, 1).serialize() == [
        [0, ["{}", "{(1)}"]]
    ]
    assert power_view(bottom_instance(), 2, 1).serialize() == [[0, ["{}"]]]
    ab = disjoint_union(make_instance({"r": [(1,)]}), make_instance({"s": [(2,)]}))
    assert power_view(ab, 1, 1).serialize() == [
        [1, ["{}", "{(1)}"]],
        [2, ["{}", "{(2)}"]],
    ]


def test_bounded_views_are_terms_over_their_component():
    a = make_instance({"r": [(1, 2), (2, 3)]})
    vs = power_view(a, 2, 3)
    assert len(vs) > 40
    _assert_sound(vs, a, 40, random.Random(1104))

    # a sum whose relations repeat a name: r#1 and r#2 hold one extension in two components
    b = make_instance({"s": [(2,), (5,)]})
    aba = disjoint_union(disjoint_union(a, b), a)
    assert aba.names == ("r#1", "r#2", "s")
    _assert_sound(power_view(aba, 1, 2), aba)  # every view
    _assert_sound(power_view(aba, None, 2), aba, 80, random.Random(2))


def _with_relations(inst, **rels):
    """*inst* with the relations *rels* added (or replaced), in component 0."""
    data = {r.name: r.tuples for r in inst.relations}
    arities = {r.name: r.arity for r in inst.relations}
    data.update(rels)
    return make_instance(data, arities=arities)


def test_closure_comparison_agrees_with_the_sorted_form():
    rng = random.Random(20)
    verdicts = {True: 0, False: 0}
    for _ in range(40):
        a = random_instance(rng, max_values=3, max_tuples=4)
        if rng.random() < 0.3:
            a = _with_relations(a, z=[()])
        r0 = a.relation("r0").tuples
        pairs = [
            random_instance(rng, max_values=3, max_tuples=4),
            make_instance(
                {f"{r.name}x": r.tuples for r in a.relations},
                arities={f"{r.name}x": r.arity for r in a.relations},
            ),
            _with_relations(a, p={t[:1] for t in r0}) if r0 else a,
            _with_relations(a, z=[()]),
            disjoint_union(a, a),
        ]
        for b in pairs:
            for depth in (1, 2, 3, None):
                va, vb = power_view(a, depth, 2), power_view(b, depth, 2)
                want = sorted_closure_form(va) == sorted_closure_form(vb)
                verdicts[want] += 1
                assert (va.canonical() == vb.canonical()) == want
                assert instances_isomorphic(a, b, depth, 2) == want
        va, vb = power_view(a, 2, 2), power_view(pairs[0], 2, 2)
        vab = power_view(disjoint_union(a, pairs[0]), 2, 2)
        assert vab.canonical() == tuple(sorted(va.canonical() + vb.canonical()))
    assert min(verdicts.values()) > 100, verdicts  # equal and unequal pairs


def test_a_bounded_iso_refuted_by_the_seeds_builds_one_closure(monkeypatch):
    built = []
    real = powerview.power_view
    monkeypatch.setattr(powerview, "_PV_CACHE", {})
    monkeypatch.setattr(powerview, "power_view", lambda inst, *args: built.append(inst) or real(inst, *args))
    swap, one = make_instance({"r": [(1, 2), (2, 1)]}), make_instance({"r": [(1, 2)]})
    # a union is two levels deep: at depth 1 swap's relation is not among one's views
    assert not instances_isomorphic(swap, one, 1, 2)
    assert built == [one]
    built.clear()
    swap, one = make_instance({"r": [(3, 4), (4, 3)]}), make_instance({"r": [(3, 4)]})
    assert not instances_isomorphic(one, swap, 1, 2)  # a selection gives {(3, 4)}: both closures compared
    assert built == [swap, one]


@pytest.mark.parametrize("depth", [1, 2, None])
def test_a_bounded_iso_closes_both_instances_at_one_shared_width(depth):
    # r's 2-tuple lifts the shared width to 2, where {(1,)} closes to hold
    # {(1, 1)} too; closing t's component at width 1 alone would say FAIL
    a = disjoint_union(make_instance({"r": [(1, 1)]}), make_instance({"s": [(5,)]}))
    b = disjoint_union(make_instance({"t": [(1,)]}), make_instance({"s": [(5,)]}))
    assert instances_isomorphic(a, b, depth, 1)
    assert instances_isomorphic(b, a, depth, 1)
