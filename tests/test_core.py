import ast
import dataclasses
import gc
import itertools
import pathlib
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from dbcat import core, values
from dbcat.category import (
    compose,
    coproduct_morphism,
    empty_morphism,
    equivalent,
    identity,
    injection,
    mediating,
    pairing,
    projection,
    verify_duality,
)
from dbcat.core import (
    SetKey,
    active_domain,
    bottom_instance,
    disjoint_union,
    disjoint_union_with_maps,
    federate,
    is_empty_isomorphic,
    ext_key,
    format_extension,
    format_views,
    make_instance,
    tuple_key,
    value_key,
)
from dbcat.powerview import ViewSet, instances_isomorphic, power_view
from dbcat.queries import EmptyRel, Var
from dbcat.values import SENTINEL_A, SENTINEL_B, ArityError, DbcatError, Instance, Record, Relation
from oracles import sorted_views_report


def test_bottom_instance_shape():
    bot = bottom_instance()  # the empty relation is implicit: no relations at all
    assert bot.relations == () == bot.partition
    with pytest.raises(DbcatError, match="unknown relation"):
        bot.relation("_bot")


def test_bottom_is_empty_isomorphic():
    assert is_empty_isomorphic(bottom_instance())


def test_bottom_closure_is_single_view():
    vs = power_view(bottom_instance(), 3, 2)
    assert vs.extensions() == frozenset({frozenset()})


def test_is_empty_isomorphic():
    assert is_empty_isomorphic(make_instance({"r": []}, arities={"r": 2}))
    assert not is_empty_isomorphic(make_instance({"r": [(1,)]}))


def test_active_domain():
    assert active_domain(make_instance({"r": [(1, 2), (2, 3)]})) == {1, 2, 3}
    assert active_domain(bottom_instance()) == frozenset()
    assert active_domain(make_instance({"r": [("a", "a")]})) == {"a"}


def test_make_instance_uses_the_partition_and_arities_it_is_given():
    """A partition naming a relation that is not there and an arity that the
    tuples do not have are refused, not dropped."""
    with pytest.raises(DbcatError, match="partition must cover exactly the relation names"):
        make_instance({"r": [(1,)]}, partition={"s": 1})
    with pytest.raises(ArityError, match="does not match arity 3 of r"):
        make_instance({"r": [(1, 2)]}, arities={"r": 3})
    assert make_instance({"r": [(1,)], "s": [(2,)]}, partition={"s": 1}).partition == (("r", 0), ("s", 1))
    assert make_instance({"r": []}, arities={"r": 2}).relation("r").arity == 2


def test_relation_validates_tuples():
    with pytest.raises(ArityError):
        Relation("r", 2, frozenset({(1,)}))


def test_instance_rejects_duplicate_names():
    r = Relation("r", 1, frozenset({(1,)}))
    with pytest.raises(DbcatError):
        Instance((r, r), (("r", 0),))


def test_disjoint_union_tags_and_qualifies():
    a = make_instance({"r": [(1, 2)]})
    b = make_instance({"s": [(3,)]})
    ab = disjoint_union(a, b)
    assert ab.names == ("r", "s")
    assert ab.component_of("r") == 1
    assert ab.component_of("s") == 2

    aa = disjoint_union(a, a)
    assert aa.names == ("r#1", "r#2")
    assert aa.relation("r#1").tuples == aa.relation("r#2").tuples


def test_disjoint_union_with_bottom_is_isomorphic():
    a = make_instance({"r": [(1, 2)]})
    assert instances_isomorphic(a, disjoint_union(a, bottom_instance()), None, 2)
    assert instances_isomorphic(a, disjoint_union(bottom_instance(), a), None, 2)


def test_replication_is_not_isomorphic():
    a = make_instance({"r": [(1, 2)]})
    assert not instances_isomorphic(a, disjoint_union(a, a), None, 2)


def test_bottom_plus_bottom_still_bottom():
    bb = disjoint_union(bottom_instance(), bottom_instance())
    assert is_empty_isomorphic(bb)
    assert instances_isomorphic(bb, bottom_instance(), None, 1)
    # ⊥ is one value: the instance with no relations, however it is built
    empty, bot = make_instance({}), bottom_instance()
    assert empty == bot
    assert disjoint_union_with_maps(empty, bot) == disjoint_union_with_maps(bot, empty) == (bot, {}, {}, {}, {})
    # a relation the user names _bot is an ordinary relation, not a unit of the sum
    s0 = make_instance({"_bot": [(1,), (2,)]})
    assert disjoint_union(s0, s0).names == ("_bot#1", "_bot#2")
    t0 = make_instance({"r": [(1,)]})
    for into, out in ((empty, bot), (bot, empty)):  # factors meeting at ⊥ built each way
        through = compose(empty_morphism(out, t0), empty_morphism(t0, into))
        assert equivalent(through, empty_morphism(t0, t0))


def test_bottom_is_a_unit_of_the_sum_on_the_nose():
    bot = bottom_instance()
    for a in (make_instance({"r": [(1, 2)]}), make_instance({"r": [(1,)], "s": [(2,)]}, partition={"r": 1, "s": 2})):
        identity_names = {n: n for n in a.names}
        identity_comps = {c: c for _, c in a.partition}
        assert disjoint_union_with_maps(a, bot) == (a, identity_names, {}, identity_comps, {})
        assert disjoint_union_with_maps(bot, a) == (a, {}, identity_names, {}, identity_comps)
        assert disjoint_union(a, bot) == a == disjoint_union(bot, a)
        assert federate(a, bot) == federate(bot, a) == Instance(a.relations, tuple((n, 0) for n in a.names))
    assert disjoint_union(bot, bot) == bot == federate(bot, bot)


def test_union_component_ids_partition_origins():
    a = make_instance({"r": [(1,)], "s": [(2,)]}, partition={"r": 1, "s": 2})
    b = make_instance({"t": [(3,)]})
    ab, map_a, map_b, comp_a, comp_b = disjoint_union_with_maps(a, b)
    a_comps = {ab.component_of(map_a[n]) for n in ("r", "s")}
    b_comps = {ab.component_of(map_b["t"])}
    assert a_comps == {comp_a[1], comp_a[2]}
    assert not (a_comps & b_comps)


def test_disjoint_union_associative_commutative_up_to_iso():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"s": [(2,)]})
    c = make_instance({"t": [(1, 2)]})
    left = disjoint_union(disjoint_union(a, b), c)
    right = disjoint_union(a, disjoint_union(b, c))
    assert instances_isomorphic(left, right, None, 2)
    assert instances_isomorphic(disjoint_union(a, b), disjoint_union(b, a), None, 2)


def test_empty_isomorphic_means_bottom_views():
    empty = make_instance({"r": []}, arities={"r": 2})
    for depth in (0, 1, 2):
        assert power_view(empty, depth, 2).extensions() == frozenset({frozenset()})


def test_federate_merges_into_one_component():
    a = make_instance({"r": [(1,)]})
    b = make_instance({"r": [(2,)], "s": [(3,)]})
    f = federate(a, b)
    assert f.names == ("r#1", "r#2", "s")
    assert {f.component_of(n) for n in f.names} == {0}


@pytest.mark.parametrize("plus", [disjoint_union, federate])
def test_nested_sums_number_each_base_in_leaf_order(plus):
    a = make_instance({"r": [(1,)]})
    three = ["r#1", "r#2", "r#3"]
    four = ["r#1", "r#2", "r#3", "r#4"]
    assert list(plus(a, plus(a, a)).names) == three
    assert list(plus(plus(a, a), a).names) == three
    assert list(plus(plus(a, a), plus(a, a)).names) == four
    assert list(plus(plus(a, plus(a, a)), a).names) == four
    # the rank follows the leaves, so the tuples stay with their leaf
    b = make_instance({"r": [(2,)], "s": [(3,)]})
    bab = plus(b, plus(a, b))
    assert [(n, sorted(bab.relation(n).tuples)) for n in bab.names] == [
        ("r#1", [(2,)]), ("r#2", [(1,)]), ("r#3", [(2,)]), ("s#1", [(3,)]), ("s#2", [(3,)])
    ]


def test_sums_accept_names_with_any_suffix():
    odd = make_instance({"r#x": [(1,)], "r": [(2,)], "r#10": [(3,)], "r#9": [(4,)]})
    ab, map_a, map_b, _, _ = disjoint_union_with_maps(odd, make_instance({"t": [(5,)]}))
    # bare name first, numeric suffixes by value, other suffixes last
    assert map_a == {"r": "r#1", "r#9": "r#2", "r#10": "r#3", "r#x": "r#4"}
    assert map_b == {"t": "t"}
    assert ab.relation("r#4").tuples == {(1,)}
    lone = make_instance({"r#x": [(1,)]})
    assert federate(lone, make_instance({"t": [(5,)]})).names == ("r#x", "t")
    assert federate(lone, lone).names == ("r#1", "r#2")


def test_the_sum_layout_tells_apart_shapes_that_differ_only_in_components():
    one = make_instance({"r": [(1,)], "s": [(2,)]})
    two = make_instance({"r": [(1,)], "s": [(2,)]}, partition={"s": 1})
    b = make_instance({"r": [(3,)]})
    ab1, *maps1 = disjoint_union_with_maps(one, b)
    ab2, *maps2 = disjoint_union_with_maps(two, b)
    assert ab1.partition == (("r#1", 1), ("r#2", 2), ("s", 1))
    assert ab2.partition == (("r#1", 1), ("r#2", 3), ("s", 2))
    assert maps1 == [{"r": "r#1", "s": "s"}, {"r": "r#2"}, {0: 1}, {0: 2}]
    assert maps2 == [{"r": "r#1", "s": "s"}, {"r": "r#2"}, {0: 1, 1: 2}, {0: 3}]
    assert [ab2.component_of(n) for n in ab2.names] == [ab2._by_name[n][1] for n in ab2.names] == [1, 3, 2]
    assert federate(one, b) == federate(two, b)
    assert {federate(two, b).component_of(n) for n in ("r#1", "r#2", "s")} == {0}


def test_sums_of_one_shape_hold_their_own_summands_tuples():
    a1 = make_instance({"r": [(1,)], "s": [(2, 3)]})
    b1 = make_instance({"r": [(4,)]})
    a2 = make_instance({"r": [(5, 6), (7, 8)], "s": []}, arities={"s": 4})
    b2 = make_instance({"r": [()]})
    for plus in (disjoint_union, federate):
        ab1, ab2 = plus(a1, b1), plus(a2, b2)
        assert ab1.partition == ab2.partition
        for ab, a, b in ((ab1, a1, b1), (ab2, a2, b2)):
            held = {n: (r.arity, r.tuples) for n, r in zip(ab.names, ab.relations)}
            assert held == {
                "r#1": (a.relation("r").arity, a.relation("r").tuples),
                "r#2": (b.relation("r").arity, b.relation("r").tuples),
                "s": (a.relation("s").arity, a.relation("s").tuples),
            }
            assert ab.relation("s") is a.relation("s")  # a name kept keeps its relation
            assert ab == Instance(tuple(Relation(r.name, r.arity, r.tuples) for r in ab.relations), ab.partition)


def test_arrows_over_a_sum_leave_the_shared_maps_as_they_were():
    a = make_instance({"r": [(1, 2), (2, 1)], "s": [(1,)]}, partition={"s": 1})
    b = make_instance({"r": [(3,)], "t": [(3, 4)]})
    shared = disjoint_union_with_maps(a, b)[1:]
    assert all(x is y for x, y in zip(shared, disjoint_union_with_maps(a, b)[1:]))  # one layout per shape
    coproduct_morphism(identity(a), identity(b))
    mediating(injection(a, b, "left"), injection(a, b, "left"))
    pairing(projection(a, b, "left"), projection(a, b, "left"))
    for side in ("left", "right"):
        injection(a, b, side)
        projection(a, b, side)
    assert verify_duality(a, b, depth=None, max_arity=2).passed
    core._sum_layout.cache_clear()
    fresh = disjoint_union_with_maps(a, b)[1:]
    assert fresh == shared and not any(x is y for x, y in zip(shared, fresh))


def test_a_sum_keeps_no_reference_to_its_summands():
    a = make_instance({"r": [(1,)], "s": [(2,)]}, partition={"s": 1})
    b = make_instance({"r": [(3,)]})
    a.closure_signature, b.closure_signature
    sums = [disjoint_union(a, b), federate(a, b)]
    refs = [weakref.ref(a), weakref.ref(b)]
    del a, b
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert [s.names for s in sums] == [("r#1", "r#2", "s")] * 2
    pairs = [(frozenset({v}), False) for v in (1, 2, 3)]
    assert sums[0].closure_signature == frozenset((pair, 1) for pair in pairs)


def test_instance_rejects_a_name_listed_twice_in_the_partition():
    with pytest.raises(DbcatError, match="twice"):
        Instance((Relation("r", 1),), (("r", 0), ("r", 1)))


def test_value_order_is_total():
    values = ["b", 2, SENTINEL_B, 1, "a", SENTINEL_A]
    ordered = sorted(values, key=value_key)
    assert ordered == [1, 2, "a", "b", SENTINEL_A, SENTINEL_B]


def test_set_key_is_exact_when_hashes_collide():
    class Collide(frozenset):
        def __hash__(self):
            return 7

    exts = [frozenset(e) for e in ({(1,)}, {(2,)}, {(1,), (2,)}, {(1, 1)}, {("a",)})]
    sets = [Collide(c) for n in (1, 2) for c in itertools.combinations(exts, n)]
    for x, y in itertools.product(sets, repeat=2):
        assert (SetKey(x) == SetKey(Collide(y))) == (x == y)
        assert hash(SetKey(x)) == hash(SetKey(y)) == 7
    want = sorted(sets, key=lambda s: (len(s), sorted(map(ext_key, s))))
    assert [k.exts for k in sorted(map(SetKey, reversed(sets)))] == want
    assert not SetKey(sets[0]) < SetKey(Collide(sets[0]))



# ---------------------------------------------------------------------------
# the value-class base against frozen dataclass twins


@dataclasses.dataclass(frozen=True)
class RelationTwin:
    __qualname__ = "Relation"
    name: str
    arity: int
    tuples: frozenset = frozenset()
    __post_init__ = Relation.__post_init__


@dataclasses.dataclass(frozen=True)
class VarTwin:
    __qualname__ = "Var"
    name: str
    __repr__ = Var.__repr__


@dataclasses.dataclass(frozen=True)
class ViewSetTwin:
    __qualname__ = "ViewSet"
    components: tuple
    depth: int
    max_arity: int
    fixpoint: bool


@dataclasses.dataclass(frozen=True)
class EmptyRelTwin:
    __qualname__ = "EmptyRel"


class Blank(Record):
    """A second fieldless record, beside ``EmptyRel``."""


@dataclasses.dataclass(frozen=True)
class BlankTwin:
    __qualname__ = "Blank"


VIEWS = ((0, frozenset({frozenset({(1,)}), frozenset({(1, 2)})})),)
TWINS = [
    (Relation, RelationTwin, ("r", 2, frozenset({(1, 2), (3, 4)}))),
    (Relation, RelationTwin, ("r", 1, frozenset({(1,)}))),
    (Relation, RelationTwin, ("r", 0)),
    (Var, VarTwin, ("X",)),
    (ViewSet, ViewSetTwin, (VIEWS, 2, 2, False)),
    (ViewSet, ViewSetTwin, (VIEWS, -1, 2, True)),
    (EmptyRel, EmptyRelTwin, ()),
    (Blank, BlankTwin, ()),
]


@pytest.mark.parametrize("cls, twin, args", TWINS)
def test_record_behaves_like_a_frozen_dataclass(cls, twin, args):
    names = [f.name for f in dataclasses.fields(twin)]
    ours, theirs = cls(*args), twin(*args)
    assert [getattr(ours, n) for n in names] == [getattr(theirs, n) for n in names]
    assert repr(ours) == repr(theirs)
    assert hash(ours) == hash(theirs)
    by_keyword = cls(**dict(zip(names, args)))
    assert ours == by_keyword and not ours != by_keyword and hash(ours) == hash(by_keyword)
    assert ours != theirs and theirs != ours  # another class with the same fields
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    given = dict(zip(names, args))
    for c in (cls, twin):
        for n in required:
            with pytest.raises(TypeError):  # a missing argument
                c(**{m: v for m, v in given.items() if m != n})
            with pytest.raises(TypeError):  # a repeated argument
                c(*args, **{n: getattr(ours, n)})
        with pytest.raises(TypeError):
            c(*args, unknown=1)
        with pytest.raises(TypeError):
            c(*args, *[None] * (len(names) - len(args) + 1))
    for n in names + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(ours, n, None)
    for n in names:
        with pytest.raises(AttributeError):
            delattr(ours, n)

def test_record_defaults_and_every_field_in_equality():
    r = Relation("r", 2)
    assert (r.name, r.arity, r.tuples) == ("r", 2, frozenset()) and r == Relation("r", 2, frozenset())
    assert ViewSet._fields == ("components", "depth", "max_arity", "fixpoint")
    a, b = ViewSet(VIEWS, 2, 2, False), ViewSet(VIEWS, 2, 2, True)
    assert a != b and repr(a) != repr(b) and repr(b).endswith("fixpoint=True)")
    with pytest.raises(TypeError):
        ViewSet(VIEWS, 2, 2, False, ("a",))
    with pytest.raises(TypeError):  # no class keyword keeps a field out of equality
        type("Hiding", (Record,), {"__annotations__": {"x": int}}, hidden=("x",))
    assert EmptyRel() == EmptyRel() and EmptyRel() != Blank() and hash(EmptyRel()) == hash(())


report_values = st.sampled_from([-3, 0, 1, 2, 10, "", "1", "10", "a", SENTINEL_A, SENTINEL_B])


@st.composite
def view_lists(draw):
    """Views of arity 0 to 3 (so ``{()}`` and the empty view among them),
    some of them paired with a view that ties with them on the first tuple."""
    views = []
    for _ in range(draw(st.integers(0, 6))):
        rows = st.tuples(*[report_values] * draw(st.integers(0, 3)))
        view = draw(st.frozensets(rows, max_size=4))
        views.append(view)
        if view and draw(st.booleans()):
            first = min(view, key=tuple_key)
            later = draw(st.frozensets(rows, max_size=3))
            views.append(frozenset({first} | {t for t in later if tuple_key(t) > tuple_key(first)}))
    return views


@settings(max_examples=300, deadline=None)
@given(view_lists())
@example([frozenset(), frozenset({()})])
@example([frozenset({(1,)}), frozenset({("1",)}), frozenset({(1, "1")}), frozenset({("1", 1)})])
@example([frozenset({(2, 1)}), frozenset({(2, 1), (10, 1)}), frozenset({(2, 1), (2, "1")})])
def test_format_views_matches_the_sorting_oracle(views):
    assert format_views(views) == sorted_views_report(views)
    assert format_views(iter(views)) == sorted_views_report(views)
    assert [format_extension(v) for v in views] == [sorted_views_report([v])[0] for v in views]


@pytest.mark.parametrize("bad", [True, False, 1.0, None])
def test_format_views_refuses_what_value_key_refuses(bad):
    views = [frozenset({(1, "a"), (0, "a")}), frozenset({(bad, "b")})]
    with pytest.raises(TypeError):
        sorted_views_report(views)
    with pytest.raises(TypeError):  # even where an equal int is present
        format_views(views)
    with pytest.raises(TypeError):
        format_extension(frozenset({(1, 3), (bad, 2)}))


def test_only_the_record_base_and_the_sum_builder_touch_an_instance_dict():
    """Derived values are cached properties of their record.  Only the base
    class, and the one builder that already holds a value when it makes a
    record (a sum), read or write ``__dict__``."""
    touched = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{owner}.{child.name}")
            else:
                if isinstance(child, ast.Attribute) and child.attr == "__dict__":
                    touched.add(owner)
                visit(child, owner)

    for path in pathlib.Path(core.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert touched == {"values.Record.__init_subclass__", "values.Record._derived", "core._sum"}


def test_the_value_layer_imports_no_other_dbcat_module():
    """A workspace is read into values without the instance algebra: the
    value layer imports the standard library alone."""
    nodes = [n for n in ast.walk(ast.parse(pathlib.Path(values.__file__).read_text(encoding="utf-8")))
             if isinstance(n, (ast.Import, ast.ImportFrom))]
    modules = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    modules |= {"." * n.level + (n.module or "") for n in nodes if isinstance(n, ast.ImportFrom)}
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "dbcat"] == []
