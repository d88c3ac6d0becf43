import dataclasses
import itertools

import pytest

from dbcat.core import (
    BOT,
    SENTINEL_A,
    SENTINEL_B,
    ArityError,
    DbcatError,
    Instance,
    Relation,
    SetKey,
    active_domain,
    active_domain_by_component,
    bottom_instance,
    disjoint_union,
    disjoint_union_with_maps,
    federate,
    is_empty_isomorphic,
    ext_key,
    make_instance,
    value_key,
)
from dbcat.powerview import ViewSet, instances_isomorphic, power_view
from dbcat.queries import EmptyRel, Var
from dbcat.schemas import EmptyTerm


def test_bottom_instance_shape():
    bot = bottom_instance()
    assert bot.names == (BOT,)
    assert bot.relation(BOT).arity == 0
    assert bot.relation(BOT).tuples == frozenset()


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
    attributes: tuple = ()
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
    provenance: tuple = dataclasses.field(default=(), compare=False, hash=False, repr=False)


@dataclasses.dataclass(frozen=True)
class EmptyRelTwin:
    __qualname__ = "EmptyRel"


@dataclasses.dataclass(frozen=True)
class EmptyTermTwin:
    __qualname__ = "EmptyTerm"


VIEWS = ((0, frozenset({frozenset({(1,)}), frozenset({(1, 2)})})),)
TWINS = [
    (Relation, RelationTwin, ("r", 2, frozenset({(1, 2), (3, 4)}))),
    (Relation, RelationTwin, ("r", 1, frozenset({(1,)}), ("a",))),
    (Relation, RelationTwin, ("r", 0)),
    (Var, VarTwin, ("X",)),
    (ViewSet, ViewSetTwin, (VIEWS, 2, 2, False)),
    (ViewSet, ViewSetTwin, (VIEWS, -1, 2, True, ("provenance",))),
    (EmptyRel, EmptyRelTwin, ()),
    (EmptyTerm, EmptyTermTwin, ()),
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

def test_record_defaults_and_hidden_fields():
    r = Relation("r", 2)
    assert (r.tuples, r.attributes) == (frozenset(), ("c0", "c1"))
    a = ViewSet(VIEWS, 2, 2, False, provenance=("a",))
    b = ViewSet(VIEWS, 2, 2, False, ("b",))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert (a.provenance, b.provenance, ViewSet(VIEWS, 2, 2, False).provenance) == (("a",), ("b",), ())
    assert EmptyRel() == EmptyRel() and EmptyRel() != EmptyTerm() and hash(EmptyRel()) == hash(())
