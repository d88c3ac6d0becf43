import random
import sys
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import event, example, given

from dbcat import constraints, rules
from dbcat.constraints import (
    ConstraintError,
    Egd,
    Sentence,
    Tgd,
    check_egd,
    check_sentence,
    check_tgd,
    find_egd_violation,
    find_sentence_violation,
    find_tgd_violation,
)
from dbcat.core import SENTINEL_A, SENTINEL_B, bottom_instance, make_instance
from dbcat.queries import Builtin, Const, RelAtom, Var

from oracles import (
    brute_force_egd,
    brute_force_tgd,
    least_egd_violation,
    least_tgd_violation,
    random_body,
    random_instance,
)

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def tgd(universal, left, right, weakly_full=False):
    return Tgd(tuple(universal), tuple(left), tuple(right), weakly_full)


def test_tautological_tgd():
    t = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("r", (X,))])
    assert check_tgd(t, make_instance({"r": [(1,), (2,)]}))
    assert check_tgd(t, make_instance({"r": []}, arities={"r": 1}))


def test_failing_inclusion_tgd_with_witness():
    t = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("s", (X,))])
    inst = make_instance({"r": [(1,)], "s": []}, arities={"s": 1})
    assert not check_tgd(t, inst)
    assert find_tgd_violation(t, inst) == {"X": 1}


def test_sentinel_tgd():
    c = RelAtom("c", (X, Y))
    cz = RelAtom("c", (X, Z))
    t = tgd(
        ["X"],
        [c, Builtin("=", Y, Const(SENTINEL_A))],
        [cz, Builtin("=", Z, Const(SENTINEL_B))],
    )
    both = make_instance({"c": [(1, SENTINEL_A), (1, SENTINEL_B)]})
    only_a = make_instance({"c": [(1, SENTINEL_A)]})
    assert check_tgd(t, both)
    assert not check_tgd(t, only_a)
    # derived via the brute-force oracle
    assert brute_force_tgd(("X",), t.left, t.right, both)
    assert not brute_force_tgd(("X",), t.left, t.right, only_a)


def test_existential_right_side():
    t = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("s", (X, Z))])
    assert check_tgd(t, make_instance({"r": [(1,)], "s": [(1, 5)]}))
    assert not check_tgd(t, make_instance({"r": [(1,)], "s": [(2, 5)]}))


def test_weakly_full_validation():
    with pytest.raises(ConstraintError):
        tgd(["X"], [RelAtom("r", (X,))], [RelAtom("s", (X, Z))], weakly_full=True)
    with pytest.raises(ConstraintError):
        # the left-existential Y occurs twice
        tgd(
            ["X"],
            [RelAtom("r", (X, Y)), RelAtom("s", (Y, Y))],
            [RelAtom("r", (X, X))],
            weakly_full=True,
        )


def test_key_egd():
    key = Egd((RelAtom("r", (Var("K"), Var("V"))), RelAtom("r", (Var("K"), Var("W")))), ("V", "W"))
    assert not check_egd(key, make_instance({"r": [(1, 2), (1, 3)]}))
    assert check_egd(key, make_instance({"r": [(1, 2), (2, 2)]}))
    assert check_egd(key, make_instance({"r": []}, arities={"r": 2}))
    witness = find_egd_violation(key, make_instance({"r": [(1, 2), (1, 3)]}))
    assert witness["K"] == 1 and {witness["V"], witness["W"]} == {2, 3}


def test_reported_witness_is_the_least_in_value_order():
    # string values hash differently in each process; the report must not follow the hash
    inst = make_instance({"r": [(c,) for c in "abcdefgh"], "s": []}, arities={"s": 1})
    t = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("s", (X,))])
    e = Egd((RelAtom("r", (X,)), RelAtom("r", (Y,))), ("X", "Y"))
    assert find_sentence_violation(Sentence((t,)), inst) == "tgd[0] fails at X='a'"
    assert find_sentence_violation(Sentence((e,)), inst) == "egd[0] fails at X='a' Y='b'"
    assert find_tgd_violation(t, inst) == {"X": "a"} and find_egd_violation(e, inst) == {"X": "a", "Y": "b"}


def test_tgd_check_streams_its_left_bindings():
    # r is complete on 30 values: r(X,Y), r(Y,Z) has 27,000 bindings but only 30 values of X
    n = 30
    inst = make_instance({"r": {(x, y) for x in range(n) for y in range(n)}, "s": {(x,) for x in range(n)}})
    t = tgd(["X"], [RelAtom("r", (X, Y)), RelAtom("r", (Y, Z))], [RelAtom("s", (X,))])
    bindings = n**3
    inst.index("r", ())  # the instance's own indexes are not the matcher's working memory
    inst.index("r", (0,))
    tracemalloc.start()
    try:
        assert check_tgd(t, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 3-tuple of small ints per binding, before any dict or list holding them
    materialised = bindings * sys.getsizeof((0, 0, 0))
    assert peak < materialised / 10


def test_egd_requires_variables_in_left():
    with pytest.raises(ConstraintError):
        Egd((RelAtom("r", (X,)),), ("X", "Q"))


def test_empty_sentence_always_holds():
    assert check_sentence(Sentence(), make_instance({"r": [(1,)]}))
    assert check_sentence(Sentence(), bottom_instance())


def test_sentence_conjunction():
    taut = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("r", (X,))])
    vac = Egd((RelAtom("r", (X,)), RelAtom("r", (Y,)), Builtin("=", X, Y)), ("X", "Y"))
    empty = make_instance({"r": []}, arities={"r": 1})
    assert check_sentence(Sentence((taut, vac)), empty)

    failing = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("s", (X,))])
    inst = make_instance({"r": [(1,)], "s": []}, arities={"s": 1})
    assert not check_sentence(Sentence((taut, failing)), inst)
    assert "tgd[1]" in find_sentence_violation(Sentence((taut, failing)), inst)


def test_yes_no_query_as_empty_universal_tgd():
    # an existence check: no universals, empty-true left, right asks for a row
    t = tgd([], [RelAtom("r", (X,))], [RelAtom("s", (Y,))])
    assert check_tgd(t, make_instance({"r": [(1,)], "s": [(7,)]}))
    assert not check_tgd(t, make_instance({"r": [(1,)], "s": []}, arities={"s": 1}))


def test_tgd_agrees_with_oracle_randomized():
    rng = random.Random(4242)
    for _ in range(120):
        inst = random_instance(rng, max_values=3, max_tuples=4)
        rels = [r for r in inst.relations]
        r1, r2 = rng.choice(rels), rng.choice(rels)
        left = (RelAtom(r1.name, tuple(Var(v) for v in ("X", "Y")[: r1.arity])),)
        right = (RelAtom(r2.name, tuple(Var(v) for v in ("X", "Z")[: r2.arity])),)
        universal = ("X",)
        t = Tgd(universal, left, right)
        assert check_tgd(t, inst) == brute_force_tgd(universal, left, right, inst)


def test_egd_agrees_with_oracle_randomized():
    rng = random.Random(777)
    for _ in range(120):
        inst = random_instance(rng, max_values=3, max_tuples=4)
        binary = [r for r in inst.relations if r.arity == 2]
        if not binary:
            continue
        r = rng.choice(binary)
        left = (RelAtom(r.name, (Var("K"), Var("V"))), RelAtom(r.name, (Var("K"), Var("W"))))
        e = Egd(left, ("V", "W"))
        assert check_egd(e, inst) == brute_force_egd(left, ("V", "W"), inst)


def test_right_side_builtin_variable_ranges_over_left_constants():
    # Z = X binds Z only through a built-in; X = 5 is a constant of the left side
    left = (RelAtom("r", (Y,)), Builtin("=", X, Const(5)))
    right = (RelAtom("r", (Y,)), Builtin("=", Z, X))
    inst = make_instance({"r": [(1,)]})
    assert brute_force_tgd(("X",), left, right, inst)
    assert check_tgd(Tgd(("X",), left, right), inst)


def test_three_atom_dependencies_with_constants_and_builtins_match_brute_force():
    rng = random.Random(8128)
    for _ in range(200):
        inst = random_instance(rng, max_values=3, max_tuples=5)
        left = tuple(random_body(rng, inst))
        names = sorted({v.name for a in left for v in a.variables()})
        universal = tuple(rng.sample(names, rng.randint(0, min(2, len(names)))))
        right = tuple(random_body(rng, inst, n_atoms=rng.randint(1, 2), free_var=False))
        t = Tgd(universal, left, right)
        assert check_tgd(t, inst) == brute_force_tgd(universal, left, right, inst)
        pair = tuple(rng.choice(names) for _ in range(2))
        assert check_egd(Egd(left, pair), inst) == brute_force_egd(left, pair, inst)


def test_a_sentence_is_checked_without_a_least_violation(monkeypatch):
    def unasked(d, inst):
        raise AssertionError("check_sentence asked for a least violation")

    monkeypatch.setattr(constraints, "_least_violation", unasked)
    taut = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("r", (X,))])
    failing = tgd(["X"], [RelAtom("r", (X,))], [RelAtom("s", (X,))])
    key = Egd((RelAtom("r", (X,)), RelAtom("r", (Y,))), ("X", "Y"))  # r holds at most one value
    inst = make_instance({"r": [(1,), ("1",)], "s": [(1,)]})
    assert check_sentence(Sentence((taut,)), inst)
    assert not check_sentence(Sentence((taut, failing, key)), inst)
    assert not check_sentence(Sentence((key, taut)), inst)


# -- inclusion and functional dependencies, and their near misses -------------

DEP_VALUES = (1, "1", 2)


@st.composite
def dependency_instances(draw):
    """r and s of arity 0-3, each with up to five tuples over 1, "1" and 2, and empty ones among them."""
    arities = {name: draw(st.sampled_from((2, 3, 1, 0))) for name in "rs"}
    tuples = {name: draw(st.sets(st.tuples(*[st.sampled_from(DEP_VALUES)] * a), max_size=min(5, 3**a))) for name, a in arities.items()}
    return make_instance(tuples, arities=arities)


def _fresh(prefix: str, n: int) -> list:
    return [Var(f"{prefix}{i}") for i in range(n)]


def _ind(draw, arities: dict) -> Tgd:
    """R[A] ⊆ S[B]: the universals a permuted subset of the left's variables,
    placed at distinct columns of the right, existentials on its other columns."""
    r, s = draw(st.sampled_from("rs")), draw(st.sampled_from("rs"))
    left = _fresh("X", arities[r])
    universal = draw(st.permutations(left))[: draw(st.sampled_from(range(min(arities[r], arities[s]), -1, -1)))]
    right = _fresh("Z", arities[s])
    for v, col in zip(universal, draw(st.permutations(range(arities[s])))):
        right[col] = v
    return Tgd(tuple(v.name for v in universal), (RelAtom(r, tuple(left)),), (RelAtom(s, tuple(right)),))


def _fd(draw, arities: dict) -> Egd | None:
    """K → j on a relation of arity a >= 1: two atoms that share the variables of K."""
    name = draw(st.sampled_from([n for n, a in arities.items() if a] or [None]))
    if name is None:
        return None
    a = arities[name]
    j = draw(st.integers(0, a - 1))
    key = draw(st.sets(st.sampled_from([c for c in range(a) if c != j]))) if a > 1 else set()
    x, y = _fresh("X", a), _fresh("Y", a)
    y = [x[c] if c in key else v for c, v in enumerate(y)]
    pair = (x[j].name, y[j].name)
    return Egd((RelAtom(name, tuple(x)), RelAtom(name, tuple(y))), pair[:: draw(st.sampled_from((1, -1)))])


def _near_miss(draw, arities: dict, d: Tgd | Egd) -> Tgd | Egd:
    """*d* one step outside the two shapes, keeping its universals and its pair:
    a constant or a repeated variable in an atom, a built-in, a second atom on
    one side, an EGD over two relations, a universal missing from the right,
    or an EGD's atoms sharing a variable at two columns; a built-in where the
    step does not fit."""
    sides = [list(d.left), list(d.right)] if isinstance(d, Tgd) else [list(d.left)]
    keep = set(d.universal if isinstance(d, Tgd) else d.pair)
    spots = [(k, i, c) for k, side in enumerate(sides) for i, a in enumerate(side) for c, t in enumerate(a.args) if t.name not in keep]
    kind = draw(st.sampled_from(["constant", "repeat", "builtin", "two atoms", "two relations", "off key"]))
    other = "s" if sides[0][0].name == "r" else "r"
    if kind == "repeat":
        spots = [spot for spot in spots if len(sides[spot[0]][spot[1]].args) > 1]
    if kind in ("constant", "repeat") and spots:
        k, i, c = draw(st.sampled_from(spots))
        args = list(sides[k][i].args)
        if kind == "constant":
            args[c] = Const(draw(st.sampled_from(DEP_VALUES)))
        else:
            args[c] = args[draw(st.sampled_from([col for col in range(len(args)) if col != c]))]
        sides[k][i] = RelAtom(sides[k][i].name, tuple(args))
    elif kind == "two atoms":
        k = draw(st.integers(0, len(sides) - 1))
        sides[k].insert(draw(st.integers(0, len(sides[k]))), RelAtom(other, tuple(_fresh("W", arities[other]))))
    elif kind == "two relations" and isinstance(d, Egd) and arities[other]:
        x = sides[0][0].args
        pair_col = next(c for c, t in enumerate(x) if t.name in keep)
        sides[0][1] = RelAtom(other, tuple(_fresh("Y", arities[other])))
        return Egd(tuple(sides[0]), (x[pair_col].name, "Y0"))
    elif kind == "off key" and isinstance(d, Tgd) and d.universal:
        u, (atom,) = draw(st.sampled_from(d.universal)), sides[1]
        sides[1] = [RelAtom(atom.name, tuple(Var("V") if t.name == u else t for t in atom.args))]
    elif kind == "off key" and isinstance(d, Egd) and (crossings := _crossings(*sides[0], keep)):
        c, c2 = draw(st.sampled_from(crossings))
        y = list(sides[0][1].args)
        y[c] = sides[0][0].args[c2]
        sides[0][1] = RelAtom(sides[0][1].name, tuple(y))
    else:
        names = sorted({t.name for side in sides for a in side for t in a.args})
        term = Var(draw(st.sampled_from(names))) if names else Const(draw(st.sampled_from(DEP_VALUES)))
        k = draw(st.integers(0, len(sides) - 1))
        sides[k].insert(draw(st.integers(0, len(sides[k]))), Builtin(draw(st.sampled_from(("=", "<="))), term, Const(draw(st.sampled_from(DEP_VALUES)))))
    return Tgd(d.universal, *map(tuple, sides)) if isinstance(d, Tgd) else Egd(tuple(sides[0]), d.pair)


def _crossings(first: RelAtom, second: RelAtom, keep: set) -> list:
    """Columns (c, c2) off the key, c2 not c, where *second* may take *first*'s variable at c2 in place of its own at c."""
    off = [c for c, (x, y) in enumerate(zip(first.args, second.args)) if x != y]
    return [(c, c2) for c in off for c2 in off if c2 != c and second.args[c].name not in keep]


@st.composite
def dependency_cases(draw):
    """An instance, an IND or an FD over it, and whether to take it one step outside its shape instead."""
    inst = draw(dependency_instances())
    arities = {r.name: r.arity for r in inst.relations}
    d = _fd(draw, arities) if draw(st.booleans()) else None
    d = d or _ind(draw, arities)
    return (inst, _near_miss(draw, arities, d), False) if draw(st.booleans()) else (inst, d, True)


def _answers(d: Tgd | Egd, inst) -> tuple:
    """The verdict and least violation of *d*, and the plans made for each."""
    planned, real = [], rules.plan
    with mock.patch.object(rules, "plan", lambda *args: planned.append(args) or real(*args)):
        if isinstance(d, Tgd):
            verdict, checked = check_tgd(d, inst), len(planned)
            return verdict, checked, find_tgd_violation(d, inst), len(planned) - checked
        verdict, checked = check_egd(d, inst), len(planned)
        return verdict, checked, find_egd_violation(d, inst), len(planned) - checked


def _shape(d: Tgd | Egd, keyed: bool) -> str:
    """A label of the draw's shape, for ``--hypothesis-show-statistics``."""
    if not keyed:
        atoms = d.left + getattr(d, "right", ())
        rels = [a for a in atoms if isinstance(a, RelAtom)]
        steps = {
            "a constant": any(isinstance(t, Const) for a in rels for t in a.args),
            "a repeat": any(len(set(a.args)) < len(a.args) for a in rels),
            "a built-in": len(rels) < len(atoms),
            "a third atom": len(rels) > 2,
            "two relations": isinstance(d, Egd) and len({a.name for a in rels}) > 1,
            "a universal off the right": isinstance(d, Tgd) and not set(d.universal) <= {v.name for a in d.right for v in a.variables()},
            "a crossed variable": isinstance(d, Egd) and len(rels) == 2 and any(
                x != y and x in rels[1].args for x, y in zip(rels[0].args, rels[1].args)
            ),
        }
        return f"{type(d).__name__} near miss with {', '.join(k for k, hit in steps.items() if hit)}"
    if isinstance(d, Egd):
        return f"FD with a key of {len(d._key_form[1])} columns"
    r, a, s, b = d._key_form
    permuted = list(a) != sorted(a) or list(b) != sorted(b)
    return f"IND on {len(a)} columns{' permuted' * permuted}{' with right existentials' * (len(b) < len(d.right[0].args))}"


@given(dependency_cases())
@example((make_instance({"r": [(1, 2), ("1", 2)], "s": [("1",)]}), Tgd(("X",), (RelAtom("r", (X, Y)),), (RelAtom("s", (X,)),)), True))
@example((make_instance({"r": [(1, 1, 2), (1, 1, 3)]}), Egd((RelAtom("r", (X, Y, Z)), RelAtom("r", (X, Y, Var("W")))), ("W", "Z")), True))
@example((make_instance({"r": [(1,), ("1",)], "s": []}, arities={"s": 2}), Tgd((), (RelAtom("r", (X,)),), (RelAtom("s", (Z, Y)),)), True))
@example((make_instance({"r": [(1, 2), (2, 1)]}), Tgd(("X", "Y"), (RelAtom("r", (X, Y)),), (RelAtom("r", (Y, X)),)), True))
@example((make_instance({"r": [(1, 2)], "s": [(1, 5)]}), Tgd(("X", "Y"), (RelAtom("r", (X, Y)),), (RelAtom("s", (X, Z)),)), False))
@example((make_instance({"r": [(1, 2, 3), (1, 2, 4)]}), Egd((RelAtom("r", (X, Y, Z)), RelAtom("r", (X, Var("W"), Var("V")))), ("Y", "W")), True))
def test_key_views_decide_inds_and_fds_as_the_oracles_do(case):
    """INDs (several columns, permuted, with right existentials, with no
    universal) and FDs (keys of several columns and the empty key) answer on
    key views and make no plan, except for the least violation of a failing
    FD; their near misses keep their plans.  Each answers as the oracles do."""
    inst, d, keyed = case
    verdict, checked, least, found = _answers(d, inst)
    event(_shape(d, keyed))
    if isinstance(d, Tgd):
        assert verdict == brute_force_tgd(d.universal, d.left, d.right, inst)
        assert least == least_tgd_violation(d.universal, d.left, d.right, inst)
    else:
        assert verdict == brute_force_egd(d.left, d.pair, inst)
        assert least == least_egd_violation(d.left, d.pair, inst)
    assert (d._key_form is not None) == keyed
    if keyed:
        assert checked == 0 and found == (0 if isinstance(d, Tgd) or verdict else 1)
    else:
        assert checked > 0
