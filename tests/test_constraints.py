import random
import sys
import tracemalloc

import pytest

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

from oracles import brute_force_egd, brute_force_tgd, random_body, random_instance

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
