"""Integrity constraints: checks of the tuple- and equality-generating
dependencies of :mod:`dbcat.syntax`.

Constraints are checked against finite instances, never repaired.  Existential
witnesses on the right side of a dependency range over the instance's active
domain and the dependency's constants, extended with the two reserved sentinel
constants, which keeps the sentinel dependencies produced by sketch
construction checkable.

The two classical kinds are decided in C on the key views of
:meth:`~dbcat.core.Instance.index`, with no kernel (:func:`key_form`): an
inclusion dependency R[A] ⊆ S[B] by streaming R's keys on A that S lacks, a
functional dependency K → j by counting R's keys on K and its (K, j) values.
Only a failing FD runs its kernel, for its least violation.  Verdicts and
least violations are the same either way.
"""
from __future__ import annotations

from functools import partial
from itertools import chain, filterfalse

from .core import SENTINEL_A, SENTINEL_B, Instance, active_domain, format_value, picker, tuple_key
from .rules import atom_components, atom_constants, bind
from .syntax import ConstraintError, Egd, RelAtom, Sentence, Tgd, Var  # ConstraintError re-exported


def key_form(d: Tgd | Egd):
    """``(R, A, S, B)`` when the TGD *d* is the inclusion dependency R[A] ⊆ S[B]:
    one atom a side, each of distinct variables, every universal on the right,
    A and B its columns in universal order.  ``(R, K, j)`` when the EGD *d* is
    the FD K → j: two atoms of R, each of distinct variables, sharing just the
    variables of columns K, and equating the pair at column j.  Else None."""
    atoms = d.left + d.right if isinstance(d, Tgd) else d.left
    cols = [[t.name for t in a.args] for a in atoms if isinstance(a, RelAtom) and all(isinstance(t, Var) for t in a.args)]
    if len(atoms) != 2 or len(cols) != 2 or any(len(set(c)) < len(c) for c in cols):
        return None
    (r, s), (left, right) = atoms, cols
    if isinstance(d, Tgd):
        ind = len(d.left) == 1 and set(d.universal) <= set(right)
        return (r.name, tuple(map(left.index, d.universal)), s.name, tuple(map(right.index, d.universal))) if ind else None
    key = tuple(i for i, (x, y) in enumerate(zip(left, right)) if x == y)
    j = [i for i, xy in enumerate(zip(left, right)) if xy in (d.pair, d.pair[::-1]) and xy[0] != xy[1]]
    return (r.name, key, j[0]) if r.name == s.name and len(set(left) & set(right)) == len(key) and j else None


def _keys(inst: Instance, name: str, cols: tuple):
    """The distinct tuples of relation *name*'s values at *cols*, read in C
    and built into no set: its own tuples, rearranged lazily if need be, when
    *cols* reads every column, else the keys of its index, bare values on one
    column."""
    r = inst.relation(name)
    if len(cols) < r.arity:
        return inst.index(name, cols).keys()
    return r.tuples if cols == tuple(range(r.arity)) else map(picker(cols), r.tuples)


def _fd_holds(e: Egd, inst: Instance) -> bool:
    """Whether the FD K → j holds: R has one key on K per tuple, or as many
    as it has distinct (K, j) values."""
    atom_components(e.left, inst)
    name, key, j = e._key_form
    tuples, keys = inst.relation(name).tuples, len(inst.index(name, key))
    return keys == len(tuples) or keys == len(set(map(picker((*key, j)), tuples)))


def _constraint_domain(atoms, inst: Instance, with_sentinels: bool) -> frozenset:
    values = atom_constants(atoms) | active_domain(inst)
    return values | {SENTINEL_A, SENTINEL_B} if with_sentinels else values


def _violations(d: Tgd | Egd, inst: Instance):
    """``(names, rows)``: the variables a violation binds, and a stream of rows
    of their values.  For a TGD: the left side's distinct universal tuples
    less those a semi-join with the right side witnesses; a right-side
    variable only a built-in binds ranges over the left side's domain, the
    right side's constants and the sentinels.  For an EGD: the satisfying
    assignments, over its variables by name, equating two distinct values;
    its kernel tests the pair.  An IND or an FD is decided on key views."""
    domain = partial(_constraint_domain, d.left, inst, with_sentinels=False)
    if isinstance(d, Egd):
        if d._key_form and _fd_holds(d, inst):
            return d._variables, iter(())
        atom_components(d.left, inst)
        return d._variables, bind(d._plan, inst, domain)([()])
    atom_components(d.left + d.right, inst)
    if d._key_form:
        r, a, s, b = d._key_form
        left, right = _keys(inst, r, a), _keys(inst, s, b)
        right = set(right) if right.__class__ is map else right  # a side of permuted whole tuples is probed in a set
        bare = len(b) == 1 < inst.relation(s).arity  # one column of several: bare values, not 1-tuples
        if len(a) == 1 and bare != (inst.relation(r).arity > 1):
            left = chain.from_iterable(left) if bare else zip(left)  # the left keys take the right side's form
        rows = filterfalse(right.__contains__, left)
        return d.universal, zip(rows) if bare else rows
    right_domain = partial(_constraint_domain, d.left + d.right, inst, with_sentinels=True)
    universals = set(bind(d._left, inst, domain)([()]))
    return d.universal, iter(universals.difference(bind(d._right, inst, right_domain)(universals)))


def _least_violation(d: Tgd | Egd, inst: Instance):
    names, rows = _violations(d, inst)
    row = min(rows, key=tuple_key, default=None)
    return None if row is None else dict(zip(names, row))


def find_tgd_violation(t: Tgd, inst: Instance):
    """The universal assignment whose right side has no witness that is least
    in value order of the universal tuple, or None."""
    return _least_violation(t, inst)


def check_tgd(t: Tgd, inst: Instance) -> bool:
    return next(_violations(t, inst)[1], None) is None


def find_egd_violation(e: Egd, inst: Instance):
    """The satisfying assignment equating two distinct values that is least in
    value order over the variables sorted by name, or None."""
    return _least_violation(e, inst)


def check_egd(e: Egd, inst: Instance) -> bool:
    """An FD is answered on its key views alone, any other EGD at its first violation."""
    return _fd_holds(e, inst) if e._key_form else next(_violations(e, inst)[1], None) is None


def find_sentence_violation(s: Sentence, inst: Instance):
    """Description of the first violated conjunct, at its least violation, or
    None when satisfied."""
    for idx, item in enumerate(s.items):
        env = _least_violation(item, inst)
        if env is not None:
            kind = "tgd" if isinstance(item, Tgd) else "egd"
            binding = " ".join(f"{k}={format_value(v)}" for k, v in sorted(env.items()))
            return f"{kind}[{idx}] fails at {binding}" if binding else f"{kind}[{idx}] fails"
    return None


def check_sentence(s: Sentence, inst: Instance) -> bool:
    """Conjunction over all items, answered at the first violated one; the
    empty sentence always holds."""
    return all((check_tgd if isinstance(d, Tgd) else check_egd)(d, inst) for d in s.items)
