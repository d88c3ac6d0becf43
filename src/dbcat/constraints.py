"""Integrity constraints: checks of the tuple- and equality-generating
dependencies of :mod:`dbcat.syntax`.

Constraints are checked against finite instances, never repaired.  Existential
witnesses on the right side of a dependency range over the instance's active
domain and the dependency's constants, extended with the two reserved sentinel
constants, which keeps the sentinel dependencies produced by sketch
construction checkable.
"""
from __future__ import annotations

from functools import partial

from .core import SENTINEL_A, SENTINEL_B, Instance, active_domain, format_value, tuple_key
from .rules import atom_components, atom_constants, bind
from .syntax import ConstraintError, Egd, Sentence, Tgd  # ConstraintError re-exported


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
    its kernel tests the pair."""
    domain = partial(_constraint_domain, d.left, inst, with_sentinels=False)
    if isinstance(d, Egd):
        atom_components(d.left, inst)
        return d._variables, bind(d._plan, inst, domain)([()])
    atom_components(d.left + d.right, inst)
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
    return next(_violations(e, inst)[1], None) is None


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
    """Conjunction over all items; the empty sentence always holds."""
    return find_sentence_violation(s, inst) is None
