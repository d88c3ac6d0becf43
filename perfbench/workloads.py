"""The benchmark's three workloads.

Each workload has ``setup(seed)``, which builds everything that does not
depend on the pass, and ``inputs(state, pass_index)`` plus
``run_pass(rec, state, pass_inputs)``.  Inputs depend only on the seed and
the pass index.  Every op goes through ``rec.op``, which times it and runs
its output check; the checks compare against facts computed here, not by
dbcat.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"

# ---------------------------------------------------------------------------
# cli: every command as a fresh `python -m dbcat.cli` process

DATA = "tests/data"
CLI_COMMANDS = (
    ("eval", "demo", ("A0", "q(X,Z) :- r(X,Y), r(Y,Z)")),
    ("powerview", "demo", ("A0",)),
    ("iso", "federation", ("S0", "F0")),
    ("flux", "demo", ("M", "A0", "B0")),
    ("compose", "demo", ("M", "N", "A0", "B0", "D0")),
    ("laws", "demo", ()),
    ("check-model", "system", ("G",)),
    ("check-functor", "system", ("G",)),
    ("gamma-iso", "system", ("G",)),
    ("duality", "demo", ("A0", "B0")),
)
CLI_BOUNDS = {"fixpoint": ("--depth", "-1", "--arity", "2"), "bounded": ()}


def cli_argv(command, workspace, args, bound) -> list:
    return [command, *args, "-i", f"{DATA}/{workspace}.dbc", "--format", "lines", *CLI_BOUNDS[bound]]


def cli_key(command, bound) -> str:
    return f"{bound} {command}"


def cli_env() -> dict:
    # A fixed hash seed makes set and dict order, and with it the order in
    # which closures are enumerated, the same in every child; the reports
    # themselves are sorted and do not depend on it.
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def run_cli(argv, trace_file=None):
    """One command in a fresh interpreter; returns (exit status, stdout)."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "dbcat.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "launch_cli.py"), str(trace_file), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def cli_problem(expected, result):
    status, stdout = result
    if status != expected["status"]:
        return f"exit status {status}, expected {expected['status']}"
    if stdout != expected["stdout"]:
        return "stdout differs from the golden report"
    return None


def cli_setup(seed):
    """Parse the three workspaces, as every CLI process does before its
    command, and load the golden reports."""
    from dbcat import dsl

    workspaces = sorted({ws for _, ws, _ in CLI_COMMANDS})
    for ws in workspaces:
        dsl.parse_workspace([ROOT / DATA / f"{ws}.dbc"])
    return {"seed": seed, "golden": json.loads(GOLDEN.read_text())}


def cli_inputs(state, pass_index):
    ops = [(c, ws, args, bound) for c, ws, args in CLI_COMMANDS for bound in CLI_BOUNDS]
    random.Random(f"cli/{state['seed']}/{pass_index}").shuffle(ops)
    return ops


def cli_pass(rec, state, ops):
    for command, ws, args, bound in ops:
        expected = state["golden"][cli_key(command, bound)]
        argv = cli_argv(command, ws, args, bound)
        rec.op(
            bound,
            lambda: rec.run_cli(argv),
            check=lambda out, e=expected: cli_problem(e, out),
            label=f"cli.{command}.{bound}",
        )


# ---------------------------------------------------------------------------
# joins: self-join and dependency checks over a random function, swept over n

# Instances per size n in one pass.  n=250 repeats so that the median op
# lies inside the block of n=250 rule and EGD ops, whose latencies are close,
# rather than on the edge between two kinds of op.
JOIN_REPEATS = {250: 8, 500: 1, 1000: 1, 2000: 1}
JOIN_SIZES = tuple(JOIN_REPEATS)
SELF_JOIN = "q(X,Z) :- r(X,Y), r(Y,Z)"


def reference_self_join(r) -> frozenset:
    """{(x, z) : r(x, y), r(y, z)} by a dict index on the first column."""
    index: dict = {}
    for y, z in r:
        index.setdefault(y, []).append(z)
    return frozenset((x, z) for x, y in r for z in index.get(y, ()))


def join_instance(seed, pass_index, n, copy=0):
    """r is a random function on range(n); s is the first column of r."""
    from dbcat import core

    rng = random.Random(f"joins/{seed}/{pass_index}/{n}/{copy}")
    r = {(x, rng.randrange(n)) for x in range(n)}
    s = {(x,) for x, _ in r}
    return core.make_instance({"r": r, "s": s}), r


def joins_setup(seed):
    from dbcat import constraints, dsl
    from dbcat.queries import RelAtom, Var

    X, Y, Z = Var("X"), Var("Y"), Var("Z")
    return {
        "seed": seed,
        "rule": dsl.parse_rule_text(SELF_JOIN),
        # r(X,Y) => s(X): s holds the first column, so it holds everywhere.
        "tgd": constraints.Tgd(("X",), (RelAtom("r", (X, Y)),), (RelAtom("s", (X,)),)),
        # r(X,Y), r(X,Z) => Y = Z: r is a function, so its first column is a key.
        "egd": constraints.Egd((RelAtom("r", (X, Y)), RelAtom("r", (X, Z))), ("Y", "Z")),
    }


def joins_inputs(state, pass_index):
    """One (n, copy, instance, expected self-join) per instance, and the op
    order: every instance gets the four ops, shuffled across the pass."""
    instances = {}
    for n in JOIN_SIZES:
        for copy in range(JOIN_REPEATS[n]):
            inst, r = join_instance(state["seed"], pass_index, n, copy)
            instances[n, copy] = (inst, reference_self_join(r))
    ops = [(n, copy, kind) for n, copy in instances for kind in ("rule", "spjru", "tgd", "egd")]
    random.Random(f"joins-order/{state['seed']}/{pass_index}").shuffle(ops)
    return {"instances": instances, "ops": ops}


def tuples_problem(expected, relation):
    if relation.tuples != expected:
        missing, extra = len(expected - relation.tuples), len(relation.tuples - expected)
        return f"self-join differs from the reference: {missing} missing, {extra} extra"
    return None


def holds_problem(verdict):
    return None if verdict is True else "dependency reported violated"


def joins_pass(rec, state, pass_inputs):
    from dbcat import constraints, queries

    q = state["rule"]
    for n, copy, kind in pass_inputs["ops"]:
        inst, expected = pass_inputs["instances"][n, copy]
        label = f"{kind}.n{n}"
        if kind == "rule":
            rec.op("rule", lambda: queries.eval_rule(q, inst), check=lambda out, e=expected: tuples_problem(e, out), label=label)
        elif kind == "spjru":
            rec.op(
                "spjru",
                lambda: queries.eval_spjru(queries.rule_to_spjru(q), inst),
                check=lambda out, e=expected: tuples_problem(e, out),
                label=label,
            )
        else:
            dep = state[kind]
            checker = constraints.check_tgd if kind == "tgd" else constraints.check_egd
            rec.op("constraint", lambda: checker(dep, inst), check=holds_problem, label=label)


# ---------------------------------------------------------------------------
# closures: bounded classification of a stream, fixpoint closures and the
# all-pairs isomorphism matrix over them

STREAM_PER_PASS = 70
STREAM_VALUES = (1, 2, 3, 4, 5)
BOUNDED_SETTINGS = ((1, 2), (2, 2), (3, 2), (2, 3))  # (depth, max_arity)
FIXPOINT_ARITY = 2
# Relation arities of a stream component.  No unary-only pattern: over two
# values it allows too few distinct instances for a run's stream.
ARITY_PATTERNS = ((2,), (1, 2), (2, 2))
# The fixpoint set: per instance, one (values, relation arities) pair per
# component.  Consecutive pairs federate to at most 3 values, because a
# fixpoint closure over 4 values does not finish in reasonable time; the two
# single-component {1, 2} instances are isomorphic at fixpoint whatever their
# relations hold.
FIXPOINT_SHAPES = (
    (((1, 2), (2, 2)),),
    (((1, 2), (1, 2)),),
    (((1, 2), (1, 2)), ((1, 2), (2,))),
    (((1, 2, 3), (1, 2)),),
)
FRESH_ATTEMPTS = 1000
REFERENCES = (
    ({"r0": [(1, 2), (2, 1)]}, {}),
    ({"r0": [(1,), (2,), (3,)]}, {}),
    ({"r0": [(1, 2)], "s0": [(3,), (4,)]}, {"s0": 1}),
)


def stream_shape(rng, k):
    """Shape of the k-th stream instance.  Component count, domain sizes (2-4)
    and relation arities cycle with k, so every pass does the same mix of
    work; the values and the tuples are random."""
    shape = []
    for c in range(1 + k % 2):
        size = 2 + (k // 2 + c) % 3
        shape.append((tuple(sorted(rng.sample(STREAM_VALUES, size))), ARITY_PATTERNS[(k // 6 + c) % 3]))
    return shape


def random_instance(rng, shape):
    """One component per (values, arities) entry of *shape*: a relation of
    each arity, 1-5 random tuples each, with active domain exactly *values*."""
    from dbcat import core

    rels, partition = {}, {}
    for comp, (values, arities) in enumerate(shape):
        names = [f"{'rs'[comp]}{i}" for i in range(len(arities))]
        for name, arity in zip(names, arities):
            rels[name] = {tuple(rng.choice(values) for _ in range(arity)) for _ in range(rng.randint(1, 5))}
            partition[name] = comp
        for v in values:
            if not any(v in t for name in names for t in rels[name]):
                name = rng.choice(names)
                t = list(next(iter(rels[name])))
                t[rng.randrange(len(t))] = v
                rels[name].add(tuple(t))
    return core.make_instance(rels, partition=partition)


def component_domains(inst) -> list:
    """Sorted multiset of per-component active domains."""
    doms = []
    for rels in inst.components().values():
        doms.append(tuple(sorted({v for r in rels for t in r.tuples for v in t})))
    return sorted(doms)


def closure_count(domain_size: int, max_arity: int, nullary: bool) -> int:
    """Nonempty extensions in a fixpoint closure of one component: every
    nonempty subset of D^k for 1 <= k <= m, plus {()} when a nullary
    relation holds the empty tuple."""
    return sum(2 ** (domain_size**k) - 1 for k in range(1, max_arity + 1)) + (1 if nullary else 0)


def fixpoint_problem(inst, vs):
    if not vs.fixpoint:
        return "fixpoint closure without the fixpoint flag"
    comps = inst.components()
    got = dict(vs.components)
    for comp, rels in comps.items():
        domain = {v for r in rels for t in r.tuples for v in t}
        nullary = any(r.arity == 0 and r.tuples for r in rels)
        want = closure_count(len(domain), vs.max_arity, nullary)
        if len(got.get(comp, ())) != want:
            return f"component {comp}: {len(got.get(comp, ()))} views, expected {want}"
    return sources_problem(inst, vs)


def merged_problem(domain_size, vs):
    """The federated union is one component over the union of both domains."""
    want = closure_count(domain_size, vs.max_arity, False)
    got = [len(exts) for _, exts in vs.components]
    if not vs.fixpoint or got != [want]:
        return f"merged closure has {got} views, expected [{want}] at fixpoint"
    return None


def sources_problem(inst, vs):
    exts = vs.extensions()
    if any(r.tuples and r.tuples not in exts for r in inst.relations):
        return "closure misses a source relation"
    return None


def closures_setup(seed):
    from dbcat import core

    refs = [core.make_instance({k: set(v) for k, v in rels.items()}, partition=part) for rels, part in REFERENCES]
    return {"seed": seed, "refs": refs, "seen": set(refs)}


def _fresh(rng, state, shape_fn):
    """Draw instances until one differs from every instance drawn before, so
    each closure key is distinct and cache behaviour does not depend on luck."""
    from dbcat import core

    for _ in range(FRESH_ATTEMPTS):
        inst = random_instance(rng, shape_fn())
        doubled = core.disjoint_union(inst, inst)
        if inst not in state["seen"] and doubled not in state["seen"]:
            state["seen"].update((inst, doubled))
            return inst
    raise RuntimeError(f"no fresh instance in {FRESH_ATTEMPTS} draws")


def closures_inputs(state, pass_index):
    rng = random.Random(f"closures/{state['seed']}/{pass_index}")

    stream = [_fresh(rng, state, lambda k=k: stream_shape(rng, k)) for k in range(STREAM_PER_PASS)]
    fixset = [_fresh(rng, state, lambda shape=shape: shape) for shape in FIXPOINT_SHAPES]
    return {"stream": stream, "fixset": fixset, "fixset_at": rng.randrange(STREAM_PER_PASS)}


def iso_problem(a, b, verdict, expected=None):
    if not isinstance(verdict, bool):
        return f"verdict {verdict!r} is not a bool"
    if verdict and component_domains(a) != component_domains(b):
        return "isomorphic verdict for instances with different component domains"
    if expected is not None and verdict != expected:
        return f"verdict {verdict}, expected {expected}"
    return None


def chain_problem(x, levels):
    """Views at depth k are a subset of those at depth k+1, and the first
    level contains the source relations."""
    for lo, hi in zip(levels, levels[1:]):
        if not lo.extensions() <= hi.extensions():
            return f"depth-{lo.depth} views are not a subset of depth-{hi.depth} views"
    return sources_problem(x, levels[0])


def matching_problem(shared, va, vb):
    if va is None or vb is None:
        return "closure missing"
    if not shared.extensions() <= va.extensions() & vb.extensions():
        return "matching is not a subset of both closures"
    return None


def duality_problem(report):
    return None if report.passed else "duality report failed"


def bounded_ops(rec, state, x):
    from dbcat import core
    from dbcat import powerview as pv

    refs = state["refs"]
    forward = {}
    for depth, arity in BOUNDED_SETTINGS:
        for i, ref in enumerate(refs):
            check = lambda v, ref=ref: iso_problem(x, ref, v)
            if (depth, arity, i) == (3, 2, 0):
                check = lambda v, ref=ref: iso_problem(x, ref, v) or chain_problem(
                    x, [pv.power_view_cached(x, d, 2) for d in (1, 2, 3)]
                )
            forward[depth, arity, i] = rec.op("bounded", pv.instances_isomorphic, x, ref, depth, arity, check=check)
    rec.op(
        "bounded",
        pv.instances_isomorphic,
        refs[0],
        x,
        2,
        2,
        check=lambda v: iso_problem(refs[0], x, v, forward[2, 2, 0]),
    )
    for depth in (1, 2):
        rec.op(
            "bounded",
            lambda depth=depth: pv.instances_isomorphic(x, core.disjoint_union(x, x), depth, 2),
            check=lambda v: iso_problem(x, x, v, False),
        )


def fixpoint_group(rec, fixset):
    from dbcat import category
    from dbcat import powerview as pv

    m = FIXPOINT_ARITY
    closures = [
        rec.op("fixpoint", pv.power_view_cached, a, None, m, check=lambda vs, a=a: fixpoint_problem(a, vs))
        for a in fixset
    ]
    verdicts = {}
    for i, a in enumerate(fixset):
        for j, b in enumerate(fixset):
            expected = component_domains(a) == component_domains(b)
            if j < i:
                expected = verdicts.get((j, i), expected)  # symmetry
            verdicts[i, j] = rec.op(
                "classify",
                pv.instances_isomorphic,
                a,
                b,
                None,
                m,
                check=lambda v, a=a, b=b, e=expected: iso_problem(a, b, v, e),
            )
    for i, (a, b) in enumerate(zip(fixset, fixset[1:])):
        va, vb = closures[i], closures[i + 1]
        rec.op("fixpoint", pv.matching, a, b, None, m, check=lambda out, va=va, vb=vb: matching_problem(out, va, vb))
        union = {v for inst in (a, b) for r in inst.relations for t in r.tuples for v in t}
        rec.op("fixpoint", pv.merging, a, b, None, m, check=lambda vs, d=len(union): merged_problem(d, vs))
        rec.op(
            "fixpoint",
            category.verify_duality,
            a,
            b,
            depth=None,
            max_arity=m,
            check=duality_problem,
        )


def closures_pass(rec, state, pass_inputs):
    for k, x in enumerate(pass_inputs["stream"]):
        if k == pass_inputs["fixset_at"]:
            fixpoint_group(rec, pass_inputs["fixset"])
        bounded_ops(rec, state, x)


WORKLOADS = {
    "cli": (cli_setup, cli_inputs, cli_pass),
    "joins": (joins_setup, joins_inputs, joins_pass),
    "closures": (closures_setup, closures_inputs, closures_pass),
}
