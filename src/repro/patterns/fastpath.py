"""Execution fast paths: compiled action kernels and vector shapes.

The interpreted executor (:mod:`repro.patterns.executor`) re-walks the
expression tree through ``_Evaluator.eval`` for every delivered payload —
an ``unalias``/``key()``/``isinstance`` dispatch per AST node per message.
``fast_path="vector"`` (the default) removes that CPU tax while keeping
the message-level semantics of the interpreted walk (``fast_path="off"``)
as the reference.  Each bound action resolves to one of two tiers:

**walk** (:class:`ClosureCompiler`, :func:`compile_steps`).  At ``bind()``
time every step's condition and modification chain is compiled once into
plain Python closures.  A closure takes ``(env, rank)`` and returns the
expression's value; environment lookups, property reads and operator
dispatch are resolved at compile time, so per-message work is a handful
of dict probes and calls.  The compiled walk produces bit-identical
payloads, statistics and property values to the interpreted walk, and it
is the fallback for every plan the fused shape does not match.

**fused** (:func:`recognize_vector_shape`).  Plans matching the
SSSP-relax / CC-hook shape — a single ``out_edges`` or ``adj`` generator,
one merged comparison condition, and one min/max-style assignment at the
generated neighbour — are compiled to *index-array kernels*: every
carried payload column of a whole batch of start vertices is computed as
numpy operations over ``LocalCSR`` arrays and property-map backing arrays,
and a whole coalesced envelope of payloads is applied as one extremum
scatter (``np.minimum.at``), with dependent-vertex ``work`` hooks fired
from the changed mask.  Every such shape is also gather -> evaluate
fusable (:func:`~repro.patterns.locality.fusion_report`: the kernels'
expressions are all source-local, and the update is a confluent
extremum), so the fan-out applies rank-local edges inline (no message at
all) and drops dominated remote candidates before they reach the wire.

Single-vertex consistency (paper Sec. IV-A merging) is preserved: the
batch kernel takes every destination vertex's lock before mutating and a
message's condition is still evaluated against the value at its own
destination (the scatter's compare-and-update is exactly the merged
eval+modify handler, applied once per payload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..props.property_map import EdgePropertyMap, VertexPropertyMap
from .action import Assign, AugAdd, ModifyCall
from .expr import (
    EDGE,
    PURE_FUNCTIONS,
    BinOp,
    BoolOp,
    Call,
    Compare,
    Const,
    Contains,
    Expr,
    GenVar,
    InputVertex,
    PropRead,
    SrcOf,
    TrgOf,
    unalias,
)
from .locality import fusion_report, match_extremum

_MISSING = object()  # sentinel: distinguishes "absent" from stored None
_INPUT_VALUE = object()  # sentinel: carried key whose value is the input vertex


# ---------------------------------------------------------------------------
# The walk tier: scalar closure compilation
# ---------------------------------------------------------------------------


class ClosureCompiler:
    """Compiles :class:`~repro.patterns.expr.Expr` trees to closures.

    A compiled expression is ``f(env, rank) -> value`` with the same
    semantics as ``_Evaluator.eval``: keys already present in the carried
    environment win (gathered reads, folded subexpressions), otherwise
    property maps are read at the executing rank.  Closures are memoized
    by structural key, so shared subexpressions compile once.
    """

    def __init__(self, bound) -> None:
        self.bound = bound
        self._memo: dict = {}

    def compile(self, expr: Expr) -> Callable:
        expr = unalias(expr)
        key = expr.key()
        fn = self._memo.get(key)
        if fn is None:
            fn = self._build(expr, key)
            self._memo[key] = fn
        return fn

    # -- node builders ------------------------------------------------------
    def _build(self, expr: Expr, key) -> Callable:
        if isinstance(expr, Const):
            val = expr.value
            return lambda env, rank: val
        if isinstance(expr, (InputVertex, GenVar)):
            # must be in the environment (the interpreted path raises too)
            return lambda env, rank: env[key]
        if isinstance(expr, PropRead):
            get = self.bound.maps[expr.decl.name].get
            idx = self.compile(expr.index)

            def read(env, rank, _k=key, _get=get, _idx=idx):
                v = env.get(_k, _MISSING)
                if v is not _MISSING:
                    return v
                return _get(_idx(env, rank), rank=rank)

            return read
        if isinstance(expr, SrcOf):
            edge = self.compile(expr.edge)
            g_src = self.bound.graph.src

            def srcof(env, rank, _k=key, _e=edge, _f=g_src):
                v = env.get(_k, _MISSING)
                return v if v is not _MISSING else _f(_e(env, rank))

            return srcof
        if isinstance(expr, TrgOf):
            edge = self.compile(expr.edge)
            g_trg = self.bound.graph.trg

            def trgof(env, rank, _k=key, _e=edge, _f=g_trg):
                v = env.get(_k, _MISSING)
                return v if v is not _MISSING else _f(_e(env, rank))

            return trgof
        if isinstance(expr, (BinOp, Compare)):
            left = self.compile(expr.left)
            right = self.compile(expr.right)
            op = expr._OPS[expr.op]
            if isinstance(expr, Compare):
                # comparisons are never folded into the env
                return lambda env, rank, _l=left, _r=right, _op=op: _op(
                    _l(env, rank), _r(env, rank)
                )

            def binop(env, rank, _k=key, _l=left, _r=right, _op=op):
                v = env.get(_k, _MISSING)
                return v if v is not _MISSING else _op(_l(env, rank), _r(env, rank))

            return binop
        if isinstance(expr, BoolOp):
            left = self.compile(expr.left)
            if expr.op == "not":
                return lambda env, rank, _l=left: not _l(env, rank)
            right = self.compile(expr.right)
            if expr.op == "and":
                return lambda env, rank, _l=left, _r=right: bool(
                    _l(env, rank)
                ) and bool(_r(env, rank))
            return lambda env, rank, _l=left, _r=right: bool(_l(env, rank)) or bool(
                _r(env, rank)
            )
        if isinstance(expr, Contains):
            read = self.compile(expr.read)
            item = self.compile(expr.item)

            def contains(env, rank, _c=read, _i=item):
                container = _c(env, rank)
                return container is not None and _i(env, rank) in container

            return contains
        if isinstance(expr, Call):
            args = tuple(self.compile(a) for a in expr.args)
            fn = PURE_FUNCTIONS[expr.fn_name]

            def call(env, rank, _k=key, _args=args, _fn=fn):
                v = env.get(_k, _MISSING)
                if v is not _MISSING:
                    return v
                return _fn(*[a(env, rank) for a in _args])

            return call
        raise TypeError(f"cannot compile {expr!r}")  # pragma: no cover


@dataclass
class CompiledStep:
    """Flattened, pre-resolved form of one plan step."""

    kind: str  # 'gather' | 'eval' | 'modify'
    loc_key: tuple
    carry: frozenset  # live_in minus the address-slot key
    elide_keys: tuple  # all keys this gather provides (run-time elision)
    reads: list  # [(key, pm.get, compiled index)]
    routing: list  # [(key, closure)]
    folds: list  # [(key, closure)]
    test: Optional[Callable]
    mods: list  # [apply(ctx, env, rank)]


def _compile_mod(ba, m, cc: ClosureCompiler) -> Callable:
    """Compile one modification into ``apply(ctx, env, rank)``.

    Mirrors ``BoundAction._apply_mods`` exactly, including change
    detection, env refresh for later modifications in the group, and the
    dependency/work-hook rule.  ``ba`` (the bound action) is consulted at
    call time so strategies can still swap the ``work`` hook after bind.
    """
    pm = ba.bound.maps[m.target.decl.name]
    get, set_ = pm.get, pm.set
    idx = cc.compile(m.target.index)
    refresh_key = ("read", m.target.decl.name, unalias(m.target.index).key())
    dependent = m.target.decl.name in ba.plan.dependent_props
    stats = ba.bound.machine.stats

    def fire(ctx, w) -> None:
        ba.change_count += 1
        if dependent:
            stats.count_work_item()
            if ba.work is not None:
                ba.work(ctx, w)

    if isinstance(m, Assign):
        val = cc.compile(m.value)

        def apply_assign(ctx, env, rank):
            w = idx(env, rank)
            new = val(env, rank)
            old = get(w, rank=rank)
            ba.assign_count += 1
            if old != new:
                set_(w, new, rank=rank)
                if refresh_key in env:
                    env[refresh_key] = new
                fire(ctx, w)

        return apply_assign
    if isinstance(m, AugAdd):
        val = cc.compile(m.value)

        def apply_augadd(ctx, env, rank):
            w = idx(env, rank)
            delta = val(env, rank)
            old = get(w, rank=rank)
            ba.assign_count += 1
            if delta != 0:
                set_(w, old + delta, rank=rank)
                if refresh_key in env:
                    env[refresh_key] = old + delta
                fire(ctx, w)

        return apply_augadd
    assert isinstance(m, ModifyCall)
    args = tuple(cc.compile(a) for a in m.args)
    insert = m.method == "insert"

    def apply_call(ctx, env, rank):
        w = idx(env, rank)
        container = get(w, rank=rank)
        if container is None:
            container = set()
            set_(w, container, rank=rank)
        vals = [a(env, rank) for a in args]
        item = vals[0] if len(vals) == 1 else tuple(vals)
        ba.assign_count += 1
        if insert:
            if item not in container:
                container.add(item)
                if refresh_key in env:
                    env[refresh_key] = container
                fire(ctx, w)
        else:
            if item in container:
                container.discard(item)
                if refresh_key in env:
                    env[refresh_key] = container
                fire(ctx, w)

    return apply_call


def compile_steps(ba) -> list[list[CompiledStep]]:
    """Compile every step of a bound action's plan (one list per condition)."""
    cc = ClosureCompiler(ba.bound)
    out: list[list[CompiledStep]] = []
    for cp in ba.plan.cond_plans:
        steps: list[CompiledStep] = []
        for s in cp.steps:
            loc_key = unalias(s.locality).key()
            reads = [
                (r.key(), ba.bound.maps[r.decl.name].get, cc.compile(r.index))
                for r in s.reads
            ]
            routing = [(r.key(), cc.compile(r)) for r in s.routing]
            folds = [(f.key(), cc.compile(f)) for f in s.folds]
            steps.append(
                CompiledStep(
                    kind=s.kind,
                    loc_key=loc_key,
                    carry=frozenset(s.live_in - {loc_key}),
                    elide_keys=tuple(
                        [k for k, _, _ in reads]
                        + [k for k, _ in routing]
                        + [k for k, _ in folds]
                    ),
                    reads=reads,
                    routing=routing,
                    folds=folds,
                    test=None if s.test is None else cc.compile(s.test),
                    mods=[_compile_mod(ba, m, cc) for m in s.mods],
                )
            )
        out.append(steps)
    return out


# ---------------------------------------------------------------------------
# The fused tier: shape recognition and index-array kernels
# ---------------------------------------------------------------------------


@dataclass
class VectorPlan:
    """A recognized vectorizable action shape.

    Semantics: for every generated neighbour ``t`` of the input vertex,
    compute ``cand`` from values local to the input vertex, and at ``t``
    apply ``target[t] = cand`` when ``cand`` is strictly better (minimize
    or maximize).  Exactly the SSSP-relax / BFS-hop / CC-min-label shape.

    The payload a scalar walk would send to the eval step may carry more
    than the candidate (liveness keeps e.g. the input vertex id alive even
    when the eval handler never consults it).  ``carry_vecs`` reproduces
    that exact layout — one ``(slot, kernel)`` per carried env key in env
    insertion order — so vectorized sends are indistinguishable from
    scalar ones on the wire.  Each kernel is ``f(rank, srcl, flat, vsrc)``
    over the fan-out rows of any number of start vertices: ``srcl`` is
    each row's source local index, ``flat`` its arc position in the rank's
    CSR and ``vsrc`` its source's global id; it returns a scalar or an
    array aligned with the rows.
    """

    generator: str  # 'out_edges' | 'adj'
    eval_si: int  # step index of the eval step (message resume point)
    cand_key: tuple  # env key carrying the candidate value
    target_map: VertexPropertyMap
    minimize: bool
    dependent: bool  # fires the work hook on change
    carry_vecs: list  # [(slot, kernel)] in payload order
    slot_sig: tuple  # the slot ids, in payload order (batch matching)
    payload_len: int  # 3 + 2 * len(carry_vecs)
    cand_pos: int  # index of the candidate value within the payload
    cand_col: int  # index of the candidate among the carried columns
    fusion_reason: str  # fusion_report's reason, for tier reporting


def _compile_vector_expr(expr: Expr, bound, generator: str) -> Optional[Callable]:
    """Compile a source-local scalar expression to an index-array kernel.

    The kernel signature is ``f(rank, srcl, flat)`` where ``srcl`` holds
    the source vertex's local index and ``flat`` the arc's position in the
    rank's CSR, one entry per fan-out row; it returns a scalar or an array
    aligned with the rows.  Returns ``None`` when the expression is
    outside the vectorizable fragment (non-numeric maps, reads not at the
    source, set operations).
    """
    expr = unalias(expr)
    if isinstance(expr, Const):
        v = expr.value
        if not isinstance(v, (int, float, bool)):
            return None
        return lambda rank, srcl, flat: v
    if isinstance(expr, PropRead):
        pm = bound.maps.get(expr.decl.name)
        if pm is None or pm.dtype is object or pm.dtype == "object":
            return None
        idx = unalias(expr.index)
        if isinstance(idx, InputVertex) and isinstance(pm, VertexPropertyMap):
            slc = pm.local_slice
            return lambda rank, srcl, flat, _s=slc: _s(rank)[srcl]
        if (
            generator == "out_edges"
            and isinstance(idx, GenVar)
            and idx.kind == EDGE
            and isinstance(pm, EdgePropertyMap)
        ):
            slc = pm.local_slice
            return lambda rank, srcl, flat, _s=slc: _s(rank)[flat]
        return None
    if isinstance(expr, BinOp):
        left = _compile_vector_expr(expr.left, bound, generator)
        right = _compile_vector_expr(expr.right, bound, generator)
        if left is None or right is None:
            return None
        op = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[
            expr.op
        ]
        return lambda rank, srcl, flat, _l=left, _r=right, _op=op: _op(
            _l(rank, srcl, flat), _r(rank, srcl, flat)
        )
    if isinstance(expr, Call):
        args = [_compile_vector_expr(a, bound, generator) for a in expr.args]
        if any(a is None for a in args) or len(args) < 1:
            return None
        if expr.fn_name == "abs" and len(args) == 1:
            return lambda rank, srcl, flat, _a=args[0]: np.abs(_a(rank, srcl, flat))
        if expr.fn_name in ("min", "max") and len(args) >= 2:
            op = np.minimum if expr.fn_name == "min" else np.maximum

            def reduce_(rank, srcl, flat, _args=tuple(args), _op=op):
                acc = _args[0](rank, srcl, flat)
                for a in _args[1:]:
                    acc = _op(acc, a(rank, srcl, flat))
                return acc

            return reduce_
        return None
    return None


def recognize_vector_shape(ba) -> "VectorPlan | str":
    """Match a compiled plan against the vectorizable shape.

    Returns the :class:`VectorPlan`, or a string saying why the shape was
    rejected (the action then runs the walk tier, and the reason is
    reported with it).  Required structure (checked, never assumed):

    * the merged-extremum plan shape of
      :func:`~repro.patterns.locality.match_extremum` — optimized mode, a
      single merged condition with no else branch, a builtin ``out_edges``
      or ``adj`` generator, gathers only at the input vertex, and an eval
      step at the generated neighbour comparing a candidate with the
      neighbour's property and assigning that candidate;
    * the eval step reads nothing but that numeric vertex property;
    * every env key the payload carries to the eval step (the candidate,
      and possibly liveness-retained extras such as the input vertex id)
      is computable source-locally by a vector kernel;
    * the gather -> evaluate pair is fusable
      (:func:`~repro.patterns.locality.fusion_report`) — implied by the
      two points above (every kernel expression is source-local), and
      checked so the two recognizers cannot drift apart.
    """
    plan = ba.plan
    shape = match_extremum(plan)
    if isinstance(shape, str):
        return shape
    action = plan.action
    gen = action.generator
    steps = plan.cond_plans[0].steps
    eval_si = shape.eval_si
    eval_step = steps[eval_si]
    target_read, cand_expr = shape.target_read, unalias(shape.cand)
    if [r.key() for r in eval_step.reads] != [target_read.key()]:
        return "the eval step may read only the compared neighbour property"
    target_map = ba.bound.maps.get(target_read.decl.name)
    if (
        not isinstance(target_map, VertexPropertyMap)
        or target_map.dtype is object
        or target_map.dtype == "object"
    ):
        return f"{target_read.decl.name!r} must be a numeric vertex property"
    # Reconstruct the carried payload layout exactly as the scalar walk
    # packs it: env insertion order (generator base keys, then each gather
    # step's reads / routing / folds), filtered to the eval step's live-in.
    cand_key = cand_expr.key()
    input_key = action.input.key()
    ordered: list = [input_key, gen.var.key()]
    key_expr: dict = {input_key: _INPUT_VALUE}
    if gen.source == "out_edges":
        sk, tk = SrcOf(gen.var).key(), TrgOf(gen.var).key()
        ordered += [sk, tk]
        key_expr[sk] = _INPUT_VALUE  # src of a generated out-arc IS the input
    for s in steps[:eval_si]:
        for e in list(s.reads) + list(s.routing) + list(s.folds):
            ordered.append(e.key())
            key_expr.setdefault(e.key(), e)
    seen: set = set()
    ordered = [k for k in ordered if not (k in seen or seen.add(k))]
    carried = (eval_step.live_in - {unalias(eval_step.locality).key()}) & set(ordered)
    payload_keys = [k for k in ordered if k in carried]
    if cand_key not in carried:
        return "the candidate is not carried to the eval step"
    # Every carried key must have a source-local vector kernel.
    carry_vecs: list = []
    cand_col = -1
    for i, k in enumerate(payload_keys):
        src_e = key_expr.get(k)
        if src_e is _INPUT_VALUE:
            kern = lambda rank, srcl, flat, vsrc: vsrc  # noqa: E731
        else:
            inner = (
                _compile_vector_expr(src_e, ba.bound, gen.source)
                if isinstance(src_e, Expr)
                else None
            )
            if inner is None:
                what = src_e.pretty() if isinstance(src_e, Expr) else repr(k)
                return f"carried value {what} has no source-local numeric kernel"
            kern = (
                lambda _f: lambda rank, srcl, flat, vsrc: _f(rank, srcl, flat)
            )(inner)
        carry_vecs.append((ba._slot_of[k], kern))
        if k == cand_key:
            cand_col = i
    fusion = fusion_report(plan)
    if not fusion.fusable:
        return fusion.reason
    return VectorPlan(
        generator=gen.source,
        eval_si=eval_si,
        cand_key=cand_key,
        target_map=target_map,
        minimize=shape.minimize,
        dependent=target_read.decl.name in plan.dependent_props,
        carry_vecs=carry_vecs,
        slot_sig=tuple(slot for slot, _ in carry_vecs),
        payload_len=3 + 2 * len(carry_vecs),
        cand_pos=3 + 2 * cand_col + 1,
        cand_col=cand_col,
        fusion_reason=fusion.reason,
    )
