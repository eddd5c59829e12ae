"""Pattern execution over the active-message runtime.

:func:`bind` materializes a pattern against a machine and a distributed
graph: property declarations become distributed property maps, each action
is compiled (:mod:`repro.patterns.planner`) and registered as a typed
active message, and the result — a :class:`BoundPattern` — exposes
:class:`BoundAction` handles that strategies invoke inside epochs.

Runtime walk (per message): the handler resumes the compiled step chain at
``(condition, step)`` with the environment carried in the payload.  Steps
whose locality equals the current vertex run inline (no message — the
paper's merging/elision); a step at a different vertex sends one message
addressed by the vertex's owner (object-based addressing).  Gather steps
read local property values and "routing" values (vertex ids of child
localities); the evaluate step re-reads its local values *inside the
vertex's lock*, tests the condition, and applies the merged modification
group — the paper's single-vertex consistency guarantee (Sec. IV-A/B).

Dependency detection (Sec. IV-C): when an action both reads and writes a
property map, any actual change of that map's value marks the written
vertex dependent and calls the action's ``work`` hook — the customization
point strategies use (``fixed_point`` re-runs the action, Delta-stepping
re-buckets the vertex).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Optional, Union

import numpy as np

from ..graph.distributed import DistributedGraph
from ..props.lockmap import LockMap
from ..props.property_map import EdgePropertyMap, VertexPropertyMap
from ..runtime.epoch import Epoch
from ..runtime.machine import Machine
from ..runtime.wire import WireBatch
from .action import Action, Assign, AugAdd, ModifyCall
from .errors import PlanningError
from .expr import (
    EDGE,
    SET,
    VERTEX,
    Alias,
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
from ..runtime.coalescing import CoalescingLayer
from .fastpath import _MISSING, VectorPlan, compile_steps, recognize_vector_shape
from .pattern import Pattern, PropertyDecl, default_for
from .planner import ActionPlan, compile_action

WorkHook = Callable[..., None]  # work(ctx, vertex)


class _Evaluator:
    """Evaluates expressions given a carried env and a local reader."""

    def __init__(self, bound: "BoundPattern", rank: Optional[int]) -> None:
        self.bound = bound
        self.rank = rank

    def read(self, decl: PropertyDecl, index_value: int):
        pm = self.bound.maps[decl.name]
        return pm.get(index_value, rank=self.rank)

    def eval(self, expr: Expr, env: dict, allow_reads: bool = True):
        expr = unalias(expr)
        k = expr.key()
        if k in env:
            return env[k]
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, PropRead):
            if not allow_reads:
                raise PlanningError(
                    f"{expr.pretty()} needed but not gathered (planner bug?)"
                )
            idx = self.eval(expr.index, env, allow_reads)
            return self.read(expr.decl, idx)
        if isinstance(expr, (InputVertex, GenVar)):
            raise PlanningError(
                f"{expr.pretty()} missing from the environment (planner bug?)"
            )
        if isinstance(expr, SrcOf):
            gid = self.eval(expr.edge, env, allow_reads)
            return self.bound.graph.src(gid)
        if isinstance(expr, TrgOf):
            gid = self.eval(expr.edge, env, allow_reads)
            return self.bound.graph.trg(gid)
        if isinstance(expr, BoolOp):
            left = self.eval(expr.left, env, allow_reads)
            if expr.op == "not":
                return not left
            if expr.op == "and":
                return bool(left) and bool(self.eval(expr.right, env, allow_reads))
            return bool(left) or bool(self.eval(expr.right, env, allow_reads))
        if isinstance(expr, Contains):
            container = self.eval(expr.read, env, allow_reads)
            item = self.eval(expr.item, env, allow_reads)
            return container is not None and item in container
        if isinstance(expr, (BinOp, Compare, Call)):
            vals = [self.eval(c, env, allow_reads) for c in expr.children()]
            return expr.apply(*vals)
        raise PlanningError(f"cannot evaluate {expr!r}")  # pragma: no cover


class BoundAction:
    """A compiled, machine-registered action; what strategies invoke."""

    def __init__(self, bound: "BoundPattern", plan: ActionPlan) -> None:
        self.bound = bound
        self.plan = plan
        self.action = plan.action
        self.name = plan.action.name
        #: The paper's work hook: ``work(ctx, vertex)`` called when a
        #: dependency is discovered.  ``None`` = dependencies ignored.
        self.work: Optional[WorkHook] = None
        #: Count of property values actually changed by this action.
        self.change_count = 0
        #: Count of modification statements executed (even if value equal).
        self.assign_count = 0
        # message slot table: env key -> small int
        keys: list = sorted(self._all_keys(), key=repr)
        self._slot_of = {k: i for i, k in enumerate(keys)}
        self._key_of = keys
        # Unique message-type name: binding the same pattern repeatedly on
        # one machine (e.g. one bind per source in betweenness) must not
        # collide in the registry.
        base_name = f"pat.{bound.pattern.name}.{self.name}"
        name = base_name
        k = 1
        while name in bound.machine.registry:
            k += 1
            name = f"{base_name}~{k}"
        self.mtype = bound.machine.register(
            name,
            self._handler,
            address_of=lambda p: p[0],
            **bound.layer_config.get(self.name, {}),
        )
        # -- execution tier (repro/patterns/fastpath.py) --------------------
        # fast_path="off" runs the interpreted walk (the correctness
        # oracle).  fast_path="vector" runs the "fused" tier when the plan
        # shape allows it (batch kernels plus gather->evaluate fusion for
        # rank-local edges), else the "walk" tier (per-step closures
        # compiled once, bit-identical to the interpreted walk).
        machine = bound.machine
        self.vector_plan: Optional[VectorPlan] = None
        self._compiled = compile_steps(self) if machine.fast_path != "off" else None
        self._walk_fn = self._walk if self._compiled is None else self._walk_compiled
        if machine.fast_path == "off":
            tier, reason = "walk", "fast_path='off': interpreted reference walk"
        else:
            shape = recognize_vector_shape(self)
            if isinstance(shape, str):
                tier, reason = "walk", shape
                machine.stats.count_fusion("fallbacks")
            else:
                self.vector_plan = shape
                self.mtype.batch_handler = self._batch_handler
                tier, reason = "fused", shape.fusion_reason
        #: Resolved execution tier ("fused" | "walk") and why.
        self.tier = tier
        self.tier_reason = reason
        machine.stats.count_fusion(f"actions_{tier}")
        machine.action_tiers[self.mtype.name] = {"tier": tier, "reason": reason}
        # Bulk-row sends may bypass the per-payload layer walk only when
        # the stack is exactly one coalescing layer (flush boundaries are
        # then reproduced precisely; any other layer must see each row).
        layers = self.mtype.layers
        self._bulk_layer = (
            layers[0]
            if len(layers) == 1 and isinstance(layers[0], CoalescingLayer)
            else None
        )

    # -- slot table -----------------------------------------------------------
    def _all_keys(self) -> set:
        keys = set(self.plan.base_keys)
        for cp in self.plan.cond_plans:
            for s in cp.steps:
                keys.add(unalias(s.locality).key())
                keys |= {r.key() for r in s.reads}
                keys |= {r.key() for r in s.routing}
                keys |= {f.key() for f in s.folds}
                keys |= set(s.live_in) | set(s.live_out)
        return keys

    # -- invocation -------------------------------------------------------------
    def invoke(self, target: Union[Epoch, Machine], v: int) -> None:
        """Start the action at vertex ``v`` (driver side)."""
        machine = target.machine if isinstance(target, Epoch) else target
        machine.inject(self.mtype, (int(v), -1, 0))

    def invoke_from(self, ctx, v: int) -> None:
        """Start the action at ``v`` from inside a handler (work hooks)."""
        ctx.send(self.mtype, (int(v), -1, 0))

    def __call__(self, target: Union[Epoch, Machine], v: int) -> None:
        self.invoke(target, v)

    # -- payloads ------------------------------------------------------------------
    def _pack(self, dest: int, ci: int, si: int, env: dict, carry: set) -> tuple:
        flat: list = [int(dest), ci, si]
        for k, val in env.items():
            if k in carry:
                flat.append(self._slot_of[k])
                flat.append(val)
        return tuple(flat)

    def _unpack(self, payload: tuple) -> tuple[int, int, int, dict]:
        dest, ci, si = payload[0], payload[1], payload[2]
        env: dict = {}
        for i in range(3, len(payload), 2):
            env[self._key_of[payload[i]]] = payload[i + 1]
        return dest, ci, si, env

    # -- handler ---------------------------------------------------------------------
    def _handler(self, ctx, payload: tuple) -> None:
        dest, ci, si, env = self._unpack(payload)
        if ci == -1:
            if self.vector_plan is not None:
                self._vector_generate(ctx, (dest,))
            else:
                self._run_generator(ctx, dest)
        else:
            # restore the destination step's locality value from the
            # address slot (elided from the carried env when packing)
            step = self.plan.cond_plans[ci].steps[si]
            env.setdefault(step._loc_key, dest)
            self._walk_fn(ctx, dest, ci, si, env)

    def _run_generator(self, ctx, v: int) -> None:
        g = self.bound.graph
        a = self.action
        input_key = a.input.key()
        first = 0  # first condition index
        gen = a.generator
        if gen is None:
            self._walk_fn(ctx, v, first, 0, {input_key: v})
            return
        gen_key = gen.var.key()
        if gen.is_builtin:
            if gen.source == "out_edges":
                src_key = SrcOf(gen.var).key()
                trg_key = TrgOf(gen.var).key()
                gids, targets = g.out_edges(v)
                for gid, t in zip(gids.tolist(), targets.tolist()):
                    self._walk_fn(
                        ctx,
                        v,
                        first,
                        0,
                        {input_key: v, gen_key: gid, src_key: v, trg_key: t},
                    )
            elif gen.source == "in_edges":
                src_key = SrcOf(gen.var).key()
                trg_key = TrgOf(gen.var).key()
                gids, sources = g.in_edges(v)
                for gid, s in zip(gids.tolist(), sources.tolist()):
                    self._walk_fn(
                        ctx,
                        v,
                        first,
                        0,
                        {input_key: v, gen_key: gid, src_key: s, trg_key: v},
                    )
            else:  # adj
                for u in g.adj(v).tolist():
                    self._walk_fn(ctx, v, first, 0, {input_key: v, gen_key: u})
        else:
            # set-valued property map generator, read at v
            ev = _Evaluator(self.bound, ctx.rank)
            items = ev.eval(gen.source, {input_key: v})
            for u in items if items is not None else ():
                self._walk_fn(ctx, v, first, 0, {input_key: v, gen_key: int(u)})

    # -- the step walker ----------------------------------------------------------------
    def _walk(self, ctx, at_vertex: int, ci: int, si: int, env: dict) -> None:
        plans = self.plan.cond_plans
        optimized = self.plan.mode == "optimized"
        ev = _Evaluator(self.bound, ctx.rank)
        while True:
            cp = plans[ci]
            step = cp.steps[si]
            loc_key = step._loc_key
            if loc_key not in env:
                raise PlanningError(
                    f"routing value {step.locality.pretty()} unknown at step "
                    f"{ci}.{si} of {self.name} (planner bug?)"
                )
            dest = env[loc_key]

            # Run-time elision (optimized mode): skip gather hops whose
            # values are all already in the environment.
            if (
                optimized
                and step.kind == "gather"
                and all(k in env for k in step._read_keys)
                and all(k in env for k in step._routing_keys)
                and all(k in env for k in step._fold_keys)
            ):
                si += 1
                continue

            if dest != at_vertex:
                # The destination step's own locality value rides in the
                # address slot (payload[0]); don't duplicate it in the env.
                ctx.send(self.mtype, self._pack(dest, ci, si, env, step._carry))
                return

            if step.kind == "gather":
                for r in step.reads:
                    if r.key() not in env or not optimized:
                        idx = ev.eval(r.index, env)
                        env[r.key()] = ev.read(r.decl, idx)
                for child in step.routing:
                    if child.key() not in env or not optimized:
                        env[child.key()] = ev.eval(child, env)
                for f in step.folds:
                    if f.key() not in env:
                        env[f.key()] = ev.eval(f, env)
                si += 1
                continue

            # eval / modify steps run under the vertex lock: condition
            # reads at this vertex and the merged first modification are
            # synchronized (Sec. IV-B).
            with self.bound.lockmap.lock(at_vertex):
                if step.kind == "eval":
                    local_env = dict(env)
                    for r in step.reads:
                        idx = ev.eval(r.index, local_env)
                        local_env[r.key()] = ev.read(r.decl, idx)
                    ok = (
                        True
                        if step.test is None
                        else bool(ev.eval(step.test, local_env))
                    )
                    if ok:
                        self._apply_mods(ctx, ev, step.mods, local_env)
                        taken = True
                    else:
                        taken = False
                else:  # modify
                    self._apply_mods(ctx, ev, step.mods, env)
                    taken = True

            if step.kind == "modify" or taken:
                if si + 1 < len(cp.steps):
                    si += 1
                    continue
                nxt = cp.next_group
            else:
                nxt = cp.next_on_false if cp.next_on_false is not None else cp.next_group
            if nxt is None:
                return
            ci, si = nxt, 0

    def _apply_mods(self, ctx, ev: _Evaluator, mods, env: dict) -> None:
        dependent = self.plan.dependent_props
        for m in mods:
            target = m.target
            w = ev.eval(target.index, env)
            pm = self.bound.maps[target.decl.name]
            changed = False
            if isinstance(m, Assign):
                new = ev.eval(m.value, env)
                old = pm.get(w, rank=ctx.rank)
                self.assign_count += 1
                if old != new:
                    pm.set(w, new, rank=ctx.rank)
                    changed = True
            elif isinstance(m, AugAdd):
                delta = ev.eval(m.value, env)
                old = pm.get(w, rank=ctx.rank)
                self.assign_count += 1
                if delta != 0:
                    pm.set(w, old + delta, rank=ctx.rank)
                    changed = True
            elif isinstance(m, ModifyCall):
                container = pm.get(w, rank=ctx.rank)
                if container is None:
                    container = set()
                    pm.set(w, container, rank=ctx.rank)
                args = [ev.eval(a, env) for a in m.args]
                self.assign_count += 1
                if m.method == "insert":
                    item = args[0] if len(args) == 1 else tuple(args)
                    if item not in container:
                        container.add(item)
                        changed = True
                elif m.method == "remove":
                    item = args[0] if len(args) == 1 else tuple(args)
                    if item in container:
                        container.discard(item)
                        changed = True
            if changed:
                self.change_count += 1
                # refresh env copies of this value (later mods in the group)
                k = ("read", target.decl.name, unalias(target.index).key())
                if k in env:
                    env[k] = pm.get(w, rank=ctx.rank)
                if target.decl.name in dependent:
                    ctx.stats.count_work_item()
                    if self.work is not None:
                        self.work(ctx, w)

    # -- the walk tier: the compiled step walker -------------------------------------
    def _walk_compiled(self, ctx, at_vertex: int, ci: int, si: int, env: dict) -> None:
        """Closure-compiled twin of :meth:`_walk` (fast_path="vector").

        Identical control flow, payloads, statistics and property values —
        only the per-message expression interpretation is replaced by the
        closures built at bind() time (:func:`~repro.patterns.fastpath.compile_steps`).
        """
        plans = self._compiled
        cond_plans = self.plan.cond_plans
        optimized = self.plan.mode == "optimized"
        rank = ctx.rank
        while True:
            steps = plans[ci]
            step = steps[si]
            dest = env.get(step.loc_key, _MISSING)
            if dest is _MISSING:
                raise PlanningError(
                    f"routing value for step {ci}.{si} of {self.name} "
                    "unknown (planner bug?)"
                )

            is_gather = step.kind == "gather"
            if is_gather and optimized and all(k in env for k in step.elide_keys):
                si += 1
                continue

            if dest != at_vertex:
                ctx.send(self.mtype, self._pack(dest, ci, si, env, step.carry))
                return

            if is_gather:
                for k, get, idx in step.reads:
                    if k not in env or not optimized:
                        env[k] = get(idx(env, rank), rank=rank)
                for k, fn in step.routing:
                    if k not in env or not optimized:
                        env[k] = fn(env, rank)
                for k, fn in step.folds:
                    if k not in env:
                        env[k] = fn(env, rank)
                si += 1
                continue

            with self.bound.lockmap.lock(at_vertex):
                if step.kind == "eval":
                    local_env = dict(env)
                    for k, get, idx in step.reads:
                        local_env[k] = get(idx(local_env, rank), rank=rank)
                    taken = step.test is None or bool(step.test(local_env, rank))
                    if taken:
                        for mod in step.mods:
                            mod(ctx, local_env, rank)
                else:  # modify
                    for mod in step.mods:
                        mod(ctx, env, rank)
                    taken = True

            if step.kind == "modify" or taken:
                if si + 1 < len(steps):
                    si += 1
                    continue
                nxt = cond_plans[ci].next_group
            else:
                cp = cond_plans[ci]
                nxt = cp.next_on_false if cp.next_on_false is not None else cp.next_group
            if nxt is None:
                return
            ci, si = nxt, 0

    # -- the fused tier: batched generation and delivery ------------------------------
    def _vector_generate(self, ctx, starts) -> None:
        """Fused multi-source generator fan-out for a recognized plan shape.

        One pass builds the fan-out rows of every start vertex in
        ``starts`` from the rank's CSR (a repeat/cumsum index build) and
        evaluates each carried payload column with one kernel call over
        all rows.

        The planner proved the gather -> evaluate pair fusable
        (:func:`~repro.patterns.locality.fusion_report`): rank-local rows
        are applied inline as one extremum scatter — the collapsed message
        round — and only rank-remote rows travel.  Of several remote
        candidates for one destination, only the best can survive the
        confluent compare-and-assign, so dominated rows change neither the
        final map nor the dependent set and are dropped before the wire.
        """
        vp = self.vector_plan
        g = self.bound.graph
        rank = ctx.rank
        csr = g.locals[rank]
        vsrc = np.asarray(starts, dtype=np.int64)
        locs = g.partition.local_index_array(vsrc)
        first = csr.indptr[locs]
        counts = csr.indptr[locs + 1] - first
        total = int(counts.sum())
        if total == 0:
            return
        reps = np.repeat(np.arange(locs.shape[0]), counts)
        flat = np.arange(total) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        srcl, vrow = locs[reps], vsrc[reps]
        t = csr.targets[flat]
        # Scalar columns (constants) broadcast to one value per row.
        cols = [
            np.broadcast_to(kern(rank, srcl, flat, vrow), (total,))
            for _, kern in vp.carry_vecs
        ]
        stats = ctx.stats
        stats.count_fusion("fused_rounds")
        owners = g.partition.owner_array(t)
        local = owners == rank
        n_local = int(np.count_nonzero(local))
        if n_local:
            stats.count_fusion("fused_edges", n_local)
            cand = cols[vp.cand_col]
            if n_local == total:
                self._vector_apply(ctx, t, cand)
                return
            self._vector_apply(ctx, t[local], cand[local])
            remote = ~local
            t, owners = t[remote], owners[remote]
            cols = [c[remote] for c in cols]
        if t.shape[0] > 1:
            order = np.lexsort((cols[vp.cand_col], t))
            ts = t[order]
            best = np.empty(ts.shape[0], dtype=bool)
            if vp.minimize:
                best[0] = True  # first of each ascending-candidate group
                np.not_equal(ts[1:], ts[:-1], out=best[1:])
            else:
                best[-1] = True  # last of each group: the max
                np.not_equal(ts[1:], ts[:-1], out=best[:-1])
            keep = order[best]
            if keep.shape[0] < t.shape[0]:
                keep.sort()  # preserve generation order on the wire
                t, owners = t[keep], owners[keep]
                cols = [c[keep] for c in cols]
        stats.count_fusion("remote_rows", t.shape[0])
        layer = self._bulk_layer
        if layer is not None and not ctx.machine.telemetry.spans_on:
            # Straight into the per-destination buffers, with the flush
            # boundaries sequential sends would produce: logical send
            # counts, flush counts and envelope contents are unchanged.
            for r in np.unique(owners).tolist():
                mask = owners == r
                rows = self._pack_rows(t[mask], [c[mask] for c in cols])
                layer.send_rows(ctx.rank, r, rows)
            return
        send, mtype = ctx.send, self.mtype
        for p in self._pack_rows(t, cols):
            send(mtype, p)

    def _pack_rows(self, dests, cols) -> list:
        """Eval-step payload tuples ``(t, 0, esi, slot, value, ...)`` for
        fan-out rows: the scalar walk's exact wire layout."""
        vp = self.vector_plan
        parts: list = [dests.tolist(), repeat(0), repeat(vp.eval_si)]
        for slot, c in zip(vp.slot_sig, cols):
            parts += [repeat(slot), c.tolist()]
        return list(zip(*parts))

    def _batch_handler(self, ctx, payloads: tuple) -> None:
        """Vectorized delivery of one coalesced envelope.

        Payloads addressed at the recognized eval step are applied as one
        scatter kernel, generator starts as one multi-source fan-out;
        anything else (unrecognized resume points) falls back to the
        scalar handler, preserving exact semantics for the long tail.
        """
        vp = self.vector_plan
        esi = vp.eval_si
        plen, sig, cand_pos = vp.payload_len, vp.slot_sig, vp.cand_pos
        tel = ctx.machine.telemetry
        if isinstance(payloads, WireBatch):
            if payloads.ncols == 3 and payloads.col_const(1) == -1:
                # A whole frame of generator starts (work-hook re-invokes,
                # driver injections): consumed columnar, no per-row dispatch.
                if tel.spans_on:
                    tel.annotate(starts=len(payloads))
                self._vector_generate(ctx, payloads.column(0))
                return
            if payloads.ncols == plen:
                # Columnar wire delivery (process transport): test the
                # recognition predicate column-wise instead of per row, and
                # feed the destination/candidate columns straight into the
                # scatter kernel — per-row tuples are never materialized.
                if self._batch_handler_columnar(ctx, payloads, esi, sig, cand_pos):
                    return
        dests: list = []
        cands: list = []
        starts: list = []
        rest: list = []
        for p in payloads:
            if (
                len(p) == plen
                and p[1] == 0
                and p[2] == esi
                and all(p[3 + 2 * i] == s for i, s in enumerate(sig))
            ):
                dests.append(p[0])
                cands.append(p[cand_pos])
            elif len(p) == 3 and p[1] == -1:
                starts.append(p[0])
            else:
                rest.append(p)
        if tel.spans_on:
            tel.annotate(vectorized=len(dests), starts=len(starts), fallback=len(rest))
        if dests:
            self._vector_apply(ctx, dests, cands)
            ctx.stats.count_vector_items(self.mtype.name, len(dests))
        if starts:
            self._vector_generate(ctx, starts)
        for p in rest:
            self._handler(ctx, p)

    def _batch_handler_columnar(self, ctx, wb: WireBatch, esi, sig, cand_pos) -> bool:
        """Zero-copy vectorized delivery of a decoded wire batch.

        Returns True when the whole envelope was consumed (all rows either
        scattered or routed to the scalar fallback); False to let the
        caller run the generic per-row path (only when a predicate column
        is non-constant *and* mixed, which the fast-path send shape never
        produces — every row it emits shares ``ci==0``/``si``/slot ids).
        """
        # Recognition predicate: ci == 0, si == esi, slot ids match.
        checks = [(1, 0), (2, esi)] + [(3 + 2 * i, s) for i, s in enumerate(sig)]
        mask = None  # None -> all rows match so far
        for col, expect in checks:
            const = wb.col_const(col)
            if const is not None:
                if const != expect:
                    mask = np.zeros(len(wb), dtype=bool)
                    break
                continue
            m = wb.column(col) == expect
            mask = m if mask is None else (mask & m)
        tel = ctx.machine.telemetry
        if mask is None:
            # Every row matches: the common case for coalesced fast-path
            # traffic (constant ci/si/slot columns elided on the wire).
            if tel.spans_on:
                tel.annotate(vectorized=len(wb), fallback=0)
            self._vector_apply(ctx, *wb.columns(0, cand_pos))
            ctx.stats.count_vector_items(self.mtype.name, len(wb))
            return True
        n_match = int(mask.sum())
        if tel.spans_on:
            tel.annotate(vectorized=n_match, fallback=len(wb) - n_match)
        if n_match:
            self._vector_apply(
                ctx, wb.column(0)[mask], wb.column(cand_pos)[mask]
            )
            ctx.stats.count_vector_items(self.mtype.name, n_match)
        rows = wb._materialize()
        for i in np.nonzero(~mask)[0]:
            self._handler(ctx, rows[int(i)])
        return True

    def _vector_apply(self, ctx, dests, cands) -> None:
        """Apply a batch of candidate values as one extremum scatter.

        Equivalent to running the merged eval+modify handler once per
        payload: the scatter's compare-and-update *is* the condition test
        plus assignment, applied under every touched vertex's lock.  The
        work hook fires once per vertex whose value the batch improved —
        the same dependent-vertex set the scalar walk discovers (it may
        fire fewer times for vertices improved repeatedly within one
        batch, which only dedupes re-activation).
        """
        vp = self.vector_plan
        dv = np.asarray(dests, dtype=np.int64)
        cv = np.asarray(cands)
        local = self.bound.graph.partition.local_index_array(dv)
        self.assign_count += len(dests)
        with self.bound.lockmap.lock_many(dests):
            changed = vp.target_map.scatter_extremum(
                ctx.rank, local, cv, minimize=vp.minimize
            )
        if not changed.any():
            return
        touched = np.unique(dv[changed])
        self.change_count += len(touched)
        if vp.dependent:
            # Fired after the locks are released: the hook may send (and
            # the thread transport's layer locks must not nest inside
            # vertex locks held for the whole batch).
            stats = ctx.stats
            work = self.work
            for w in touched.tolist():
                stats.count_work_item()
                if work is not None:
                    work(ctx, w)

    # -- introspection ------------------------------------------------------------
    def describe(self) -> str:
        return f"{self.plan.describe()}\n  tier: {self.tier} ({self.tier_reason})"

    def reset_counters(self) -> None:
        self.change_count = 0
        self.assign_count = 0


class BoundPattern:
    """A pattern bound to a machine + graph with materialized maps."""

    def __init__(
        self,
        pattern: Pattern,
        machine: Machine,
        graph: DistributedGraph,
        *,
        props: Optional[dict] = None,
        mode: str = "optimized",
        lockmap: Optional[LockMap] = None,
        layers: Optional[dict] = None,
    ) -> None:
        self.pattern = pattern
        self.machine = machine
        self.graph = graph
        self.lockmap = lockmap or LockMap(graph.n_vertices)
        # Track the lock map on the graph so mutations that add vertices
        # grow its coverage along with the property maps.
        lockreg = getattr(graph, "_lockmaps", None)
        if lockreg is not None:
            lockreg.add(self.lockmap)
        self.layer_config = layers or {}
        if machine.resolver.owner_map is None:
            machine.attach_graph(graph)
        self.maps: dict[str, Union[VertexPropertyMap, EdgePropertyMap]] = {}
        props = props or {}
        for name, decl in pattern.properties.items():
            if name in props:
                self.maps[name] = props[name]
                continue
            default = decl.default
            if decl.value_kind == SET:
                default = None  # sets created lazily on first insert
            elif default is None:
                default = default_for(decl)
            if decl.target_kind == VERTEX:
                self.maps[name] = VertexPropertyMap(
                    graph, decl.dtype, default, name=name
                )
            else:
                self.maps[name] = EdgePropertyMap(
                    graph, decl.dtype, default, name=name
                )
        # Checkpointing: every map the pattern touches (created here or
        # supplied via props) is part of the algorithm state; register it
        # so epoch-aligned snapshots capture the full union.
        ckpts = getattr(machine, "checkpoints", None)
        if ckpts is not None:
            for pm in self.maps.values():
                ckpts.register_map(pm)
        # Process transport: pattern-bound maps are the algorithm state;
        # hand them over so numeric ones are re-homed into shared memory
        # at spawn and object ones are synced back at epoch boundaries.
        adopt = getattr(machine.transport, "adopt_map", None)
        if adopt is not None:
            for pm in self.maps.values():
                adopt(pm)
        self.actions: dict[str, BoundAction] = {}
        for name, action in pattern.actions.items():
            plan = compile_action(action, mode)
            self.actions[name] = BoundAction(self, plan)

    def __getitem__(self, action_name: str) -> BoundAction:
        return self.actions[action_name]

    def map(self, name: str):
        return self.maps[name]

    def describe(self) -> str:
        return "\n\n".join(a.describe() for a in self.actions.values())


def bind(
    pattern: Pattern,
    machine: Machine,
    graph: DistributedGraph,
    *,
    props: Optional[dict] = None,
    mode: str = "optimized",
    lockmap: Optional[LockMap] = None,
    layers: Optional[dict] = None,
) -> BoundPattern:
    """Bind ``pattern`` to ``machine``/``graph``; compile all actions.

    ``props`` supplies pre-built property maps by declaration name (e.g. a
    weight map filled from the graph builder); missing ones are created
    with declaration defaults.  ``layers`` configures per-action message
    layers: ``{"relax": {"coalescing": 64, "reduction": ...}}``.
    """
    return BoundPattern(
        pattern,
        machine,
        graph,
        props=props,
        mode=mode,
        lockmap=lockmap,
        layers=layers,
    )
