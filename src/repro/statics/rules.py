"""The statics rule set: this repository's determinism contracts as AST
checks.

Each rule is the *static* complement of a contract the codebase already
relies on dynamically (see docs/DETERMINISM.md for the full rationale):

========  ============================================================
DET001    seeded ``random.Random`` only — no global-RNG calls in the
          simulation layers (``sim``/``core``/``faults``/``workloads``)
DET002    no wall-clock reads outside the ``runtime`` layer
DET003    no iteration over bare ``set``s in any ``src/repro`` package
          (hash-seed dependent order can reach scheduling, messages and
          serialized reports)
DET004    no builtin ``hash()``/``id()`` in ordering keys
SIM001    no float-producing expressions flowing into
          ``schedule()``/``schedule_at()``/``schedule_fast()``/``Event``
          time arguments (static complement of ``exact_ns``)
SIM003    packets enter units through links — no direct
          ``ingress.handle_packet()``/``receive_from_link()`` calls
          outside the modeled delivery sites
========  ============================================================

Rules are deliberately syntactic and local — no cross-module inference.
Where a rule cannot see that a use is safe (an order-insensitive
reduction over a set, say), the fix is a reasoned
``# statics: allow[RULE]`` pragma, which keeps the exception reviewable
at the call site.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.statics.engine import FileContext, Rule
from repro.statics.findings import Finding

# ----------------------------------------------------------------------
# Shared import tracking
# ----------------------------------------------------------------------


class ImportMap:
    """Local names bound by imports, for resolving ``random.x`` et al."""

    def __init__(self, tree: ast.AST) -> None:
        #: local alias -> dotted module path (``import random as rnd``)
        self.modules: dict[str, str] = {}
        #: local name -> (module, original) (``from time import time``)
        self.names: dict[str, tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        node.module, alias.name)

    def module_alias(self, name: str, module: str) -> bool:
        return self.modules.get(name) == module

    def from_import(self, name: str, module: str) -> Optional[str]:
        entry = self.names.get(name)
        if entry is not None and entry[0] == module:
            return entry[1]
        return None


# ----------------------------------------------------------------------
# DET001 — global RNG
# ----------------------------------------------------------------------

_GLOBAL_RNG_FNS = {
    "random", "uniform", "triangular", "randint", "randrange", "choice",
    "choices", "sample", "shuffle", "seed", "getrandbits", "randbytes",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "vonmisesvariate", "gammavariate", "betavariate", "paretovariate",
    "weibullvariate", "binomialvariate", "getstate", "setstate",
}


class GlobalRandomRule(Rule):
    """No calls to the module-level ``random`` functions in the
    simulation layers: they share one hidden global Mersenne state, so
    any import-order or call-order change anywhere in the process
    perturbs every trial.  ``random.Random(seed)`` instances, threaded
    from the spec, are the only approved randomness source."""

    id = "DET001"
    title = "no global-RNG calls in simulation layers"
    hint = ("use a seeded random.Random instance threaded from the "
            "spec/config instead of the shared module-level state")
    scopes = frozenset({"sim", "core", "faults", "workloads"})

    def check(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _GLOBAL_RNG_FNS
                    and isinstance(func.value, ast.Name)
                    and imports.module_alias(func.value.id, "random")):
                out.append(self.finding(
                    ctx, node,
                    f"global-RNG call random.{func.attr}() in scope "
                    f"'{ctx.scope}'"))
            elif isinstance(func, ast.Name):
                orig = imports.from_import(func.id, "random")
                if orig in _GLOBAL_RNG_FNS:
                    out.append(self.finding(
                        ctx, node,
                        f"global-RNG call {func.id}() (random.{orig}) in "
                        f"scope '{ctx.scope}'"))
        return out


# ----------------------------------------------------------------------
# DET002 — wall clock
# ----------------------------------------------------------------------

_WALL_TIME_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
}
_WALL_DATETIME_FNS = {"now", "utcnow", "today"}


class WallClockRule(Rule):
    """No wall-clock reads in simulation/analysis code.  Simulated time
    comes from ``Simulator.now``/``Clock``; host time is allowed only in
    the ``runtime`` layer (trial timing, profiling)."""

    id = "DET002"
    title = "no wall-clock outside runtime"
    hint = ("take time from Simulator.now or sim.clock.Clock; wall-clock "
            "reads belong in the runtime layer only")
    excluded_scopes = frozenset({"runtime"})

    def check(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                # time.<fn>()
                if (func.attr in _WALL_TIME_FNS
                        and isinstance(value, ast.Name)
                        and imports.module_alias(value.id, "time")):
                    out.append(self.finding(
                        ctx, node, f"wall-clock read time.{func.attr}() in "
                                   f"scope '{ctx.scope}'"))
                # datetime.datetime.now() / datetime.date.today()
                elif (func.attr in _WALL_DATETIME_FNS
                      and isinstance(value, ast.Attribute)
                      and value.attr in ("datetime", "date")
                      and isinstance(value.value, ast.Name)
                      and imports.module_alias(value.value.id, "datetime")):
                    out.append(self.finding(
                        ctx, node,
                        f"wall-clock read datetime.{value.attr}."
                        f"{func.attr}()"))
                # from datetime import datetime; datetime.now()
                elif (func.attr in _WALL_DATETIME_FNS
                      and isinstance(value, ast.Name)
                      and imports.from_import(value.id, "datetime")
                      in ("datetime", "date")):
                    out.append(self.finding(
                        ctx, node,
                        f"wall-clock read {value.id}.{func.attr}()"))
            elif isinstance(func, ast.Name):
                orig = imports.from_import(func.id, "time")
                if orig in _WALL_TIME_FNS:
                    out.append(self.finding(
                        ctx, node,
                        f"wall-clock read {func.id}() (time.{orig})"))
        return out


# ----------------------------------------------------------------------
# DET003 — unordered set iteration
# ----------------------------------------------------------------------

_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference", "copy"}
#: Consumers that materialize iteration order (flagged); ``min``/``max``/
#: ``sum``/``len``/``any``/``all``/``sorted`` are order-insensitive.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "iter", "enumerate"}


class UnorderedIterationRule(Rule):
    """No iteration over bare ``set``s in any ``src/repro`` package.

    Set iteration order depends on PYTHONHASHSEED and insertion history;
    when it reaches a ``schedule()`` loop, a cross-shard send, a
    serialized report, or a fingerprint, two identical runs diverge.
    (``dict``s are insertion-ordered on every supported interpreter, so
    the rule tracks sets — the genuinely unordered container.)  Wrap
    the iterable in ``sorted(...)``, or pragma-allow with a reason when
    the consumer is provably order-insensitive.
    """

    id = "DET003"
    title = "no bare-set iteration in src/repro"
    hint = ("wrap the set in sorted(...) (or use an ordered container); "
            "pragma-allow with a reason only for order-insensitive "
            "consumers")
    excluded_scopes = frozenset({"tests", "benchmarks", "examples"})

    # -- set-expression classification ---------------------------------
    def _is_set_expr(self, node: ast.AST, env: dict[str, bool]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return env.get(node.id, False)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SET_METHODS
                    and self._is_set_expr(func.value, env)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left, env)
                    or self._is_set_expr(node.right, env))
        return False

    @staticmethod
    def _is_set_annotation(annotation: ast.expr) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        return (isinstance(annotation, ast.Name)
                and annotation.id in ("set", "frozenset", "Set",
                                      "FrozenSet", "AbstractSet"))

    def check(self, ctx: FileContext) -> list[Finding]:
        out: list[Finding] = []
        # First pass: names bound to set expressions or set annotations
        # anywhere in the file.  (One flat namespace is an approximation
        # — good enough for a local, syntactic rule; a false positive is
        # one reasoned pragma away.)
        local_env: dict[str, bool] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if self._is_set_expr(node.value, local_env):
                        local_env[target.id] = True
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)
                  and self._is_set_annotation(node.annotation)):
                local_env[node.target.id] = True
            elif isinstance(node, ast.arg):
                if (node.annotation is not None
                        and self._is_set_annotation(node.annotation)):
                    local_env[node.arg] = True
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, local_env):
                    out.append(self.finding(
                        ctx, node.iter,
                        "for-loop iterates a bare set (order is "
                        "hash-seed dependent)"))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, local_env):
                        out.append(self.finding(
                            ctx, gen.iter,
                            "comprehension iterates a bare set (order is "
                            "hash-seed dependent)"))
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name)
                        and func.id in _ORDER_SENSITIVE_CALLS
                        and node.args
                        and self._is_set_expr(node.args[0], local_env)):
                    out.append(self.finding(
                        ctx, node,
                        f"{func.id}() materializes a bare set's iteration "
                        "order"))
                elif (isinstance(func, ast.Attribute)
                      and func.attr == "join" and node.args
                      and self._is_set_expr(node.args[0], local_env)):
                    out.append(self.finding(
                        ctx, node,
                        "str.join() serializes a bare set's iteration "
                        "order"))
        return out


# ----------------------------------------------------------------------
# DET004 — hash()/id() in ordering keys
# ----------------------------------------------------------------------


class HashIdOrderingRule(Rule):
    """No builtin ``hash()``/``id()`` inside ordering keys.  ``hash()``
    of str/bytes varies with PYTHONHASHSEED and ``id()`` with allocation
    history, so both differ across worker processes and re-runs —
    sorting or heap-ordering by them silently reorders ties."""

    id = "DET004"
    title = "no hash()/id() in ordering keys"
    hint = ("order by a stable field (name, sequence number, "
            "fingerprint string) instead of hash()/id()")

    def check(self, ctx: FileContext) -> list[Finding]:
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            sort_like = (
                (isinstance(func, ast.Name)
                 and func.id in ("sorted", "min", "max"))
                or (isinstance(func, ast.Attribute) and func.attr == "sort"))
            if sort_like:
                for keyword in node.keywords:
                    if keyword.arg == "key":
                        out.extend(self._flag_hash_id(ctx, keyword.value,
                                                      "ordering key"))
            heappush = (
                (isinstance(func, ast.Name) and func.id == "heappush")
                or (isinstance(func, ast.Attribute)
                    and func.attr == "heappush"))
            if heappush and len(node.args) >= 2:
                out.extend(self._flag_hash_id(ctx, node.args[1],
                                              "heap entry"))
        return out

    def _flag_hash_id(self, ctx: FileContext, subtree: ast.AST,
                      where: str) -> list[Finding]:
        out = []
        for node in ast.walk(subtree):
            if isinstance(node, ast.Name) and node.id in ("hash", "id"):
                out.append(self.finding(
                    ctx, node,
                    f"builtin {node.id}() used in a {where} "
                    "(PYTHONHASHSEED / allocation-order hazard)"))
        return out


# ----------------------------------------------------------------------
# SIM001 — float time arguments
# ----------------------------------------------------------------------

_SCHEDULE_FNS = {"schedule", "schedule_at", "schedule_fast"}


class FloatTimeRule(Rule):
    """No float-producing expressions flowing into simulation time
    arguments.  The engine's ``exact_ns`` rejects fractional times at
    runtime (and ``schedule_fast`` skips even that); this rule moves the
    check to before execution: true division, float literals, ``time.*``
    reads and ``float()`` casts may not appear in the time argument of
    ``schedule()``/``schedule_at()``/``schedule_fast()``/``Event()``."""

    id = "SIM001"
    title = "no float expressions in simulation time arguments"
    hint = ("use integer ns arithmetic (//, and the US/MS/S constants) "
            "or coerce explicitly with exact_ns() at the boundary")

    def check(self, ctx: FileContext) -> list[Finding]:
        imports = ImportMap(ctx.tree)
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            time_arg: Optional[ast.expr] = None
            if name in _SCHEDULE_FNS or name == "Event":
                if node.args:
                    time_arg = node.args[0]
                else:
                    for keyword in node.keywords:
                        if keyword.arg in ("delay", "time"):
                            time_arg = keyword.value
                            break
            if time_arg is None:
                continue
            for sub in ast.walk(time_arg):
                reason = self._float_reason(sub, imports)
                if reason is not None:
                    out.append(self.finding(
                        ctx, sub,
                        f"{reason} flows into the time argument of "
                        f"{name}()"))
        return out

    def _float_reason(self, node: ast.AST,
                      imports: ImportMap) -> Optional[str]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "true division (/)"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "float":
                return "float() cast"
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and imports.module_alias(func.value.id, "time")):
                return f"wall-clock time.{func.attr}()"
        return None


# ----------------------------------------------------------------------
# SIM003 — FIFO bypass: direct unit delivery
# ----------------------------------------------------------------------

#: Scheduling entry points whose second positional argument is a
#: callback (``schedule(delay, fn, *args)`` and friends).
_CALLBACK_SCHEDULERS = _SCHEDULE_FNS | {"inject_at"}


class FifoBypassRule(Rule):
    """Packets enter processing units through links, never by direct
    unit calls.

    Everything the snapshot protocol proves (§4.1) — and everything the
    sharded runner's conservative lookahead bound relies on
    (docs/SHARDING.md) — assumes packets reach an
    ``IngressUnit``/``Port`` through a FIFO channel with propagation
    delay.  A direct ``something.ingress.handle_packet(pkt)`` (or
    ``receive_from_link`` call, or a call of an endpoint's pre-bound
    receive callable — its ``rx``, a link's ``_rx[side]`` — or
    scheduling any of them as a callback) injects a packet that no link
    carried: it skips FIFO ordering, loss/up state, and the cut-link
    capture that sharding depends on.  The modeled delivery sites
    (``Link._deliver``, ``Port.receive_from_link``, the control plane's
    initiation/probe injectors, which model the switch CPU's internal
    port) carry reasoned pragmas; the fused hop (``_EgressQueue._serve``)
    schedules ``Link._deliver`` itself and hands it the receiving
    *side*, never the callable, so it needs none.

    Light interprocedural coverage: a same-module *function* whose
    parameter is called as ``param.handle_packet(...)`` marks that
    parameter position, and call sites passing an ingress expression
    there are flagged too.
    """

    id = "SIM003"
    title = "no FIFO-bypassing unit delivery outside links"
    hint = ("send the packet through a Link (host.send_packet / "
            "link.transmit) so FIFO order, propagation delay, and the "
            "sharded lookahead bound hold; pragma-allow only modeled "
            "delivery sites")
    scopes = frozenset({"sim", "core", "faults", "workloads",
                        "experiments"})

    def check(self, ctx: FileContext) -> list[Finding]:
        tracked = self._ingress_names(ctx.tree)
        handlers = self._handler_params(ctx.tree)
        out: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if self._is_rx(func):
                out.append(self.finding(
                    ctx, node,
                    "direct call of a pre-bound receive callable (rx) "
                    "bypasses the FIFO channel"))
            if isinstance(func, ast.Attribute):
                if (func.attr == "handle_packet"
                        and self._is_ingress_expr(func.value, tracked)):
                    out.append(self.finding(
                        ctx, node,
                        "direct ingress.handle_packet() call bypasses "
                        "the FIFO channel"))
                elif func.attr == "receive_from_link":
                    out.append(self.finding(
                        ctx, node,
                        "direct receive_from_link() call bypasses the "
                        "FIFO channel"))
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in _CALLBACK_SCHEDULERS and len(node.args) >= 2:
                callback = node.args[1]
                if self._is_rx(callback):
                    out.append(self.finding(
                        ctx, node,
                        f"{name}() callback is a pre-bound receive "
                        "callable (rx), bypassing the FIFO channel"))
                if isinstance(callback, ast.Attribute):
                    if (callback.attr == "handle_packet"
                            and self._is_ingress_expr(callback.value,
                                                      tracked)):
                        out.append(self.finding(
                            ctx, node,
                            f"{name}() callback delivers directly to an "
                            "ingress unit, bypassing the FIFO channel"))
                    elif callback.attr == "receive_from_link":
                        out.append(self.finding(
                            ctx, node,
                            f"{name}() callback calls receive_from_link "
                            "directly, bypassing the FIFO channel"))
            if isinstance(func, ast.Name) and func.id in handlers:
                for index in handlers[func.id]:
                    if (index < len(node.args)
                            and self._is_ingress_expr(node.args[index],
                                                      tracked)):
                        out.append(self.finding(
                            ctx, node,
                            f"{func.id}() forwards its argument to "
                            ".handle_packet(), delivering directly to "
                            "this ingress unit"))
        return out

    # -- ingress-expression classification -----------------------------
    @staticmethod
    def _is_rx(node: ast.AST) -> bool:
        """``<x>.rx`` / ``<x>._rx`` or a subscript of one (``_rx[side]``):
        the pre-bound receive callables of the fused delivery path."""
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in ("rx", "_rx")

    def _is_ingress_expr(self, node: ast.AST, tracked: set[str]) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "ingress":
            return True
        return isinstance(node, ast.Name) and node.id in tracked

    def _ingress_names(self, tree: ast.AST) -> set[str]:
        """Local names assigned from ``<...>.ingress`` expressions (one
        flat namespace — the same approximation DET003 makes)."""
        tracked: set[str] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "ingress"):
                tracked.add(node.targets[0].id)
        return tracked

    def _handler_params(self, tree: ast.AST) -> dict[str, set[int]]:
        """Module-level functions that call ``param.handle_packet(...)``
        on one of their parameters: name -> positional indices."""
        handlers: dict[str, set[int]] = {}
        for stmt in getattr(tree, "body", []):
            if not isinstance(stmt, ast.FunctionDef):
                continue
            params = [arg.arg for arg in stmt.args.args]
            positions: set[int] = set()
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "handle_packet"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in params):
                    positions.add(params.index(node.func.value.id))
            if positions:
                handlers[stmt.name] = positions
        return handlers


#: The default rule set, in documentation order.
ALL_RULES: tuple[Rule, ...] = (
    GlobalRandomRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    HashIdOrderingRule(),
    FloatTimeRule(),
    FifoBypassRule(),
)

ALL_RULE_IDS: tuple[str, ...] = tuple(rule.id for rule in ALL_RULES)
