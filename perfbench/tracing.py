"""In-memory spans at the module boundaries of ``ermine``, from outside.

:class:`Tracer` replaces the public functions of each layer with wrappers
at every place they are bound: the defining module and each module that
imported the name (``ermine.stats.evaluate`` as well as
``ermine.evaluator.evaluate``).  The program's sources are not touched,
and nothing is wrapped unless a tracer is installed.

A span records its layer, function, parent, start, duration and self
time.  Self time is the duration minus the time covered by child spans;
the wrapper's own bookkeeping is charged to neither.  A function that is
already open on the stack is called through without a span, so only the
outermost call of a recursive function counts.
"""

from __future__ import annotations

import collections
import importlib
import sys
import time
from dataclasses import dataclass

PACKAGE = "ermine"

# Layer name -> the public functions of that module that get spans.
LAYERS = {
    "schema": ("load_schema_file", "load_instance_dir", "load_instance"),
    "parser": ("parse_query", "parse_query_file", "parse_formula_text"),
    "formulas": ("normalize",),
    "safety": ("check_safe",),
    "entities": ("is_er_query", "is_valid_for"),
    "evaluator": ("evaluate",),
    "domains": ("reference_domain", "explain_reference_domain"),
    "stats": ("frequency", "support", "confidence"),
    "mining": ("load_bias_file", "enumerate_level", "build_candidate",
               "mine_frequent", "mine_rules", "mine"),
    "cli": ("main", "load_session", "run_validate", "run_check", "run_eval",
            "run_domain", "run_freq", "run_rule", "run_mine"),
}

# Reasons build_candidate gives for dropping a candidate at a gate.
GATE_DROPS = ("free-variable-mismatch", "unsafe", "not-an-entity-query", "not-valid")


@dataclass
class Span:
    layer: str
    func: str
    parent: int | None
    start_ns: int
    dur_ns: int = 0
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self.distinct = collections.defaultdict(set)
        self._stack: list[int] = []
        self._open = collections.Counter()
        self._patched: list[tuple] = []
        self._instances: dict[int, object] = {}
        self._normalize = importlib.import_module(f"{PACKAGE}.formulas").normalize

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(layer, name, fn)
                for module in modules:
                    # A recursive function keeps calling itself unwrapped.
                    if module is home and name in fn.__code__.co_names:
                        continue
                    if getattr(module, name, None) is fn:
                        self._patched.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            entered = clock()
            parent = stack[-1] if stack else None
            span = Span(layer, name, parent, entered)
            stack.append(len(spans))
            spans.append(span)
            open_[name] += 1
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                span.dur_ns = clock() - start
                open_[name] -= 1
                stack.pop()
                self._observe(name, args, result, exc)
                if parent is not None:
                    spans[parent].child_ns += clock() - entered

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name, args, result, exc) -> None:
        """Boundary counters, computed outside every span's timed interval."""
        counts = self.counts
        counts[f"calls.{name}"] += 1
        if exc is not None:
            counts[f"raised.{name}.{type(exc).__name__}"] += 1
            return
        if name == "load_instance":
            counts["rows_loaded"] += sum(len(r) for r in result.relations.values())
        elif name == "evaluate":
            inst, query = args[0], args[1]
            counts["rows_out"] += len(result.rows)
            # Holding the instance keeps its id from being reused by another.
            self._instances.setdefault(id(inst), inst)
            key = (id(inst), query.variables, self._normalize(query.body))
            self.distinct["evaluate"].add(key)
        elif name == "check_safe":
            self.distinct["check_safe"].add(args[0])
        elif name == "reference_domain":
            counts["members_out"] += len(result.members)
        elif name == "build_candidate":
            reason = result[1]
            if reason is None:
                counts["gate_pass"] += 1
            else:
                counts[f"drop.{reason.split(' ')[0]}"] += 1
        elif name == "enumerate_level":
            counts["level_candidates"] += len(result)
        elif name == "mine_frequent":
            counts["candidates"] += sum(s.candidates for s in result.levels)
            counts["frequent"] += sum(s.survivors for s in result.levels)
        elif name == "mine_rules":
            counts["rule_splits"] += sum(
                2 ** len(fq.candidate.parts) - 2 for fq in args[1]
                if len(fq.candidate.parts) > 1
            )
            counts["rules"] += len(result)

    # -- metrics -----------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return sum(s.self_ns for s in self.spans if s.layer == layer) / 1e9

    def total_s(self, func: str) -> float:
        return sum(s.dur_ns for s in self.spans if s.func == func) / 1e9

    def calls(self, layer: str) -> int:
        return sum(self.counts[f"calls.{name}"] for name in LAYERS[layer])


def layer_metrics(setup: Tracer, ops: Tracer, n_ops: int) -> dict:
    """Per-layer metrics as name -> (value, unit).

    ``schema`` metrics cover one set-up; every other count and time is per
    operation of the traced pass.
    """
    c = ops.counts
    calls = {layer: ops.calls(layer) for layer in LAYERS}
    drops = {r: c[f"drop.{r}"] for r in GATE_DROPS}
    built = c["gate_pass"] + sum(drops.values())
    # enumerate_level keeps one of each set of gate-passing duplicates.
    drops["duplicate"] = c["gate_pass"] - c["level_candidates"]
    drops["empty-domain"] = c["raised.frequency.EmptyDomainError"]

    def per_op(value, unit="count/op"):
        return value / n_ops, unit

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    return {
        "schema.self_s": (setup.self_s("schema"), "s"),
        "schema.rows_loaded": (setup.counts["rows_loaded"], "count"),
        "parser.calls": per_op(calls["parser"]),
        "parser.self_s": per_op(ops.self_s("parser"), "s/op"),
        "formulas.normalize.calls": per_op(c["calls.normalize"]),
        "formulas.self_s": per_op(ops.self_s("formulas"), "s/op"),
        "safety.calls": per_op(calls["safety"]),
        "safety.self_s": per_op(ops.self_s("safety"), "s/op"),
        "safety.distinct_ratio": ratio(len(ops.distinct["check_safe"]), calls["safety"]),
        "entities.calls": per_op(calls["entities"]),
        "entities.self_s": per_op(ops.self_s("entities"), "s/op"),
        "evaluator.calls": per_op(calls["evaluator"]),
        "evaluator.self_s": per_op(ops.self_s("evaluator"), "s/op"),
        "evaluator.rows_out": per_op(c["rows_out"]),
        "evaluator.distinct_ratio": ratio(len(ops.distinct["evaluate"]), calls["evaluator"]),
        "domains.calls": per_op(calls["domains"]),
        "domains.self_s": per_op(ops.self_s("domains"), "s/op"),
        "domains.members_out": per_op(c["members_out"]),
        "stats.frequency.calls": per_op(c["calls.frequency"]),
        "stats.confidence.calls": per_op(c["calls.confidence"]),
        "stats.self_s": per_op(ops.self_s("stats"), "s/op"),
        "mining.frequent_s": per_op(ops.total_s("mine_frequent"), "s/op"),
        "mining.rules_s": per_op(ops.total_s("mine_rules"), "s/op"),
        "mining.candidates": per_op(c["candidates"]),
        "mining.gate_pass_ratio": ratio(c["gate_pass"], built),
        **{f"mining.drop.{r}": per_op(n) for r, n in drops.items()},
        "mining.frequent_ratio": ratio(c["frequent"], c["candidates"]),
        "mining.rule_splits": per_op(c["rule_splits"]),
        "mining.rule_yield": ratio(c["rules"], c["rule_splits"]),
        "mining.self_s": per_op(ops.self_s("mining"), "s/op"),
        "cli.self_s": per_op(ops.self_s("cli"), "s/op"),
    }
