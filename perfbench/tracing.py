"""Span tracing of the library from outside it, for the per-layer report.

`Tracer.install` wraps public functions (and a few methods) of the library.
A module that did ``from .messages import merge_duplicates`` holds its own
reference, so each wrapper is rebound in every ``abelianbp`` module whose
global is the original object.

Spans are aggregated as they close: calls, total and self time per name
(self time is the span's duration minus the time its child spans cover).
Root spans and their direct children are also kept whole (name, start, end,
parent) and written out with the report; deeper spans are too many to keep
in a sampled run.  Time spent in the counting hooks is charged to no layer,
so it shows only in the tracing overhead.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from workloads import ORACLE_RULES

MIXTURE_RULES = ("check_combine_m", "equality_combine_m", "equality_fold_m",
                 "lift_along_hom_m", "marginalize_split_m", "apply_automorphism_m",
                 "adjoin_uniform_m")
PURE_RULES = ("check_combine", "equality_combine", "hom_push", "marginalize_split",
              "apply_automorphism", "lift_along_hom", "adjoin_uniform")
WINDOW_STEPS = ("forward", "backward", "extrinsic", "symbol_messages", "posterior")

FUNCTIONS = (
    ("messages.merge_duplicates", "messages.prune", "messages.sample")
    + tuple(f"factors.{r}" for r in MIXTURE_RULES + PURE_RULES)
    + ("groups.is_automorphism", "characters.tables_for", "characters.dual_map_table",
       "polar.synthesize", "polar.polar_minus", "polar.polar_plus",
       "trellis.decode_block", "trellis.forward_step", "trellis.backward_step",
       "trellis.branch_posterior", "trees.run_mp", "de.de_run", "de.de_iteration",
       "oracle.verify_rule", "oracle.simulate_check", "oracle.simulate_equality",
       "oracle.simulate_hom", "oracle.simulate_marginalize",
       "oracle.simulate_automorphism", "oracle.jacobi_eigh")
)
# private, so allowed to disappear: a missing one is reported as absent
METHODS = tuple(f"de._WindowEngine.{a}" for a in WINDOW_STEPS)
VALIDATE = "eigenlists.EigenList.validate"
ELEMENTS = "groups.GroupElement.constructed"


def _msg_len(msg) -> int:
    return len(msg.branches)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Tracer:
    KEEP_DEPTH = 1

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])   # calls, self seconds
        self.counts = defaultdict(float)
        self.durations = defaultdict(list)
        self.spans = []          # (name, start, end, parent index or -1)
        self.absent = []
        self._stack = []         # per open span: [child seconds, kept span index]

    def wrap(self, name, fn, before=None, after=None):
        """Time `fn` as span `name`.

        `before(args, kwargs)` returns a value handed on to
        `after(args, kwargs, result, seconds, value)`; neither is timed.
        """
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        keep = self.KEEP_DEPTH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            h0 = perf_counter()
            value = before(args, kwargs) if before is not None else None
            frame = [0.0, -1]
            if len(stack) <= keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0 - frame[0]
                if frame[1] >= 0:
                    spans[frame[1]] = (name, t0, t1, stack[-1][1] if stack else -1)
                if stack:
                    # the hooks are tracing overhead, not the parent's work
                    stack[-1][0] += t1 - h0
            if after is not None:
                after(args, kwargs, result, t1 - t0, value)
                if stack:
                    stack[-1][0] += perf_counter() - t1
            return result

        return traced

    def install(self):
        """Wrap every traced function, method and constructor hook."""
        from abelianbp import eigenlists, groups

        for name in FUNCTIONS + METHODS:
            module, _, attr = name.partition(".")
            owner = sys.modules[f"abelianbp.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            before, after = HOOKS[name](self) if name in HOOKS else (None, None)
            wrapped = self.wrap(name, orig, before, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                _rebind(orig, wrapped)

        el = eigenlists.EigenList
        el.__post_init__ = self.wrap(VALIDATE, el.__post_init__)
        counts = self.counts
        init = groups.GroupElement.__post_init__

        def counted(obj):
            counts[ELEMENTS] += 1
            init(obj)

        groups.GroupElement.__post_init__ = counted

    def report(self, wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        Times are shares of the traced wall time: a layer a workload never
        enters reads 0 %, not a time of 0 s.
        """
        def pct(seconds):
            return 100.0 * seconds / wall_s

        out = {}
        for name in FUNCTIONS + METHODS:
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_pct"] = (pct(self_s), "%")
        calls, self_s = self.stats.get(VALIDATE, (0, 0.0))
        out["eigenlists.EigenList.constructed"] = (calls, "count")
        out["eigenlists.EigenList.validate_pct"] = (pct(self_s), "%")
        out[ELEMENTS] = (self.counts[ELEMENTS], "count")

        c = self.counts
        out["messages.merge_duplicates.branches_in"] = (c["merge.in"], "count")
        out["messages.merge_duplicates.branches_out"] = (c["merge.out"], "count")
        out["messages.merge_duplicates.merge_ratio"] = (
            c["merge.out"] / c["merge.in"] if c["merge.in"] else 1.0, "ratio")
        out["messages.prune.pruned_mass"] = (c["prune.mass"], "prob")
        for rule in MIXTURE_RULES:
            out[f"factors.{rule}.product_branches"] = (c[f"{rule}.product"], "count")
        out["trellis.branches_out_max"] = (c["trellis.out_max"], "count")
        out["de.de_run.iterations"] = (c["de.iterations"], "count")
        for q in (3, 5):
            durs = self.durations[f"de_iteration.q{q}"]
            p50 = float(np.median(durs)) if durs else 0.0
            p90 = float(np.quantile(durs, 0.9)) if durs else 0.0
            out[f"de.de_iteration.q{q}.per_s"] = (1.0 / p50 if p50 else 0.0, "1/s")
            out[f"de.de_iteration.q{q}.tail_ratio"] = (p90 / p50 if p50 else 0.0, "ratio")
        for rule in ORACLE_RULES:
            out[f"oracle.verify_rule.{rule}.pct"] = (pct(c[f"verify.{rule}"]), "%")
        return out

    def self_seconds(self) -> dict:
        return {name: s for name, (calls, s) in self.stats.items() if calls}

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _rebind(orig, wrapped):
    for name, mod in list(sys.modules.items()):
        if name == "abelianbp" or name.startswith("abelianbp."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# counting hooks: tracer -> (before, after)


def _merge_hooks(t):
    def before(args, kwargs):
        return _msg_len(_arg(args, kwargs, 0, "msg"))

    def after(args, kwargs, result, seconds, n_in):
        t.counts["merge.in"] += n_in
        t.counts["merge.out"] += _msg_len(result)
    return before, after


def _prune_hooks(t):
    def before(args, kwargs):
        msg, eps = _arg(args, kwargs, 0, "msg"), _arg(args, kwargs, 1, "eps")
        t.counts["prune.mass"] += sum(b.prob for b in msg.branches if b.prob < eps)
    return before, None


def _product_hooks(rule):
    def hooks(t):
        def before(args, kwargs):
            n = 1
            for a in args + tuple(kwargs.values()):
                if hasattr(a, "branches"):
                    n *= _msg_len(a)
                elif isinstance(a, (list, tuple)) and a and hasattr(a[0], "branches"):
                    n *= math.prod(_msg_len(m) for m in a)
            t.counts[f"{rule}.product"] += n
        return before, None
    return hooks


def _trellis_hooks(t):
    def after(args, kwargs, result, seconds, value):
        n = _msg_len(getattr(result, "message", result))
        t.counts["trellis.out_max"] = max(t.counts["trellis.out_max"], n)
    return None, after


def _de_run_hooks(t):
    def after(args, kwargs, result, seconds, value):
        t.counts["de.iterations"] += len(result.trajectory)
    return None, after


def _de_iteration_hooks(t):
    def after(args, kwargs, result, seconds, value):
        q = _arg(args, kwargs, 0, "spec").symbol_group.order
        t.durations[f"de_iteration.q{q}"].append(seconds)
    return None, after


def _verify_hooks(t):
    def after(args, kwargs, result, seconds, value):
        t.counts[f"verify.{_arg(args, kwargs, 0, 'rule')}"] += seconds
    return None, after


HOOKS = {
    "messages.merge_duplicates": _merge_hooks,
    "messages.prune": _prune_hooks,
    **{f"factors.{r}": _product_hooks(r) for r in MIXTURE_RULES},
    "trellis.forward_step": _trellis_hooks,
    "trellis.backward_step": _trellis_hooks,
    "trellis.branch_posterior": _trellis_hooks,
    "de.de_run": _de_run_hooks,
    "de.de_iteration": _de_iteration_hooks,
    "oracle.verify_rule": _verify_hooks,
}
