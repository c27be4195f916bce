"""Per-layer tracing for the traced benchmark run.

Wraps public rankgrowth names from outside the package and restores them
afterwards.  Stage calls (``cli.execute``, the engine stages,
``graded_orbit``) are spans with self time; hot per-element calls
(``apply_word``, ``BasisBuilder.add``, ``RankOracle.basis_builder``) only
add counters and their time to the enclosing span.  A hook whose target
no longer exists is listed in ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter

SPANS = [
    ("cli", "execute"),
    ("engine", "tabulate_f"),
    ("engine", "detect_stabilization"),
    ("engine", "numerator_from_table"),
    ("engine", "interpolate"),
    ("engine", "verify_fit"),
    ("operators", "graded_orbit"),
]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = Counter()
        self.stack = [[0.0]]
        self.missing = []
        self._pending_tables = []
        self._certificates = {}
        self._restore = []

    # -- patching -----------------------------------------------------------

    def _rebind(self, original, replacement):
        """Rebind every rankgrowth module name bound to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("rankgrowth"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self):
        import importlib

        for module, name in SPANS:
            mod = importlib.import_module(f"rankgrowth.{module}")
            fn = getattr(mod, name, None)
            if fn is None:
                self.missing.append(f"{module}.{name}")
                continue
            self._rebind(fn, self._span(f"{module}.{name}", fn))
        operators = importlib.import_module("rankgrowth.operators")
        if getattr(operators, "apply_word", None) is None:
            self.missing.append("operators.apply_word")
        else:
            fn = operators.apply_word
            self._rebind(fn, self._apply_word(fn))
        matroid = importlib.import_module("rankgrowth.matroid")
        self._patch_methods(matroid, "RankOracle", "basis_builder", self._builder)
        self._patch_methods(matroid, "BasisBuilder", "add", self._add)

    def _patch_methods(self, module, cls_name, method, make):
        base = getattr(module, cls_name, None)
        if base is None or not hasattr(base, method):
            self.missing.append(f"{cls_name}.{method}")
            return
        guard = [0]  # shared by every override, so nested calls count once
        for cls in _subclasses(base):
            fn = vars(cls).get(method)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            setattr(cls, method, make(fn, guard))
            self._restore.append((cls, method, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        stack, total, child, calls = self.stack, self.total, self.child, self.calls
        after = {
            "engine.tabulate_f": self._after_tabulate,
            "engine.detect_stabilization": self._after_staircase,
            "engine.verify_fit": self._after_verify,
        }.get(name)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                total[name] += dt
                child[name] += frame[0]
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return hooked

    def _apply_word(self, fn):
        name = "operators.apply_word"
        stack, total, calls, counts = self.stack, self.total, self.calls, self.counts

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            cache = args[3] if len(args) > 3 else kwargs.get("cache")
            before = len(cache) if cache is not None else 0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack[-1][0] += dt
                total[name] += dt
                calls[name] += 1
                grown = len(cache) - before if cache is not None else 0
                counts["apply_word.map_calls"] += grown
                if not grown:
                    counts["apply_word.hits"] += 1

        return hooked

    def _add(self, fn, guard):
        stack, total, calls, counts = self.stack, self.total, self.calls, self.counts

        @functools.wraps(fn)
        def hooked(builder, elem):
            if guard[0]:
                return fn(builder, elem)
            guard[0] = 1
            t0 = perf()
            try:
                accepted = fn(builder, elem)
            finally:
                dt = perf() - t0
                guard[0] = 0
                stack[-1][0] += dt
                total["backends.add"] += dt
                calls["backends.add"] += 1
            if accepted:
                counts["add.accepts"] += 1
            return accepted

        return hooked

    def _builder(self, fn, guard):
        counts = self.counts

        @functools.wraps(fn)
        def hooked(oracle):
            if guard[0]:
                return fn(oracle)
            guard[0] = 1
            try:
                return fn(oracle)
            finally:
                guard[0] = 0
                counts["builders"] += 1

        return hooked

    # -- counters read from stage results -----------------------------------

    def _after_tabulate(self, args, table):
        self._pending_tables.append(table)

    def _after_staircase(self, args, certificate):
        if args:
            self._certificates[id(args[0])] = certificate
        self.counts["staircase.levels"] += len(getattr(certificate, "levels", ()))

    def _after_verify(self, args, report):
        self.counts["verify.points"] += len(getattr(report, "points", ()))

    def drain(self):
        """Count the tables tabulated since the last drain; call between solves."""
        counts = self.counts
        for table in self._pending_tables:
            values = table.values
            counts["tabulate.words"] += len(values)
            counts["tabulate.slices"] += len(
                {table.partition.part_degree(u) for u in values}
            )
            cert = self._certificates.get(id(table))
            if cert is not None:
                cap = tuple(c + cert.window for c in cert.m_bar)
                counts["useful.words"] += sum(
                    1 for u in values if all(a <= b for a, b in zip(u, cap))
                )
                counts["useful.base"] += len(values)
        self._pending_tables.clear()
        self._certificates.clear()

    # -- report -------------------------------------------------------------

    def metrics(self, scale: float, solve_s: float):
        """Per-layer metrics as {name: (value, unit)}; times get a share too.

        Times are multiplied by ``scale``, the traced solves' rescaled over
        wall seconds, and shares are of ``solve_s``, their rescaled total.
        """
        calls, total, child, counts = self.calls, self.total, self.child, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        times = {
            "cli.execute.self_s": total["cli.execute"] - child["cli.execute"],
            "engine.tabulate_f.self_s": total["engine.tabulate_f"]
            - child["engine.tabulate_f"],
            "engine.detect_stabilization.s": total["engine.detect_stabilization"],
            "engine.numerator_from_table.s": total["engine.numerator_from_table"],
            "engine.interpolate.s": total["engine.interpolate"],
            "engine.verify_fit.s": total["engine.verify_fit"],
            "operators.apply_word.s": total["operators.apply_word"],
            "operators.graded_orbit.self_s": total["operators.graded_orbit"]
            - child["operators.graded_orbit"],
            "backends.add.s": total["backends.add"],
        }
        out = {}
        for name, value in times.items():
            out[name] = (value * scale, "s")
            out[name + ".share"] = (ratio(value * scale, solve_s), "ratio")
        out.update(
            {
                "cli.execute.calls": (calls["cli.execute"], "count"),
                "engine.tabulate_f.words": (counts["tabulate.words"], "count"),
                "engine.tabulate_f.slices": (counts["tabulate.slices"], "count"),
                "engine.tabulate_f.useful_frac": (
                    ratio(counts["useful.words"], counts["useful.base"]),
                    "ratio",
                ),
                "engine.detect_stabilization.levels": (
                    counts["staircase.levels"],
                    "count",
                ),
                "engine.verify_fit.points": (counts["verify.points"], "count"),
                "operators.apply_word.calls": (calls["operators.apply_word"], "count"),
                "operators.apply_word.map_calls": (
                    counts["apply_word.map_calls"],
                    "count",
                ),
                "operators.apply_word.hit_frac": (
                    ratio(counts["apply_word.hits"], calls["operators.apply_word"]),
                    "ratio",
                ),
                "operators.graded_orbit.calls": (
                    calls["operators.graded_orbit"],
                    "count",
                ),
                "backends.builders": (counts["builders"], "count"),
                "backends.add.calls": (calls["backends.add"], "count"),
                "backends.add.accepts": (counts["add.accepts"], "count"),
                "backends.add.accept_frac": (
                    ratio(counts["add.accepts"], calls["backends.add"]),
                    "ratio",
                ),
            }
        )
        return out
