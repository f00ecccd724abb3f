"""Per-layer tracing for the traced run only.

``Tracer.install`` rebinds the public functions of every ``rmbounds``
module, and the public methods of the lmfdb client and cache, to wrappers
that aggregate calls, inclusive time and self time (inclusive time minus
the time spent in wrapped children).  Each module that imported a function
by name gets the same wrapper, so calls between layers are seen too.
Untraced runs never call ``install``; ``count_wrappers`` lets them prove it.

Only coarse calls (passes, ops and the non-kernel layer entry points)
become spans; the hot kernels are aggregated, never recorded per call.
"""
from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

MODULES = ("arith", "bounds", "cyclo", "lmfdb", "verify", "cli")
METHODS = {
    "OrbitDimClient": ("fetch_orbit_dims", "sharpness_scan", "annotate_table"),
    "OrbitDimCache": ("__init__", "get", "put"),
}
SPAN_FUNCTIONS = {
    "bounds.render_table",
    "cyclo.enumerate_forbidden",
    "lmfdb.OrbitDimClient.annotate_table",
    "lmfdb.OrbitDimCache.__init__",
    "verify.run_all",
    "cli.main",
}
MARK = "_bench_wrapper"


def _modules():
    package = importlib.import_module("rmbounds")
    return [package] + [importlib.import_module(f"rmbounds.{name}") for name in MODULES]


def count_wrappers() -> int:
    """Number of wrapper objects bound anywhere in the rmbounds modules and classes."""
    count = 0
    for module in _modules():
        for value in vars(module).values():
            count += hasattr(value, MARK)
            if inspect.isclass(value) and value.__module__.startswith("rmbounds"):
                count += sum(hasattr(attr, MARK) for attr in vars(value).values())
    return count


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.observed: dict[str, int] = {}  # extra counts recorded by observers
        # (op span id, level) pairs: levels are distinct per op, the unit a user waits for
        self.distinct_levels: set[tuple] = set()
        self.fixture_levels: set[tuple] = set()
        self.property_names: dict[str, str] = {}  # verify function -> PropertyResult.name
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, child_s, span_id]
        self._next_span = 0
        self._op = None

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        for values in self.stats.values():
            values[:] = [0, 0.0, 0.0]
        self.observed.clear()
        self.distinct_levels.clear()
        self.fixture_levels.clear()

    def count(self, key: str, amount: int = 1) -> None:
        self.observed[key] = self.observed.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str, attrs: dict | None = None):
        """Context manager recording one op-level span (also used for passes)."""
        return _Span(self, name, attrs or {})

    def _open(self, name: str, record_span: bool) -> list:
        span_id = None
        if record_span:
            span_id = self._next_span
            self._next_span += 1
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float, attrs: dict | None = None) -> None:
        stack = self._stack
        stack.pop()
        elapsed = end - start
        if stack:
            stack[-1][1] += elapsed
        stats = self.stats.get(frame[0])
        if stats is None:
            stats = self.stats[frame[0]] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - frame[1]
        if frame[2] is not None:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            self.spans.append(
                {"run_id": self.run_id, "id": frame[2], "parent": parent, "name": frame[0],
                 "start": start, "end": end, **(attrs or {})}
            )

    def wrap(self, name: str, fn, observe=None):
        record_span = name in SPAN_FUNCTIONS

        def wrapper(*args, **kwargs):
            frame = self._open(name, record_span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(frame, start, perf_counter())
                if observe is not None:
                    observe(args, None, exc)
                raise
            self._close(frame, start, perf_counter())
            if observe is not None:
                observe(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Rebind every public function and traced method; returns the number rebound."""
        modules = _modules()
        replacements = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value) or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                replacements[id(value)] = (value, self.wrap(name, value, self._observer(name)))
            for cls_name, methods in METHODS.items():
                cls = vars(module).get(cls_name)
                if cls is None or cls.__module__ != module.__name__:
                    continue
                for method in methods:
                    name = f"{short}.{cls_name}.{method}"
                    setattr(cls, method, self.wrap(name, vars(cls)[method], self._observer(name)))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    setattr(module, attr, replacements[id(value)][1])
        return count_wrappers()

    def _observer(self, name: str):
        if name == "cyclo.analyze_profile":
            def observe(args, result, exc):
                if self.inside("cyclo.enumerate_forbidden"):
                    self.count("cyclo.analyze_profile.calls_in_enumerate")
            return observe
        if name == "cyclo.enumerate_forbidden":
            def observe(args, result, exc):
                if result is not None:
                    self.count("cyclo.enumerate_forbidden.profiles", len(result))
            return observe
        if name == "lmfdb.OrbitDimClient.fetch_orbit_dims":
            from rmbounds.lmfdb import NetworkUnavailable

            def observe(args, result, exc):
                key = (self._op, args[1])
                self.distinct_levels.add(key)
                if result is not None:
                    self.count(f"lmfdb.fetch.by_source.{result.source}")
                    if result.source == "fixture":
                        self.fixture_levels.add(key)
                elif isinstance(exc, NetworkUnavailable) and args[0].offline:
                    self.count("lmfdb.fetch.offline_miss")
            return observe
        if name.startswith("verify.") and name != "verify.run_all":
            def observe(args, result, exc):
                if hasattr(result, "cases"):
                    self.property_names[name] = result.name
                    self.count(f"cases:{name}", result.cases)
            return observe
        return None

    # -- output -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(values) for name, values in self.stats.items()},
            "observed": dict(self.observed),
            "distinct_levels": len(self.distinct_levels),
            "fixture_levels": len(self.fixture_levels),
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.frame = self.tracer._open(self.name, True)
        if self.name.startswith("op."):
            self.tracer._op = self.frame[2]
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame, self.start, perf_counter(), self.attrs)
        if self.name.startswith("op."):
            self.tracer._op = None
        return False
