"""In-process tracing for one benchmark process: wraps hesschrom's public
layer functions, keeps spans in memory with parent links, and summarises
them into self times, counts and lru ``cache_info()`` snapshots.

Also the entry point of a traced cold request:

    python perfbench/spans.py <hesschrom CLI arguments...>

runs ``hesschrom.cli.run`` under the tracer and prints one JSON object
holding the exit code, the CLI's stdout and the trace.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import pkgutil
import sys
import time

# (layer, function) pairs the tracer wraps; the layer is also the module
# the function is expected in. A function that moved is searched for in
# every hesschrom module; one that is gone is reported as missing.
TRACED = (
    ("chromatic", "stable_ordered_partitions"),
    ("chromatic", "chromatic_qsym"),
    ("pathqsym", "ordered_path_covers"),
    ("pathqsym", "path_qsym"),
    ("qsym", "omega"),
    ("qsym", "to_m_basis"),
    ("qsym", "generator"),
    ("qsym", "quasi_shuffle"),
    ("qsym", "kostka"),
    ("qsym", "expand_in_basis"),
    ("betti", "admissible_tableaux"),
    ("betti", "betti_vector"),
    ("betti", "x_of"),
    ("betti", "omega_x_of"),
    ("character", "dot_character"),
    ("character", "irreducible_multiplicities"),
    ("character", "frobenius_image"),
)

# Functions whose result size is recorded as the span's count.
SIZED = {"stable_ordered_partitions", "ordered_path_covers", "admissible_tableaux"}
TERMS = {"omega", "to_m_basis", "expand_in_basis"}
CACHED = ("generator", "kostka", "x_of", "omega_x_of")


def _modules():
    import hesschrom

    for info in pkgutil.iter_modules(hesschrom.__path__):
        if info.name != "__main__":
            importlib.import_module(f"hesschrom.{info.name}")
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "hesschrom"}


class Tracer:
    """Spans are tuples (parent, key, start, end, count); ``key`` is
    ``layer.function``. Install once per process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self.originals = {}
        self.counters = {}
        self._stack = []

    def install(self):
        modules = _modules()
        for layer, name in TRACED:
            fn = self._find(modules, layer, name)
            if fn is None:
                self.missing.append(f"{layer}.{name}")
                continue
            key = f"{layer}.{name}"
            self.originals[key] = fn
            wrapper = self._wrap(key, name, fn)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
        return self

    @staticmethod
    def _find(modules, layer, name):
        home = modules.get(f"hesschrom.{layer}")
        fn = getattr(home, name, None)
        if callable(fn):
            return fn
        for mod in modules.values():
            fn = getattr(mod, name, None)
            if callable(fn) and getattr(fn, "__module__", "").startswith("hesschrom"):
                return fn
        return None

    def _wrap(self, key, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[sid] = (parent, key, start, end, 0)
            if name in SIZED:
                count = len(out)
                if name == "admissible_tableaux":
                    # computed, not observed: the filter visits n! permutations
                    scanned = math.factorial(args[0].n)
                    counters["betti.permutations_scanned"] = (
                        counters.get("betti.permutations_scanned", 0) + scanned
                    )
            elif name in TERMS:
                count = len(out.terms)
            else:
                count = 0
            spans[sid] = (parent, key, start, end, count)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        return wrapper

    @contextlib.contextmanager
    def span(self, key):
        """A root span the harness opens around one operation."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (parent, key, start, time.perf_counter(), 0)

    def cache_info(self):
        out = {}
        for name in CACHED:
            for key, fn in self.originals.items():
                if key.endswith("." + name) and hasattr(fn, "cache_info"):
                    info = fn.cache_info()
                    out[key] = {"hits": info.hits, "misses": info.misses}
        return out

    def summary(self):
        """{key: {"self_ms", "calls", "count"}} plus counters, caches and
        the functions that could not be found."""
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        keys = {}
        for sid, (_, key, start, end, count) in enumerate(self.spans):
            row = keys.setdefault(key, {"self_ms": 0.0, "calls": 0, "count": 0})
            row["self_ms"] += (end - start - child_time[sid]) * 1000
            row["calls"] += 1
            row["count"] += count
        return {
            "keys": keys,
            "counters": dict(self.counters),
            "caches": self.cache_info(),
            "missing": list(self.missing),
        }

    def dump(self):
        """Every span, with parent links, for the trace file."""
        return [[p, k, round(s, 7), round(e, 7), c] for p, k, s, e, c in self.spans]


def main(argv):
    tracer = Tracer().install()
    import hesschrom.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with tracer.span("request"):
            rc = hesschrom.cli.run(argv)
    json.dump(
        {
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "trace": tracer.summary(),
            "spans": tracer.dump(),
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
