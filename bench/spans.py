"""In-memory span tracer and the wrappers that attach it to ordfield.

A traced run replaces every public module-level function of each layer
module (and `Transcript.add_report` / `Transcript.render`) with a wrapper
that opens a span on entry and closes it on exit.  The package binds
names with `from .x import f`, so every module attribute that refers to a
traced function is rebound, not only the defining one.  `uninstall`
restores the original objects.

Self time is computed when a span closes: its duration minus the summed
durations of its direct children.  Calls run on one thread, so children
are disjoint sub-intervals of their parent and the sum is the time they
cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = (
    "laurent",
    "dyadic",
    "functions",
    "claims",
    "certs",
    "transcript",
    "fields",
    "literals",
    "rationals",
    "demos",
    "cli",
)
CLASS_METHODS = (("transcript", "Transcript", ("add_report", "render")),)
REFEREE_SPANS = frozenset({"claims.check_verifier", "claims.check_falsifier"})
# Raw spans beyond this many are folded into the aggregates only, so a
# traced pass of millions of calls stays small in memory and on disk.
KEEP_SPANS = 20_000


class Tracer:
    """Spans and counters of one traced pass.

    `stats[name]` is `[calls, self_ns, total_ns, errors]`.  `spans` holds
    `(trace_id, span_id, parent_id, name, start_ns, end_ns)` for the first
    KEEP_SPANS spans; spans under one root share its trace id.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []  # [span_id, name, start_ns, child_ns]
        self.stats: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {
            "laurent.max_coeff_bits": 0,
            "claims.checks": 0,
            "claims.referee_evals": 0,
            "transcript.bytes": 0,
        }
        self.distinct_evals: set = set()
        self.trace_id = 0
        self._next_span = 1

    def begin(self, name: str) -> None:
        self.stack.append([self._next_span, name, self.clock(), 0])
        self._next_span += 1

    def end(self, error: bool = False) -> None:
        end = self.clock()
        span_id, name, start, child = self.stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        st[3] += error
        parent_id = 0
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            parent_id = parent[0]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((self.trace_id, span_id, parent_id, name, start, end))

    def exclude(self, started_ns: int) -> None:
        """Keep the tracer's own bookkeeping since `started_ns` out of the
        enclosing span's self time."""
        if self.stack:
            self.stack[-1][3] += self.clock() - started_ns

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span with a fresh trace id (one invocation, one axiom
        triple, or the traced set-up)."""
        self.trace_id += 1
        self.begin(name)
        try:
            yield
        except BaseException:
            self.end(error=True)
            raise
        self.end()

    def parent_name(self) -> str | None:
        return self.stack[-1][1] if self.stack else None


def _rf_bits(tracer: Tracer, out) -> None:
    num = getattr(out, "num", None)
    if num is None:
        return
    bits = tracer.counters["laurent.max_coeff_bits"]
    for c in num + out.den:
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > bits:
            bits = b
    tracer.counters["laurent.max_coeff_bits"] = bits


def _count_checks(tracer: Tracer, out) -> None:
    tracer.counters["claims.checks"] += len(out.records)


def _count_bytes(tracer: Tracer, out) -> None:
    tracer.counters["transcript.bytes"] += len(out)


def _note_eval(tracer: Tracer, args) -> None:
    if tracer.parent_name() in REFEREE_SPANS:
        tracer.counters["claims.referee_evals"] += 1
        tracer.distinct_evals.add((args[0], args[1]))


def _hooks(name: str):
    """(pre, post) observers for the functions whose counts the per-layer
    metrics need; pre sees the arguments, post the result."""
    if name.startswith("laurent.rf_"):
        return None, _rf_bits
    if name in REFEREE_SPANS:
        return None, _count_checks
    if name == "transcript.render":
        return None, _count_bytes
    if name == "functions.evaluate":
        return _note_eval, None
    return None, None


def make_wrapper(tracer: Tracer, name: str, fn):
    pre, post = _hooks(name)
    clock = tracer.clock

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if pre is not None:
            t = clock()
            pre(tracer, args)
            tracer.exclude(t)
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.end(error=True)
            raise
        tracer.end()
        if post is not None:
            t = clock()
            post(tracer, out)
            tracer.exclude(t)
        return out

    traced.__bench_traced__ = name
    return traced


def _package_modules(package: str) -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def public_functions(package: str = "ordfield") -> dict[int, tuple[str, object]]:
    """id(fn) -> (span name, fn) for every public function a layer module
    defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[id(obj)] = (f"{layer}.{attr}", obj)
    return out


def install(tracer: Tracer, package: str = "ordfield") -> list[tuple]:
    """Wrap every traced function under every name bound to it; returns the
    `(owner, attr, original)` list that `uninstall` needs."""
    targets = public_functions(package)
    wrappers = {key: make_wrapper(tracer, name, fn) for key, (name, fn) in targets.items()}
    saved = []
    for mod in _package_modules(package):
        for attr, obj in list(vars(mod).items()):
            w = wrappers.get(id(obj))
            if w is not None and targets[id(obj)][1] is obj:
                saved.append((mod, attr, obj))
                setattr(mod, attr, w)
    for layer, cls_name, methods in CLASS_METHODS:
        cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
        for meth in methods:
            orig = cls.__dict__[meth]
            saved.append((cls, meth, orig))
            setattr(cls, meth, make_wrapper(tracer, f"{layer}.{meth}", orig))
    return saved


def uninstall(saved: list[tuple]) -> None:
    """Restore every binding `install` replaced and check that it holds."""
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)
    for owner, attr, orig in saved:
        if owner.__dict__[attr] is not orig:
            raise RuntimeError(f"binding {owner.__name__}.{attr} was not restored")


def bindings(package: str = "ordfield") -> dict[tuple[str, str], int]:
    """Identity snapshot of every callable binding in the package, to check
    that a traced run leaves the program as it found it."""
    snap = {}
    for mod in _package_modules(package):
        for attr, obj in vars(mod).items():
            if callable(obj):
                snap[(mod.__name__, attr)] = id(obj)
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        snap[(f"{mod.__name__}.{attr}", meth)] = id(fn)
    return snap
