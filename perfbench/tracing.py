"""Span tracing of nuolab's layers, installed from outside the package.

`Tracer.install` replaces the public functions and methods listed below
with timing wrappers; `Tracer.uninstall` puts the originals back. Nothing
under `src/` knows about it. A function imported by name into another
module (for example `soa_prediction` in `fpl` and `learners`) is wrapped
in every namespace that binds it, because that is where callers look it
up.

Spans are kept in memory as flat arrays (name, parent, start, end) and
reduced at the end: a span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import array
import functools
import sys
import time

import numpy as np

MARK = "__perfbench_span__"

# span name -> (layer module, public function)
FUNCTIONS = {
    "littlestone.ldim": ("littlestone", "ldim"),
    "littlestone.witness": ("littlestone", "shattered_tree_witness"),
    "littlestone.verify_witness": ("littlestone", "verify_witness"),
    "littlestone.minimax": ("littlestone", "minimax_mistakes"),
    "littlestone.soa_prediction": ("littlestone", "soa_prediction"),
    "nature.commit_adversary": ("nature", "commit_adversary"),
    "runner.run_game": ("runner", "run_game"),
    "runner.regret": ("runner", "regret"),
    "runner.monte_carlo": ("runner", "monte_carlo"),
    "runner.regret_curve": ("runner", "regret_curve"),
}

# span name -> (layer module, public class, method); inherited methods are
# wrapped on the named class, so they are attributed to it
METHODS = {
    "littlestone.restrict": ("littlestone", "VersionSpace", "restrict"),
    "hypotheses.measure_sample": ("hypotheses", "DiscreteMeasure", "sample"),
    "fpl.pool_extend": ("fpl", "ExpertPoolFpl", "pool_extend"),
    "fpl.pool_predict": ("fpl", "ExpertPoolFpl", "predict"),
    "fpl.pool_update": ("fpl", "ExpertPoolFpl", "update"),
    "fpl.meta_predict": ("fpl", "FplLearner", "predict"),
    "fpl.meta_update": ("fpl", "FplLearner", "update"),
    "fpl.agnostic_predict": ("fpl", "AgnosticFpl", "predict"),
    "fpl.agnostic_update": ("fpl", "AgnosticFpl", "update"),
}

# (layer module, base class, methods): every class the layer module defines
# under the base gets these methods spanned as "<layer>.<method>"
PROTOCOLS = (
    ("learners", "OnlineLearner", ("predict", "update")),
    ("nature", "NatureStrategy", ("next_point", "reveal_label")),
)


def package_modules(package: str = "nuolab") -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def count_installed(package: str = "nuolab") -> int:
    """Span wrappers currently bound anywhere in the package."""
    found = 0
    for module in package_modules(package):
        for value in list(vars(module).values()):
            if hasattr(value, MARK):
                found += 1
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += sum(hasattr(v, MARK) for v in vars(value).values())
    return found


def _resolve(cls: type, attr: str):
    for klass in cls.__mro__:
        if attr in vars(klass):
            return vars(klass)[attr]
    return None


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("H")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self.counters = {"runner.rounds": 0, "runner.trials": 0, "runner.games": 0,
                         "fpl.experts_final": 0, "fpl.engine_states_final": 0,
                         "fpl.experts_scored": 0, "fpl.games_with_pool": 0}
        self._pools: dict[int, list] = {}   # id -> [pool, last round scored]
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """`fn` recorded as span `name`; `after(args, result)` updates counters."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, name)
        return wrapper

    def _after_run_game(self, args, trace) -> None:
        c = self.counters
        c["runner.rounds"] += len(trace)
        c["runner.games"] += 1
        if self._pools:
            c["fpl.games_with_pool"] += 1
            for pool, _ in self._pools.values():
                c["fpl.experts_final"] += pool.pool_size
                c["fpl.engine_states_final"] += getattr(
                    getattr(pool, "engine", None), "n_states", 0)
            self._pools.clear()

    def _after_monte_carlo(self, args, stats) -> None:
        self.counters["runner.trials"] += stats.trials

    def _after_pool_predict(self, args, result) -> None:
        pool = args[0]
        entry = self._pools.setdefault(id(pool), [pool, 0])
        if entry[1] != pool.t:          # the first prediction of a round scores the pool
            entry[1] = pool.t
            self.counters["fpl.experts_scored"] += pool.pool_size

    # -- installation --------------------------------------------------------

    def install(self, package: str = "nuolab") -> None:
        """Wrap every listed boundary. Originals are resolved before any
        wrapper is bound, so no wrapper ever wraps another."""
        modules = package_modules(package)
        layer = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        hooks = {"runner.run_game": self._after_run_game,
                 "runner.monte_carlo": self._after_monte_carlo,
                 "fpl.pool_predict": self._after_pool_predict}
        plan = []   # (owner, attr, span name, original, rebind everywhere)
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(layer.get(mod), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            plan.append((None, attr, name, original, True))
        for name, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(layer.get(mod), cls_name, None)
            original = _resolve(cls, attr) if isinstance(cls, type) else None
            if original is None:
                self.missing.append(name)
                continue
            plan.append((cls, attr, name, original, False))
        for mod, base_name, attrs in PROTOCOLS:
            module = layer.get(mod)
            base = getattr(module, base_name, None)
            if base is None:
                self.missing.append(f"{mod}.{base_name}")
                continue
            for cls in vars(module).values():
                if (isinstance(cls, type) and issubclass(cls, base)
                        and cls.__module__ == module.__name__):
                    for attr in attrs:
                        if attr in vars(cls):
                            plan.append((cls, attr, f"{mod}.{attr}", vars(cls)[attr], False))
        for owner, attr, name, original, everywhere in plan:
            wrapper = self.wrap(name, original, hooks.get(name))
            if not everywhere:
                self._bind(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapper)

    def _bind(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own, previous = self._undo.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # -- reduction -------------------------------------------------------------

    def spans(self):
        """(name ids, parents, durations in ns, self times in ns) as arrays."""
        names = np.asarray(self.name_id, dtype=np.uint16)
        parents = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        n = len(names)
        dur = end - start
        child = np.zeros(n, dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return names, parents, start, dur, dur - child

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names, _, _, dur, own = self.spans()
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]) / 1e9,
                       "self_s": float(selfs[i]) / 1e9}
                for i, name in enumerate(self.names)}

    def first_tree(self, root: str, limit: int = 20000) -> list[list]:
        """Spans of the first `root` span: [name, parent, start_us, dur_us],
        parents and starts relative to that root."""
        names, parents, start, dur, _ = self.spans()
        rid = self._ids.get(root)
        roots = np.flatnonzero(names == rid) if rid is not None else []
        if len(roots) == 0:
            return []
        lo = int(roots[0])
        hi = int(roots[1]) if len(roots) > 1 else len(names)
        hi = min(hi, lo + limit)
        t0 = int(start[lo])
        return [[self.names[int(names[i])], int(parents[i]) - lo if i > lo else -1,
                 (int(start[i]) - t0) / 1e3, int(dur[i]) / 1e3] for i in range(lo, hi)]
