"""Per-layer tracing from outside the program.

Every public function (``__all__``) of each sobolab module is replaced by a
wrapper that counts calls and keeps a stack of open spans, so a layer's self
time is its spans' durations minus the part covered by nested spans.  Modules
copy names with ``from .x import y``, so the wrapper is bound in every
``sobolab.*`` namespace that holds the original; ``unwrapped_bindings`` finds
any that still do.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "sobolab"
LAYERS = ("cli", "manifold", "spectral", "norms", "constants", "semigroup",
          "bootstrap", "flow", "reporting")

# (function key, statistic) pairs reported as "<key>.<statistic>"; "s" is the
# inclusive time of outermost calls.
FUNCTION_METRICS = (
    ("spectral.decompose", "calls"), ("spectral.decompose", "s"),
    ("spectral.lambda0", "calls"),
    ("spectral.apply_function", "calls"), ("spectral.apply_function", "s"),
    ("spectral.op_norm_2_to_inf", "s"),
    ("norms.lp_norm", "calls"), ("norms.grad_lp_norm", "calls"),
    ("norms.bessel_norm", "calls"),
    ("constants.generate_ensemble", "s"), ("constants.min_feasible_A", "calls"),
    ("constants.estimate_sobolev_AB", "s"), ("constants.verify_inequality", "s"),
    ("semigroup.mapping_norm", "s"),
    ("semigroup.bessel_equivalence_constants", "s"),
    ("semigroup.scaling_transfer_check", "s"),
    ("semigroup.heat_contraction_check", "s"),
    ("semigroup.ultracontractivity_fit", "s"),
    ("flow.track", "s"), ("bootstrap.chain_constants", "calls"),
    ("manifold.build", "calls"), ("manifold.scale_metric", "calls"),
)


class Tracer:
    """Call counts and inclusive/self times per wrapped function."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack = []  # child-time accumulator of each open span
        self.wrappers = {}  # id(original) -> wrapper
        self.meshes = set()  # (nodes, stiffness sparsity digest) decomposed
        self.n3_computed = 0
        self.max_nodes = 0
        self.members = 0

    def wrap(self, fn, key: str):
        stack, depth = self._stack, self._depth
        calls, inclusive, self_time = self.calls, self.inclusive, self.self_time
        observe = {"spectral.decompose": self._observe_decompose,
                   "constants.generate_ensemble": self._observe_ensemble,
                   }.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[key] -= 1
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                self_time[key] += dt - frame[0]
                if depth[key] == 0:
                    inclusive[key] += dt
            if observe is not None:
                observe(result)
            return result

        self.wrappers[id(fn)] = traced
        return traced

    def _observe_decompose(self, result):
        m = result.manifold
        s = m.stiffness.tocsr()
        digest = hashlib.sha1(s.indptr.tobytes() + s.indices.tobytes()).hexdigest()
        self.meshes.add((m.num_nodes, digest))
        self.n3_computed += m.num_nodes ** 3
        self.max_nodes = max(self.max_nodes, m.num_nodes)

    def _observe_ensemble(self, result):
        self.members += len(result)

    def install(self) -> None:
        """Wrap each layer's public functions and rebind every copy of them."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in mod.__all__:
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self.wrap(obj, f"{layer}.{name}")
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = self.wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def unwrapped_bindings(self) -> list:
        """Names in sobolab namespaces that still reach an original function:
        module attributes, entries of module-level containers, class
        attributes and default arguments."""
        found = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                for label, ref in _references(f"{mod.__name__}.{attr}", value):
                    if id(ref) in self.wrappers:
                        found.append(label)
        return found

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            keys = [k for k in self.calls if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys)
            out[f"{layer}.self_s"] = sum(self.self_time[k] for k in keys)
        for key, stat in FUNCTION_METRICS:
            out[f"{key}.{stat}"] = (self.calls[key] if stat == "calls"
                                    else self.inclusive[key])
        decompositions = self.calls["spectral.decompose"]
        out["spectral.decompose.calls_per_mesh"] = (
            decompositions / len(self.meshes) if self.meshes else 0.0)
        out["spectral.decompose.n3_computed"] = self.n3_computed
        out["spectral.decompose.max_nodes"] = self.max_nodes
        out["constants.generate_ensemble.members"] = self.members
        return out


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


def _references(label: str, value):
    """(label, object) pairs for value and what it holds one level down."""
    yield label, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield f"{label}[{k!r}]", v
    elif isinstance(value, (list, tuple, set, frozenset)):
        for i, v in enumerate(value):
            yield f"{label}[{i}]", v
    elif inspect.isclass(value):
        for k, v in vars(value).items():
            yield f"{label}.{k}", getattr(v, "__func__", v)
    if inspect.isfunction(value):
        for i, v in enumerate(value.__defaults__ or ()):
            yield f"{label} default {i}", v
        for k, v in (value.__kwdefaults__ or {}).items():
            yield f"{label} default {k}", v


UNITS = {"calls": "count", "s": "s", "self_s": "s", "calls_per_mesh": "ratio",
         "n3_computed": "count", "max_nodes": "count", "members": "count"}


def metric_unit(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]
