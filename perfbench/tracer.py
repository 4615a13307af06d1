"""Span tracing of phaseineq from outside the package.

`install()` wraps every public function of the package modules, the
`DensityMatrix` constructor validation and numpy's `eigh`/`eigvalsh`.  The
modules import functions by name (`from .semigroups import convolve`), so a
wrapper is rebound in every module that holds the original, not only where
the function is defined.  numpy's eigensolvers are wrapped at the
`numpy.linalg` attribute, which the package looks up on every call.

Spans are aggregated as they close, so memory stays constant:

- `calls[name]`: every call, nested ones included;
- `busy[name]`: wall time of the outermost calls of `name` (a call nested in
  another call of the same name is not counted twice);
- `group_*`: the same for the named groups in `GROUPS`;
- `self_s[layer]`: span time minus the time of its direct child spans, summed
  over the layer's spans;
- `eigh_in_weyl`: `linalg.eigh` calls made directly by `weyl_operator`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "verify", "semigroups", "fisher", "fock_core", "gaussian",
          "classical")

GROUPS = {
    "semigroups.entropy_rate": ("semigroups.entropy_rate",
                                "semigroups.relent_decay_rate"),
    "fock_core.spectral": ("fock_core.von_neumann_entropy",
                           "fock_core.entropy_power",
                           "fock_core.relative_entropy"),
    "classical.death": ("classical.death_evolve",
                        "classical.death_entropy_rate",
                        "classical.death_generator"),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.group_calls = Counter()
        self.group_busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.eigh_in_weyl = 0
        self._active = Counter()
        # Open spans: [name, time of direct child spans].
        self._stack = []

    def wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        if layer == "gaussian":  # every public gaussian function
            groups += ("gaussian",)
        clock = time.perf_counter
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            for g in groups:
                active[g] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                active[name] -= 1
                self.calls[name] += 1
                if not active[name]:
                    self.busy[name] += dur
                for g in groups:
                    active[g] -= 1
                    self.group_calls[g] += 1
                    if not active[g]:
                        self.group_busy[g] += dur
                self.self_s[layer] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if (name == "linalg.eigh"
                            and parent[0] == "fock_core.weyl_operator"):
                        self.eigh_in_weyl += 1

        traced.__wrapped_by_tracer__ = True
        return traced

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "group_calls": dict(self.group_calls),
            "group_busy": dict(self.group_busy),
            "self_s": dict(self.self_s),
            "eigh_in_weyl": self.eigh_in_weyl,
        }


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None
            and (n == "phaseineq" or n.startswith("phaseineq."))]


def install() -> Tracer:
    """Wrap the imported phaseineq package in place and return the tracer.

    Raises RuntimeError if any module still refers to an unwrapped public
    function afterwards, so that a new import style cannot silently escape
    the trace.
    """
    tracer = Tracer()
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"phaseineq.{layer}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(obj, f"{layer}.{attr}")
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    dm = sys.modules["phaseineq.fock_core"].DensityMatrix
    dm.__post_init__ = tracer.wrap(dm.__post_init__, "fock_core.DensityMatrix")
    np.linalg.eigh = tracer.wrap(np.linalg.eigh, "linalg.eigh")
    np.linalg.eigvalsh = tracer.wrap(np.linalg.eigvalsh, "linalg.eigvalsh")

    missed = [f"{mod.__name__}.{attr}"
              for mod in _package_modules()
              for attr, obj in vars(mod).items()
              if inspect.isfunction(obj) and not attr.startswith("_")
              and obj.__module__.startswith("phaseineq")
              and not getattr(obj, "__wrapped_by_tracer__", False)]
    if missed:
        raise RuntimeError(f"untraced public functions: {', '.join(missed)}")
    return tracer
