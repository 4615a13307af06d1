"""Kernel probes: time single phaseineq kernels at several truncation dims.

Usage: python3 perfbench/probes.py <seed> <dim>...

Prints one JSON line {"timings": {metric: seconds}, "errors": {metric: text}}
with metric names `probe.<kernel>.d<dim>.s`.  Each kernel gets one untimed
warm-up call at every dim (it fills the per-dim generator cache) and the
median of `REPS` timed calls, except where `kernels()` says otherwise.

Inputs are chosen so each probe times the intended code:
- states are random full-rank, never thermal, so `evolve` runs the
  integrator and not the closed-form fast path;
- `weyl_operator` and `convolve` get a fresh displacement on every call, so
  the Weyl cache never hits;
- T_SHORT keeps the random state's edge mass below the program's limit at
  dim 32 and gives one RK4 step and one quadrature sweep at every dim up
  to 256, so a probe times the per-step kernel.
"""

import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNEL_NAMES = (
    "weyl_operator", "DensityMatrix", "von_neumann_entropy",
    "relative_entropy", "evolve_heat", "evolve_attenuator",
    "evolve_amplifier", "evolve_qou", "convolve", "entropy_rate",
    "quantum_fisher", "death_evolve", "min_entropy_rate_constrained")
REPS = 3
T_SHORT = 2e-4
DEATH_T = 0.1
N_MEAN = 1.0
# The geometric start plus one random start, so one start is not already
# at the optimum.
MIN_STARTS = 2


def kernels(seed: int):
    """(name, make(dim) -> call(rep), warm-up at every dim, reps) for every
    probed kernel; a kernel without a warm-up at every dim gets one at the
    smallest dim."""
    import numpy as np

    from phaseineq import classical as cl
    from phaseineq import fisher as fi
    from phaseineq import fock_core as fc
    from phaseineq import semigroups as sg

    rng = np.random.default_rng(seed)

    def states(d):
        rho = fc.random_state(d, seed, fc.StateFamily.FULL_RANK)
        sigma = fc.random_state(d, seed + 1, fc.StateFamily.FULL_RANK)
        return rho, sigma

    def weyl(d):
        return lambda k: fc.weyl_operator(rng.normal(scale=0.3, size=2), d)

    def density(d):
        mat = states(d)[0].mat
        return lambda k: fc.DensityMatrix(mat)

    def entropy(d):
        rho = states(d)[0]
        return lambda k: fc.von_neumann_entropy(rho)

    def relent(d):
        rho, sigma = states(d)
        return lambda k: fc.relative_entropy(rho, sigma)

    def evolve(kind):
        def make(d):
            rho = states(d)[0]
            return lambda k: sg.evolve(rho, kind, T_SHORT)
        return make

    def convolve(d):
        rho = states(d)[0]
        f = sg.standard_gaussian()
        # A different t per call gives different quadrature displacements.
        return lambda k: sg.convolve(f, rho, T_SHORT * (1.0 + 1e-3 * k))

    def rate(d):
        rho = states(d)[0]
        return lambda k: sg.entropy_rate(rho, sg.Heat())

    def fisher(d):
        rho = states(d)[0]
        return lambda k: fi.quantum_fisher(rho).value

    def death(d):
        p = cl.geometric_pmf(N_MEAN, d)
        return lambda k: cl.death_evolve(p, DEATH_T)

    def minimizer(d):
        return lambda k: cl.min_entropy_rate_constrained(
            N_MEAN, d, starts=MIN_STARTS, seed=seed)[1]

    specs = {
        "weyl_operator": (weyl, True, REPS),
        "DensityMatrix": (density, True, REPS),
        "von_neumann_entropy": (entropy, True, REPS),
        "relative_entropy": (relent, True, REPS),
        "evolve_heat": (evolve(sg.Heat()), True, REPS),
        "evolve_attenuator": (evolve(sg.Attenuator()), True, REPS),
        "evolve_amplifier": (evolve(sg.Amplifier()), True, REPS),
        "evolve_qou": (evolve(sg.QOU(math.sqrt(2.0), 1.0)), True, REPS),
        # 400 uncached Weyl operators per call: 8 s at dim 256, so timed
        # once per dim after a warm-up at the smallest dim.
        "convolve": (convolve, False, 1),
        "entropy_rate": (rate, True, REPS),
        "quantum_fisher": (fisher, True, REPS),
        "death_evolve": (death, True, REPS),
        # Projected-gradient iterations; nothing is cached between calls.
        "min_entropy_rate_constrained": (minimizer, True, REPS),
    }
    return [(name, *specs[name]) for name in KERNEL_NAMES]


def _check(value) -> None:
    """Reject a float result that is not finite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ArithmeticError(f"non-finite result {value!r}")


def run(seed: int, dims) -> dict:
    timings, errors = {}, {}
    for kernel, make, warm, reps in kernels(seed):
        for d in dims:
            name = f"probe.{kernel}.d{d}.s"
            try:
                call = make(d)
                if warm or d == min(dims):
                    _check(call(-1))
                samples = []
                for k in range(reps):
                    start = time.perf_counter()
                    value = call(k)
                    samples.append(time.perf_counter() - start)
                    _check(value)
                timings[name] = statistics.median(samples)
            except Exception as exc:  # a failing probe is reported, not timed
                errors[name] = f"{type(exc).__name__}: {exc}"
    return {"timings": timings, "errors": errors}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import phaseineq

    if not Path(phaseineq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"phaseineq imported from {phaseineq.__file__}", file=sys.stderr)
        return 3
    seed, dims = int(sys.argv[1]), [int(d) for d in sys.argv[2:]]
    print(json.dumps(run(seed, dims)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
