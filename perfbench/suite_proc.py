"""Run one `phaseineq verify` suite in this fresh interpreter.

Usage: python3 perfbench/suite_proc.py <trace 0|1> <cli argument>...

Imports phaseineq from the `src/` directory next to this benchmark, calls
`phaseineq.cli.main` with the given arguments and prints one JSON line:
the CLI exit code, CLOCK_MONOTONIC readings once the CLI is imported
(`ready`) and once it returned (`done`), the peak RSS of this process, the
BLAS thread count in effect and, when tracing, the span aggregates.
CLOCK_MONOTONIC is system-wide, so the parent can subtract its own reading
taken before it started this process.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    import phaseineq.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"phaseineq imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    ready = _now()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    rc = cli.main(argv)
    done = _now()
    print(json.dumps({
        "rc": rc,
        "ready": ready,
        "done": done,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "trace": tracer.snapshot() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
