"""One apdim invocation in a fresh interpreter, for perfbench/run.py.

    python3 perfbench/child.py RESULT_JSON [--setup-only] [--trace] -- APDIM_ARGS...

Writes RESULT_JSON with the monotonic time at which ``apdim.cli`` was imported
and the scenario loaded (the parent subtracts its spawn time to get set-up
time) and, unless ``--setup-only``, the wall time of the parsed ``apdim``
command, the exit code, peak RSS and, with ``--trace``, the tracer report.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def main() -> int:
    split = sys.argv.index("--")
    result_path, *flags = sys.argv[1:split]
    argv = sys.argv[split + 1:]

    import apdim
    import apdim.cli as cli
    from apdim import scenario

    scenario.preset(argv[argv.index("--preset") + 1])
    record = {"loaded_at": time.monotonic(), "apdim_file": apdim.__file__}
    code = 0
    if "--setup-only" in flags:
        record["environment"] = _environment()
    else:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(apdim)
        args = cli.build_parser().parse_args(argv)
        start = time.perf_counter()
        code = args.func(args)
        record["wall_s"] = time.perf_counter() - start
        record["exit_code"] = code
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            record["trace"] = tracer.report()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
