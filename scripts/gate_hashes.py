"""Run the five gate invocations and check each run CSV against its pinned sha256.

    python3 scripts/gate_hashes.py [--threads N]

Each gate is one ``python -m apdim run`` on this checkout's ``src`` with BLAS
pinned to one thread and no ``APDIM_*`` variables inherited. The pinned hashes
are those of the fixed-seed CSVs that every refactor must reproduce byte for
byte. ``--threads N`` runs every gate at N threads instead of its own count;
the CSVs must not change. Prints one line per gate and exits 1 on any
mismatch or failed run. Takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = "wifi-baseline,wifi-aggressive,static,zf-ideal,zf-erroneous"

# name: (preset, seed, snapshots, threads, full ladder, ladder_max_aps or None, sha256)
GATES = {
    "table1-open": (
        "table1-open", 20240601, 60, 1, True, 9,
        "5cf882c871c7e0ff8f3f1f0938b55cd6217b90c953aa118b08fff3698fa6acc3",
    ),
    "table1-obstructed": (
        "table1-obstructed", 20240601, 60, 1, True, 9,
        "17a922149ecffb34cd59a39e49e0992f67be59da92f507780d3d6b97c13e7bb4",
    ),
    "open-ladder": (
        "table1-open", 1, 40, 1, False, None,
        "db4a6b3508df43d473881f26b6075a2d836e520921e467930d4ecec523f3ae0d",
    ),
    "obstructed-threads": (
        "table1-obstructed", 1, 10, 2, True, 49,
        "255a611d484ecd332d7ec62f89845bbd37a67848b3154a0dcbb99788037db45b",
    ),
    "open-full-ladder": (
        "table1-open", 5, 10, 1, True, None,
        "dd7630f5d463abfbd9aff1b9c964a527aa887145387962895129a15fd2dae5f6",
    ),
}


def run_gate(name: str, out: Path, threads: int | None) -> str | None:
    """Run one gate; the sha256 of its CSV, or None if the run failed."""
    preset, seed, snapshots, own_threads, full_ladder, ladder_max_aps, _ = GATES[name]
    argv = [
        sys.executable, "-m", "apdim", "run", "--preset", preset, "--systems", SYSTEMS,
        "--out", str(out), "--seed", str(seed), "--snapshots", str(snapshots),
        "--threads", str(own_threads if threads is None else threads), "--quiet",
    ] + (["--full-ladder"] if full_ladder else [])
    env = {k: v for k, v in os.environ.items() if not k.startswith("APDIM_")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    if ladder_max_aps is not None:
        env["APDIM_ENGINE__LADDER_MAX_APS"] = str(ladder_max_aps)
    proc = subprocess.run(argv, cwd=ROOT, env=env, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stderr.strip(), file=sys.stderr)
        return None
    return hashlib.sha256(out.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=None,
                        help="run every gate at this thread count instead of its own")
    args = parser.parse_args(argv)
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, gate in GATES.items():
            got = run_gate(name, Path(tmp) / f"{name}.csv", args.threads)
            pinned = gate[-1]
            verdict = "ok" if got == pinned else ("FAILED" if got is None else "MISMATCH")
            failures += verdict != "ok"
            print(f"{name:<20} {got or '-':<64} pinned {pinned}  {verdict}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
