"""Time two checkouts on one benchmark workload in alternating fresh-process pairs.

    python3 scripts/paired_wall.py OLD_CHECKOUT NEW_CHECKOUT --workload NAME --pairs N [--seed S]

Each pair runs the workload's ``apdim run`` invocation once per checkout, each
in a fresh ``perfbench/child.py`` process of that checkout with its own
``src`` on PYTHONPATH and the workload's environment (BLAS pinned to one
thread). The checkout that runs first alternates from pair to pair. Prints
each side's median and quartiles of the wall time that ``child.py`` reports,
beside the median of its peak RSS (``peak_rss_mb``), the ratio of the medians
(new / old), the pairs the new checkout won (ties count for neither) and
whether both sides wrote the same CSV bytes, then the verdict on a claimed
gain: it holds when the new checkout wins at least nine tenths of the pairs
and its median is below the old one's by more than the old side's
interquartile range. The workloads are read from this checkout's
``perfbench/run.py``, which is only imported. Exits 1 if an invocation fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_once(checkout: Path, workload, seed: int, tmp: Path, tag: str) -> tuple[float, float, str]:
    """One fresh invocation of ``checkout``; its wall time, peak RSS (MB) and the sha256 of its CSV."""
    result, out = tmp / f"{tag}.json", tmp / f"{tag}.csv"
    cmd = [sys.executable, str(checkout / "perfbench" / "child.py"), str(result), "--",
           *workload.argv(seed, out)]
    env = workload.env()
    env["PYTHONPATH"] = str(checkout / "src")
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(result.read_text(encoding="utf-8"))
    return record["wall_s"], record["peak_rss_mb"], hashlib.sha256(out.read_bytes()).hexdigest()


def summary(values: list[float], peaks_mb: list[float]) -> str:
    """One side's wall-time median and quartiles, and its median peak RSS."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (f"median {median:.3f} s, quartiles {q1:.3f} / {q3:.3f} s (IQR {q3 - q1:.3f} s); "
            f"peak RSS median {statistics.median(peaks_mb):.1f} MB")


def verdict(old: list[float], new: list[float]) -> str:
    """Whether the pairs show a gain: the new side wins at least nine tenths of
    them (ties count for neither) and the medians differ by more than the
    old side's interquartile range."""
    wins = sum(n < o for o, n in zip(old, new))
    q1, median, q3 = statistics.quantiles(old, n=4, method="inclusive")
    gap = median - statistics.median(new)
    holds = 10 * wins >= 9 * len(old) and gap > q3 - q1
    return (f"verdict: gain {'holds' if holds else 'not shown'} (new faster in {wins} of "
            f"{len(old)} pairs, nine tenths needed; median gap {gap:.3f} s against the old "
            f"side's IQR {q3 - q1:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout of the parent commit")
    parser.add_argument("new", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads)}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workload = workloads[args.workload]
    sides = {"old": args.old.resolve(), "new": args.new.resolve()}
    walls: dict = {"old": [], "new": []}
    peaks: dict = {"old": [], "new": []}
    same_bytes = True
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            hashes = {}
            for side in order:
                try:
                    wall, peak, hashes[side] = run_once(
                        sides[side], workload, args.seed, Path(tmp), f"{side}-{pair}")
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                walls[side].append(wall)
                peaks[side].append(peak)
            same_bytes &= hashes["old"] == hashes["new"]
            print(f"pair {pair + 1:2d} ({order[0]} first): old {walls['old'][-1]:.3f} s, "
                  f"new {walls['new'][-1]:.3f} s", flush=True)
    wins = sum(n < o for o, n in zip(walls["old"], walls["new"]))
    ratio = statistics.median(walls["new"]) / statistics.median(walls["old"])
    print(f"old: {summary(walls['old'], peaks['old'])}")
    print(f"new: {summary(walls['new'], peaks['new'])}")
    print(f"median ratio new/old {ratio:.3f}; new faster in {wins} of {args.pairs} pairs; "
          f"CSV bytes {'identical' if same_bytes else 'DIFFER'}")
    print(verdict(walls["old"], walls["new"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
