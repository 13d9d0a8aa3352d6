"""apdim benchmark: `apdim run` end to end on fixed workloads, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is one serial
``apdim run`` invocation (a closed loop with one client, one process per
invocation, BLAS pinned to one thread) repeated with the same ``--seed`` for
``--seconds``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
alternates plain and traced invocations and reports the per-layer metrics.
The last stdout line is the result JSON; the line before it is the run record
(machine, versions, CSV hashes, output-check counts). See WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEADLINE_S = 170.0  # the whole benchmark run, set-up included
SETUP_ONLY_SAMPLES = 8  # every invocation adds one more set-up sample

ALL_SYSTEMS = ("wifi-baseline", "wifi-aggressive", "static", "zf-ideal", "zf-erroneous")

# The run CSV schema as the README documents it, checked from outside.
README_COLUMNS = (
    "scenario_id", "system", "nx", "ny", "ap_count", "ap_density_per_km2", "k_channels",
    "outage_feasible", "lambda_s_mbps_per_km2", "lambda_s_ci_low", "lambda_s_ci_high",
    "outage", "outage_ci_low", "outage_ci_high", "mu_mbps_per_user", "demand_gb_month",
    "snapshots", "served_samples", "zf_redraws", "solver_fallbacks",
)
NUMERIC_COLUMNS = README_COLUMNS[2:6] + README_COLUMNS[8:]


@dataclass(frozen=True)
class Workload:
    preset: str
    systems: tuple[str, ...]
    threads: int
    snapshots: int
    full_ladder: bool
    ladder_max_aps: int | None = None  # None keeps the preset's 100

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [
            "run", "--preset", self.preset, "--systems", ",".join(self.systems),
            "--out", str(out), "--seed", str(seed), "--snapshots", str(self.snapshots),
            "--threads", str(self.threads), "--quiet",
        ]
        return argv + (["--full-ladder"] if self.full_ladder else [])

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("APDIM_")}
        env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        if self.ladder_max_aps is not None:
            env["APDIM_ENGINE__LADDER_MAX_APS"] = str(self.ladder_max_aps)
        return env


# Why each workload exists, and why zf-dense was dropped, is in WORKLOADS.md.
WORKLOADS = {
    "open-ladder": Workload("table1-open", ALL_SYSTEMS, threads=1, snapshots=40, full_ladder=False),
    "obstructed-threads": Workload(
        "table1-obstructed", ALL_SYSTEMS, threads=2, snapshots=10,
        full_ladder=True, ladder_max_aps=49,
    ),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "snapshots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_errors": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


class Runner:
    """Spawns child.py invocations one at a time under the overall deadline."""

    def __init__(self, workload: Workload, seed: int, tmp: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = started + DEADLINE_S
        self.count = 0

    def spawn(self, *flags: str) -> dict:
        """Run one child; returns its record plus set-up and total duration."""
        self.count += 1
        result = self.tmp / f"child-{self.count}.json"
        out = self.tmp / f"run-{self.count}.csv"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result), *flags, "--",
               *self.workload.argv(self.seed, out)]
        spawned = time.monotonic()
        remaining = self.deadline - spawned
        if remaining <= 0:
            raise BenchError("deadline reached before the run finished")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.workload.env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"invocation exceeded the {DEADLINE_S:.0f} s deadline") from exc
        done = time.monotonic()
        record = {"returncode": proc.returncode, "stderr": proc.stderr[-2000:], "csv": out,
                  "duration_s": done - spawned}
        if result.is_file():
            record.update(json.loads(result.read_text(encoding="utf-8")))
            record["setup_s"] = record["loaded_at"] - spawned
            if not Path(record["apdim_file"]).resolve().is_relative_to(SRC.resolve()):
                raise BenchError(f"apdim was imported from {record['apdim_file']}, not {SRC}")
        return record


def ok(record: dict) -> bool:
    return record["returncode"] == 0 and record.get("exit_code") == 0


# ---------------------------------------------------------------------------
# Output checks (from outside the package)
# ---------------------------------------------------------------------------


def check_csv(path: Path, workload: Workload) -> dict:
    """Parse a run CSV; count rows violating the README schema checks.

    ``well_formed`` is false when the file cannot be checked at all. The
    per-check counts include the seed's known defects (``1``/``0`` spelling
    of ``outage_feasible``, static K* reported on infeasible rows); they are
    measured, not excluded.
    """
    checks = dict.fromkeys(
        ("column_order", "outage_feasible_spelling", "snapshots", "outage_ci_order",
         "lambda_ci_order", "static_k_infeasible"), 0)
    report = {"well_formed": False, "rows": 0, "bad_rows": 0, "snapshots_sum": 0, "checks": checks}
    if not path.is_file():
        return report
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        body = list(reader)
    if set(header) != set(README_COLUMNS) or len(header) != len(README_COLUMNS):
        return report
    col = {name: i for i, name in enumerate(header)}
    for cells in body:
        if len(cells) != len(header):
            return report
        try:
            v = {name: float(cells[col[name]]) for name in NUMERIC_COLUMNS}
        except ValueError:
            return report
        if cells[col["system"]] not in workload.systems or not all(map(math.isfinite, v.values())):
            return report
        feasible = cells[col["outage_feasible"]]
        failed = {
            "column_order": header != README_COLUMNS,
            "outage_feasible_spelling": feasible not in ("true", "false"),
            "snapshots": v["snapshots"] != workload.snapshots,
            "outage_ci_order": not (
                0.0 <= v["outage_ci_low"] <= v["outage"] <= v["outage_ci_high"] <= 1.0),
            "lambda_ci_order": not (
                v["lambda_s_ci_low"] <= v["lambda_s_mbps_per_km2"] <= v["lambda_s_ci_high"]),
            "static_k_infeasible": cells[col["system"]] == "static"
            and cells[col["k_channels"]] != "" and feasible not in ("true", "1"),
        }
        for name, bad in failed.items():
            checks[name] += bad
        report["bad_rows"] += any(failed.values())
        report["snapshots_sum"] += int(v["snapshots"])
    report["rows"] = len(body)
    manifest = path.with_name(path.name + ".manifest.json")
    try:
        rows_written = json.loads(manifest.read_text(encoding="utf-8"))["rows_written"]
    except (OSError, ValueError, KeyError):
        return report
    report["well_formed"] = len(body) > 0 and rows_written == len(body)
    return report


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced invocation
# ---------------------------------------------------------------------------


def _quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rep: dict) -> dict:
    """name -> (value, unit). ``.s`` is self time, except the per-system
    ``engine.evaluate_deployment.<system>.s`` and ``*.total_s``, which are
    inclusive. Absent targets read 0 and are listed in the run record."""
    spans, cnt = rep["spans"], rep["counters"]

    def span(name: str, key: str = "self_s") -> float:
        return spans.get(name, {}).get(key, 0)

    m = {}
    for name in ("channel.average_gains", "engine.run_snapshots", "planning.assign_channels",
                 "static_cellular.static_rates", "zf.build_beamformer", "zf.allocate_power"):
        m[f"{name}.s"] = (span(name), "s")
        m[f"{name}.calls"] = (span(name, "calls"), "count")
    for name in ("geometry.crossing_counts", "engine.drop_users", "engine.associate",
                 "engine.select_served", "planning.search_k_star", "wifi.build_contention_graph",
                 "wifi.sample_ssi", "wifi.wifi_rates", "channel.delayed_csit",
                 "zf.zf_rates_erroneous", "channel.draw_fading", "channel.draw_symmetric_fading",
                 "results.write_result_csv", "results.write_manifest"):
        m[f"{name}.s"] = (span(name), "s")
    m["planning.search_k_star.total_s"] = (span("planning.search_k_star", "total_s"), "s")
    for system in ALL_SYSTEMS:
        name = f"engine.evaluate_deployment.{system}"
        m[f"{name}.s"] = (span(name, "total_s"), "s")
    m["channel.average_gains.pairs"] = (cnt.get("channel.average_gains.pairs", 0), "count")
    m["engine.snapshots"] = (span("engine.drop_users", "calls"), "count")
    capacity = span("engine.run_snapshots", "total_s") * cnt.get("pool.capacity_threads", 0)
    m["engine.pool_busy_ratio"] = (_ratio(cnt.get("pool.busy_ns", 0) / 1e9, capacity), "ratio")
    m["planning.k_evaluated"] = (cnt.get("planning.k_evaluated", 0), "count")
    m["wifi.active_ratio"] = (_ratio(cnt.get("wifi.active", 0), cnt.get("wifi.participating", 0)), "ratio")
    bf_calls = span("zf.build_beamformer", "calls")
    m["zf.build_beamformer.singular_ratio"] = (
        _ratio(cnt.get("zf.build_beamformer.singular", 0), bf_calls), "ratio")
    steps = rep["newton_steps"]
    m["zf.allocate_power.newton_steps"] = (sum(steps), "count")
    m["zf.allocate_power.newton_steps_p50"] = (_quantile(steps, 0.5), "count")
    m["zf.allocate_power.newton_steps_p90"] = (_quantile(steps, 0.9), "count")
    m["zf.allocate_power.converged_ratio"] = (
        _ratio(cnt.get("zf.allocate_power.converged", 0), len(steps)), "ratio")
    m["zf.allocate_power.kkt_residual_max"] = (cnt.get("zf.allocate_power.kkt_residual_max", 0), "rel")
    for name in ("zf.build_beamformer", "zf.allocate_power", "wifi.sample_ssi"):
        m[f"{name}.check_failures"] = (cnt.get(f"{name}.check_failures", 0), "count")
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _loop(runner: Runner, seconds: float, modes: list[tuple[str, ...]]) -> list[tuple]:
    """Cycle through ``modes`` until the next invocation would overrun ``seconds``;
    every mode runs at least once."""
    start = time.monotonic()
    done, last = [], {}
    while True:
        flags = modes[len(done) % len(modes)]
        done.append((flags, runner.spawn(*flags)))
        last[flags] = done[-1][1]["duration_s"]
        following = modes[len(done) % len(modes)]
        estimate = last.get(following, last[flags])
        if len(done) >= len(modes) and time.monotonic() - start + estimate > seconds:
            return done


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    started = time.monotonic()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=out_root))
    try:
        runner = Runner(workload, seed, tmp, started)
        setups = [runner.spawn("--setup-only") for _ in range(SETUP_ONLY_SAMPLES if not trace else 1)]
        modes = [(), ("--trace",)] if trace else [()]
        invocations = _loop(runner, seconds, modes)
        runs = [r for _, r in invocations]
        failed = [r for r in runs if not ok(r)]
        for r in failed + [s for s in setups if s["returncode"] != 0]:
            print(f"invocation failed ({r['returncode']}): {r['stderr']}", file=sys.stderr)
        good = [r for r in runs if ok(r)]
        plain = [r for flags, r in invocations if not flags and ok(r)]
        traced = [r for flags, r in invocations if flags and ok(r)]
        if not plain or (trace and not traced):
            raise BenchError("no apdim invocation of a measured mode succeeded")

        reports = [check_csv(r["csv"], workload) for r in good]
        hashes = sorted({hashlib.sha256(r["csv"].read_bytes()).hexdigest() for r in good})
        correct = (
            not failed
            and all(s["returncode"] == 0 for s in setups)
            and all(rep["well_formed"] for rep in reports)
            and len(hashes) == 1  # same seed -> identical bytes, traced or not
        )
        env = setups[0].get("environment", {})
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "argv": workload.argv(seed, Path("run.csv")),
            "ladder_max_aps": workload.ladder_max_aps or "preset",
            "nproc": os.cpu_count(), "sched_affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": env.get("blas"), "blas_threads_pin": workload.env()["OPENBLAS_NUM_THREADS"],
            "numpy": env.get("numpy"), "scipy": env.get("scipy"), "python": sys.version.split()[0],
            "git_revision": _git_revision(),
            "csv_sha256": hashes, "csv_rows": reports[0]["rows"],
            "output_checks": reports[0]["checks"],
            "invocations": len(runs),
            "wall_s_samples": [r["wall_s"] for r in plain],
        }
        if trace:
            per_inv = [layer_metrics(r["trace"]) for r in traced]
            metrics = {
                key: {"value": statistics.median(m[key][0] for m in per_inv), "unit": unit}
                for key, (_, unit) in per_inv[0].items()
            }
            ratio = statistics.median(r["wall_s"] for r in traced) / statistics.median(
                r["wall_s"] for r in plain)
            metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
            counters = traced[0]["trace"]["counters"]
            record["traced_wall_s_samples"] = [r["wall_s"] for r in traced]
            record["absent"] = traced[0]["trace"]["absent"]
            # Layer-oracle violations are measured (*.check_failures), not gated:
            # the seed's PAPC solver already reports some.
            record["observer_errors"] = counters.get("trace.observer_errors", 0)
        else:
            setup_samples = [r["setup_s"] for r in setups + runs if "setup_s" in r]
            record["setup_s_samples"] = setup_samples
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in good),
                "setup_s": statistics.median(setup_samples),
                "snapshots_per_s": statistics.median(
                    rep["snapshots_sum"] / r["wall_s"] for rep, r in zip(reports, good)),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
                "output_errors": statistics.median(rep["bad_rows"] for rep in reports),
            }
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        result = {"correct": bool(correct), "attempted": len(runs), "failed": len(failed),
                  "metrics": metrics}
        return record, result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apdim" / "cli.py").is_file():
        print(f"error: no apdim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must lie in [0, 2^64)", file=sys.stderr)
        return 2
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
