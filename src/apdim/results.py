"""Result serialization: per-deployment CSV rows, demand-sweep rows, run manifest.

Every float is written with 9 significant digits so repeated runs with the
same seed produce byte-identical CSVs.
"""

from __future__ import annotations

import json
import platform
from typing import Optional

import numpy as np

from .engine import DeploymentRecord, DimensioningResult

# Column order is normative; tests and downstream tooling rely on it.
RESULT_COLUMNS = (
    "scenario_id",
    "system",
    "nx",
    "ny",
    "ap_count",
    "ap_density_per_km2",
    "k_channels",
    "outage_feasible",
    "lambda_s_mbps_per_km2",
    "lambda_s_ci_low",
    "lambda_s_ci_high",
    "outage",
    "outage_ci_low",
    "outage_ci_high",
    "mu_mbps_per_user",
    "demand_gb_month",
    "snapshots",
    "served_samples",
    "zf_redraws",
    "solver_fallbacks",
)

SWEEP_COLUMNS = (
    "scenario_id",
    "system",
    "demand_gb_month",
    "feasible",
    "min_ap_count",
    "min_ap_density_per_km2",
    "nx",
    "ny",
    "k_channels",
    "lambda_s_mbps_per_km2",
    "outage",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def write_result_csv(path: str, scenario_id: str, result: DimensioningResult) -> int:
    """Write one row per evaluated (deployment, system); returns the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for system in result.per_system:
            for r in result.per_system[system].records:
                cells = [
                    scenario_id,
                    r.system,
                    r.nx,
                    r.ny,
                    r.ap_count,
                    r.ap_density_per_km2,
                    r.k_channels,
                    r.outage_feasible,
                    r.lambda_s.mean,
                    r.lambda_s.ci_low,
                    r.lambda_s.ci_high,
                    r.outage.mean,
                    r.outage.ci_low,
                    r.outage.ci_high,
                    r.mu_mbps_per_user,
                    r.demand_gb_month,
                    r.n_snapshots,
                    r.served_samples,
                    r.zf_redraws,
                    r.solver_fallbacks,
                ]
                fh.write(",".join(_fmt(c) if not isinstance(c, str) else c for c in cells) + "\n")
                rows += 1
    return rows


def write_sweep_csv(path: str, scenario_id: str, result: DimensioningResult) -> int:
    """Write one row per (demand point, system) with the minimum feasible deployment."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for system in result.per_system:
            dims = result.per_system[system]
            for demand in result.demand_grid:
                rec: Optional[DeploymentRecord] = dims.minimums[demand]
                if rec is None:
                    cells = [scenario_id, system, demand, False, None, None, None, None, None, None, None]
                else:
                    cells = [
                        scenario_id,
                        system,
                        demand,
                        True,
                        rec.ap_count,
                        rec.ap_density_per_km2,
                        rec.nx,
                        rec.ny,
                        rec.k_channels,
                        rec.lambda_s.mean,
                        rec.outage.mean,
                    ]
                fh.write(",".join(_fmt(c) if not isinstance(c, str) else c for c in cells) + "\n")
                rows += 1
    return rows


def demand_summary(result: DimensioningResult) -> dict:
    """Demand -> minimum AP count per system, JSON-ready."""
    out = {}
    for system, dims in result.per_system.items():
        entries = []
        for demand in result.demand_grid:
            rec = dims.minimums[demand]
            entries.append(
                {
                    "demand_gb_month": demand,
                    "feasible": rec is not None,
                    "min_ap_count": None if rec is None else rec.ap_count,
                    "min_ap_density_per_km2": None if rec is None else rec.ap_density_per_km2,
                    "ladder_cap_aps": dims.ladder_cap,
                }
            )
        out[system] = entries
    return out


def write_manifest(
    path: str,
    scenario_dict: dict,
    systems: list,
    seed: int,
    n_snapshots: int,
    threads: int,
    wall_clock_s: float,
    rows_written: int,
    result: Optional[DimensioningResult] = None,
) -> None:
    from . import __version__

    manifest = {
        "tool": "apdim",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scenario": scenario_dict,
        "systems": list(systems),
        "seed": seed,
        "n_snapshots": n_snapshots,
        "threads": threads,
        "wall_clock_s": round(wall_clock_s, 3),
        "rows_written": rows_written,
    }
    if result is not None:
        manifest["dimensioning"] = demand_summary(result)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
