"""Result serialization: per-deployment CSV rows, demand-sweep rows, run manifest.

Every float is written with 9 significant digits so repeated runs with the
same seed produce byte-identical CSVs.
"""

from __future__ import annotations

import json
import platform
from operator import attrgetter
from typing import Iterable

import numpy as np

from .engine import DimensioningResult

# Column -> DeploymentRecord attribute, in the normative column order that
# tests and downstream tooling rely on. A run row leads with the scenario id;
# a sweep row leads with the scenario id, system, demand and feasibility, and
# leaves the record's columns empty when no rung is feasible.
_RESULT_FIELDS = {
    "system": "system",
    "nx": "nx",
    "ny": "ny",
    "ap_count": "ap_count",
    "ap_density_per_km2": "ap_density_per_km2",
    "k_channels": "k_channels",
    "outage_feasible": "outage_feasible",
    "lambda_s_mbps_per_km2": "lambda_s.mean",
    "lambda_s_ci_low": "lambda_s.ci_low",
    "lambda_s_ci_high": "lambda_s.ci_high",
    "outage": "outage.mean",
    "outage_ci_low": "outage.ci_low",
    "outage_ci_high": "outage.ci_high",
    "mu_mbps_per_user": "mu_mbps_per_user",
    "demand_gb_month": "demand_gb_month",
    "snapshots": "n_snapshots",
    "served_samples": "served_samples",
    "zf_redraws": "zf_redraws",
    "solver_fallbacks": "solver_fallbacks",
}

_SWEEP_FIELDS = {
    "min_ap_count": "ap_count",
    "min_ap_density_per_km2": "ap_density_per_km2",
    "nx": "nx",
    "ny": "ny",
    "k_channels": "k_channels",
    "lambda_s_mbps_per_km2": "lambda_s.mean",
    "outage": "outage.mean",
}

RESULT_COLUMNS = ("scenario_id", *_RESULT_FIELDS)
SWEEP_COLUMNS = ("scenario_id", "system", "demand_gb_month", "feasible", *_SWEEP_FIELDS)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _write_csv(path: str, columns: tuple, rows: Iterable[list]) -> int:
    """Write the header and one line per row of cells; returns the row count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for cells in rows:
            fh.write(",".join(map(_fmt, cells)) + "\n")
            count += 1
    return count


def write_result_csv(path: str, scenario_id: str, result: DimensioningResult) -> int:
    """Write one row per evaluated (deployment, system); returns the row count."""
    get = attrgetter(*_RESULT_FIELDS.values())
    rows = (
        [scenario_id, *get(rec)] for dims in result.per_system.values() for rec in dims.records
    )
    return _write_csv(path, RESULT_COLUMNS, rows)


def write_sweep_csv(path: str, scenario_id: str, result: DimensioningResult) -> int:
    """Write one row per (demand point, system) with the minimum feasible deployment."""
    get = attrgetter(*_SWEEP_FIELDS.values())
    infeasible = (None,) * len(_SWEEP_FIELDS)

    def rows():
        for system, dims in result.per_system.items():
            for demand in result.demand_grid:
                rec = dims.minimums[demand]
                found = infeasible if rec is None else get(rec)
                yield [scenario_id, system, demand, rec is not None, *found]

    return _write_csv(path, SWEEP_COLUMNS, rows())


def write_manifest(
    path: str,
    scenario_dict: dict,
    threads: int,
    usable_cpus: int,
    wall_clock_s: float,
    rows_written: int,
    result: DimensioningResult,
) -> None:
    from . import __version__

    # Demand -> minimum AP count per system, or infeasible up to the ladder cap.
    dimensioning = {}
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
                    "ladder_cap_aps": scenario_dict["engine"]["ladder_max_aps"],
                }
            )
        dimensioning[system] = entries
    manifest = {
        "tool": "apdim",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scenario": scenario_dict,
        "systems": list(result.per_system),
        "seed": scenario_dict["engine"]["seed"],
        "n_snapshots": scenario_dict["engine"]["n_snapshots"],
        "threads": threads,
        "workers": result.workers,
        "usable_cpus": usable_cpus,
        "wall_clock_s": round(wall_clock_s, 3),
        "rows_written": rows_written,
        "dimensioning": dimensioning,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
