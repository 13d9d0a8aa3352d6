"""Configuration schema, presets, env overrides, and the CLI surface."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from apdim import cli, scenario


def test_preset_open_values():
    scn = scenario.from_dict(scenario.preset_raw("table1-open"))
    assert scn.area.lx == 100.0 and scn.area.ly == 100.0
    assert scn.area.wx == 0 and scn.area.wy == 0
    assert scn.propagation.alpha == 2.0 and scn.propagation.lw_db == 0.0
    assert scn.propagation.l0_db == 37.0
    assert scn.traffic.omega == 0.2 and scn.traffic.lambda_u_per_km2 == 1e5
    assert scn.radio.pt_mw == 100.0 and scn.radio.gamma_t_db == 3.0
    assert scn.radio.beta == 0.05 and scn.radio.sigma_z2 == 1.0
    assert scn.wifi.k_wifi == 3 and scn.wifi.eta_wifi == 2.7
    assert scn.wifi.cs_thr_baseline_dbm == -85.0
    assert scn.wifi.cs_thr_aggressive_dbm == -65.0
    assert scn.static.eta_sta == 3.75 and scn.zf.eta_zf == 3.75
    assert scn.zf.rho == 0.9 and scn.zf.delta == 0.02


def test_preset_obstructed_values():
    scn = scenario.from_dict(scenario.preset_raw("table1-obstructed"))
    assert scn.propagation.alpha == 4.0 and scn.propagation.lw_db == 10.0
    assert scn.area.wx == 4 and scn.area.wy == 4  # 25 rooms


def test_preset_unknown():
    with pytest.raises(scenario.ScenarioError):
        scenario.preset("table2")


def test_round_trip_structural_identity(tmp_path, monkeypatch):
    scn = scenario.from_dict(scenario.preset_raw("table1-obstructed"))
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn.to_dict()))
    for name in os.environ:
        if name.startswith(scenario.ENV_PREFIX):
            monkeypatch.delenv(name)
    again = scenario.load_scenario(str(path))
    assert again == scn


def test_schema_rejects_out_of_range_beta():
    raw = scenario.preset_raw("table1-open")
    raw["radio"]["beta"] = 1.5
    with pytest.raises(scenario.ScenarioError, match="beta"):
        scenario.from_dict(raw)


def test_schema_rejects_unknown_key():
    raw = scenario.preset_raw("table1-open")
    raw["radio"]["noise_figure_db"] = 9.0
    with pytest.raises(scenario.ScenarioError, match="noise_figure_db"):
        scenario.from_dict(raw)
    raw = scenario.preset_raw("table1-open")
    raw["antenna"] = {}
    with pytest.raises(scenario.ScenarioError, match="antenna"):
        scenario.from_dict(raw)


def test_schema_rejects_missing_key():
    raw = scenario.preset_raw("table1-open")
    del raw["traffic"]["omega"]
    with pytest.raises(scenario.ScenarioError, match="omega"):
        scenario.from_dict(raw)


def test_schema_rejects_bad_types():
    raw = scenario.preset_raw("table1-open")
    raw["wifi"]["k_wifi"] = 2.5
    with pytest.raises(scenario.ScenarioError, match="k_wifi"):
        scenario.from_dict(raw)
    raw = scenario.preset_raw("table1-open")
    raw["demand_gb_month"] = [5.0, 1.0]
    with pytest.raises(scenario.ScenarioError, match="demand_gb_month"):
        scenario.from_dict(raw)


def _set(section, key, value):
    def edit(raw):
        (raw[section] if section else raw)[key] = value
        return raw
    return edit


def _drop(section, key):
    def edit(raw):
        del (raw[section] if section else raw)[key]
        return raw
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("radio", "beta", 1.5), "radio.beta: expected number in (0, 1), got 1.5"),
        (_set("radio", "x", 1), "radio: unknown key(s): x"),
        (_set(None, "antenna", {}), "unknown key(s): antenna"),
        (_drop("traffic", "omega"), "traffic: missing key(s): omega"),
        (_drop(None, "zf"), "missing key(s): zf"),
        (_set("wifi", "k_wifi", 2.5), "wifi.k_wifi: expected integer >= 1, got 2.5"),
        (_set("wifi", "k_wifi", True), "wifi.k_wifi: expected integer >= 1, got True"),
        (
            _set(None, "demand_gb_month", [5.0, 1.0]),
            "demand_gb_month: expected ascending list of positive numbers, got [5.0, 1.0]",
        ),
        (_set(None, "radio", 3), "radio: expected a JSON object, got 3"),
        (_set(None, "scenario_id", ""), "scenario_id: expected non-empty string, got ''"),
        (_set("engine", "seed", -1), "engine.seed: expected integer in [0, 2^64), got -1"),
        (
            _set("propagation", "l0_db", float("nan")),
            "propagation.l0_db: expected finite number, got nan",
        ),
        (lambda raw: [raw], "scenario: expected a JSON object, got 'list'"),
        # the ranges the engine's Wi-Fi and ZF parameters are read with
        (_set("wifi", "k_wifi", 0), "wifi.k_wifi: expected integer >= 1, got 0"),
        (_set("wifi", "eta_wifi", -1), "wifi.eta_wifi: expected positive number, got -1"),
        (_set("zf", "eta_zf", 0), "zf.eta_zf: expected positive number, got 0"),
        (_set("zf", "delta", 1.5), "zf.delta: expected number in [0, 1], got 1.5"),
        (_set("zf", "rho", -0.1), "zf.rho: expected number in [0, 1], got -0.1"),
        (_set("radio", "pt_mw", 0), "radio.pt_mw: expected positive number, got 0"),
        pytest.param(
            _set("radio", "pt_mw", 10**400),
            f"radio.pt_mw: expected positive number, got {10**400}",
            id="radio.pt_mw-int-beyond-float-range",
        ),
        # the ranges the engine reads traffic, snapshot counts and demands with
        (_set("traffic", "omega", 0.0), "traffic.omega: expected number in (0, 1], got 0.0"),
        (
            _set("traffic", "lambda_u_per_km2", 0.0),
            "traffic.lambda_u_per_km2: expected positive number, got 0.0",
        ),
        (_set("engine", "n_snapshots", 0), "engine.n_snapshots: expected integer >= 1, got 0"),
    ],
)
def test_schema_error_messages_exact(edit, message):
    raw = edit(scenario.preset_raw("table1-open"))
    with pytest.raises(scenario.ScenarioError) as info:
        scenario.from_dict(raw)
    assert str(info.value) == message


def _readme_scenario_keys():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| Section | Keys (units) |"):text.index("Noise power is derived")]
    rows = []
    for line in table.strip().splitlines()[2:]:
        section, listing = line.strip("|").split("|")
        keys = re.findall(r"`([a-z0-9_]+)`", re.sub(r"\([^)]*\)", "", listing))
        rows.append((section.strip(" `"), keys or None))  # no keys: a top-level value
    return rows


def test_readme_scenario_table_matches_schema():
    raw = scenario.from_dict(scenario.preset_raw("table1-open")).to_dict()
    schema = [(key, list(v) if isinstance(v, dict) else None) for key, v in raw.items()]
    assert len(schema) == 10
    assert _readme_scenario_keys() == schema


def test_env_override_applies():
    raw = scenario.preset_raw("table1-open")
    out = scenario.apply_env_overrides(
        raw, environ={"APDIM_ENGINE__N_SNAPSHOTS": "25", "APDIM_RADIO__BANDWIDTH_MHZ": "20.0"}
    )
    assert out["engine"]["n_snapshots"] == 25
    assert out["radio"]["bandwidth_mhz"] == 20.0
    assert raw["engine"]["n_snapshots"] == 500  # original untouched


def test_env_override_rejects_unknown_path():
    raw = scenario.preset_raw("table1-open")
    with pytest.raises(scenario.ScenarioError, match="APDIM_RADIO__NOISE"):
        scenario.apply_env_overrides(raw, environ={"APDIM_RADIO__NOISE": "1"})


def test_sigma2_and_threshold_derivations():
    scn = scenario.from_dict(scenario.preset_raw("table1-open"))
    assert scn.sigma2_mw == pytest.approx(2.484e-10, rel=1e-9)
    assert scn.gamma_t_linear == pytest.approx(10 ** 0.3)


# --- CLI ------------------------------------------------------------------------

def _run_cli(args, env_extra=None, module="apdim.cli"):
    env = dict(os.environ)
    env.pop("APDIM_TEST", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_validate_preset():
    proc = _run_cli(["validate", "--preset", "table1-open"])
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cli_validate_dump_round_trips():
    proc = _run_cli(["validate", "--preset", "table1-obstructed", "--dump"])
    assert proc.returncode == 0
    raw = json.loads(proc.stdout)
    assert raw["propagation"]["alpha"] == 4.0


def test_cli_validate_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    raw = scenario.preset_raw("table1-open")
    raw["radio"]["beta"] = 1.5
    path.write_text(json.dumps(raw))
    proc = _run_cli(["validate", "--scenario", str(path)])
    assert proc.returncode == 2
    assert "beta" in proc.stderr


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_cli_undecodable_scenario_is_a_usage_error(tmp_path, verb):
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{}")
    args = [verb, "--scenario", str(path)]
    if verb == "run":
        args += ["--systems", "static", "--out", str(tmp_path / "o.csv")]
    proc = _run_cli(args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: not valid JSON (")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"omega": 0.2', '"omega": 0.2, "omega": 0.35', "repeated key 'omega'"),
        ('"scenario_id"', '"scenario_id": "a", "scenario_id"', "repeated key 'scenario_id'"),
        ('"pt_mw": 100.0', f'"pt_mw": {10**400}', "radio.pt_mw: expected positive number"),
        ('"omega": 0.2', '"omega": ' + "[" * 100_000 + "]" * 100_000, "not valid JSON"),
    ],
    ids=["nested-repeated-key", "top-level-repeated-key", "int-beyond-float-range", "deeply-nested"],
)
def test_cli_validate_rejects_repeated_keys_and_huge_ints(tmp_path, old, new, message):
    path = tmp_path / "scn.json"
    text = json.dumps(scenario.preset_raw("table1-open"))
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    proc = _run_cli(["validate", "--scenario", str(path), "--dump"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_cli_empty_systems_usage_error(tmp_path):
    proc = _run_cli(
        ["run", "--preset", "table1-open", "--systems", "", "--out", str(tmp_path / "o.csv")]
    )
    assert proc.returncode != 0


def test_cli_unknown_system(tmp_path):
    proc = _run_cli(
        ["run", "--preset", "table1-open", "--systems", "wimax", "--out", str(tmp_path / "o.csv")]
    )
    assert proc.returncode == 2
    assert "wimax" in proc.stderr


def test_python_m_apdim_runs_the_cli(tmp_path):
    csvs = []
    for module in ("apdim", "apdim.cli"):
        out = tmp_path / f"{module}.csv"
        proc = _run_cli(
            ["run", "--preset", "table1-open", "--systems", "static", "--out", str(out),
             "--snapshots", "5", "--quiet"],
            env_extra={"APDIM_ENGINE__LADDER_MAX_APS": "4"},
            module=module,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5", "", "auto"])
def test_cli_bad_threads_usage_error(tmp_path, threads):
    proc = _run_cli(
        ["run", "--preset", "table1-open", "--systems", "static",
         "--out", str(tmp_path / "o.csv"), "--threads", threads],
    )
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: --threads must be a positive integer, got {threads!r}\n"
    )
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_cli_missing_out_directory_is_a_usage_error(tmp_path, monkeypatch, capsys, verb):
    def no_run(*args, **kwargs):
        raise AssertionError("the ladder must not run")

    monkeypatch.setattr(cli.engine, "dimension", no_run)
    out = tmp_path / "missing_dir" / "run.csv"
    code = cli.main([verb, "--preset", "table1-open", "--systems", "static", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --out directory {str(out.parent)!r} does not exist\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("verb", ["run", "sweep"])
@pytest.mark.parametrize("suffix", ["", ".manifest.json"])
def test_cli_out_that_is_a_directory_is_a_usage_error(tmp_path, monkeypatch, capsys, verb, suffix):
    def no_run(*args, **kwargs):
        raise AssertionError("the ladder must not run")

    monkeypatch.setattr(cli.engine, "dimension", no_run)
    out = tmp_path / "run.csv"
    taken = tmp_path / ("run.csv" + suffix)
    taken.mkdir()
    code = cli.main([verb, "--preset", "table1-open", "--systems", "static", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: --out {str(taken)!r} is a directory\n"
    assert taken.is_dir() and not any(taken.iterdir())


def test_cli_run_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "run.csv"
    proc = _run_cli(
        [
            "run",
            "--preset",
            "table1-open",
            "--systems",
            "zf-ideal",
            "--out",
            str(out),
            "--snapshots",
            "80",
            "--threads",
            "3",
            "--quiet",
        ],
        env_extra={"APDIM_DEMAND_GB_MONTH": "[1.0]", "APDIM_ENGINE__LADDER_MAX_APS": "4"},
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    from apdim.results import RESULT_COLUMNS

    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) >= 2
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert list(manifest) == [
        "tool", "version", "python", "numpy", "scenario", "systems", "seed", "n_snapshots",
        "threads", "workers", "usable_cpus", "wall_clock_s", "rows_written", "dimensioning",
    ]
    assert manifest["tool"] == "apdim"
    assert manifest["usable_cpus"] == len(os.sched_getaffinity(0))
    assert (manifest["threads"], manifest["workers"]) == (3, min(3, manifest["usable_cpus"]))
    assert manifest["seed"] == scenario.preset("table1-open").engine.seed
    assert manifest["n_snapshots"] == 80
    assert manifest["dimensioning"]["zf-ideal"][0]["feasible"] is True


def test_cli_manifest_lists_each_system_once(tmp_path, monkeypatch):
    monkeypatch.setenv("APDIM_ENGINE__LADDER_MAX_APS", "4")
    out = tmp_path / "run.csv"
    argv = ["run", "--preset", "table1-open", "--systems", "static,zf-ideal,static",
            "--out", str(out), "--snapshots", "5", "--quiet"]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["systems"] == ["static", "zf-ideal"]
    assert list(manifest["dimensioning"]) == ["static", "zf-ideal"]
    entries = [e for rows in manifest["dimensioning"].values() for e in rows]
    assert {e["ladder_cap_aps"] for e in entries} == {4}
    with open(out, newline="") as fh:
        rows = [(row["system"], row["nx"], row["ny"]) for row in csv.DictReader(fh)]
    assert len(set(rows)) == len(rows)  # one row per system and rung
    assert list(dict.fromkeys(system for system, _, _ in rows)) == manifest["systems"]


def _readme_run_columns():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("`run` CSV columns, in order:") + len("`run` CSV columns, in order:")
    listing = re.sub(r"\([^)]*\)", "", text[start:text.index("`sweep` CSV columns")])
    return re.findall(r"`([a-z0-9_]+)`", listing)  # column names, notes in parentheses dropped


def test_cli_run_csv_matches_readme_schema(tmp_path):
    # at 40 snapshots the 1-AP rungs have too few samples to be feasible and
    # the larger ones are feasible, so both spellings are written
    out = tmp_path / "run.csv"
    proc = _run_cli(
        [
            "run",
            "--preset",
            "table1-open",
            "--systems",
            "static,zf-ideal",
            "--out",
            str(out),
            "--snapshots",
            "40",
            "--full-ladder",
            "--quiet",
        ],
        env_extra={"APDIM_DEMAND_GB_MONTH": "[1.0]", "APDIM_ENGINE__LADDER_MAX_APS": "4"},
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(_readme_run_columns()) == 20
    assert rows[0] == _readme_run_columns()
    feasible = {row[rows[0].index("outage_feasible")] for row in rows[1:]}
    assert feasible == {"true", "false"}


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, apdim.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_sweep_writes_demand_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_cli(
        [
            "sweep",
            "--preset",
            "table1-open",
            "--systems",
            "zf-ideal",
            "--out",
            str(out),
            "--snapshots",
            "80",
            "--quiet",
        ],
        env_extra={"APDIM_DEMAND_GB_MONTH": "[1.0, 5.0]", "APDIM_ENGINE__LADDER_MAX_APS": "4"},
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    from apdim.results import SWEEP_COLUMNS

    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3  # two demand points, one system


def test_cli_repeat_run_byte_identical(tmp_path):
    env = {"APDIM_DEMAND_GB_MONTH": "[1.0]", "APDIM_ENGINE__LADDER_MAX_APS": "6"}
    args = [
        "run",
        "--preset",
        "table1-open",
        "--systems",
        "wifi-baseline,zf-ideal",
        "--snapshots",
        "50",
        "--seed",
        "123",
        "--quiet",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run_cli(args + ["--out", str(a)], env_extra=env).returncode == 0
    assert _run_cli(args + ["--out", str(b)], env_extra=env).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_oracle_verb():
    proc = _run_cli(["oracle"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_parse_systems_helper():
    assert cli._parse_systems("wifi-baseline, static") == ["wifi-baseline", "static"]
    with pytest.raises(ValueError):
        cli._parse_systems(" , ")
    with pytest.raises(ValueError):
        cli._parse_systems("wifi")
