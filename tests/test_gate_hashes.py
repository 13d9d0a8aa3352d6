"""The five fixed-seed gate invocations reproduce their pinned CSVs byte for byte."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_gate_csvs_match_pinned_hashes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gate_hashes.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
