"""The verdict rule of scripts/paired_wall.py: nine tenths of the pairs won,
and a median gap wider than the old side's interquartile range."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _paired_wall():
    spec = importlib.util.spec_from_file_location("paired_wall", ROOT / "scripts" / "paired_wall.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    verdict = _paired_wall().verdict
    old = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    faster = [t - 0.1 for t in old]
    assert verdict(old, faster).startswith("verdict: gain holds")
    nine = faster[:9] + [old[9]]  # a tie counts for neither side
    assert verdict(old, nine).startswith("verdict: gain holds")
    eight = faster[:8] + old[8:]
    assert verdict(old, eight).startswith("verdict: gain not shown")
    narrow = [t - 0.04 for t in old]  # wins every pair by less than the IQR
    assert verdict(old, narrow).startswith("verdict: gain not shown")


def test_summary_reports_the_wall_quartiles_and_the_median_peak_rss():
    summary = _paired_wall().summary
    line = summary([1.0, 1.2, 1.4, 1.6, 1.8], [40.2, 41.0, 40.6, 40.4, 40.8])
    assert line == ("median 1.400 s, quartiles 1.200 / 1.600 s (IQR 0.400 s); "
                    "peak RSS median 40.6 MB")
