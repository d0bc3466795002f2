"""The summary arithmetic of tools/pair.py, on fixed numbers."""

import runpy
from pathlib import Path

import pytest

summarize = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "tools" / "pair.py"))["summarize"]


def test_summary_arithmetic_on_fixed_numbers():
    # quartiles by statistics.quantiles' exclusive method: positions
    # (n + 1) / 4 and 3 (n + 1) / 4 of the sorted values
    base = [1.0, 3.0, 2.0, 4.0, 5.0, 6.0, 8.0, 7.0, 9.0, 10.0]
    change = [x - 0.5 for x in base[:9]] + [10.5]
    s = summarize(base, change, "lower", 0.22)
    assert s["base"] == (2.75, 5.5, 8.25)
    assert s["change"] == (2.25, 5.0, 7.75)
    assert (s["wins"], s["iqr"], s["resolved"], s["within"]) == (9, 5.5, False, True)
    assert s["shift"] == pytest.approx(-1 / 11)
    # a higher-is-better metric: the same numbers lose nine pairs, and a
    # median 10 % down stays within a bound of 0.2, not of 0.05
    s = summarize(base, change, "higher", 0.2)
    assert (s["wins"], s["within"]) == (1, True)
    assert summarize([10.0, 10.0, 10.0], [9.0, 9.0, 9.0], "higher", 0.05) == {
        "base": (10.0, 10.0, 10.0), "change": (9.0, 9.0, 9.0), "wins": 0,
        "iqr": 0.0, "shift": -0.1, "resolved": True, "within": False}
    # a lower-is-better metric 30 % up is outside a bound of 0.22
    assert not summarize([1.0, 1.0], [1.3, 1.3], "lower", 0.22)["within"]
