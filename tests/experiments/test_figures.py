"""Tests that the figure harnesses regenerate the paper's shapes (scaled down)."""

from pathlib import Path

import pytest

from repro.experiments import ablations as _abl
from repro.experiments import fig2 as _fig2
from repro.experiments import fig4 as _fig4
from repro.experiments import fig6 as _fig6
from repro.experiments import fig7a as _fig7a
from repro.experiments import fig7c as _fig7c
from repro.experiments.common import format_table, series_from_rows

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_fig2_rows():
    rows = _fig2.run()
    by = {r["schedule"]: r["slots"] for r in rows}
    assert by["one sensor at a time"] == 3
    assert by["greedy multi-hop polling"] == 2
    assert by["optimal"] == 2


def test_fig4_rows():
    rows = _fig4.run()
    by = {r["quantity"]: r["value"] for r in rows}
    assert by["deadline T = n+1 slots"] == 6
    assert by["canonical schedule slots"] == 6
    assert by["optimal schedule slots"] == 6


def test_fig6_rows():
    rows = _fig6.run()
    by = {r["quantity"]: r["value"] for r in rows}
    assert by["threshold B = A + 2"] == 10.0
    assert by["meets threshold"] is True


def test_fig6_no_instance():
    rows = _fig6.run(values=[5, 3, 1])
    by = {r["quantity"]: r["value"] for r in rows}
    assert by["meets threshold"] is False


def test_fig7a_point_shape():
    small = _fig7a.run_point(10, 20.0, seeds=(0,), n_cycles=4, warmup_cycles=1)
    big = _fig7a.run_point(25, 80.0, seeds=(0,), n_cycles=4, warmup_cycles=1)
    assert 0 < small["active_pct"] < big["active_pct"] <= 100.0


def test_fig7a_sweep_structure():
    rows = _fig7a.run(sizes=(10, 15), rates=(20.0, 40.0), seeds=(0,), n_cycles=3)
    assert len(rows) == 4
    series = series_from_rows(rows, x="n_sensors", y="active_pct", group="rate_bps")
    assert set(series) == {20.0, 40.0}
    # within each rate, active% grows with n
    for pts in series.values():
        assert pts[0][1] <= pts[1][1]


def test_fig7c_points_above_one():
    rows = _fig7c.run(sizes=(12, 30), seeds=(0, 1))
    assert rows[0]["lifetime_ratio"] > 0.9
    assert rows[1]["lifetime_ratio"] > rows[0]["lifetime_ratio"]
    assert rows[1]["lifetime_ratio"] > 1.2


def test_archived_fig7c_table_has_the_paper_shape():
    """The published table, not a subset: the mean lifetime ratio is above 1
    at every size and rises with the cluster size."""
    lines = (RESULTS / "fig7c.txt").read_text().splitlines()
    rows = [line.split() for line in lines if line[:1].isdigit()]
    sizes = [int(row[0]) for row in rows]
    ratios = [float(row[1]) for row in rows]
    assert sizes == list(_fig7c.DEFAULT_SIZES_SWEEP)
    assert min(ratios) > 1.0
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_ablation_greedy_vs_optimal_ratio_bounded():
    rows = _abl.greedy_vs_optimal(n_sensors=5, seeds=(0, 1))
    for r in rows:
        assert 1.0 <= r["ratio"] <= 2.0


def test_ablation_delay_never_helps():
    for r in _abl.delay_vs_nodelay(n_vertices=3, seeds=(0, 1)):
        assert not r["delay_helps"]


def test_ablation_routing_load_improvement():
    rows = _abl.routing_minmax_vs_shortest(n_sensors=15, seeds=(0,))
    for r in rows:
        assert r["minmax_max_load"] <= r["bfs_max_load"]


def test_format_table_renders():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
    assert "a" in text and "10" in text and "0.125" in text
    assert format_table([]) == "(no data)"


def test_ablation_protocol_model_unsafe_physical_safe():
    rows = _abl.protocol_model_vs_physical(n_sensors=18, seeds=(0, 1))
    assert all(r["physical_bad_slots"] == 0 for r in rows)
    assert any(r["protocol_bad_slots"] > 0 for r in rows)


def test_ablation_shadowing_changes_connectivity():
    rows = _abl.shadowing_discovery(n_sensors=18, seeds=(0, 1))
    for r in rows:
        assert r["broken_by_fading"] + r["gained_by_fading"] > 0


def test_ablation_energy_aware_improves_normalized_load():
    rows = _abl.energy_aware_routing(n_sensors=18, seeds=(0, 1))
    for r in rows:
        assert r["aware_max_normload"] <= r["uniform_max_normload"] + 1e-9
    assert any(r["improvement"] > 1.1 for r in rows)
