"""The committed-baseline gate of ``benchmarks/compare_benchmarks.py``.

On the same host id the gate divides each fresh/baseline median ratio by
the fresh/baseline ratio of the fixed reference loop both files carry, so a
host that runs faster (or slower) than the one that recorded the baseline
neither hides nor invents a regression.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_benchmarks", ROOT / "benchmarks" / "compare_benchmarks.py"
)
compare_benchmarks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_benchmarks)

HOST = {"cpu_model": "x", "cpu_count": 2, "id": "same"}


def bench_file(path: pathlib.Path, median_s: float, loop_s: float | None) -> pathlib.Path:
    payload = {
        "benchmarks": [{"fullname": "bench.py::test_kernel", "stats": {"median": median_s}}],
        "host_fingerprint": HOST,
    }
    if loop_s is not None:
        payload["host_loop_s"] = loop_s
    path.write_text(json.dumps(payload))
    return path


def check(tmp_path, base, fresh) -> list[str]:
    """Failures for a baseline and a fresh file, each ``(median, loop)``."""
    return compare_benchmarks.compare_file(
        bench_file(tmp_path / "base.json", *base),
        bench_file(tmp_path / "fresh.json", *fresh),
        max_regression=0.30,
    )


def test_a_slowdown_on_a_faster_host_fails_the_scaled_check(tmp_path, capsys):
    # The fresh host runs the reference loop twice as fast, so a median
    # 1.2x the baseline's is a 2.4x slowdown of the code.
    failures = check(tmp_path, (1e-3, 300e-6), (1.2e-3, 150e-6))
    assert len(failures) == 1 and "2.40x scaled" in failures[0]
    assert "x1.20 raw, x2.40 scaled" in capsys.readouterr().out
    # Without the loop stamps the verbatim ratio, 1.2x, passes.
    assert check(tmp_path, (1e-3, None), (1.2e-3, None)) == []


def test_a_slower_host_does_not_fail_the_scaled_check(tmp_path):
    assert check(tmp_path, (1e-3, 300e-6), (2.2e-3, 600e-6)) == []
    assert check(tmp_path, (1e-3, 300e-6), (1.5e-3, 300e-6)) != []


@pytest.mark.parametrize("base_loop, fresh_loop", [(300e-6, None), (None, 150e-6)])
def test_one_unstamped_file_keeps_the_verbatim_ratio(tmp_path, base_loop, fresh_loop):
    assert check(tmp_path, (1e-3, base_loop), (1.2e-3, fresh_loop)) == []
    assert check(tmp_path, (1e-3, base_loop), (1.4e-3, fresh_loop)) != []
