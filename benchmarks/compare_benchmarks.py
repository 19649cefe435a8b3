"""Compare fresh pytest-benchmark JSON against the committed baselines.

Usage (what CI runs)::

    python benchmarks/compare_benchmarks.py --baseline-dir . --fresh-dir fresh

Matches benchmarks by fully-qualified name and fails (exit 1) when any
fresh *median* exceeds the baseline median by more than ``--max-regression``
(default 0.30 = +30%).  New benchmarks with no baseline are reported but
never fail the run; a baseline benchmark missing from the fresh run does
fail (a silently dropped bench would otherwise hide a regression forever).

Host-drift vs regression
------------------------
``run_benchmarks.py`` stamps a host fingerprint (CPU model, core count,
Python/numpy versions) into every BENCH_*.json, and the median time of
``perfbench/run.py``'s fixed reference loop (``host_loop_s``).  When the
baseline and the fresh run carry the *same* fingerprint the 30% gate
applies to each fresh/baseline ratio divided by the fresh/baseline loop
ratio: one fingerprint can cover machines, or minutes of one machine, that
run several times faster or slower.  Both ratios are printed.  A file
without the loop stamp gets the ratio verbatim.  When the fingerprints
differ, absolute medians are incomparable — a slower CI runner would flag
every bench.  In that case the comparison

* estimates a host scale factor as the median of per-bench fresh/baseline
  ratios (most benches move together when only the host changed),
* classifies each over-budget bench as ``HOST-DRIFT`` (within budget after
  rescaling) or ``REGRESSION?`` (over budget even after rescaling — one
  bench moved much more than its peers), and
* warns instead of failing, unless ``--strict-host`` is given (CI passes
  it so a suspected cross-host regression still blocks).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any


def load_bench(
    path: pathlib.Path,
) -> tuple[dict[str, float], dict[str, Any] | None, float | None]:
    """(medians by fullname, host fingerprint or None, reference-loop
    median or None) for one JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    medians = {
        bench["fullname"]: float(bench["stats"]["median"])
        for bench in payload.get("benchmarks", [])
    }
    return medians, payload.get("host_fingerprint"), payload.get("host_loop_s")


def _same_host(a: dict[str, Any] | None, b: dict[str, Any] | None) -> bool:
    # Unstamped files (pre-fingerprint baselines) get the conservative
    # same-host gate: better a spurious failure than a silent regression.
    if a is None or b is None:
        return True
    return a.get("id") == b.get("id")


def host_scale(base: dict[str, float], new: dict[str, float]) -> float:
    """Median of per-bench fresh/baseline ratios — the host speed factor."""
    ratios = [
        new[name] / base[name]
        for name in base
        if name in new and base[name] > 0
    ]
    return statistics.median(ratios) if ratios else 1.0


def compare_file(
    baseline: pathlib.Path,
    fresh: pathlib.Path,
    max_regression: float,
    strict_host: bool = False,
) -> list[str]:
    """Human-readable failure strings for one baseline/fresh pair."""
    base, base_host, base_loop = load_bench(baseline)
    new, new_host, new_loop = load_bench(fresh)
    same_host = _same_host(base_host, new_host)
    scale = 1.0
    if same_host and base_loop and new_loop:
        scale = new_loop / base_loop
        print(
            f"  (same host id; reference loop {base_loop*1e6:.0f} -> "
            f"{new_loop*1e6:.0f} us, ratios scaled by x{scale:.2f})"
        )
    elif not same_host:
        scale = host_scale(base, new)
        print(
            f"  (cross-host: baseline {base_host.get('id') if base_host else '?'} "
            f"[{(base_host or {}).get('cpu_model', '?')}] vs fresh "
            f"{new_host.get('id') if new_host else '?'} "
            f"[{(new_host or {}).get('cpu_model', '?')}]; "
            f"host scale x{scale:.2f} — "
            f"{'strict' if strict_host else 'warn-only'} mode)"
        )
    limit = 1.0 + max_regression
    failures: list[str] = []
    for name, base_median in sorted(base.items()):
        if name not in new:
            failures.append(f"{name}: present in baseline but missing from fresh run")
            continue
        ratio = new[name] / base_median if base_median > 0 else float("inf")
        adjusted = ratio / scale if scale > 0 else float("inf")
        verdict = "OK"
        if same_host:
            if adjusted > limit:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}: median {base_median*1e3:.3f} ms -> {new[name]*1e3:.3f} ms "
                    f"({ratio:.2f}x raw, {adjusted:.2f}x scaled, limit {limit:.2f}x)"
                )
        elif adjusted > limit:
            verdict = "REGRESSION?"
            msg = (
                f"{name}: median {base_median*1e3:.3f} ms -> {new[name]*1e3:.3f} ms "
                f"({ratio:.2f}x raw, {adjusted:.2f}x host-adjusted, limit {limit:.2f}x) "
                f"[cross-host]"
            )
            if strict_host:
                failures.append(msg)
            else:
                print(f"  WARNING    {msg}")
        elif ratio > limit:
            verdict = "HOST-DRIFT"
        print(f"  {verdict:<10} {name}  x{ratio:.2f} raw, x{adjusted:.2f} scaled")
    for name in sorted(set(new) - set(base)):
        print(f"  NEW        {name} (no baseline; recorded only)")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=pathlib.Path, default=pathlib.Path("."))
    parser.add_argument("--fresh-dir", type=pathlib.Path, required=True)
    parser.add_argument("--max-regression", type=float, default=0.30)
    parser.add_argument(
        "--strict-host",
        action="store_true",
        help="fail on suspected cross-host regressions instead of warning",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        help="bench names (the <name> in BENCH_<name>.json) to compare; "
        "default: every committed baseline",
    )
    args = parser.parse_args(argv)

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if args.only:
        wanted = {f"BENCH_{name}.json" for name in args.only}
        baselines = [b for b in baselines if b.name in wanted]
    if not baselines:
        print(f"no BENCH_*.json baselines under {args.baseline_dir}", file=sys.stderr)
        return 1
    all_failures: list[str] = []
    for baseline in baselines:
        fresh = args.fresh_dir / baseline.name
        print(f"{baseline.name}:")
        if not fresh.exists():
            all_failures.append(f"{baseline.name}: fresh run produced no file")
            print("  MISSING    (fresh run produced no file)")
            continue
        all_failures.extend(
            compare_file(baseline, fresh, args.max_regression, args.strict_host)
        )
    if all_failures:
        print("\nperf regressions:", file=sys.stderr)
        for line in all_failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nall benchmarks within the regression budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
