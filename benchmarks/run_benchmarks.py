"""Emit the committed perf baselines: ``BENCH_<name>.json`` at the repo root.

Runs the cheap benchmark modules (the gadget figures and the core kernels —
the DES sweeps stay manual) through pytest-benchmark and writes one JSON
per module::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # refresh baselines
    PYTHONPATH=src python benchmarks/run_benchmarks.py --out-dir fresh

CI regenerates them into a scratch dir and fails if any benchmark's median
regressed >30% against the committed file (see ``compare_benchmarks.py``).
Commit the refreshed files whenever a change legitimately moves a number —
the JSON trail is the repo's perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.campaign import host_fingerprint  # noqa: E402

CHEAP_BENCHES = {
    "fig2": "test_bench_fig2.py",
    "fig4": "test_bench_fig4.py",
    "core_kernels": "test_bench_core_kernels.py",
    "failover": "test_bench_failover.py",
    "churn": "test_bench_churn.py",
    "handoff": "test_bench_handoff.py",
    "obs_overhead": "test_bench_obs_overhead.py",
    "vector": "test_bench_vector.py",
    "campaign": "test_bench_campaign.py",
}


def stamp_host(path: pathlib.Path) -> None:
    """Embed the host fingerprint so comparisons can tell drift from regression.

    Also drops pytest-benchmark's raw per-round samples (``stats["data"]``):
    every reader of a BENCH file uses only the summary statistics.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["host_fingerprint"] = host_fingerprint()
    for bench in payload["benchmarks"]:
        bench["stats"].pop("data", None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out-dir",
        type=pathlib.Path,
        default=REPO_ROOT,
        help="where to write BENCH_<name>.json (default: repo root)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        choices=sorted(CHEAP_BENCHES),
        help="subset of benches to run (default: all)",
    )
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name, module in CHEAP_BENCHES.items():
        if args.only and name not in args.only:
            continue
        out = args.out_dir / f"BENCH_{name}.json"
        code = pytest.main(
            [
                str(pathlib.Path(__file__).parent / module),
                "-q",
                "--benchmark-json",
                str(out),
            ]
        )
        if code != 0:
            print(f"[run_benchmarks] {module} FAILED (exit {code})", file=sys.stderr)
            failures += 1
        else:
            stamp_host(out)
            print(f"[run_benchmarks] wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
