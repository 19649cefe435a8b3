"""End-to-end benchmark of the polling simulator, with per-layer attribution.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cluster-static --seed 2005 --seconds 30 --trace 0

The workloads are described in ``perfbench/README.md`` and the metrics in
``BENCHMARK.json``.  ``--trace 0`` measures the end-to-end metrics, its
timings scaled to nominal host speed (README, Noise); ``--trace 1``
measures the per-layer metrics of traced passes next to untraced passes of
the same workload.  Either way every operation's
simulated statistics are checked: against the digests stored in
``perfbench/digests.json`` when the seed has them, otherwise against the
invariants every output must satisfy, and always for pass-to-pass
determinism.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a summary with
quartiles, sample counts and the host fingerprint is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
DIGESTS = ROOT / "perfbench" / "digests.json"

WARM_REPEATS = 20  # warm passes timed after each cold pass
SETUP_PROBES = 5  # fresh processes timed for setup_s

# Measured and printed, but not a BENCHMARK.json metric: a warm pass is a
# sub-millisecond cache read whose run-to-run spread (0.10-0.26 over ten
# seeds) reached the largest bound the benchmark may set.
INFO_UNITS = {"cached_pass_s": "s"}

# Host-speed normalization.  On a shared host the same pass runs up to a
# third slower from one minute to the next, and CPU time tracks wall time,
# so the slowdown is host speed, not queueing.  While a pass runs, a SIGALRM
# every 50 ms times a fixed pure-Python loop in the measured process itself,
# so the samples see the host exactly as the pass does; each pass's time is
# reported scaled to a nominal loop time: t * REF_NOMINAL_S / median(loop).
# Raw medians are kept next to the scaled ones.
REF_NOMINAL_S = 0.0003  # about the loop's median on the host the baselines were taken on


def host_speed_sample() -> float:
    """Seconds the fixed reference loop takes right now.

    The loop does integer arithmetic only: it allocates no GC-tracked
    object, so it neither triggers nor waits on a collection, and its time
    does not depend on the measured program's heap."""
    t0 = time.perf_counter()
    x = 0
    for i in range(4_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples taken around and during the timed block."""

    INTERVAL_S = 0.05

    def __enter__(self) -> "HostSpeed":
        self.samples = [host_speed_sample() for _ in range(5)]
        signal.signal(signal.SIGALRM, lambda *_: self.samples.append(host_speed_sample()))
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.extend(host_speed_sample() for _ in range(5))

    @property
    def factor(self) -> float:
        """Multiply a time by this to get it at nominal host speed."""
        return REF_NOMINAL_S / statistics.median(self.samples)


def _summary(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(ordered)}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Session:
    """One benchmark run of one workload: its passes and output checks."""

    def __init__(self, plan, workdir: Path):
        from repro.experiments import fig4_sweep
        from repro.net import cluster_sim

        from perfbench import workloads

        self.plan = plan
        self.workdir = workdir
        self.wl = workloads
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        self.stored = stored.get(plan.workload, {})
        self.reference: list[tuple] | None = None  # the first pass's outcomes
        self.attempted = 0
        self.failed = 0
        self.violating_ops = 0
        self.checked_against_store = 0
        self.problems: list[str] = []
        self.captured: list[dict] = []

        # fig4_sweep hands each grid point's full result to this hook, which
        # keeps the simulated statistics the digest covers.  It looks the
        # simulation entry up at call time, so a traced pass traces it.
        def capture(*args, **kwargs):
            res = cluster_sim.run_polling_simulation(*args, **kwargs)
            self.captured.append(workloads.cluster_stats(res))
            return res

        fig4_sweep.run_polling_simulation = capture

    @property
    def correct(self) -> bool:
        return not self.problems

    def _sweep(self, processes, cache_dir, feed_dir, tracer):
        """Time one ``run_sweep`` call, traced when *tracer* is given."""
        from repro.experiments.runner import run_sweep

        gc.collect()
        if tracer is not None:
            tracer.install()
            root = tracer.enter("bench", "bench.pass")
        t0 = time.perf_counter()
        try:
            results = run_sweep(
                self.plan.trials,
                processes=processes,
                cache_dir=cache_dir,
                campaign_dir=feed_dir,
            )
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.exit(root)
                tracer.uninstall()
        return results, wall

    def cold(self, processes: int | None, tracer=None) -> dict | None:
        """Compute every trial into a fresh cache and check every operation.

        Returns ``None`` when the pass raised; its operations count as failed.
        """
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        feed_dir = tempfile.mkdtemp(prefix="feed-", dir=self.workdir) if self.plan.feed else None
        self.captured = []
        try:
            results, wall = self._sweep(processes, cache_dir, feed_dir, tracer)
        except Exception as exc:  # noqa: BLE001 - an operation raised: count it
            self.attempted += self.plan.ops_per_pass
            self.failed += self.plan.ops_per_pass
            self.problems.append(f"pass raised {type(exc).__name__}: {exc}")
            return None
        ops, vector, scalar, trial_s = self._operations(results, feed_dir)
        self._check(ops)
        return {
            "wall": wall,
            "vector": vector,
            "scalar": scalar,
            "trial_s": trial_s,
            "violations": sum(v for _, v in ops),
            "results": results,
            "cache_dir": cache_dir,
            "feed_dir": feed_dir,
        }

    def warm(self, cold: dict, tracer=None) -> float:
        """Re-run the trials; every one is served from the cold pass's cache."""
        results, wall = self._sweep(None, cold["cache_dir"], cold["feed_dir"], tracer)
        if results != cold["results"]:
            self.problems.append("a warm pass served results that differ from the cold pass")
        return wall

    def discard(self, cold: dict) -> None:
        shutil.rmtree(cold["cache_dir"], ignore_errors=True)
        if cold["feed_dir"]:
            shutil.rmtree(cold["feed_dir"], ignore_errors=True)

    def _operations(self, results: list, feed_dir: str | None):
        """(stats, violations) per operation, vector/scalar slots, trial times."""
        workload = self.plan.workload
        if workload == "cluster-static":
            ops = [(s, s["violations"]) for s in self.captured]
            stats = self.captured
        elif workload == "field-mobile":
            ops = [(results[0], results[0]["violations"])]
            stats = results
        else:
            return self._campaign_operations(results, feed_dir)
        vector = sum(s["engine"]["vector_slots"] for s in stats)
        scalar = sum(s["engine"]["scalar_slots"] for s in stats)
        return ops, vector, scalar, []

    def _campaign_operations(self, results: list, feed_dir: str):
        """Trial rows come from the sweep; violations, slot counts and trial
        wall times from each trial's terminal record in the campaign feed."""
        from repro.obs.campaign import load_feed, reduce_trials

        terminal = {
            key: slot["terminal"] or {}
            for key, slot in reduce_trials(load_feed(feed_dir)).items()
        }
        ops, vector, scalar, trial_s = [], 0, 0, []
        for trial, rows in zip(self.plan.trials, results):
            rec = terminal.get(trial.cache_key(), {})
            metrics = rec.get("metrics") or {}
            vector += int(metrics.get("mac.vector_slots") or 0)
            scalar += int(metrics.get("mac.scalar_slots") or 0)
            if rec.get("wall_s") is not None:
                trial_s.append(float(rec["wall_s"]))
            ops.append((rows if isinstance(rows, list) else None, int(rec.get("violations") or 0)))
        return ops, vector, scalar, trial_s

    def _stored_digest(self, index: int) -> str | None:
        if self.plan.workload == "campaign-faults":
            seed = str(self.plan.trials[index].kwargs["seed"])
            return self.stored.get("trials", {}).get(seed)
        per_seed = self.stored.get("seeds", {}).get(str(self.plan.seed))
        return None if per_seed is None else per_seed[index]

    def _check(self, ops: list) -> None:
        """An operation fails on a violation, broken invariants, a digest
        that differs from the store, or an output a repeat pass changed."""
        outcome = []
        for index, (stats, violations) in enumerate(ops):
            self.attempted += 1
            bad = bool(violations)
            self.violating_ops += bad
            d = None
            if stats is None or not self.wl.sane(stats):
                self.problems.append(f"operation {index}: output breaks the invariants")
                bad = True
            else:
                d = self.wl.digest(stats)
                stored = self._stored_digest(index)
                if stored is not None:
                    self.checked_against_store += 1
                    if d != stored:
                        self.problems.append(f"operation {index}: digest {d} != stored {stored}")
                        bad = True
            engine = stats.get("engine") if isinstance(stats, dict) else None
            if self.reference is not None and (d, violations, engine) != self.reference[index]:
                self.problems.append(f"operation {index}: a repeat pass changed its output")
                bad = True
            self.failed += bad
            outcome.append((d, violations, engine))
        if self.reference is None:
            self.reference = outcome


# ------------------------------------------------------------------ measuring


def measure_end_to_end(session: Session, seconds: float):
    """Cold passes, each followed by warm passes, until *seconds* are spent.

    Every pass runs its trials in-process, so the reference loop sampled in
    the same process sees what the pass sees; the pool runs in the traced
    run (``runner.parallel_efficiency``).  Returns the samples at nominal
    host speed and the raw ones.
    """
    names = ("wall_s", "slots_per_s", "cached_pass_s")
    samples: dict[str, list[float]] = {name: [] for name in names}
    raw: dict[str, list[float]] = {f"raw.{name}": [] for name in names}
    raw["host_ref_s"] = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        with HostSpeed() as speed:
            cold = session.cold(None)
        if cold is None:
            break
        rate = (cold["vector"] + cold["scalar"]) / cold["wall"]
        raw["raw.wall_s"].append(cold["wall"])
        raw["raw.slots_per_s"].append(rate)
        raw["host_ref_s"].append(statistics.median(speed.samples))
        samples["wall_s"].append(cold["wall"] * speed.factor)
        samples["slots_per_s"].append(rate / speed.factor)
        with HostSpeed() as speed:
            warm = [session.warm(cold) for _ in range(WARM_REPEATS)]
        raw["raw.cached_pass_s"].extend(warm)
        samples["cached_pass_s"].extend(t * speed.factor for t in warm)
        session.discard(cold)
        if 2 * time.perf_counter() - started > deadline:  # no room for another
            break
    return samples, raw


def measure_layers(session: Session, seconds: float):
    """Untraced and traced in-process passes of the workload, alternated.

    Traced passes run the trials in-process, so the runner's spans and the
    trials' spans share one clock and the layer self times add up to the
    traced wall time; the tracing overhead compares them with an untraced
    in-process pass.  A campaign on a pool also gets one untraced pool pass
    for ``runner.parallel_efficiency``.
    """
    from perfbench.tracer import LayerTracer

    per_pass: list[dict] = []
    untraced: list[float] = []
    efficiency: list[float] = []
    tracer = None
    processes = session.plan.processes
    pool = bool(processes and processes > 1)
    deadline = time.perf_counter() + seconds
    if pool:
        cold = session.cold(processes)
        if cold is not None:
            efficiency.append(sum(cold["trial_s"]) / (processes * cold["wall"]))
            session.discard(cold)
    while True:
        started = time.perf_counter()
        cold = session.cold(None)
        if cold is None:
            break
        session.discard(cold)
        untraced.append(cold["wall"])
        tracer, warm_tracer = LayerTracer(), LayerTracer()
        cold = session.cold(None, tracer=tracer)
        if cold is None:
            break
        session.warm(cold, tracer=warm_tracer)
        session.discard(cold)
        m = layer_metrics(tracer, warm_tracer, cold)
        m["trace.untraced_wall_s"] = untraced[-1]
        m["trace.overhead"] = m["trace.wall_s"] / untraced[-1]
        if not pool:
            efficiency.append(m["runner.trial_s.sum"] / m["trace.wall_s"])
        per_pass.append(m)
        if 2 * time.perf_counter() - started > deadline:
            break
    samples: dict[str, list[float]] = {}
    for m in per_pass:
        for name, value in m.items():
            samples.setdefault(name, []).append(value)
    samples["runner.parallel_efficiency"] = efficiency
    return samples, tracer


def layer_metrics(tracer, warm_tracer, cold: dict) -> dict[str, float]:
    """The per-layer metrics of one traced cold pass and its warm pass."""
    from perfbench.tracer import LAYERS

    t, c = tracer.time, tracer.calls
    wall = t["bench.pass"]
    m: dict[str, float] = {"sim.events": tracer.sim_events}
    for layer in LAYERS:
        m[f"sim.events.{layer}"] = tracer.events[layer]
    m["net.build_s"] = tracer.build_s
    for name in ("radio.tx", "radio.rx_ok", "radio.rx_garbled", "radio.meter_changes"):
        m[name] = c[name]
    scans = tracer.tx_radios
    m["radio.decode_yield"] = (c["radio.rx_ok"] + c["radio.rx_garbled"]) / scans if scans else 0.0
    slots = cold["vector"] + cold["scalar"]
    m["mac.slots.vector"] = cold["vector"]
    m["mac.slots.scalar"] = cold["scalar"]
    m["mac.vector_share"] = cold["vector"] / slots if slots else 0.0
    m["mac.try_slot_s"] = t["mac.try_slot"]
    m["mac.flush_s"] = t["mac.flush"]
    steps = tracer.samples["core.step"]
    m["core.steps"] = c["core.step"]
    m["core.step_s"] = t["core.step"]
    m["core.step_us.p50"] = _percentile(steps, 0.5) * 1e6
    m["core.step_us.p99"] = _percentile(steps, 0.99) * 1e6
    m["core.oracle_queries"] = tracer.oracle_queries
    for count, span in (
        ("routing.solves", "routing.solve"),
        ("routing.repairs", "routing.repair"),
        ("routing.backups", "routing.backup"),
        ("routing.maxflow_calls", "routing.maxflow"),
    ):
        m[count] = c[span]
        m[f"{span}_s"] = t[span]
    hits = sum(s.routing_hits + s.backup_hits + s.oracle_hits for s in tracer.solver_stats)
    misses = sum(s.routing_misses + s.backup_misses + s.oracle_misses for s in tracer.solver_stats)
    m["routing.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["faults.loss_draws"] = c["faults.loss_draw"]
    m["faults.loss_draw_s"] = t["faults.loss_draw"]
    m["topology.reforms"] = c["topology.reform"]
    m["topology.reform_s"] = t["topology.reform"]
    m["validate.checks"] = c["validate.check"]
    m["validate.check_s"] = t["validate.check"]
    m["validate.violations"] = cold["violations"]
    m["obs.feed_events"] = c["obs.feed"]
    m["obs.feed_s"] = t["obs.feed"]
    m["obs.spans"] = c["obs.spans"]
    m["metrics.report_s"] = t["metrics.report"]
    m["runner.trials"] = c["runner.trial"]
    m["runner.trial_s.p50"] = _percentile(tracer.samples["runner.trial"], 0.5)
    m["runner.trial_s.sum"] = t["runner.trial"]
    m["runner.cache_put_s"] = t["runner.cache_put"]
    m["runner.cache_get_s"] = warm_tracer.time["runner.cache_get"]
    for phase, tr in (("cold", tracer), ("warm", warm_tracer)):
        hits = sum(cache.hits for cache in tr.sweep_caches)
        lookups = hits + sum(cache.misses for cache in tr.sweep_caches)
        m[f"runner.cache_hit_ratio.{phase}"] = hits / lookups if lookups else 0.0
    m["runner.cached_pass_s"] = warm_tracer.time["bench.pass"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.self_s[layer]
        m[f"{layer}.self_share"] = tracer.self_s[layer] / wall
    m["trace.wall_s"] = wall
    m["trace.self_sum_s"] = sum(tracer.self_s.values())
    m["trace.spans"] = len(tracer.spans) + tracer.dropped
    return m


def setup_probes(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time fresh processes from launch until the workload's inputs exist.

    Each probe samples the reference loop while it sets up and reports the
    median, so its launch time can be scaled like the passes.  Returns the
    launch times and those medians."""
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.wait(timeout=60)
        word, _, ref = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
        refs.append(float(ref))
    return times, refs


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ------------------------------------------------------------------------ CLI


def setup(workload: str, seed: int):
    """Imports, runner start and input generation: the work ``setup_s`` times."""
    os.environ["REPRO_VALIDATE"] = "warn"  # the default, pinned for pool workers too
    from repro import validate
    from repro.experiments import fault_ablation, fig4_sweep, runner  # noqa: F401
    from repro.net import multicluster_sim  # noqa: F401
    from repro.obs import campaign  # noqa: F401

    from perfbench import workloads

    warnings.simplefilter("ignore", validate.InvariantWarning)  # counted, not printed
    runner.code_version()
    return workloads.plan(workload, seed)


def prepare(args, parser):
    """Imports and the workload's inputs: the part of start-up setup_s times."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    return seed, setup(args.workload, seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the recorded seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's digests in perfbench/digests.json (clean operations only)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        with HostSpeed() as speed:
            prepare(args, parser)
        print(f"ready {statistics.median(speed.samples)!r}", flush=True)
        return 0
    seed, plan = prepare(args, parser)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT_DIR))
    try:
        session = Session(plan, workdir)
        if args.trace:
            samples, tracer = measure_layers(session, args.seconds)
            raw = {}
            wanted = spec["per_layer"]
        else:
            samples, raw = measure_end_to_end(session, args.seconds)
            samples["peak_rss_mb"] = [peak_rss_mb()]
            launches, refs = setup_probes(args.workload, seed)
            samples["setup_s"] = [t * REF_NOMINAL_S / r for t, r in zip(launches, refs)]
            raw["raw.setup_s"] = launches
            tracer = None
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.record:
        record_digests(plan, session)
    return report(args, plan, session, samples, raw, tracer, wanted)


def report(args, plan, session: Session, samples: dict, raw: dict, tracer, wanted) -> int:
    """Print the metrics, write the summary file, print the result line."""
    from repro.obs.campaign import host_fingerprint

    from perfbench import workloads

    host = host_fingerprint()
    units = {m["name"]: m["unit"] for m in wanted}
    reported = set(units)
    if raw:
        units.update(INFO_UNITS)
    summaries = {name: _summary(samples[name]) for name in units if samples.get(name)}
    failed_frac = session.failed / session.attempted if session.attempted else 1.0
    held_out = "" if session.checked_against_store else " (no stored digests: invariants only)"
    print(f"# perfbench {plan.workload} seed={plan.seed} trace={args.trace} "
          f"host={host['id']} ({host['cpu_model']}, {host['cpu_count']} cpu)")
    print(f"# why: {workloads.WHY[plan.workload]}")
    print(f"# operations: attempted {session.attempted}, failed {session.failed}, "
          f"failed_frac {failed_frac:.4f} ratio; with invariant violations "
          f"{session.violating_ops}; checked against stored digests "
          f"{session.checked_against_store}{held_out}")
    for problem in session.problems:
        print(f"# CHECK FAILED: {problem}")
    if tracer is not None:
        shares = sorted(
            ((name[: -len(".self_share")], s["median"]) for name, s in summaries.items()
             if name.endswith(".self_share")),
            key=lambda item: -item[1],
        )
        print("# self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares if v >= 0.001))
    if raw:
        print(f"# timings at nominal host speed: reference loop {REF_NOMINAL_S * 1e6:g} us "
              f"nominal, {statistics.median(raw['host_ref_s']) * 1e6:.3g} us measured")
    for name, s in summaries.items():
        unscaled = raw.get(f"raw.{name}")
        print(f"{name:30s} {s['median']:14.6g} {units[name]:8s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
              + (f"  (raw median {statistics.median(unscaled):.6g})" if unscaled else ""))

    tag = f"{plan.workload}-seed{plan.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"summary-{tag}.json").write_text(json.dumps({
        "workload": plan.workload,
        "seed": plan.seed,
        "trace": args.trace,
        "host": host,
        "correct": session.correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "failed_frac": failed_frac,
        "problems": session.problems,
        "metrics": {name: {"unit": units[name], **s} for name, s in summaries.items()},
        "raw": {name: _summary(values) for name, values in raw.items() if values},
        "ref_nominal_s": REF_NOMINAL_S,
    }, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{tag}.json")

    metrics = {
        name: {"value": s["median"], "unit": units[name]}
        for name, s in summaries.items()
        if name in reported
    }
    print(json.dumps({
        "correct": session.correct and len(metrics) == len(reported),
        "attempted": max(session.attempted, 1),
        "failed": session.failed if session.attempted else 1,
        "metrics": metrics,
    }))
    return 0


def record_digests(plan, session: Session) -> None:
    """Store the digests of this seed's clean operations (``--record``)."""
    if not session.correct or session.reference is None:
        raise SystemExit("perfbench: refusing to record the digests of a failing run")
    store = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = store.setdefault(plan.workload, {})
    clean = [d if not violations else None for d, violations, _ in session.reference]
    if plan.workload == "campaign-faults":
        trials = entry.setdefault("trials", {})
        for trial, d in zip(plan.trials, clean):
            if d is not None:
                trials[str(trial.kwargs["seed"])] = d
    elif None not in clean:
        entry.setdefault("seeds", {})[str(plan.seed)] = clean
    DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
