"""Parallel, cached sweep runner for the experiment grids.

Every ``repro.experiments.figX`` module exposes ``run(...) -> list[dict]``
that loops over its parameter grid point by point, seeding each point from
explicit config values (never from execution order).  That makes the grid
embarrassingly parallel *and* order-independent: a trial's rows depend only
on its keyword arguments, so fanning trials across a ``multiprocessing``
pool and concatenating the results in grid order is bit-for-bit identical
to the sequential loop.

Three layers:

* :class:`Trial` — one experiment invocation, addressed by registry name
  (``"fig7b"``, ``"ablations:energy_aware_routing"``, or any
  ``"pkg.module:function"``) plus JSON-serializable kwargs.
* :func:`run_sweep` — execute trials (pool or in-process), consulting a
  content-addressed on-disk cache keyed by ``(experiment, kwargs,
  code-version)``; repeated sweeps are free.
* :func:`run_figure` — split one grid parameter of a figure's ``run`` into
  per-value trials, sweep them, and flatten the rows in grid order.

Determinism contract
--------------------
Results are normalized to JSON-compatible values (numpy scalars unwrapped,
tuples listified) before being returned **or** cached, so a pool run, an
in-process run, and a cache hit all yield identical rows.  Trials must seed
all randomness from their kwargs (the repo-wide :mod:`repro.sim.rng` named
streams make this the path of least resistance).  The slot-engine switch
rides through kwargs like any grid knob (``Trial("fig7b", {"engine":
"scalar"})``); because the engines are bit-identical (DESIGN.md §12) it
never perturbs cached rows — only how fast misses compute.

Execution
---------
Two executors run the trials the cache and the resume journal do not hold,
and both report the same events (``launched`` / ``retry`` / ``timeout`` /
``completed`` / ``failed``):

* **Fail-fast** (neither ``timeout=`` nor ``retries=`` set): trials run
  in-process, or on a fork :class:`multiprocessing.pool.Pool` when
  ``processes`` > 1.  The pool gets a trial only when one of its workers
  is free.  The first trial that raises stops the sweep, and its own
  exception propagates, as ``Pool.map`` would raise it.
* **Healing** (``timeout=`` or ``retries=`` set, DESIGN.md §8): every
  attempt forks its own worker process with a per-trial deadline.  A
  worker that raises, hangs past its deadline, or dies outright
  (segfault, OOM-kill) is reaped and the trial retried after bounded
  exponential backoff; a trial that exhausts its retries settles as a
  structured :class:`TrialFailure` in its result slot, never poisoning its
  neighbours.

Campaign feed and resume
------------------------
``campaign_dir=`` streams one fsynced JSONL record per trial event into a
:class:`repro.obs.campaign.CampaignFeed`, so a running sweep can be
watched, health-checked, and forensically examined
(``python -m repro.obs.campaign <dir>``).  The parent process writes every
record.  The feed is also the sweep's resume journal: ``completed`` and
``cached`` records carry the trial's result and its summary (flat
metrics, violation count, wall time, peak RSS; see
:func:`run_trial_with_summary`), and a failure the healing executor
settled is marked ``settled``.
``resume=True`` replays each trial whose latest terminal record holds a
result or a settled failure and runs every other trial, including one
whose fail-fast run raised.  Keys are content-addressed and a trial's
rows depend only on its kwargs, so a sweep killed mid-flight and resumed
is **bit-for-bit** identical to an uninterrupted one; a line torn by the
kill is skipped on load.

Every outcome (cache hit, resume replay, fresh completion, settled
failure) is settled in one place, which fills the result slot, caches a
fresh result with its summary and writes the feed record.  The feed is the
one record of a sweep: progress, health and trial wall times are
reductions over it (:func:`repro.obs.campaign.campaign_status`).  A trial
found in both the cache and the journal is settled once.
``campaign_dir=None`` (default) constructs nothing and runs every trial
untraced — the bit-for-bit contract of the rest of :mod:`repro.obs`
applies.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import queue
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "Trial",
    "TrialFailure",
    "SweepCache",
    "code_version",
    "resolve_experiment",
    "run_trial",
    "run_trial_with_summary",
    "run_sweep",
    "run_figure",
]

DEFAULT_CACHE_DIR = Path("results") / "sweep_cache"

# The keys of a trial's summary (see run_trial_with_summary).
_SUMMARY_FIELDS = ("metrics", "violations", "wall_s", "peak_rss_kb")


def resolve_experiment(experiment: str) -> Callable[..., Any]:
    """Resolve a registry name to its callable.

    ``"fig7b"`` → ``repro.experiments.fig7b.run``;
    ``"ablations:scan_order"`` → ``repro.experiments.ablations.scan_order``;
    a dotted module path (``"mypkg.mymod:fn"``) is imported as-is.
    """
    mod_name, _, fn_name = experiment.partition(":")
    fn_name = fn_name or "run"
    if "." not in mod_name:
        mod_name = f"repro.experiments.{mod_name}"
    module = importlib.import_module(mod_name)
    fn = getattr(module, fn_name, None)
    if fn is None or not callable(fn):
        raise ValueError(f"experiment {experiment!r} resolves to no callable")
    return fn


@dataclass(frozen=True)
class Trial:
    """One experiment invocation: registry name + kwargs.

    Kwargs must be JSON-serializable (numbers, strings, bools, lists/tuples,
    dicts) — they both drive the experiment and address the cache.
    """

    experiment: str
    kwargs: dict[str, Any] = field(default_factory=dict)

    def cache_key(self, code: str | None = None) -> str:
        """Content-addressed identity: (experiment, kwargs, code-version)."""
        payload = {
            "experiment": self.experiment,
            "kwargs": _jsonify(self.kwargs),
            "code": code if code is not None else code_version(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _jsonify(value: Any) -> Any:
    """Normalize to JSON-compatible python types (recursively).

    numpy scalars unwrap via ``.item()``, arrays become nested lists, and
    tuples become lists — exactly what ``json.loads(json.dumps(x))`` would
    produce, so cached and freshly computed results are indistinguishable.
    """
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "dtype") and getattr(value, "ndim", None) == 0:
        return _jsonify(value.item())  # numpy scalar / 0-d array
    if hasattr(value, "tolist"):  # numpy array
        return _jsonify(value.tolist())
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"trial results must be JSON-compatible, got {type(value).__name__}"
    )


_CODE_VERSION: str | None = None


def code_version() -> str:
    """A fingerprint of the installed ``repro`` sources.

    Cache entries embed this, so editing any module under ``src/repro``
    invalidates every cached sweep — results can never go stale against
    the code that produced them.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


class SweepCache:
    """Content-addressed result store: one JSON file per trial key.

    Writes are crash-safe: each goes to a **uniquely named** temp file in the
    destination directory and lands via :func:`os.replace` (atomic on POSIX).
    A shared temp name would let two pool workers computing the same key
    interleave writes and publish a corrupt entry; a unique name means a
    worker killed mid-write leaves only an orphaned temp file, never half a
    cache entry.  Reads tolerate *and evict* corrupt or truncated entries
    (from older runners or external tampering) so one bad file can never
    poison later cache hits.
    """

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any | None:
        entry = self.get_entry(key)
        return None if entry is None else entry["result"]

    def get_entry(self, key: str) -> dict[str, Any] | None:
        """The full stored payload: ``result`` plus, when the trial ran
        traced, its ``summary`` — so a cache hit writes the same feed
        record as the fresh run."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self._evict(path)
            self.misses += 1
            return None
        if not isinstance(payload, dict) or "result" not in payload:
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _evict(self, path: Path) -> None:
        """Delete a corrupt entry so it degrades to a clean miss forever."""
        try:
            path.unlink()
            self.evictions += 1
        except OSError:  # pragma: no cover - raced with another evictor
            pass

    def put(
        self,
        key: str,
        trial: Trial,
        result: Any,
        summary: dict[str, Any] | None = None,
    ) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "experiment": trial.experiment,
            "kwargs": _jsonify(trial.kwargs),
            "code": code_version(),
            "result": result,
        }
        if summary is not None:
            payload["summary"] = summary
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)  # atomic publish: readers see old or new, never half
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


@dataclass(frozen=True)
class TrialFailure:
    """Structured record of a trial that was retried and then skipped.

    Placed in the failed trial's result slot so sweep output stays aligned
    with its trial list; ``error`` is the worker-side exception (or timeout /
    death description), ``attempts`` counts executions including retries.
    """

    experiment: str
    kwargs: dict[str, Any]
    error: str
    attempts: int
    timed_out: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "kwargs": self.kwargs,
            "error": self.error,
            "attempts": self.attempts,
            "timed_out": self.timed_out,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TrialFailure":
        return cls(
            experiment=payload["experiment"],
            kwargs=dict(payload["kwargs"]),
            error=payload["error"],
            attempts=int(payload["attempts"]),
            timed_out=bool(payload.get("timed_out", False)),
        )


def run_trial(trial: Trial) -> Any:
    """Execute one trial in-process and return its normalized result.

    Top-level so it pickles for pool workers.
    """
    fn = resolve_experiment(trial.experiment)
    return _jsonify(fn(**trial.kwargs))


def _peak_rss_kb() -> int | None:
    """This process's memory high-water mark in KiB (None off-Unix).

    In a healing fork the number is trial-accurate (one trial per
    process); in a reused pool worker it is the worker's running maximum —
    still enough for the campaign monitor to spot a leaking trial family.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix platform
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes there
        rss //= 1024
    return int(rss)


def run_trial_with_summary(trial: Trial) -> tuple[Any, dict[str, Any]]:
    """Execute one trial under a fresh telemetry collector.

    Returns ``(result, summary)``: the summary is the flat digest of
    :meth:`repro.obs.Telemetry.summary` (``metrics``, ``violations``) plus
    the trial's ``wall_s`` and the worker's ``peak_rss_kb`` — plain JSON
    that crosses a worker pipe and is stored once per trial, in the sweep
    cache entry and the campaign-feed record.  The collector is
    trial-local, so workers never ship the (unpicklable, PHY-laden) span
    tree back to the parent, and the tree is released as soon as the
    summary is taken: the finished simulation still refers to the
    collector, and would otherwise keep the spans alive until the cyclic
    garbage collector reaches it.

    Top-level so it pickles for pool workers.
    """
    from .. import obs as _obs

    tel = _obs.Telemetry()
    start = time.perf_counter()
    with _obs.use(tel):
        result = run_trial(trial)
    summary = tel.summary()
    tel.spans.clear()
    tel.timeline.clear()
    tel.cycle_snapshots.clear()
    summary["wall_s"] = time.perf_counter() - start
    summary["peak_rss_kb"] = _peak_rss_kb()
    return result, summary


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_fail_fast(
    pending: list[tuple[int, Trial]],
    processes: int | None,
    run: Callable[[Trial], Any],
    report: Callable[..., None],
) -> None:
    """Run trials in-process, or on a fork pool when ``processes`` > 1.

    The pool is handed a trial only when one of its workers is free, and
    ``launched`` is reported as the trial is handed over.  The first trial
    that raises is reported ``failed`` and its own exception re-raised;
    the trials still in flight are reported ``failed`` too, because
    leaving the pool terminates them.
    """
    if processes is None or processes <= 1 or len(pending) <= 1:
        for slot, trial in pending:
            report("launched", slot, 1)
            try:
                outcome = run(trial)
            except BaseException as exc:  # noqa: BLE001 - record, then re-raise
                report("failed", slot, 1, error=_describe(exc), attempts=1)
                raise
            report("completed", slot, 1, outcome=outcome)
        return
    finished: queue.SimpleQueue = queue.SimpleQueue()
    todo = deque(pending)
    in_flight: set[int] = set()
    with get_context("fork").Pool(processes=processes) as pool:
        try:
            while todo or in_flight:
                while todo and len(in_flight) < processes:
                    slot, trial = todo.popleft()
                    report("launched", slot, 1)
                    in_flight.add(slot)
                    pool.apply_async(
                        run,
                        (trial,),
                        callback=lambda out, slot=slot: finished.put((slot, True, out)),
                        error_callback=lambda exc, slot=slot: finished.put((slot, False, exc)),
                    )
                slot, ok, payload = finished.get()
                in_flight.discard(slot)
                if not ok:
                    report("failed", slot, 1, error=_describe(payload), attempts=1)
                    raise payload
                report("completed", slot, 1, outcome=payload)
        except BaseException as exc:  # noqa: BLE001 - record, then re-raise
            for slot in sorted(in_flight):
                report("failed", slot, 1, error=f"stopped by {_describe(exc)}", attempts=1)
            raise


def _healing_child(conn, trial: Trial, run: Callable[[Trial], Any]) -> None:
    """Worker body for the healing executor (top-level: must pickle)."""
    try:
        result = run(trial)
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("error", _describe(exc)))
        finally:
            conn.close()
        return
    conn.send(("ok", result))
    conn.close()


def _run_healing(
    pending: list[tuple[int, Trial]],
    processes: int,
    timeout: float | None,
    retries: int,
    backoff_base: float,
    backoff_max: float,
    run: Callable[[Trial], Any],
    report: Callable[..., None],
) -> None:
    """Run trials in single-trial worker processes with healing.

    Each attempt forks its own worker, so a crash or SIGKILL takes down one
    attempt, not a shared pool; a hung worker is terminated at its deadline.
    Failures are retried up to *retries* times with bounded exponential
    backoff (``backoff_base * 2**(attempt-1)``, capped at ``backoff_max``
    seconds), then reported ``failed`` with the settled
    :class:`TrialFailure`.
    """
    ctx = get_context("fork")
    ready = deque((slot, trial, 1) for slot, trial in pending)
    parked: list[tuple[float, int, Trial, int]] = []  # (not_before, slot, trial, attempt)
    running: dict[Any, tuple[Any, int, Trial, int, float | None]] = {}
    workers = max(1, processes)

    def launch(slot: int, trial: Trial, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_healing_child,
            args=(child_conn, trial, run),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        deadline = None if timeout is None else time.monotonic() + timeout
        running[parent_conn] = (proc, slot, trial, attempt, deadline)
        report("launched", slot, attempt)

    def retry_or_give_up(
        slot: int, trial: Trial, attempt: int, error: str, timed_out: bool
    ) -> None:
        if attempt <= retries:
            delay = min(backoff_max, backoff_base * (2 ** (attempt - 1)))
            parked.append((time.monotonic() + delay, slot, trial, attempt + 1))
            report("retry", slot, attempt, error=error, timed_out=timed_out, next_delay_s=delay)
            return
        failure = TrialFailure(
            trial.experiment, _jsonify(trial.kwargs), error, attempts=attempt, timed_out=timed_out
        )
        report("failed", slot, attempt, failure=failure)

    while ready or parked or running:
        now = time.monotonic()
        if parked:
            ripe = [entry for entry in parked if entry[0] <= now]
            if ripe:
                parked[:] = [entry for entry in parked if entry[0] > now]
                for _, slot, trial, attempt in sorted(ripe):
                    ready.append((slot, trial, attempt))
        while ready and len(running) < workers:
            slot, trial, attempt = ready.popleft()
            launch(slot, trial, attempt)
        if not running:
            if parked:
                time.sleep(max(0.0, min(entry[0] for entry in parked) - time.monotonic()))
            continue
        # Wake at the earliest of: a worker speaking (or dying — EOF wakes the
        # pipe too), the nearest deadline, the nearest parked retry.
        wait_s = 0.5
        deadlines = [d for (_, _, _, _, d) in running.values() if d is not None]
        if deadlines:
            wait_s = min(wait_s, max(0.0, min(deadlines) - now))
        if parked:
            wait_s = min(wait_s, max(0.0, min(e[0] for e in parked) - now))
        spoke = _mp_connection.wait(list(running), timeout=wait_s)
        for conn in spoke:
            proc, slot, trial, attempt, _ = running.pop(conn)
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                # The worker died without reporting — crash, OOM-kill, ...
                status, payload = "died", f"worker died (exit code {proc.exitcode})"
            conn.close()
            proc.join()
            if status == "ok":
                report("completed", slot, attempt, outcome=payload)
            else:
                retry_or_give_up(slot, trial, attempt, payload, timed_out=False)
        now = time.monotonic()
        for conn, (proc, slot, trial, attempt, deadline) in list(running.items()):
            if deadline is not None and now >= deadline:
                del running[conn]
                proc.terminate()
                proc.join()
                conn.close()
                report("timeout", slot, attempt, timeout_s=timeout)
                error = f"timed out after {timeout}s"
                retry_or_give_up(slot, trial, attempt, error, timed_out=True)


def run_sweep(
    trials: list[Trial],
    processes: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    cache: SweepCache | None = None,
    timeout: float | None = None,
    retries: int = 0,
    backoff_base: float = 0.5,
    backoff_max: float = 8.0,
    resume: bool = False,
    campaign_dir: str | os.PathLike | None = None,
) -> list[Any]:
    """Run *trials*, returning their results in trial order.

    ``processes`` > 1 fans cache-missed trials over a ``multiprocessing``
    pool (fork start method — workers inherit ``sys.path``); ``None`` or 1
    runs them in-process.  Passing ``cache_dir`` (or a prebuilt ``cache``)
    enables the on-disk result cache; hits skip execution entirely.

    Self-healing knobs (either switches execution to isolated
    single-trial worker processes — see the module docstring):

    timeout:
        per-trial wall-clock budget in seconds; a worker past it is killed
        and the trial retried.
    retries:
        extra attempts per trial after a raise / hang / worker death, with
        bounded exponential backoff; an exhausted trial settles as a
        :class:`TrialFailure` in its result slot.
    resume:
        replay the trials ``campaign_dir``'s feed already settled (a result
        or a settled failure) and run the rest.  Results depend only on
        trial kwargs, so a killed-and-resumed sweep is bit-for-bit
        identical to an uninterrupted one.  Requires ``campaign_dir``.
    campaign_dir:
        directory for the streaming campaign feed, which is also the
        resume journal (see the module docstring and
        :mod:`repro.obs.campaign`).  One fsynced JSONL record per trial
        event, watchable live with ``python -m repro.obs.campaign <dir>``;
        each trial then runs under its own telemetry collector and its
        terminal record carries the trial's summary.  ``None`` (the
        default) emits nothing and is bit-for-bit free.
    """
    if cache is None and cache_dir is not None:
        cache = SweepCache(cache_dir)
    if resume and campaign_dir is None:
        raise ValueError("resume=True requires a campaign_dir to resume from")
    feed = None
    if campaign_dir is not None:
        from ..obs.campaign import CampaignFeed

        feed = CampaignFeed(campaign_dir)

    results: list[Any] = [None] * len(trials)
    done = [False] * len(trials)
    code = code_version() if cache is not None or feed is not None else None
    keys: list[str | None] = [
        None if code is None else trial.cache_key(code) for trial in trials
    ]

    def record(event: str, idx: int, **fields: Any) -> None:
        """Append one trial-scoped record to the feed, when there is one."""
        if feed is not None:
            trial = trials[idx]
            feed.emit_trial(event, keys[idx], trial.experiment, _jsonify(trial.kwargs), **fields)

    def settle(
        idx: int,
        event: str,
        result: Any = None,
        summary: dict[str, Any] | None = None,
        failure: TrialFailure | None = None,
        **fields: Any,
    ) -> None:
        """Settle one trial: fill its slot, cache a fresh result with its
        summary, and write its feed record."""
        done[idx] = True
        if failure is not None:
            results[idx] = failure
            if feed is not None:
                feed.emit("failed", keys[idx], **failure.as_dict(), settled=True, **fields)
            return
        results[idx] = result
        if event == "completed" and cache is not None:
            cache.put(keys[idx], trials[idx], result, summary=summary)
        record(event, idx, result=result, **(summary or {}), **fields)

    def report(
        event: str,
        idx: int,
        attempt: int,
        outcome: Any = None,
        failure: TrialFailure | None = None,
        **info: Any,
    ) -> None:
        """The executors' event sink: outcomes settle, the rest is fed."""
        if event == "completed":
            result, summary = outcome if feed is not None else (outcome, None)
            settle(idx, event, result, summary, attempt=attempt)
        elif failure is not None:
            settle(idx, event, failure=failure)
        else:
            record(event, idx, attempt=attempt, **info)

    if feed is not None:
        feed.emit(
            "sweep-start", None, trials=len(trials),
            experiments=sorted({t.experiment for t in trials}), resume=bool(resume),
        )
    # The cache pass runs first; the done flags it sets guard the resume
    # pass, so a trial found in both is settled (and fed) exactly once.
    if cache is not None:
        for idx, key in enumerate(keys):
            entry = cache.get_entry(key)
            if entry is not None:
                settle(idx, "cached", entry["result"], entry.get("summary"), source="cache")
    if resume:
        from ..obs.campaign import load_feed, reduce_trials

        journal = reduce_trials(load_feed(campaign_dir))
        for idx, key in enumerate(keys):
            term = journal[key]["terminal"] if key in journal else None
            if done[idx] or term is None:
                continue
            if "result" in term:
                summary = {k: term[k] for k in _SUMMARY_FIELDS if k in term}
                settle(idx, "cached", term["result"], summary, source="journal")
            elif term.get("settled"):
                settle(idx, "failed", failure=TrialFailure.from_dict(term), source="journal")

    pending = [(idx, trial) for idx, trial in enumerate(trials) if not done[idx]]
    run = run_trial_with_summary if feed is not None else run_trial
    if timeout is not None or retries > 0:
        _run_healing(
            pending, processes or 1, timeout, retries, backoff_base, backoff_max, run, report
        )
    else:
        _run_fail_fast(pending, processes, run, report)
    if feed is not None:
        failures = sum(1 for r in results if isinstance(r, TrialFailure))
        feed.emit("sweep-end", None, trials=len(trials), failures=failures)
    return results


def run_figure(
    experiment: str,
    grid_param: str,
    grid_values: list | tuple,
    processes: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    cache: SweepCache | None = None,
    timeout: float | None = None,
    retries: int = 0,
    resume: bool = False,
    campaign_dir: str | os.PathLike | None = None,
    **common: Any,
) -> list[dict]:
    """Sweep one grid parameter of a figure in parallel; flatten in grid order.

    The figure's ``run`` must iterate ``grid_param`` in its outermost loop
    with per-point seeding from kwargs (all the ``figX``/ablation runners
    do), so ``run_figure("fig7b", "offered_loads", [a, b], seed=0)`` is
    row-for-row identical to ``fig7b.run(offered_loads=(a, b), seed=0)``.

    ``timeout``/``retries``/``resume``/``campaign_dir`` pass through to
    :func:`run_sweep`; a grid point whose trial settles as a
    :class:`TrialFailure` raises here because a figure cannot be flattened
    with a hole in it.
    """
    trials = [
        Trial(experiment=experiment, kwargs={grid_param: [value], **common})
        for value in grid_values
    ]
    results = run_sweep(
        trials,
        processes=processes,
        cache_dir=cache_dir,
        cache=cache,
        timeout=timeout,
        retries=retries,
        resume=resume,
        campaign_dir=campaign_dir,
    )
    rows: list[dict] = []
    for value, result in zip(grid_values, results):
        if isinstance(result, TrialFailure):
            raise RuntimeError(
                f"{experiment} failed at {grid_param}={value!r} after "
                f"{result.attempts} attempt(s): {result.error}"
            )
        if not isinstance(result, list):
            raise TypeError(
                f"{experiment} returned {type(result).__name__}, expected row list"
            )
        rows.extend(result)
    return rows
