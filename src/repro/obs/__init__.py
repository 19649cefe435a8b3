"""repro.obs — the unified telemetry layer (DESIGN.md §10).

Causal polling-cycle tracing, a typed metrics registry, wall-clock
profiling, and trace export for the whole polling stack.  Activation is
explicit and scoped, and it is the only switch::

    from repro import obs
    from repro.net.cluster_sim import PollingSimConfig, run_polling_simulation

    with obs.use(obs.Telemetry()) as tel:
        result = run_polling_simulation(PollingSimConfig())
    assert result.telemetry is tel
    obs.export_chrome_trace(tel, "run.trace.json")
    obs.export_jsonl(tel, "run.jsonl")
    # then: python -m repro.obs.inspect run.jsonl

The same scope traces code that runs no simulation harness (the
schedule-level experiments, custom sweeps)::

    with obs.use(obs.Telemetry()) as tel:
        fig2.run()
    tel.metrics.snapshot()

Disabled telemetry is free by design: every wired-in layer caches
:func:`current` once and guards emission behind a single ``enabled``
check, so runs without an active collector are bit-for-bit identical to
the pre-telemetry code path (verified by tests and the ``obs-overhead``
benchmark gate).
"""

from .export import export_chrome_trace, export_jsonl, load_jsonl
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import profile_span
from .telemetry import (
    NULL_TELEMETRY,
    Span,
    SpanEvent,
    Telemetry,
    current,
    use,
)

__all__ = [
    "Telemetry",
    "Span",
    "SpanEvent",
    "NULL_TELEMETRY",
    "current",
    "use",
    "profile_span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "export_chrome_trace",
    "export_jsonl",
    "load_jsonl",
    "CampaignFeed",
    "campaign_status",
    "detect_anomalies",
    "host_fingerprint",
    "load_feed",
    "mad_outliers",
    "triage_failures",
]

_CAMPAIGN_EXPORTS = frozenset(
    {
        "CampaignFeed",
        "campaign_status",
        "detect_anomalies",
        "host_fingerprint",
        "load_feed",
        "mad_outliers",
        "triage_failures",
    }
)


def __getattr__(name):
    # Lazy so `python -m repro.obs.campaign` doesn't import the module
    # twice (runpy warns when the package __init__ pre-loads its target).
    if name in _CAMPAIGN_EXPORTS:
        from . import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
