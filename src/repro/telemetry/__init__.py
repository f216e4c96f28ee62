"""``repro.telemetry`` — spans, counters, and run reports.

The observability layer of the search/simulator stack: a zero-dependency,
process-local :class:`~repro.telemetry.registry.Telemetry` registry that
the engine, evaluators, cache, and simulators record into when enabled —
and skip at near-zero cost when not (the default).  Typical use::

    import repro.telemetry as telemetry

    telemetry.enable()
    result = study.run()
    print(study.report())                  # stage-time breakdown
    telemetry.reset()                      # fresh window for the next run

What gets recorded (when enabled):

* ``DesignSpaceSearch.search`` — a root ``search`` span with per-stage
  children (``search.flatten`` / ``search.cache`` / ``search.dedupe`` /
  ``search.dispatch`` / ``search.aggregate``);
* ``EvaluationCache`` — ``cache.hit`` / ``cache.miss`` / ``cache.insert``
  / ``cache.lock_retries`` counters;
* the worker pool — per-chunk ``worker.chunk`` spans measured *in the
  worker* (each instrumented chunk captures into a local registry whose
  snapshot ships back over the chunk-result channel and merges under the
  parent's ``search.dispatch``), plus ``search.dispatch.chunks`` /
  ``search.dispatch.tasks`` / ``search.dispatch.retries`` counters;
* the evaluators — ``evaluator.query_evals`` / ``evaluator.trace_evals``
  (joins and timed candidates evaluated in batches), and the route each
  candidate of a ``SimulatorEvaluator`` timed batch took, added once per
  batch: ``evaluator.route.multiplexed`` (records from the multiplexed
  loop, time-of-day carbon and fault schedules included),
  ``evaluator.route.serial.policy`` (a dynamic control policy) and
  ``evaluator.route.fallback.error`` (the loop raised, so the batch
  replayed serially; also counted as ``evaluator.multiplex_fallbacks``);
* the simulators — ``sim.runs`` (one per serial run, whatever its event
  sources) / ``sim.events`` / ``sim.allocations`` (the max-min
  allocations the serial loop computed: misses of its per-run memo, so
  ``sim.allocations / sim.events`` is the number of fresh allocations
  per event), control-tick counters (``sim.control.*``,
  runs with a dynamic policy), fault accounting (``sim.faults.*``, runs
  with a non-empty fault schedule; the multiplexed loop adds its lanes'
  totals once per batch), and the multiplexed loop's iteration
  and allocation-kernel batch-size counters (``sim.multiplex.*``);
* ``Study.report()`` renders the registry,
  :func:`repro.analysis.export.telemetry_to_json` persists it next to a
  benchmark's ``BENCH_*.json``.

Counter content is deterministic — exact counts, reproducible across
runs at a fixed seed — and wall times are measurements only: they never
enter a cache key or a simulation result.

Logger hierarchy
----------------
Every module logs to a ``repro.*`` logger named after itself
(``logging.getLogger(__name__)``)::

    repro                       the hierarchy root this helper configures
    repro.search.engine         dispatch retries, pool lifecycle
    repro.search.cache          sqlite lock backoff warnings

Because child loggers propagate upward, attaching a handler or level to
``repro`` (or any intermediate like ``repro.search``) observes every
module below it.  :func:`configure_logging` wires a stream handler onto
the ``repro`` root — idempotently, so repeated calls reconfigure rather
than stack duplicate handlers.
"""

from __future__ import annotations

import logging
import sys

from repro.telemetry.registry import (
    Telemetry,
    TelemetrySnapshot,
    capture,
    count,
    disable,
    enable,
    enabled,
    gauge,
    get_telemetry,
    reset,
    snapshot,
    span,
)
from repro.telemetry.report import attribution, render_report, span_rows

__all__ = [
    "Telemetry",
    "TelemetrySnapshot",
    "attribution",
    "capture",
    "configure_logging",
    "count",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_telemetry",
    "render_report",
    "reset",
    "snapshot",
    "span",
    "span_rows",
]


def configure_logging(
    level: int = logging.INFO,
    stream=None,
    fmt: str = "%(levelname)s %(name)s: %(message)s",
) -> logging.Logger:
    """Attach one stream handler to the ``repro`` logger hierarchy.

    Sets the ``repro`` root logger to ``level`` and wires a
    :class:`logging.StreamHandler` (``stream`` or stderr) with ``fmt``
    onto it, so every ``repro.*`` module logger — see the module
    docstring for the hierarchy — becomes visible without touching the
    global root logger.  Idempotent: the one handler this helper owns is
    reconfigured on repeated calls instead of duplicated.  Returns the
    ``repro`` logger for further tweaking.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    handler = None
    for existing in logger.handlers:
        if getattr(existing, "_repro_telemetry_handler", False):
            handler = existing
            break
    if handler is None:
        handler = logging.StreamHandler(
            stream if stream is not None else sys.stderr
        )
        handler._repro_telemetry_handler = True
        logger.addHandler(handler)
    elif stream is not None:
        handler.setStream(stream)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(fmt))
    return logger
