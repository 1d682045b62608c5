"""Runtime observability: telemetry hub, provenance stamps, reports.

Zero-dependency, process-local instrumentation for the simulators (see
:mod:`repro.obs.hub` for the contract).  Quickstart::

    from repro import obs

    with obs.HUB.enabled("run.jsonl", label="demo"):
        repro.run(instance, protocol, seed=0)
    print(obs.render_report(obs.summarize_events("run.jsonl")))

Sweeps ship per-cell event files that :mod:`repro.obs.aggregate` merges
into one timeline.

CLI surface: ``repro-qoslb trace-report`` (one event file, or
``--top-functions`` over ``.pstats`` profiles), ``repro-qoslb runs
watch`` (live sweep dashboard); ``repro-qoslb simulate --obs-out
run.jsonl`` records a run.  ``repro-qoslb bench`` asserts the hub's
overhead budget (see :mod:`repro.bench`).  See ``docs/OBSERVABILITY.md``.
"""

from .aggregate import (
    TIMELINE_NAME,
    cell_digest,
    cell_event_files,
    merge_events,
    read_events,
    write_cell_events,
)
from .hub import HUB, OBS_EVENTS_SCHEMA, TelemetryHub
from .provenance import PROVENANCE_FIELDS, git_sha, provenance_stamp
from .report import profile_rows, render_profiles, render_report, summarize_events

__all__ = [
    "HUB",
    "TelemetryHub",
    "OBS_EVENTS_SCHEMA",
    "TIMELINE_NAME",
    "PROVENANCE_FIELDS",
    "git_sha",
    "provenance_stamp",
    "cell_digest",
    "cell_event_files",
    "merge_events",
    "read_events",
    "write_cell_events",
    "profile_rows",
    "render_profiles",
    "render_report",
    "summarize_events",
]
