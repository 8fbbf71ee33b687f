"""Topological STA substrate: arrival/required/slack and path lengths."""

from repro.sta.known_false import (
    KnownFalseAnalyzer,
    annotations_from_models,
)
from repro.sta.paths import (
    all_pin_path_lengths,
    distinct_path_lengths,
    event_time_candidates,
    k_worst_paths,
)
from repro.sta.report import functional_timing_report, timing_report
from repro.sta.topological import (
    CriticalPath,
    arrival_times,
    arrival_times_batch,
    critical_path,
    pin_to_pin_delay,
    pin_to_pin_delays,
    required_times,
    slacks,
    topological_delay,
)

__all__ = [
    "CriticalPath",
    "KnownFalseAnalyzer",
    "all_pin_path_lengths",
    "annotations_from_models",
    "arrival_times",
    "arrival_times_batch",
    "critical_path",
    "distinct_path_lengths",
    "event_time_candidates",
    "functional_timing_report",
    "k_worst_paths",
    "pin_to_pin_delay",
    "pin_to_pin_delays",
    "required_times",
    "slacks",
    "timing_report",
    "topological_delay",
]
