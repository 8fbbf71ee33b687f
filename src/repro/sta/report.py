"""Human-readable timing reports (the tool-facing surface of the library).

Two report flavours:

* :func:`timing_report` — classic topological STA report: endpoint summary
  sorted by slack plus an expanded worst path per endpoint.
* :func:`functional_timing_report` — topological vs XBD0 comparison per
  output, listing the worst topological paths and flagging those whose
  delay exceeds the functional stable time (i.e. paths that contain
  falsity under the given arrival condition).
"""

from __future__ import annotations

from typing import Mapping

from repro.netlist.network import Network
from repro.sta.paths import k_worst_paths
from repro.sta.topological import arrival_times, required_times

NEG_INF = float("-inf")
POS_INF = float("inf")


def _fmt(value: float) -> str:
    if value == NEG_INF:
        return "-inf"
    if value == POS_INF:
        return "inf"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


def _gap(later: float, earlier: float) -> float:
    """``later - earlier``, and 0 when the two are the same time (two
    equal infinities differ by NaN, which :func:`_fmt` cannot print)."""
    return 0.0 if later == earlier else later - earlier


def _path_line(path: tuple[str, ...], delay: float) -> str:
    return f"      {_fmt(delay):>8}  {' -> '.join(path)}"


def timing_report(
    network: Network,
    arrival: Mapping[str, float] | None = None,
    required: Mapping[str, float] | None = None,
    max_paths: int = 3,
) -> str:
    """Topological STA report.

    If ``required`` is omitted, the latest primary-output arrival is used
    as every output's deadline (worst slack is then zero).
    """
    at = arrival_times(network, arrival)
    outputs = network.outputs
    if required is None:
        deadline = max((at[o] for o in outputs), default=0.0)
        required = {o: deadline for o in outputs}
    rt = required_times(network, required)
    lines = [
        f"Timing report for {network.name}",
        f"  {len(network.inputs)} inputs, {network.num_gates()} gates, "
        f"{len(outputs)} outputs",
        "",
        f"  {'endpoint':<16} {'arrival':>8} {'required':>9} {'slack':>8}",
        "  " + "-" * 45,
    ]
    ranked = sorted(outputs, key=lambda o: _gap(rt[o], at[o]))
    for out in ranked:
        slack = _gap(rt[out], at[out])
        marker = "  (VIOLATED)" if slack < -1e-9 else ""
        lines.append(
            f"  {out:<16} {_fmt(at[out]):>8} {_fmt(rt[out]):>9} "
            f"{_fmt(slack):>8}{marker}"
        )
    lines.append("")
    for out in ranked[: min(len(ranked), 4)]:
        lines.append(f"  worst paths to {out}:")
        for path, delay in k_worst_paths(network, out, max_paths, arrival):
            lines.append(_path_line(path, delay))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def functional_timing_report(
    network: Network,
    arrival: Mapping[str, float] | None = None,
    max_paths: int = 5,
    tracer=None,
) -> str:
    """Topological vs XBD0 comparison with false-path flags.

    Flat analysis: runs on :data:`~repro.core.xbd0.FLAT_ENGINE`.
    """
    # imported here to keep repro.sta free of a static cycle with repro.core
    import time

    from repro.core.xbd0 import FLAT_ENGINE, StabilityAnalyzer
    from repro.obs.trace import ensure_tracer

    tracer = ensure_tracer(tracer)
    at = arrival_times(network, arrival)
    analyzer = StabilityAnalyzer(network, arrival, FLAT_ENGINE, tracer=tracer)
    lines = [
        f"Functional (XBD0) timing report for {network.name}",
        "",
        f"  {'output':<16} {'topological':>12} {'functional':>11} "
        f"{'pessimism':>10}",
        "  " + "-" * 53,
    ]
    functional: dict[str, float] = {}
    for out in network.outputs:
        t0 = time.perf_counter() if tracer.enabled else 0.0
        functional[out] = analyzer.functional_delay(out)
        if tracer.enabled:
            tracer.event(
                "functional-delay",
                phase="propagation",
                seconds=time.perf_counter() - t0,
                output=out,
            )
        gap = _gap(at[out], functional[out])
        lines.append(
            f"  {out:<16} {_fmt(at[out]):>12} {_fmt(functional[out]):>11} "
            f"{_fmt(gap):>10}"
        )
    lines.append("")
    for out in network.outputs:
        paths = k_worst_paths(network, out, max_paths, arrival)
        flagged = [
            (path, delay)
            for path, delay in paths
            if delay > functional[out] + 1e-9
        ]
        if not flagged:
            continue
        lines.append(
            f"  paths to {out} longer than its stable time "
            f"({_fmt(functional[out])}) — contain false-path slack:"
        )
        for path, delay in flagged:
            lines.append(_path_line(path, delay))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
