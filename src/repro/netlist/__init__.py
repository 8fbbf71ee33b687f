"""Netlist substrate: gates, flat networks, and depth-1 hierarchies."""

from repro.netlist.gates import (
    GateType,
    Prime,
    PrimeLiteral,
    evaluate,
    gate_primes,
    satisfied_primes,
)
from repro.netlist.hierarchy import HierDesign, Instance, Module
from repro.netlist.network import Gate, Network
from repro.netlist.ops import NetworkStats, depth, levelize, stats
from repro.netlist.transform import (
    collapse_buffers,
    decompose_complex,
    propagate_constants,
    sweep,
)

__all__ = [
    "Gate",
    "GateType",
    "HierDesign",
    "Instance",
    "Module",
    "Network",
    "NetworkStats",
    "Prime",
    "PrimeLiteral",
    "collapse_buffers",
    "decompose_complex",
    "depth",
    "evaluate",
    "gate_primes",
    "levelize",
    "propagate_constants",
    "satisfied_primes",
    "stats",
    "sweep",
]
