"""Simulation substrate: timed (XBD0 oracle) and waveform simulation."""

from repro.sim.timed import (
    brute_force_delay,
    brute_force_stable_at,
    stable_times,
    vector_output_delay,
)
from repro.sim.vectors import all_vectors, corner_vectors, random_vectors
from repro.sim.waveform import (
    Waveform,
    last_output_event,
    last_transition_bound,
    simulate_transition,
    transition_pairs,
)

__all__ = [
    "Waveform",
    "all_vectors",
    "brute_force_delay",
    "brute_force_stable_at",
    "corner_vectors",
    "last_output_event",
    "last_transition_bound",
    "random_vectors",
    "simulate_transition",
    "stable_times",
    "transition_pairs",
    "vector_output_delay",
]
