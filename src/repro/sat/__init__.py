"""SAT substrate: incremental sessions, CDCL solver, Tseitin encoding.

:class:`IncrementalSolver` is the blessed entry point — a persistent
session with assumption-based queries and push/pop frames.  The one-shot
helpers (``solve_cnf``, ``Solver(cnf).solve()``) remain as thin wrappers
for single-query callers.
"""

from repro.sat.cnf import CNF, Clause, Literal
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import Solver, SolveResult, luby, solve_cnf
from repro.sat.tseitin import (
    NetworkEncoder,
    encode_and,
    encode_equal,
    encode_mux,
    encode_or,
    encode_xor2,
    miter_cnf,
)

__all__ = [
    "CNF",
    "Clause",
    "IncrementalSolver",
    "Literal",
    "NetworkEncoder",
    "SolveResult",
    "Solver",
    "encode_and",
    "encode_equal",
    "encode_mux",
    "encode_or",
    "encode_xor2",
    "luby",
    "miter_cnf",
    "solve_cnf",
]
