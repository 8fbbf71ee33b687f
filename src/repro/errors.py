"""Exception hierarchy for the repro library."""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a network or hierarchical design."""


class ParseError(ReproError):
    """Malformed input file (BENCH / BLIF / Verilog)."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class AnalysisError(ReproError):
    """Timing analysis was asked something it cannot answer."""


class SolverError(ReproError):
    """The SAT solver was used incorrectly or hit an internal limit."""
