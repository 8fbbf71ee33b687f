"""Scenario families: corner sweeps, parametric delays, Monte-Carlo.

A :class:`ScenarioFamily` is a declarative spec that expands into many
kernel scenarios which share one arrival vector but differ in **edge
delays** — the delay-override hooks on the executors
(:meth:`repro.kernel.execute.PythonExecutor.propagate` ``delays=``)
are what make the expansion cheap: one compiled plan, one cached
executor, a per-member delay vector.

Three families, all lowered through :meth:`ScenarioFamily.delay_rows`:

* :class:`CornerSweep` — per-corner scaling of the plan's baseline
  delays: a global ``scale`` plus per-module overrides resolved via
  :meth:`repro.kernel.plan.CompiledGraph.group_factors`.
* :class:`ParametricSweep` — every edge delay as the linear form
  ``a + b·x`` with ``b = slope + sensitivity·a``, evaluated over a
  sampled grid of the parameter ``x`` (analytic-delay STA in the
  spirit of arXiv:2510.15907).
* :class:`MonteCarlo` — per-edge Gaussian sampling around the (per
  corner scaled) baseline, ``delay = mean + (sigma +
  sigma_rel·|mean|)·z``, streamed through the kernel in bounded
  chunks (hierarchical SSTA in the spirit of arXiv:1705.04981).

Determinism: every Monte-Carlo member ``m`` draws from its own child
seed derived from ``(seed, m)``, with ``numpy.random`` whenever numpy
is installed and with :mod:`random` otherwise.  A member's samples
therefore depend only on ``(seed, m)`` and on whether numpy is
installed: never on the member count, the kernel's chunking or the
executor that evaluates them.  The two generators draw different
samples; zero-variance families are bit-identical everywhere because
``mean + 0.0·z == mean`` in IEEE float64.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping

from repro.errors import ReproError
from repro.scenarios.spec import ScenarioSpec, _finite, clean_arrival

#: Splitmix64-style constants for per-member child seeds.
_SEED_MULT = 6364136223846793005
_SEED_GAMMA = 0x9E3779B97F4A7C15
_SEED_MASK = (1 << 63) - 1


def child_seed(seed: int, index: int) -> int:
    """Deterministic per-member seed, independent of chunking."""
    return (((seed + 1) * _SEED_MULT) ^ ((index + 1) * _SEED_GAMMA)) & _SEED_MASK


@dataclass(frozen=True)
class FamilyMember:
    """One concrete member of an expanded family."""

    #: Position in the family's expansion order.
    index: int
    #: Human-readable member label (``slow``, ``x=0.25``, ``typ#17``).
    label: str
    #: Owning corner name (empty when the family has no corners).
    corner: str = ""
    #: Kind-specific parameters (``(("scale", 1.2),)``,
    #: ``(("x", 0.25),)``, ``(("sample", 17),)``).
    params: tuple[tuple[str, float], ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready form of the member description."""
        return {
            "index": self.index,
            "label": self.label,
            "corner": self.corner,
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class Corner:
    """One process corner: a global delay scale plus per-module overrides.

    ``modules`` maps delay-group names (module names of a compiled
    design, gate types of a flat network — see
    :attr:`repro.kernel.plan.CompiledGraph.groups`) to scales that
    replace the global one for that group's edges.
    """

    name: str
    scale: float = 1.0
    modules: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ReproError("corner: 'name' must be a non-empty string")
        _check_scale(self.scale, f"corner {self.name!r}: scale")
        for module, scale in self.modules:
            _check_scale(
                scale, f"corner {self.name!r}: scale for {module!r}"
            )

    @property
    def by_module(self) -> dict[str, float]:
        """The per-module overrides as a mapping."""
        return dict(self.modules)

    def factors(self, plan) -> list[float]:
        """Per-entry multipliers for ``plan`` (see ``group_factors``)."""
        return plan.group_factors(
            default=self.scale, by_group=self.by_module
        )

    @classmethod
    def from_json(cls, data, source: str) -> "Corner":
        if not isinstance(data, Mapping):
            raise ReproError(
                f"{source}: each corner must be an object with a 'name'"
            )
        name = str(data.get("name", ""))
        modules = data.get("modules") or {}
        if not isinstance(modules, Mapping):
            raise ReproError(
                f"{source}: corner {name!r} 'modules' must be an "
                "object (module -> scale)"
            )
        return cls(
            name=name,
            scale=_finite(
                data.get("scale", 1.0), f"corner {name!r} scale", source
            ),
            modules=tuple(
                (str(m), _finite(s, f"scale for {m!r}", source))
                for m, s in modules.items()
            ),
        )

    def to_json(self) -> dict:
        """JSON-ready dict; :meth:`from_json` round-trips it."""
        doc: dict = {"name": self.name, "scale": self.scale}
        if self.modules:
            doc["modules"] = dict(self.modules)
        return doc


def _check_scale(scale: float, what: str) -> None:
    if math.isnan(scale) or math.isinf(scale) or scale <= 0.0:
        raise ReproError(f"{what} must be a finite positive number")


def _parse_corners(corners, source: str) -> tuple[Corner, ...]:
    if not isinstance(corners, (list, tuple)):
        raise ReproError(f"{source}: 'corners' must be a list of corners")
    parsed: list[Corner] = []
    seen: set[str] = set()
    for item in corners:
        corner = (
            item
            if isinstance(item, Corner)
            else Corner.from_json(item, source)
        )
        if corner.name in seen:
            raise ReproError(
                f"{source}: duplicate corner name {corner.name!r}"
            )
        seen.add(corner.name)
        parsed.append(corner)
    if not parsed:
        raise ReproError(f"{source}: corner list is empty")
    return tuple(parsed)


class ScenarioFamily(ScenarioSpec):
    """Base of the generated-batch specs.

    Subclasses define :attr:`family` (the JSON tag), :meth:`count`,
    :meth:`expand` (a list of :class:`FamilyMember`), and
    :meth:`delay_rows` (the lowering: per-member delay vectors for a
    slice of members, as numpy arrays when ``np`` is given).  All
    members share :attr:`arrival`.
    """

    kind = "family"
    #: JSON tag of the concrete family (``corner`` / ``parametric`` /
    #: ``monte-carlo``).
    family = ""

    def __init__(self, arrival=None, name: str = ""):
        self.arrival = clean_arrival(
            arrival, f"{self.family or 'family'} family"
        )
        self.name = str(name)

    def expand(self) -> list[FamilyMember]:
        """Every member, in expansion order."""
        raise NotImplementedError

    def delay_rows(self, plan, lo: int, hi: int, np=None):
        """Per-member delay vectors for members ``lo..hi`` (exclusive).

        Each row aligns with ``plan.ent_delay``; the engine feeds the
        result straight into the executors' ``delays=`` hook.  With
        ``np`` (the numpy module) the result is a 2-D float64 array.
        """
        raise NotImplementedError

    def with_arrival(self, base: Mapping[str, float]) -> "ScenarioFamily":
        """A copy with ``base`` arrivals as defaults (family wins)."""
        doc = self.to_json()
        merged = dict(base or {})
        merged.update(doc.get("arrival") or {})
        doc["arrival"] = merged
        return family_from_json(doc, source=self.family or "family")

    def _base_json(self) -> dict:
        doc: dict = {"family": self.family}
        if self.arrival:
            doc["arrival"] = dict(self.arrival)
        if self.name:
            doc["name"] = self.name
        return doc


class CornerSweep(ScenarioFamily):
    """One member per process corner; delays scale at plan time."""

    family = "corner"

    def __init__(self, corners, arrival=None, name: str = ""):
        super().__init__(arrival, name)
        self.corners = _parse_corners(corners, "corner family")

    def count(self) -> int:
        return len(self.corners)

    def expand(self) -> list[FamilyMember]:
        return [
            FamilyMember(
                index=i,
                label=corner.name,
                corner=corner.name,
                params=(("scale", corner.scale),),
            )
            for i, corner in enumerate(self.corners)
        ]

    def delay_rows(self, plan, lo: int, hi: int, np=None):
        base = plan.ent_delay
        if np is not None:
            arr = np.asarray(base, dtype=np.float64)
            return np.stack(
                [
                    arr
                    * np.asarray(
                        corner.factors(plan), dtype=np.float64
                    )
                    for corner in self.corners[lo:hi]
                ]
            )
        return [
            [a * f for a, f in zip(base, corner.factors(plan))]
            for corner in self.corners[lo:hi]
        ]

    def to_json(self) -> dict:
        doc = self._base_json()
        doc["corners"] = [c.to_json() for c in self.corners]
        return doc


class ParametricSweep(ScenarioFamily):
    """Edge delays as ``a + (slope + sensitivity·a)·x`` over a grid.

    ``slope`` is the absolute delay change per unit of the parameter
    (shared by every edge); ``sensitivity`` is the relative change per
    unit (proportional to each edge's baseline delay ``a``).  Together
    they give each edge the linear form ``a + b·x``.  At ``x = 0`` the
    delays are bit-identical to the baseline plan.
    """

    family = "parametric"

    def __init__(
        self,
        parameter: str,
        values,
        slope: float = 0.0,
        sensitivity: float = 0.0,
        arrival=None,
        name: str = "",
    ):
        super().__init__(arrival, name)
        self.parameter = str(parameter)
        if not self.parameter:
            raise ReproError(
                "parametric family: 'parameter' must be a non-empty "
                "string"
            )
        src = "parametric family"
        self.values = tuple(
            _finite(v, f"parameter value {i}", src)
            for i, v in enumerate(values)
        )
        if not self.values:
            raise ReproError(f"{src}: 'values' is empty")
        self.slope = _finite(slope, "slope", src)
        self.sensitivity = _finite(sensitivity, "sensitivity", src)

    def count(self) -> int:
        return len(self.values)

    def expand(self) -> list[FamilyMember]:
        return [
            FamilyMember(
                index=i,
                label=f"{self.parameter}={x:g}",
                params=((self.parameter, x),),
            )
            for i, x in enumerate(self.values)
        ]

    def delay_rows(self, plan, lo: int, hi: int, np=None):
        base = plan.ent_delay
        xs = self.values[lo:hi]
        if np is not None:
            a = np.asarray(base, dtype=np.float64)
            b = self.slope + self.sensitivity * a
            grid = np.asarray(xs, dtype=np.float64)[:, None]
            return a + b * grid
        return [
            [a + (self.slope + self.sensitivity * a) * x for a in base]
            for x in xs
        ]

    def to_json(self) -> dict:
        doc = self._base_json()
        doc["parameter"] = self.parameter
        doc["values"] = list(self.values)
        if self.slope:
            doc["slope"] = self.slope
        if self.sensitivity:
            doc["sensitivity"] = self.sensitivity
        return doc


class MonteCarlo(ScenarioFamily):
    """Seeded per-edge Gaussian delay sampling, optionally per corner.

    Each member draws ``delay_e = mean_e + (sigma +
    sigma_rel·|mean_e|)·z_e`` with ``mean_e`` the corner-scaled
    baseline delay and ``z_e`` standard-normal.  Expansion order is
    corner-major: all ``samples`` of the first corner, then the next.
    With ``sigma == sigma_rel == 0`` every member is bit-identical to
    its corner's deterministic delays.
    """

    family = "monte-carlo"

    def __init__(
        self,
        samples: int,
        seed: int = 0,
        sigma: float = 0.0,
        sigma_rel: float = 0.0,
        corners=None,
        arrival=None,
        name: str = "",
    ):
        super().__init__(arrival, name)
        src = "monte-carlo family"
        try:
            self.samples = int(samples)
        except (TypeError, ValueError, OverflowError):
            raise ReproError(f"{src}: 'samples' is not an integer") from None
        if self.samples < 1:
            raise ReproError(
                f"{src}: samples must be >= 1, got {self.samples}"
            )
        try:
            self.seed = int(seed)
        except (TypeError, ValueError, OverflowError):
            raise ReproError(f"{src}: 'seed' is not an integer") from None
        self.sigma = _finite(sigma, "sigma", src)
        self.sigma_rel = _finite(sigma_rel, "sigma_rel", src)
        if self.sigma < 0.0 or self.sigma_rel < 0.0:
            raise ReproError(f"{src}: sigma and sigma_rel must be >= 0")
        if corners is None:
            self.corners = (Corner(name="typ"),)
        else:
            self.corners = _parse_corners(corners, src)

    def count(self) -> int:
        return len(self.corners) * self.samples

    def expand(self) -> list[FamilyMember]:
        members: list[FamilyMember] = []
        for ci, corner in enumerate(self.corners):
            for s in range(self.samples):
                members.append(
                    FamilyMember(
                        index=ci * self.samples + s,
                        label=f"{corner.name}#{s}",
                        corner=corner.name,
                        params=(("sample", float(s)),),
                    )
                )
        return members

    def delay_rows(self, plan, lo: int, hi: int, np=None):
        base = plan.ent_delay
        means: dict[int, object] = {}

        def mean_for(ci: int):
            cached = means.get(ci)
            if cached is None:
                factors = self.corners[ci].factors(plan)
                if np is not None:
                    mean = np.asarray(
                        base, dtype=np.float64
                    ) * np.asarray(factors, dtype=np.float64)
                    cached = mean, self.sigma + self.sigma_rel * np.abs(mean)
                else:
                    cached = [a * f for a, f in zip(base, factors)]
                means[ci] = cached
            return cached

        if np is not None:
            rows = np.empty((hi - lo, len(base)), dtype=np.float64)
            for r, m in enumerate(range(lo, hi)):
                mean, spread = mean_for(m // self.samples)
                rng = np.random.default_rng(child_seed(self.seed, m))
                # mean + spread * z, written in place: the same two
                # float64 operations per entry.
                row = rows[r]
                rng.standard_normal(out=row)
                row *= spread
                row += mean
            return rows
        rows_py: list[list[float]] = []
        for m in range(lo, hi):
            mean = mean_for(m // self.samples)
            rnd = random.Random(child_seed(self.seed, m))
            gauss = rnd.gauss
            rows_py.append(
                [
                    mu
                    + (self.sigma + self.sigma_rel * abs(mu))
                    * gauss(0.0, 1.0)
                    for mu in mean
                ]
            )
        return rows_py

    def to_json(self) -> dict:
        doc = self._base_json()
        doc["samples"] = self.samples
        doc["seed"] = self.seed
        if self.sigma:
            doc["sigma"] = self.sigma
        if self.sigma_rel:
            doc["sigma_rel"] = self.sigma_rel
        doc["corners"] = [c.to_json() for c in self.corners]
        return doc


#: Most members a ``sweep`` shorthand may ask for: its values are
#: built when the spec is read, before any scenario limit applies.
MAX_SWEEP_COUNT = 1 << 20

#: JSON tag -> family class (``mc`` is an accepted alias).
FAMILY_KINDS: dict[str, type] = {
    "corner": CornerSweep,
    "parametric": ParametricSweep,
    "monte-carlo": MonteCarlo,
    "mc": MonteCarlo,
}


def family_from_json(data, source: str = "family") -> ScenarioFamily:
    """Parse a family spec object (dispatch on the ``family`` tag)."""
    if not isinstance(data, Mapping):
        raise ReproError(f"{source}: family spec must be a JSON object")
    tag = data.get("family")
    cls = FAMILY_KINDS.get(tag) if isinstance(tag, str) else None
    if cls is None:
        known = sorted(set(FAMILY_KINDS) - {"mc"})
        raise ReproError(
            f"{source}: unknown family {tag!r}; expected one of {known}"
        )
    arrival = data.get("arrival")
    name = str(data.get("name", ""))
    if cls is CornerSweep:
        if "corners" not in data:
            raise ReproError(f"{source}: corner family needs 'corners'")
        return CornerSweep(
            data["corners"], arrival=arrival, name=name
        )
    if cls is ParametricSweep:
        values = data.get("values")
        if values is None and isinstance(data.get("sweep"), Mapping):
            values = _linspace(data["sweep"], source)
        if not isinstance(values, (list, tuple)):
            raise ReproError(
                f"{source}: parametric family needs 'values' (a list) "
                "or 'sweep' ({'start', 'stop', 'count'})"
            )
        return ParametricSweep(
            data.get("parameter", ""),
            values,
            slope=data.get("slope", 0.0),
            sensitivity=data.get("sensitivity", 0.0),
            arrival=arrival,
            name=name,
        )
    if "samples" not in data:
        raise ReproError(
            f"{source}: monte-carlo family needs 'samples'"
        )
    return MonteCarlo(
        data["samples"],
        seed=data.get("seed", 0),
        sigma=data.get("sigma", 0.0),
        sigma_rel=data.get("sigma_rel", 0.0),
        corners=data.get("corners"),
        arrival=arrival,
        name=name,
    )


def _linspace(sweep: Mapping, source: str) -> list[float]:
    start = _finite(sweep.get("start", 0.0), "sweep start", source)
    stop = _finite(sweep.get("stop", 1.0), "sweep stop", source)
    try:
        count = int(sweep.get("count", 2))
    except (TypeError, ValueError, OverflowError):
        raise ReproError(
            f"{source}: sweep count is not an integer"
        ) from None
    if not 1 <= count <= MAX_SWEEP_COUNT:
        raise ReproError(
            f"{source}: sweep count must be between 1 and "
            f"{MAX_SWEEP_COUNT}, got {count}"
        )
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + step * i for i in range(count)]


__all__ = [
    "Corner",
    "CornerSweep",
    "FAMILY_KINDS",
    "FamilyMember",
    "MonteCarlo",
    "ParametricSweep",
    "ScenarioFamily",
    "child_seed",
    "family_from_json",
]
