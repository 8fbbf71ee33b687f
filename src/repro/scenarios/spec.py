"""First-class scenario specs: the front door of the scenario API.

A *scenario* is one arrival-time assignment for the primary inputs; a
*spec* is a declarative, JSON-serializable description of one or many
of them.  Three concrete shapes share the :class:`ScenarioSpec`
surface (``count()`` / ``expand()`` / ``to_json()``):

* :class:`Scenario` — one arrival vector;
* :class:`ScenarioSet` — an explicit list of scenarios;
* :class:`~repro.scenarios.families.ScenarioFamily` — a *generated*
  batch (corner sweep, parametric sweep, Monte-Carlo sampling) that
  varies edge **delays** rather than arrivals and expands to
  thousands of kernel rows from a few lines of JSON.

:func:`spec_from_json` turns decoded JSON back into a spec (it
round-trips ``to_json``).  :func:`read_batch` is the one reader of
batch documents: ``--scenarios`` files and ``POST /batch`` bodies go
through it and through nothing else.
"""

from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

from repro.errors import ReproError


def _finite(value, what: str, source: str) -> float:
    """``value`` as a finite float, else a :class:`ReproError`."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ReproError(f"{source}: {what} is not a number") from None
    except OverflowError:  # an integer past the float range
        out = math.inf
    if not math.isfinite(out):
        raise ReproError(f"{source}: {what} must be finite")
    return out


def clean_arrival(arrival, source: str) -> dict[str, float]:
    """Validate an arrival mapping into ``{input: float}``.

    ``None`` means "all inputs at 0.0" and becomes ``{}``; anything
    that is not a mapping of finite numbers raises
    :class:`~repro.errors.ReproError` naming ``source``.
    """
    if arrival is None:
        return {}
    if not isinstance(arrival, Mapping):
        raise ReproError(
            f"{source}: 'arrival' must be an object (input -> time)"
        )
    return {
        str(name): _finite(value, f"arrival time for {name!r}", source)
        for name, value in arrival.items()
    }


class ScenarioSpec:
    """Common surface of every scenario description.

    Subclasses implement :meth:`count` (how many concrete scenarios
    the spec stands for), :meth:`expand` (materialize them) and
    :meth:`to_json` (a JSON-ready dict that :func:`spec_from_json`
    round-trips), and compare equal by serialized form.
    """

    #: Spec kind tag (``scenario`` / ``set`` / ``family``).
    kind = "spec"

    def count(self) -> int:
        """Number of concrete scenarios this spec expands to."""
        raise NotImplementedError

    def expand(self):
        """Materialize the spec (shape depends on the subclass)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        """JSON-ready dict; :func:`spec_from_json` round-trips it."""
        raise NotImplementedError

    def dumps(self) -> str:
        """The spec as a JSON string (stable key order)."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and other.to_json() == self.to_json()
        )

    def __hash__(self) -> int:
        return hash(self.dumps())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(count={self.count()})"


class Scenario(ScenarioSpec):
    """One arrival vector (missing inputs default to 0.0)."""

    kind = "scenario"

    def __init__(self, arrival=None, name: str = ""):
        self.arrival = clean_arrival(arrival, "scenario")
        self.name = str(name)

    def count(self) -> int:
        return 1

    def expand(self) -> list[dict[str, float]]:
        """The single arrival mapping, as a one-element list."""
        return [dict(self.arrival)]

    def to_json(self) -> dict:
        doc: dict = {"arrival": dict(self.arrival)}
        if self.name:
            doc["name"] = self.name
        return doc


def _scenario_doc(item: Mapping) -> tuple[Mapping, str]:
    """``(arrival, name)`` of one scenario object: the ``arrival``
    object of an ``{"arrival": {...}, "name": ...}`` scenario, else the
    object itself (input -> time) and no name."""
    arrival = item.get("arrival")
    if isinstance(arrival, Mapping):
        return arrival, str(item.get("name", ""))
    return item, ""


class ScenarioSet(ScenarioSpec):
    """An explicit, ordered list of scenarios.

    Items may be :class:`Scenario` objects, arrival mappings, or
    ``{"arrival": {...}, "name": ...}`` objects.
    """

    kind = "set"

    def __init__(self, scenarios, name: str = ""):
        if not isinstance(scenarios, (list, tuple)):
            raise ReproError("scenario set: 'scenarios' must be a list")
        items: list[Scenario] = []
        for i, item in enumerate(scenarios):
            if isinstance(item, Scenario):
                items.append(item)
            elif isinstance(item, Mapping):
                items.append(Scenario(*_scenario_doc(item)))
            else:
                raise ReproError(
                    f"scenario set: item {i} must be an object "
                    "(input -> time)"
                )
        if not items:
            raise ReproError("scenario set: scenario list is empty")
        self.scenarios = tuple(items)
        self.name = str(name)

    @classmethod
    def of(cls, *scenarios, name: str = "") -> "ScenarioSet":
        """Variadic constructor: ``ScenarioSet.of({}, {"c_in": 2.0})``.

        The drop-in migration for legacy bare-``list[dict]`` batches —
        ``analyze_batch(ScenarioSet.of(*scenarios))``.
        """
        return cls(scenarios, name=name)

    def count(self) -> int:
        return len(self.scenarios)

    def expand(self) -> list[dict[str, float]]:
        """The arrival mappings, in order."""
        return [dict(s.arrival) for s in self.scenarios]

    def to_json(self) -> dict:
        doc: dict = {
            "scenarios": [dict(s.arrival) for s in self.scenarios]
        }
        if self.name:
            doc["name"] = self.name
        return doc


def spec_from_json(data, source: str = "spec") -> ScenarioSpec:
    """Parse any scenario-spec shape from decoded JSON.

    Dispatches on structure: an object with a ``family`` key parses as
    a :class:`~repro.scenarios.families.ScenarioFamily`; an ``arrival``
    key as a :class:`Scenario`; a ``scenarios`` key, or a bare JSON
    list of arrival objects, as a :class:`ScenarioSet`.  An existing
    spec passes through unchanged.  Everything else raises
    :class:`~repro.errors.ReproError` naming ``source``.
    """
    if isinstance(data, ScenarioSpec):
        return data
    if isinstance(data, list):
        return ScenarioSet(data)
    if isinstance(data, Mapping):
        if "family" in data:
            from repro.scenarios.families import family_from_json

            return family_from_json(data, source)
        if "arrival" in data:
            return Scenario(
                data["arrival"], name=str(data.get("name", ""))
            )
        if "scenarios" in data:
            return ScenarioSet(
                data["scenarios"], name=str(data.get("name", ""))
            )
        raise ReproError(
            f"{source}: scenario spec object needs a 'family', "
            "'arrival', or 'scenarios' key"
        )
    raise ReproError(
        f"{source}: expected a JSON list of scenarios or a scenario "
        "spec object"
    )


def read_batch(data, inputs: Sequence[str], source: str = "scenarios"):
    """Read one batch document: the single parser of batch JSON.

    ``data`` is decoded JSON, a ``--scenarios`` file or the
    ``scenarios`` field of a ``POST /batch`` body.  A batch is a list
    of scenarios, or an object with a ``family`` key (a scenario
    family, see :func:`~repro.scenarios.families.family_from_json`),
    an ``arrival`` key (one scenario) or a ``scenarios`` key (a list of
    scenarios).  A scenario is an object mapping input names to times,
    an ``{"arrival": {...}, "name": ...}`` object, or a list of times
    aligned with ``inputs``.

    Returns the :class:`~repro.scenarios.families.ScenarioFamily`, or
    one arrival mapping per scenario, every name one of ``inputs`` and
    every time finite.  Anything else raises
    :class:`~repro.errors.ReproError` naming ``source``.
    """
    items = data
    if isinstance(data, Mapping):
        if "family" in data or "arrival" in data:
            spec = spec_from_json(data, source)
            if spec.kind == "family":
                return spec
            items = spec.expand()
        elif "scenarios" in data:
            items = data["scenarios"]
            if not isinstance(items, list):
                raise ReproError(
                    f"{source}: 'scenarios' must be a list of scenarios"
                )
    if not isinstance(items, list):
        raise ReproError(
            f"{source}: expected a JSON list of scenarios, or an object "
            "with a 'scenarios', 'arrival' or 'family' key"
        )
    if not items:
        raise ReproError(f"{source}: scenario list is empty")
    known = set(inputs)
    scenarios: list[dict[str, float]] = []
    for i, item in enumerate(items):
        where = f"{source}: scenario {i}"
        if isinstance(item, list):
            if len(item) != len(inputs):
                raise ReproError(
                    f"{where} has {len(item)} values for "
                    f"{len(inputs)} inputs"
                )
            pairs = zip(inputs, item)
        elif isinstance(item, Mapping):
            item = _scenario_doc(item)[0]
            unknown = sorted(set(item) - known)
            if unknown:
                raise ReproError(
                    f"{where} names unknown input {unknown[0]!r}"
                )
            pairs = item.items()
        else:
            raise ReproError(
                f"{where} must be an object (input -> time) or a list "
                "of times"
            )
        try:
            scenario = {name: float(v) for name, v in pairs}
        except (TypeError, ValueError):
            raise ReproError(
                f"{where} has a non-numeric arrival time"
            ) from None
        except OverflowError:  # an integer past the float range
            raise ReproError(
                f"{where}: arrival times must be finite"
            ) from None
        scenarios.append(clean_arrival(scenario, where))
    return scenarios


__all__ = [
    "Scenario",
    "ScenarioSet",
    "ScenarioSpec",
    "clean_arrival",
    "read_batch",
    "spec_from_json",
]
