"""Event variables and probability distributions.

A prob-tree is defined over a finite set ``W`` of event variables together
with a probability distribution ``π`` assigning to each variable a value in
``]0; 1]`` (Section 2 of the paper — zero probabilities are disallowed by
convention so that updates with zero confidence are never performed).
Events are assumed mutually independent.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Set, Tuple

from repro.utils.errors import InvalidProbabilityError


class ProbabilityDistribution:
    """The pair ``(W, π)``: a finite set of events with their probabilities.

    Immutable; deriving a new distribution (adding an event, restricting to a
    subset) returns a new object so prob-trees can safely share
    distributions.
    """

    __slots__ = ("_probabilities",)

    def __init__(self, probabilities: Mapping[str, float] | None = None) -> None:
        cleaned: Dict[str, float] = {}
        if probabilities:
            for event, probability in probabilities.items():
                cleaned[str(event)] = _check_probability(event, probability)
        self._probabilities = cleaned

    @staticmethod
    def _trusted(probabilities: Dict[str, float]) -> "ProbabilityDistribution":
        """Wrap an already-validated map (taken over, not copied)."""
        distribution = ProbabilityDistribution.__new__(ProbabilityDistribution)
        distribution._probabilities = probabilities
        return distribution

    # -- constructors ------------------------------------------------------

    @staticmethod
    def empty() -> "ProbabilityDistribution":
        return ProbabilityDistribution()

    @staticmethod
    def uniform(events: Iterable[str], probability: float = 0.5) -> "ProbabilityDistribution":
        """All events in *events* get the same probability."""
        return ProbabilityDistribution({event: probability for event in events})

    # -- inspection --------------------------------------------------------

    def events(self) -> Set[str]:
        """The event set ``W``."""
        return set(self._probabilities)

    def __getitem__(self, event: str) -> float:
        return self._probabilities[event]

    def get(self, event: str, default: Optional[float] = None) -> Optional[float]:
        return self._probabilities.get(event, default)

    def __contains__(self, event: object) -> bool:
        return event in self._probabilities

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._probabilities))

    def __len__(self) -> int:
        return len(self._probabilities)

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(sorted(self._probabilities.items()))

    def as_dict(self) -> Dict[str, float]:
        return dict(self._probabilities)

    # -- derivation --------------------------------------------------------

    # Derivations validate only the entries they add: every inherited
    # probability was checked when it entered its first distribution.

    def with_event(self, event: str, probability: float) -> "ProbabilityDistribution":
        """A new distribution with *event* added (or re-assigned)."""
        updated = dict(self._probabilities)
        updated[str(event)] = _check_probability(event, probability)
        return ProbabilityDistribution._trusted(updated)

    def with_events(self, probabilities: Mapping[str, float]) -> "ProbabilityDistribution":
        """A new distribution extended with every entry of *probabilities*."""
        updated = dict(self._probabilities)
        for event, probability in probabilities.items():
            updated[str(event)] = _check_probability(event, probability)
        return ProbabilityDistribution._trusted(updated)

    def without_event(self, event: str) -> "ProbabilityDistribution":
        updated = dict(self._probabilities)
        updated.pop(event, None)
        return ProbabilityDistribution._trusted(updated)

    def restricted_to(self, events: Iterable[str]) -> "ProbabilityDistribution":
        keep = set(events)
        return ProbabilityDistribution._trusted(
            {event: p for event, p in self._probabilities.items() if event in keep}
        )

    def extends(self, other: "ProbabilityDistribution") -> bool:
        """Whether this is a *conservative extension* of *other*.

        True when every event of *other* is present here with an unchanged
        probability: every price computed under *other* is then still exact
        under this distribution, since such a formula cannot mention the
        added events.
        """
        mine = self._probabilities
        if len(mine) < len(other._probabilities):
            return False
        return all(mine.get(event) == p for event, p in other._probabilities.items())

    # -- semantics helpers ---------------------------------------------------

    def world_probability(self, world: Iterable[str], over: Optional[Iterable[str]] = None) -> float:
        """Probability of the world *world* (Definition 4).

        ``∏_{w ∈ V} π(w) · ∏_{w ∈ W−V} (1 − π(w))`` where ``W`` defaults to
        the whole event set but can be restricted with *over* (useful when a
        prob-tree only mentions a subset of the registered events).
        """
        chosen = set(world)
        domain = set(over) if over is not None else set(self._probabilities)
        missing = chosen - domain
        if missing:
            raise KeyError(f"world mentions unknown events: {sorted(missing)}")
        result = 1.0
        for event in domain:
            p = self._probabilities[event]
            result *= p if event in chosen else (1.0 - p)
        return result

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilityDistribution):
            return NotImplemented
        return self._probabilities == other._probabilities

    def __hash__(self) -> int:
        return hash(frozenset(self._probabilities.items()))

    def __repr__(self) -> str:
        return f"ProbabilityDistribution({self._probabilities!r})"


class EventFactory:
    """Generates fresh event variable names.

    Probabilistic updates each introduce a new, independent event variable
    capturing the system's confidence in the update; the factory hands out
    names guaranteed not to clash with previously issued ones or with an
    initial set of reserved names.
    """

    __slots__ = ("_prefix", "_counter", "_reserved")

    def __init__(self, prefix: str = "w", reserved: Iterable[str] = ()) -> None:
        self._prefix = prefix
        self._counter = 0
        self._reserved = set(reserved)

    def reserve(self, events: Iterable[str]) -> None:
        """Mark *events* as already in use."""
        self._reserved.update(events)

    def fresh(self) -> str:
        """Return a new, unused event name."""
        while True:
            self._counter += 1
            candidate = f"{self._prefix}{self._counter}"
            if candidate not in self._reserved:
                self._reserved.add(candidate)
                return candidate


def _check_probability(event: str, probability: float) -> float:
    value = float(probability)
    if not 0.0 < value <= 1.0:
        raise InvalidProbabilityError(
            f"probability of event {event!r} must lie in ]0; 1], got {probability!r}"
        )
    return value


__all__ = ["ProbabilityDistribution", "EventFactory"]
