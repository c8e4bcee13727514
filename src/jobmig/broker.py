"""Resource broker: provider registry and job-to-provider matchmaking.

Providers register capability templates; the broker keeps them in its
registry and matches job requirement lists against it, returning the
eligible providers deterministically ranked for the controller to pick from.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .monitor import ServiceLevelAgreement


class BrokerError(Exception):
    pass


class MalformedTemplate(BrokerError):
    pass


class NoMatch(BrokerError):
    pass


class UnknownProvider(BrokerError):
    pass


@dataclass(frozen=True)
class ResourceSpecTemplate:
    """One provider's advertised capabilities."""

    provider_id: str
    address: str
    cpu_mhz: int
    memory_mb: int
    arch_tags: frozenset[str] = frozenset()
    speed_factor: Fraction = Fraction(1)
    available: bool = True

    def __post_init__(self):
        if not self.provider_id:
            raise MalformedTemplate("provider_id must be non-empty")
        if self.cpu_mhz <= 0:
            raise MalformedTemplate(f"cpu_mhz must be positive, got {self.cpu_mhz}")
        if self.memory_mb <= 0:
            raise MalformedTemplate(f"memory_mb must be positive, got {self.memory_mb}")
        if self.speed_factor <= 0:
            raise MalformedTemplate(f"speed_factor must be positive, got {self.speed_factor}")
        object.__setattr__(self, "arch_tags", frozenset(self.arch_tags))
        object.__setattr__(self, "speed_factor", _as_fraction(self.speed_factor))


@dataclass(frozen=True)
class JobRequirementList:
    """A job's declared resource requirements."""

    job_id: str
    min_cpu_mhz: int
    min_memory_mb: int
    arch_tags: frozenset[str] = frozenset()
    sla: "ServiceLevelAgreement | None" = None

    def __post_init__(self):
        if not self.job_id:
            raise MalformedTemplate("job_id must be non-empty")
        if self.min_cpu_mhz <= 0 or self.min_memory_mb <= 0:
            raise MalformedTemplate("job requirements must be positive")
        object.__setattr__(self, "arch_tags", frozenset(self.arch_tags))


@dataclass(frozen=True)
class MatchResult:
    """Eligible providers ranked by score, best first."""

    ranked: tuple[tuple[str, Fraction], ...]

    @property
    def provider_ids(self) -> tuple[str, ...]:
        return tuple(pid for pid, _ in self.ranked)


def _as_fraction(x) -> Fraction:
    # str round-trip keeps JSON decimals exact (1.18 -> 59/50, not a binary float)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def eligible(t: ResourceSpecTemplate, jrl: JobRequirementList) -> bool:
    return (t.available
            and t.cpu_mhz >= jrl.min_cpu_mhz
            and t.memory_mb >= jrl.min_memory_mb
            and t.arch_tags >= jrl.arch_tags)


def score(t: ResourceSpecTemplate, jrl: JobRequirementList) -> Fraction:
    return (Fraction(t.cpu_mhz, jrl.min_cpu_mhz) + Fraction(t.memory_mb, jrl.min_memory_mb)) / 2


def match_job(jrl: JobRequirementList, templates: Iterable[ResourceSpecTemplate]) -> MatchResult:
    """Rank every provider satisfying all constraints; NoMatch if none do."""
    scored = [(t.provider_id, score(t, jrl)) for t in templates if eligible(t, jrl)]
    if not scored:
        raise NoMatch(f"no registered provider satisfies job {jrl.job_id!r}")
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return MatchResult(ranked=tuple(scored))


class ResourceBroker:
    """Provider registry; all mutations are serialized, snapshots are copies."""

    def __init__(self):
        self._templates: dict[str, ResourceSpecTemplate] = {}
        self._lock = threading.RLock()

    def register_provider(self, template: ResourceSpecTemplate) -> None:
        """Add or replace the entry for template.provider_id."""
        if not isinstance(template, ResourceSpecTemplate):
            raise MalformedTemplate(f"not a template: {template!r}")
        with self._lock:
            self._templates[template.provider_id] = template

    def set_available(self, provider_id: str, available: bool) -> None:
        with self._lock:
            current = self._templates.get(provider_id)
            if current is None:
                raise UnknownProvider(f"provider {provider_id!r} is not registered")
            if current.available != available:
                self._templates[provider_id] = replace(current, available=available)

    def get(self, provider_id: str) -> ResourceSpecTemplate | None:
        with self._lock:
            return self._templates.get(provider_id)

    def build_rst(self) -> dict[str, ResourceSpecTemplate]:
        """A copy of the registry, by provider id in registration order."""
        with self._lock:
            return dict(self._templates)

    def match(self, jrl: JobRequirementList) -> MatchResult:
        return match_job(jrl, self.build_rst().values())


# each template field's JSON type: a bool is not an int, and the tags are strings
FIELD_TYPES = {"provider_id": str, "address": str, "cpu_mhz": int, "memory_mb": int,
               "arch_tags": list, "available": bool}


def template_from_dict(obj: dict) -> ResourceSpecTemplate:
    """A template from its JSON object, with no field coerced to its type."""
    try:
        given = {"arch_tags": [], "available": True, **obj}
        fields = {key: given[key] for key in FIELD_TYPES}
        if any(type(value) is not FIELD_TYPES[key] for key, value in fields.items()) \
                or any(type(tag) is not str for tag in fields["arch_tags"]):
            raise TypeError("a field has the wrong type")
        return ResourceSpecTemplate(**fields, speed_factor=_as_fraction(obj.get("speed_factor", 1)))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedTemplate(f"bad provider entry: {obj!r}") from exc


def template_to_dict(t: ResourceSpecTemplate) -> dict:
    return {
        "provider_id": t.provider_id,
        "address": t.address,
        "cpu_mhz": t.cpu_mhz,
        "memory_mb": t.memory_mb,
        "arch_tags": sorted(t.arch_tags),
        "speed_factor": float(t.speed_factor),
        "available": t.available,
    }


def load_providers(path: str | Path) -> list[ResourceSpecTemplate]:
    """Read the provider bootstrap file: a JSON array of template objects."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise MalformedTemplate("provider file must hold a JSON array")
    return [template_from_dict(obj) for obj in data]
