"""Finite sets and total maps between them.

Labels are plain strings and sets remember their insertion order, so every
enumeration and every serialization in the rest of the package is
deterministic.  All values are immutable; operations return new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import DomainMismatch, DuplicateLabel, MalformedInput, NotInCodomain, NotTotal


@dataclass(frozen=True)
class FiniteSet:
    labels: tuple[str, ...]

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each label's storage index, built once per set."""
        return {label: i for i, label in enumerate(self.labels)}

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label in self.positions


@dataclass(frozen=True, eq=True)
class SetMap:
    """A total map between finite sets, stored as a label-to-label dict."""

    dom: FiniteSet
    cod: FiniteSet
    mapping: dict[str, str]

    __hash__ = None  # type: ignore[assignment]

    def __call__(self, label: str) -> str:
        return self.mapping[label]


def make_set(labels: Iterable[str]) -> FiniteSet:
    out: list[str] = []
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"label {label!r} appears twice")
        seen.add(label)
        out.append(label)
    return FiniteSet(tuple(out))


def make_map(dom: FiniteSet, cod: FiniteSet, assignment: Mapping[str, str]) -> SetMap:
    extra = set(assignment) - dom.positions.keys()
    if extra:
        raise NotTotal(f"assignment mentions labels outside the domain: {sorted(extra)}")
    mapping: dict[str, str] = {}
    for label in dom:
        if label not in assignment:
            raise NotTotal(f"no value assigned to {label!r}")
        value = assignment[label]
        if value not in cod:
            raise NotInCodomain(f"{label!r} maps to {value!r}, which is not in the codomain")
        mapping[label] = value
    return SetMap(dom, cod, mapping)


def identity_map(x: FiniteSet) -> SetMap:
    return SetMap(x, x, {label: label for label in x})


def compose_maps(f: SetMap, g: SetMap) -> SetMap:
    """The composite g after f; f's codomain must be g's domain."""
    if f.cod != g.dom:
        raise DomainMismatch("codomain of the first map differs from domain of the second")
    return SetMap(f.dom, g.cod, {label: g.mapping[f.mapping[label]] for label in f.dom})


def finite_set_to_json(x: FiniteSet) -> list[str]:
    return list(x.labels)


def finite_set_from_json(data: object) -> FiniteSet:
    if not isinstance(data, list) or not all(isinstance(s, str) for s in data):
        raise MalformedInput("a finite set must be a JSON array of strings")
    return make_set(data)

