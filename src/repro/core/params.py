"""Typed reads of solver parameters, shared by every registered solver.

A request's ``params`` arrive from JSON clients and from Python callers, so
a value can have any type.  Each reader below checks one kind of parameter
and returns it typed; a violation raises
:class:`~repro.utils.errors.InvalidParameterError` naming the parameter.
The serving layer classifies that as an ``invalid`` request, and
:class:`repro.api.Session` returns it as a failed outcome.  No reader
coerces: ``repetitions: 2.7`` or ``collect_reuse_stats: "no"`` is an error,
not a different request than the client sent.
"""

from __future__ import annotations

import numbers
import random
from typing import List, Sequence

from repro.api.spec import SolveSpec
from repro.core.followers import FollowerMethod
from repro.graph.graph import Edge, Graph
from repro.utils.errors import GraphError, InvalidParameterError
from repro.utils.rng import make_rng


def _invalid(name: str, expected: str, value: object) -> InvalidParameterError:
    return InvalidParameterError(f"{name} must be {expected}, got {value!r}")


def _is_int(value: object) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def count_param(request: SolveSpec, name: str, default: int) -> int:
    """An int ``>= 1`` (``repetitions``, ``max_combinations``)."""
    value = request.param(name, default)
    if not _is_int(value) or value < 1:
        raise _invalid(name, "an int >= 1", value)
    return int(value)


def fraction_param(request: SolveSpec, name: str, default: float) -> float:
    """A real number in ``(0, 1]`` (``top_fraction``)."""
    value = request.param(name, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not 0.0 < value <= 1.0
    ):
        raise _invalid(name, "a number in (0, 1]", value)
    return float(value)


def rng_param(request: SolveSpec, name: str) -> random.Random:
    """A generator from ``None`` (unseeded), an int seed or a ``random.Random``."""
    value = request.param(name)
    if not (value is None or isinstance(value, random.Random) or _is_int(value)):
        raise _invalid(name, "an int, a random.Random or null", value)
    return make_rng(int(value) if _is_int(value) else value)  # type: ignore[arg-type]


def flag_param(request: SolveSpec, name: str, default: bool) -> bool:
    """A bool (``collect_reuse_stats``)."""
    value = request.param(name, default)
    if not isinstance(value, bool):
        raise _invalid(name, "a bool", value)
    return value


def choice_param(
    request: SolveSpec, name: str, options: Sequence[str], default: str
) -> str:
    """One of ``options`` (a strategy name such as ``candidates``)."""
    value = request.param(name, default)
    if value not in options:
        raise _invalid(name, " or ".join(repr(option) for option in options), value)
    return value  # type: ignore[return-value]


def method_param(
    request: SolveSpec, name: str, default: FollowerMethod
) -> FollowerMethod:
    """A :class:`~repro.core.followers.FollowerMethod` or its value."""
    value = request.param(name, default)
    values = [method.value for method in FollowerMethod]
    if not isinstance(value, str) or value not in values:
        raise _invalid(name, " or ".join(repr(option) for option in values), value)
    return FollowerMethod(value)


def checked_edges(graph: Graph, name: str, value: object) -> List[Edge]:
    """A list or tuple of ``(u, v)`` edges of ``graph``, canonicalised."""
    if not isinstance(value, (list, tuple)):
        raise _invalid(name, "a list of [u, v] edges", value)
    edges = []
    for edge in value:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise _invalid(name, "a list of [u, v] edges", value)
        try:
            edges.append(graph.require_edge(edge))
        except (GraphError, TypeError):
            raise InvalidParameterError(
                f"{name} entry {edge!r} is not an edge of the graph"
            ) from None
    return edges

