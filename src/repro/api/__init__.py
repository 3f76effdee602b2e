"""``repro.api`` v1 — the single public solve surface.

One versioned, serializable request/outcome pair
(:class:`~repro.api.spec.SolveSpec` / :class:`~repro.api.spec.SolveOutcome`)
shared by every ingress: the CLI, Python callers (:func:`solve`,
:class:`~repro.api.session.Session`), the serving layer
(:class:`~repro.service.scheduler.SolveService`, batching, the stdio and
TCP transports) and the experiment harness.  See
``docs/ARCHITECTURE.md`` ("Public API & transports") for the invariants.

Quick start::

    import repro.api as api

    outcome = api.solve(dataset="college", algorithm="gas", budget=5)
    print(outcome.result["gain"], outcome.fingerprint)

    session = api.Session(dataset="college")      # warm engine, memoised
    spec = api.SolveSpec(algorithm="base", budget=2)
    print(session.solve(spec).result["anchors"])

Import structure: the spec module is imported eagerly (it has no
dependencies on the engine, so :mod:`repro.core.engine` and every solver
module can import it without a cycle); the session/resolver symbols — which
*do* import the engine — load lazily on first attribute access.
"""

from repro.api.spec import (
    SCHEMA_VERSION,
    SolveOutcome,
    SolveSpec,
    SpecError,
    canonical_result,
    result_to_json,
)

__all__ = [
    "SCHEMA_VERSION",
    "GraphResolver",
    "Session",
    "SolveOutcome",
    "SolveSpec",
    "SpecError",
    "canonical_result",
    "resolve_graph",
    "result_to_json",
    "solve",
]

#: Lazily-resolved attribute -> defining submodule (PEP 562).  These
#: modules import :mod:`repro.core.engine`; loading them here eagerly would
#: close an import cycle when the engine imports :mod:`repro.api.spec`.
_LAZY_ATTRIBUTES = {
    "Session": "repro.api.session",
    "solve": "repro.api.session",
    "GraphResolver": "repro.api.resolve",
    "resolve_graph": "repro.api.resolve",
}


def __getattr__(name: str):
    module_name = _LAZY_ATTRIBUTES.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent accesses
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_ATTRIBUTES))
