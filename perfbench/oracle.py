"""The answer oracle: a cold one-shot ``repro.api.solve`` per distinct request.

The program guarantees that warm and cold solves give canonically identical
answers, so a fresh engine per request is an independent check of every
warm path the workloads exercise (session memo, result store, router
store, the transports).  It runs after the timed stream, split over two
worker processes, each of which runs this file as a script::

    python3 perfbench/oracle.py < requests.json > answers.json

Answers are kept in a cache file named after a digest of the program's
source, so later runs in the same checkout (other workloads, other seeds
that share requests) solve only what is new, and a changed program never
reuses them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from streams import request_key, wire

WORKERS = 2


def canonical_answer(outcome_json: Dict[str, object]) -> str:
    """The id-free canonical form of a wire outcome (``SolveOutcome`` JSON)."""
    from repro.api import SolveOutcome

    canonical = SolveOutcome.from_json_dict(outcome_json).canonical()
    canonical.pop("id")
    return json.dumps(canonical, sort_keys=True)


def source_digest(source: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def expected_answers(
    requests: Sequence[Dict[str, object]], env: Dict[str, str], cache: Path
) -> Dict[str, str]:
    """Canonical answer per distinct request key: cached, or solved by
    ``WORKERS`` processes and added to the ``cache`` file."""
    answers: Dict[str, str] = json.loads(cache.read_text()) if cache.exists() else {}
    distinct: Dict[str, Dict[str, object]] = {}
    for request in requests:
        key = request_key(request)
        if key not in answers:
            distinct.setdefault(key, request)
    keys = list(distinct)
    workers = []
    for index in range(WORKERS):
        share = [wire(distinct[key]) for key in keys[index::WORKERS]]
        worker = subprocess.Popen(
            [sys.executable, __file__], env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        workers.append(worker)
        worker.stdin.write(json.dumps(share))  # type: ignore[union-attr]
        worker.stdin.close()  # type: ignore[union-attr]
    for index, worker in enumerate(workers):
        output = worker.stdout.read()  # type: ignore[union-attr]
        worker.stdout.close()  # type: ignore[union-attr]
        if worker.wait() != 0:
            raise RuntimeError(f"oracle worker {index} exited with {worker.returncode}")
        answers.update(zip(keys[index::WORKERS], json.loads(output)))
    if keys:
        partial = cache.with_suffix(".partial")
        partial.write_text(json.dumps(answers))
        partial.replace(cache)
    return answers


def check(
    requests: Sequence[Dict[str, object]],
    outcomes: Sequence[Optional[Dict[str, object]]],
    expected: Dict[str, str],
) -> Dict[str, List[int]]:
    """Sort request positions into succeeded, failed (no answer or ``ok``
    false) and wrong (``ok`` but not the oracle's answer, or a wrong id)."""
    verdict: Dict[str, List[int]] = {"succeeded": [], "failed": [], "wrong": []}
    for position, (request, outcome) in enumerate(zip(requests, outcomes)):
        if outcome is None or not outcome.get("ok"):
            verdict["failed"].append(position)
        elif outcome.get("id") != request["id"] or (
            canonical_answer(outcome) != expected[request_key(request)]
        ):
            verdict["wrong"].append(position)
        else:
            verdict["succeeded"].append(position)
    return verdict


def main() -> int:
    from repro.api import SolveSpec, solve

    answers = [
        canonical_answer(solve(SolveSpec.from_json_dict(request)).to_json_dict())
        for request in json.load(sys.stdin)
    ]
    json.dump(answers, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
