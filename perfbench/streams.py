"""Seeded request streams for the benchmark's closed-loop workloads.

Pure standard library: the program under test receives only the requests
generated here, as wire-form JSON objects (the ``SolveSpec`` JSON layout).

Every stream is built from fixed-size *blocks*.  Its cost profile does not
depend on the seed: the class composition of a block, the order in which
(class, graph) slots arrive, each request's budget (the budgets of a
(class, graph) group are spread evenly over the class's range), the inline
graphs, and the graph each repeat goes back to.  The seed decides the
contents: initial anchors, solver seeds and which earlier request of that
graph a repeat copies.  Different seeds therefore give different requests
with identical class counts, budgets and session-cache access order, and
the two lock-step callers of a TCP workload meet the same pairs of request
classes in every run, which is what keeps the medians of ten seeds close
together.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from typing import Callable, Dict, List, Sequence, Tuple

#: The four largest stand-ins, driven in-process by ``solve-large``.
SOLVE_LARGE_GRAPHS = ("pokec", "youtube", "google", "patents")
#: Stand-ins served by ``serve-mix``; the hot one gets ~40% of non-repeats.
SERVE_HOT_DATASET = "google"
SERVE_OTHER_DATASETS = ("college", "facebook", "brightkite", "gowalla", "youtube")
#: Inline graphs carried by ``serve-mix`` requests (``edges`` field), all
#: relabelled copies of one generated graph on ``INLINE_VERTICES`` vertices;
#: a 20-second stream visits each one twice.
INLINE_GRAPHS = 15
INLINE_VERTICES = 96

BLOCK = 20
#: Nominal requests per second on the reference machine; they only size the
#: stream so that one run measures about ``--seconds`` seconds of work.
SOLVE_LARGE_RATE = 2.0
SERVE_MIX_RATE = 6.0

#: ``serve-mix`` budget ranges per (algorithm, inline graph).  The median
#: latency falls among the cold inline-graph solves.  Each inline graph is
#: visited by GAS b=2, then by BASE+ b=3, which cost the same; a longer
#: stream widens these ranges so that its requests stay distinct.
SERVE_BUDGETS = {
    ("gas", False): (2, 12),
    ("base+", False): (1, 6),
    ("gas", True): (2, 2),
    ("base+", True): (3, 3),
}

#: ``rand``/``sup``/``tur`` repetitions (the solvers default to 200).
SOLVE_LARGE_REPETITIONS = 16
SERVE_MIX_REPETITIONS = 6
#: Repeats point at least this many positions back, so their original has
#: usually been answered before the repeat is sent (two callers).
REPEAT_DISTANCE = 6
#: Positions inside each ``serve-mix`` block that repeat an earlier request
#: on a stand-in (inline edges stay on one request in four).
REPEAT_POSITIONS = (6, 8, 10, 12, 14, 16, 18)

Request = Dict[str, object]
#: Benchmark-side labels on a request; never sent to the program.
LABELS = ("class", "graph")


def blocks_for(seconds: float, rate: float) -> int:
    """Blocks that make about ``seconds`` of work at the nominal ``rate``."""
    return max(1, round(seconds * rate / BLOCK))


def spread_budgets(shape: random.Random, count: int, low: int, high: int) -> List[int]:
    """``count`` distinct budgets spread evenly over ``[low, high]``.

    The midpoint of each of ``count`` equal strata, in an order drawn from
    ``shape``; the range widens to ``low + count - 1`` when it holds fewer
    than ``count`` values.
    """
    high = max(high, low + count - 1)
    width = (high - low + 1) / count
    budgets = [low + int((i + 0.5) * width) for i in range(count)]
    shape.shuffle(budgets)
    return budgets


def request_key(request: Request) -> str:
    """Everything the program sees except the id: equal keys, equal answers."""
    return json.dumps(
        {k: v for k, v in request.items() if k != "id" and k not in LABELS}, sort_keys=True
    )


def class_counts(stream: Sequence[Request]) -> Dict[str, int]:
    """Requests per ``class`` label (the label is not sent to the program)."""
    return dict(sorted(Counter(str(r["class"]) for r in stream).items()))


def wire(request: Request) -> Request:
    """The request as sent: without the benchmark's labels."""
    return {k: v for k, v in request.items() if k not in LABELS}


def _assign(
    slots: List[Tuple[str, str]], make: Callable[[str, str, int, int], Request]
) -> List[Request]:
    """Build one request per slot; ``make`` gets the slot's rank in its group."""
    groups: Dict[Tuple[str, str], List[int]] = {}
    for position, slot in enumerate(slots):
        groups.setdefault(slot, []).append(position)
    requests: List[Request] = [{} for _ in slots]
    for (kind, graph), positions in sorted(groups.items()):
        for rank, position in enumerate(positions):
            requests[position] = make(kind, graph, rank, len(positions))
    return requests


# ---------------------------------------------------------------------------
# solve-large
# ---------------------------------------------------------------------------
def solve_large(
    seed: int, seconds: float, edges_of: Callable[[str], Sequence[Tuple[int, int]]]
) -> List[Request]:
    """The engine-bound stream over the four largest stand-ins.

    Per block of 20: 9 GAS with b in [2, 20], 4 GAS with one or two
    ``initial_anchors`` (a full first-round follower search), 3 BASE+ with
    b in {1, 2} and 4 seeded rand/sup/tur with b=5.  ``edges_of(name)``
    lists a dataset's edges, from which initial anchors are drawn.
    """
    graphs = SOLVE_LARGE_GRAPHS
    shape = random.Random(1)
    rng = random.Random(seed * 7919 + 1)
    slots: List[Tuple[str, str]] = []
    for k in range(blocks_for(seconds, SOLVE_LARGE_RATE)):
        slots += [("gas", graphs[(k + j) % 4]) for j in range(9)]
        slots += [("gas-anchored", graph) for graph in graphs]
        slots += [("base+", graphs[(k + 1 + j) % 4]) for j in range(3)]
        slots += [(("rand", "sup", "tur")[(i + k) % 3], g) for i, g in enumerate(graphs)]

    budgets: Dict[Tuple[str, str], List[int]] = {}
    edge_cache: Dict[str, List[Tuple[int, int]]] = {}
    anchor_sets: set = set()

    def make(kind: str, graph: str, rank: int, count: int) -> Request:
        request: Request = {"class": kind, "dataset": graph}
        if kind == "gas":
            if rank == 0:
                budgets[(kind, graph)] = spread_budgets(shape, count, 2, 20)
            request.update(algorithm="gas", budget=budgets[(kind, graph)][rank])
        elif kind == "gas-anchored":
            if graph not in edge_cache:
                edge_cache[graph] = sorted(tuple(e) for e in edges_of(graph))
            anchors = rng.sample(edge_cache[graph], 1 + rank % 2)
            while (graph, tuple(anchors)) in anchor_sets:
                anchors = rng.sample(edge_cache[graph], 1 + rank % 2)
            anchor_sets.add((graph, tuple(anchors)))
            request.update(
                algorithm="gas",
                budget=3,
                initial_anchors=[list(edge) for edge in anchors],
            )
        elif kind == "base+":
            if rank == 0:
                budgets[(kind, graph)] = spread_budgets(shape, count, 1, 2)
            request.update(algorithm="base+", budget=budgets[(kind, graph)][rank])
        else:
            request.update(
                algorithm=kind,
                budget=5,
                params={"repetitions": SOLVE_LARGE_REPETITIONS, "seed": rng.randrange(2**31)},
            )
        return request

    shape.shuffle(slots)
    return _finish(_assign(slots, make), f"sl{seed}")


# ---------------------------------------------------------------------------
# serve-mix (and cluster-mix, which sends the identical stream)
# ---------------------------------------------------------------------------
def _inline_base() -> List[Tuple[int, int]]:
    """The graph every inline graph copies: a triad-closing periphery of
    ``INLINE_VERTICES`` vertices plus one dense core of 11 (323 edges)."""
    rng = random.Random(1006)
    attach = 3
    edges = set()

    def add(u: int, v: int) -> None:
        if u != v:
            edges.add((min(u, v), max(u, v)))

    neighbours: Dict[int, set] = {v: set() for v in range(INLINE_VERTICES)}
    for v in range(attach + 1):
        for u in range(v):
            add(u, v)
            neighbours[u].add(v)
            neighbours[v].add(u)
    for v in range(attach + 1, INLINE_VERTICES):
        first = rng.randrange(v)
        targets = {first}
        while len(targets) < attach:
            closing = sorted(neighbours[first] - targets)
            if closing and rng.random() < 0.6:
                targets.add(rng.choice(closing))
            else:
                targets.add(rng.randrange(v))
        for u in targets:
            add(u, v)
            neighbours[u].add(v)
            neighbours[v].add(u)
    core = rng.sample(range(INLINE_VERTICES), 11)
    for i, u in enumerate(core):
        for v in core[i + 1 :]:
            if rng.random() < 0.7:
                add(u, v)
    return sorted(edges)


def inline_graph(index: int) -> List[List[int]]:
    """Inline graph ``index``: the base graph with its vertices relabelled.

    Fixed for every seed, like the stand-in datasets.  The copies are
    distinct graphs to the program (its fingerprint hashes the labels) but
    cost the same to solve, so the median latency, which falls among the
    cold inline solves, is the level of a plateau of equal-cost requests
    rather than the latency of whichever graph happens to sit at the middle
    rank.
    """
    labels = list(range(INLINE_VERTICES))
    random.Random(2000 + index).shuffle(labels)
    relabelled = (sorted((labels[u], labels[v])) for u, v in _inline_base())
    return sorted(relabelled)


def serve_mix(seed: int, seconds: float) -> List[Request]:
    """Small-graph online traffic: repeats, a hot graph and inline graphs.

    Per block of 20: 7 repeats of earlier stand-in requests (35%), 5 on the
    hot stand-in, one on each of 3 of the 5 other stand-ins (rotating) and 5
    on inline graphs.  Unique requests are GAS, BASE+ or seeded rand/sup/tur
    with few repetitions.  The inline solves (cold, one request in four)
    are the plateau the median latency falls in: the repeats fill the
    lowest 35% of ranks, so the median sits 60% of the way up the plateau,
    clear of its top, where cluster-mix's lock-step callers slow some
    inline solves down.
    """
    shape = random.Random(2)
    rng = random.Random(seed * 7919 + 2)
    pool = [inline_graph(index) for index in range(INLINE_GRAPHS)]
    blocks = blocks_for(seconds, SERVE_MIX_RATE)
    others = ("gas", "gas", "gas", "base+", "rst")
    block_slots: List[List[Tuple[str, str]]] = []
    for k in range(blocks):
        hot_rst = ("rand", "sup", "tur")[k % 3]
        other_rst = ("rand", "sup")[k % 2]
        slots = [("gas", SERVE_HOT_DATASET)] * 3
        slots += [("base+", SERVE_HOT_DATASET), (hot_rst, SERVE_HOT_DATASET)]
        for i, dataset in enumerate(SERVE_OTHER_DATASETS):
            kind = others[(i + k) % 5]
            if (i - k) % 5 < 3:
                slots.append((other_rst if kind == "rst" else kind, dataset))
        for j in range(5):
            visit, graph = divmod(5 * k + j, INLINE_GRAPHS)
            slots.append((("gas", "base+")[visit % 2], f"inline-{graph}"))
        shape.shuffle(slots)
        block_slots.append(slots)

    budgets: Dict[Tuple[str, str], List[int]] = {}

    def make(kind: str, graph: str, rank: int, count: int) -> Request:
        inline = graph.startswith("inline-")
        request: Request = {"class": f"{'inline' if inline else graph}/{kind}", "graph": graph}
        if inline:
            request["edges"] = pool[int(graph.split("-")[1])]
        else:
            request["dataset"] = graph
        if kind in ("gas", "base+"):
            if rank == 0:
                low, high = SERVE_BUDGETS[(kind, inline)]
                budgets[(kind, graph)] = spread_budgets(shape, count, low, high)
            request.update(algorithm=kind, budget=budgets[(kind, graph)][rank])
        else:
            request.update(
                algorithm=kind,
                budget=3,
                params={"repetitions": SERVE_MIX_REPETITIONS, "seed": rng.randrange(2**31)},
            )
        return request

    flat = [slot for slots in block_slots for slot in slots]
    uniques = _assign(flat, make)
    per_block = len(block_slots[0])
    stream: List[Request] = []
    for k in range(blocks):
        mine = uniques[k * per_block : (k + 1) * per_block][::-1]
        for position in range(BLOCK):
            if position in REPEAT_POSITIONS:
                eligible = [
                    r for r in stream[: len(stream) - REPEAT_DISTANCE + 1]
                    if r["class"] != "repeat"
                ]
                standins = [r for r in eligible if "dataset" in r] or eligible
                graph = shape.choice(sorted({r["graph"] for r in standins}))
                repeat = dict(rng.choice([r for r in eligible if r["graph"] == graph]))
                repeat["class"] = "repeat"
                stream.append(repeat)
            else:
                stream.append(mine.pop())
    return _finish(stream, f"sm{seed}")


def warmup_requests(stream: Sequence[Request]) -> List[Request]:
    """One GAS b=1 solve per graph in ``stream`` (never a stream request)."""
    seen: Dict[str, Request] = {}
    for request in stream:
        source = "dataset" if "dataset" in request else "edges"
        key = request_key({source: request[source]})
        if key not in seen:
            seen[key] = {
                "id": f"warmup-{len(seen)}",
                source: request[source],
                "algorithm": "gas",
                "budget": 1,
            }
    return list(seen.values())


def _finish(stream: List[Request], prefix: str) -> List[Request]:
    for index, request in enumerate(stream):
        request["id"] = f"{prefix}-{index}"
    return stream
