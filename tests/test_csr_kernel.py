"""The array-native kernel: CSR structure and the generator-sweep
equivalence suite.

The vectorised wave peel (:func:`repro.truss.peel.peel_trussness_arrays`)
must produce the *byte-identical* ``(trussness, layer, k_max)`` triple of
the from-scratch oracle (:func:`repro.oracles.truss_decomposition_reference`),
mapped to dense edge ids.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import dataset_names, load_dataset
from repro.graph.csr import (
    CSR_FORMAT_VERSION,
    build_csr_arrays,
    csr_from_payload,
    csr_payload,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    community_graph,
    complete_graph,
    powerlaw_cluster_graph,
    watts_strogatz_graph,
)
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex
from repro.graph.triangles import neighbor_edges, triangles_of_graph
from repro.oracles import dense_peel_reference, truss_decomposition_reference
from repro.truss.decomposition import truss_decomposition
from repro.truss.peel import peel_trussness_arrays

from tests.conftest import anchor_eid_sets as anchor_sets
from tests.conftest import world_sweep_graphs as sweep_graphs


SRC = Path(__file__).resolve().parent.parent / "src"


def stable_seed(name: str) -> int:
    return zlib.crc32(name.encode("utf-8")) & 0xFFFF


class TestCSRStructure:
    def test_support_matches_scalar_kernel(self):
        for name, graph in sweep_graphs():
            index = GraphIndex(graph)
            csr = index.csr
            assert csr is not None
            assert csr.support.tolist() == index.support, name
            assert csr.num_edges == graph.num_edges
            assert csr.num_vertices == graph.num_vertices

    def test_hit_table_is_edge_triangles(self):
        for name, graph in sweep_graphs():
            index = GraphIndex(graph)
            csr = index.csr
            for eid in range(csr.num_edges):
                rows = {
                    (int(csr.hit_e1[row]), int(csr.hit_e2[row]))
                    for row in range(csr.hit_offsets[eid], csr.hit_offsets[eid + 1])
                }
                expected = {
                    tuple(sorted((e1, e2)))
                    for e1, e2 in index.edge_triangles[eid]
                }
                assert {tuple(sorted(pair)) for pair in rows} == expected, (name, eid)

    def test_triangle_count_triples_in_hit_table(self):
        for name, graph in sweep_graphs():
            csr = GraphIndex(graph).csr
            assert len(csr.hit_e1) == 3 * csr.num_triangles, name
            assert int(csr.support.sum()) == len(csr.hit_e1), name

    def test_hit_bases_matches_offsets(self):
        csr = GraphIndex(powerlaw_cluster_graph(60, 3, 0.5, seed=9)).csr
        bases = csr.hit_bases()
        for eid in range(csr.num_edges):
            lo, hi = int(csr.hit_offsets[eid]), int(csr.hit_offsets[eid + 1])
            assert (bases[lo:hi] == eid).all()

    def test_adjacency_slots_sorted_and_labelled(self):
        graph = community_graph([20, 20], 0.4, 0.05, seed=2)
        index = GraphIndex(graph)
        csr = index.csr
        for vid in range(csr.num_vertices):
            lo, hi = int(csr.indptr[vid]), int(csr.indptr[vid + 1])
            neigh = csr.indices[lo:hi]
            assert (np.diff(neigh) > 0).all()  # strictly sorted, no duplicates
            for slot in range(lo, hi):
                eid = int(csr.slot_eids[slot])
                u, v = int(csr.endpoints[eid][0]), int(csr.endpoints[eid][1])
                assert {u, v} == {vid, int(csr.indices[slot])}

    def test_payload_roundtrip(self):
        for name, graph in sweep_graphs():
            csr = GraphIndex(graph).csr
            restored = csr_from_payload(csr_payload(csr))
            assert restored is not None, name
            assert restored.num_edges == csr.num_edges
            assert restored.num_vertices == csr.num_vertices
            for field in ("endpoints", "indptr", "indices", "slot_eids",
                          "support", "hit_offsets", "hit_e1", "hit_e2", "hit_apex"):
                assert np.array_equal(getattr(restored, field), getattr(csr, field)), (
                    name, field,
                )

    def test_payload_version_gate(self):
        csr = GraphIndex(barabasi_albert_graph(40, 2, seed=0)).csr
        payload = csr_payload(csr)
        assert int(payload["csr_version"][0]) == CSR_FORMAT_VERSION
        bad = dict(payload)
        bad["csr_version"] = np.array([CSR_FORMAT_VERSION + 1, csr.num_vertices, csr.num_edges])
        assert csr_from_payload(bad) is None
        assert csr_from_payload({}) is None

    def test_from_csr_attaches_cached_index(self):
        graph = watts_strogatz_graph(60, 4, 0.1, seed=5)
        csr = GraphIndex(graph).csr
        restored = csr_from_payload(csr_payload(csr))
        index = GraphIndex.from_csr(graph, restored)
        assert graph._index is index
        assert GraphIndex.of(graph) is index
        assert truss_decomposition(graph) == truss_decomposition_reference(graph)

    def test_build_rejects_nothing_on_triangle_free_graphs(self):
        path = Graph()
        for i in range(10):
            path.add_edge(i, i + 1)
        csr = GraphIndex(path).csr
        assert csr.num_triangles == 0
        assert csr.support.tolist() == [0] * path.num_edges
        assert peel_trussness_arrays(csr) == dense_peel_reference(path)


#: sha256 of each stand-in's ``csr_payload`` arrays (see
#: :func:`payload_sha256`), recorded from the previous enumeration, which
#: probed every edge's smaller-degree endpoint.  The degree-oriented pass
#: must reproduce the whole payload byte for byte.
PINNED_PAYLOAD_SHA256 = {
    "college": "c6117392b67a5e1ff7f5a47b9200fd162c4bde14ece98be832a43d9b5ab1235b",
    "facebook": "d240e5a9bb5882eb6bc7fa9304caeeb21b23be079ea49773e20b4b0c22b68fce",
    "brightkite": "b3aa9d106a1d35e73e3332f0cb47ceb68626be01d09f763bdfc34d53b8bc0a55",
    "gowalla": "1871b0f821a87aab9d6bd890770e1e94d6e8fc2713fbb1beeffde397bb9e2a1f",
    "youtube": "24c7320c6ac28ab2134b0175cbd65e415534a4d905da937718a55ffb77d96d02",
    "google": "dba01a3d09c353064d856a941493269d5f84cc7fa94328e7fdbb2c8d636c9f9b",
    "patents": "0f8f7ad3aa7b788f66bea245b4c173a27d4695646a8ea6cfbbd21c488aeeab48",
    "pokec": "c78e9dca71747352c19102f44cc03e650276e33ce6c1c94661eeacb35e179078",
}


def payload_sha256(csr) -> str:
    """One digest over every payload array: name, shape and int64 bytes."""
    digest = hashlib.sha256()
    for name, array in sorted(csr_payload(csr).items()):
        array = np.ascontiguousarray(array, dtype=np.int64)
        digest.update(name.encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def oracle_hit_rows(graph: Graph, index: GraphIndex):
    """The hit table's row convention, rebuilt from the tuple-domain oracle.

    Per base edge, one ``(e1, e2, apex_vid)`` row per triangle in ascending
    apex vid; ``e1`` runs through the base's smaller-degree endpoint, and
    on a degree tie through endpoint 0 (the canonical tuple's first
    vertex).
    """
    vid_of, eid_of = index.vid_of, index.eid_of
    rows = []
    for edge in index.edge_of:
        u, v = edge
        swap = graph.degree(v) < graph.degree(u)
        found = []
        for uw, vw, w in neighbor_edges(graph, edge):
            e1, e2 = (vw, uw) if swap else (uw, vw)
            found.append((vid_of[w], eid_of[e1], eid_of[e2]))
        rows.append([(e1, e2, apex) for apex, e1, e2 in sorted(found)])
    return rows


def _wheel_in_reverse_vid_order() -> Graph:
    """Vertex labels inserted in descending order, so every canonical edge's
    endpoint 0 has the larger vid, and the hub (label 0) has the largest
    vid and degree; the rim's degrees tie."""
    graph = Graph()
    for u in range(9, -1, -1):
        graph.add_vertex(u)
    for u in range(1, 10):
        graph.add_edge(0, u)
        graph.add_edge(u, u % 9 + 1)
    graph.add_edge(2, 5)
    return graph


def _with_isolated_vertices() -> Graph:
    graph = Graph()
    for u in (100, 101, 102):
        graph.add_vertex(u)
    for u, v in complete_graph(5).edges():
        graph.add_edge(u, v)
    graph.add_vertex(103)
    graph.add_edge(3, 50)
    return graph


def _vertices_only() -> Graph:
    graph = Graph()
    for u in range(4):
        graph.add_vertex(u)
    return graph


def _triangle_free() -> Graph:
    graph = Graph()
    for u in range(8):
        graph.add_edge(u, (u + 1) % 8)  # an even cycle
    for leaf in range(10, 14):
        graph.add_edge(0, leaf)  # a star on it
    return graph


CONVENTION_GRAPHS = [
    ("complete-7", lambda: complete_graph(7)),
    ("ring-lattice", lambda: watts_strogatz_graph(12, 4, 0.0, seed=0)),
    ("reverse-vid-wheel", _wheel_in_reverse_vid_order),
    ("isolated-vertices", _with_isolated_vertices),
    ("vertices-only", _vertices_only),
    ("empty", Graph),
    ("triangle-free", _triangle_free),
]


class TestHitTableConvention:
    def test_stand_in_payloads_are_pinned(self):
        assert sorted(dataset_names()) == sorted(PINNED_PAYLOAD_SHA256)
        for name in dataset_names():
            csr = GraphIndex(load_dataset(name)).csr
            assert payload_sha256(csr) == PINNED_PAYLOAD_SHA256[name], name

    @pytest.mark.parametrize(
        "build", [build for _name, build in CONVENTION_GRAPHS],
        ids=[name for name, _build in CONVENTION_GRAPHS],
    )
    def test_rows_follow_the_oracle(self, build):
        graph = build()
        index = GraphIndex(graph)
        csr = index.csr
        expected = oracle_hit_rows(graph, index)
        assert csr.num_edges == graph.num_edges
        assert csr.support.tolist() == [len(rows) for rows in expected]
        for eid, rows in enumerate(expected):
            lo, hi = int(csr.hit_offsets[eid]), int(csr.hit_offsets[eid + 1])
            actual = list(
                zip(
                    csr.hit_e1[lo:hi].tolist(),
                    csr.hit_e2[lo:hi].tolist(),
                    csr.hit_apex[lo:hi].tolist(),
                )
            )
            assert actual == rows, eid
            assert index.edge_triangles[eid] == tuple((e1, e2) for e1, e2, _w in rows)
        eid_of = index.eid_of
        assert sorted(tuple(sorted(t)) for t in index.triangles) == sorted(
            tuple(sorted((eid_of[(u, v)], eid_of[(u, w)], eid_of[(v, w)])))
            for u, v, w in triangles_of_graph(graph)
        )

    def test_views_share_one_int_per_edge_id(self):
        index = GraphIndex(community_graph([30, 30], 0.6, 0.05, seed=4))
        seen = {}
        for pairs in index.edge_triangles:
            for pair in pairs:
                for eid in pair:
                    assert seen.setdefault(eid, eid) is eid
        for triple in index.triangles:
            for eid in triple:
                assert seen.setdefault(eid, eid) is eid
        assert max(seen) > 256  # past CPython's small-int cache


#: Run in a fresh interpreter, so nothing an earlier build allocated (in
#: this process or a test before) hides what this one keeps: the endpoint
#: array comes from the graph directly, not from a GraphIndex.
_BUILD_MEMORY_PROBE = """
import json, tracemalloc
import numpy as np
from repro.datasets import load_dataset
from repro.graph.csr import build_csr_arrays

graph = load_dataset("pokec")
vid_of = {u: i for i, u in enumerate(graph.vertices())}
endpoints = np.array(
    [(vid_of[u], vid_of[v]) for u, v in graph.edge_list()], dtype=np.int64
)
tracemalloc.start()
csr = build_csr_arrays(endpoints, graph.num_vertices)
retained, peak = tracemalloc.get_traced_memory()
tracemalloc.stop()
fields = ("indptr", "indices", "slot_eids", "support", "hit_offsets",
          "hit_e1", "hit_e2", "hit_apex")
print(json.dumps({
    "retained": retained,
    "peak": peak,
    "arrays": sum(getattr(csr, field).nbytes for field in fields),
    "endpoints_shared": csr.endpoints is endpoints,
}))
"""


class TestBuildMemory:
    def test_pokec_build_keeps_only_its_arrays(self):
        """No per-vertex-pair table: after the build, traced memory is the
        returned arrays (the endpoint input is kept as is), and the peak
        stays a few times that."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        completed = subprocess.run(
            [sys.executable, "-c", _BUILD_MEMORY_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        assert probe["endpoints_shared"]
        assert abs(probe["retained"] - probe["arrays"]) <= 64 * 1024, probe
        assert probe["peak"] <= 16 * 1024 * 1024, probe


class TestEquivalenceSweep:
    def test_vectorised_peel_matches_scalar(self):
        for name, graph in sweep_graphs():
            index = GraphIndex(graph)
            m = index.num_edges
            for i, anchors in enumerate(anchor_sets(m, seed=stable_seed(name))):
                expected = dense_peel_reference(graph, anchors)
                assert peel_trussness_arrays(index.csr, anchors) == expected, (
                    name, i,
                )

    def test_full_decomposition_object_equality(self):
        for name, graph in sweep_graphs():
            assert truss_decomposition(graph) == truss_decomposition_reference(
                graph
            ), name

    def test_anchored_decomposition_object_equality(self):
        rng = random.Random(11)
        for name, graph in sweep_graphs():
            edges = graph.edge_list()
            if not edges:
                continue
            anchors = rng.sample(edges, min(4, len(edges)))
            assert truss_decomposition(graph, anchors) == truss_decomposition_reference(
                graph, anchors
            ), name
