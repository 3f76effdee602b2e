"""The array-native kernel: CSR structure and the generator-sweep
equivalence suite.

The vectorised wave peel (:func:`repro.truss.peel.peel_trussness_arrays`)
must produce the *byte-identical* ``(trussness, layer, k_max)`` triple of
the from-scratch oracle (:func:`repro.oracles.truss_decomposition_reference`),
mapped to dense edge ids.
"""

from __future__ import annotations

import random
import zlib

import numpy as np

from repro.graph.csr import (
    CSR_FORMAT_VERSION,
    csr_from_payload,
    csr_payload,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    community_graph,
    powerlaw_cluster_graph,
    watts_strogatz_graph,
)
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex
from repro.oracles import dense_peel_reference, truss_decomposition_reference
from repro.truss.decomposition import truss_decomposition
from repro.truss.peel import peel_trussness_arrays

from tests.conftest import anchor_eid_sets as anchor_sets
from tests.conftest import world_sweep_graphs as sweep_graphs


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
                    for e1, e2, _ in index.edge_triangles[eid]
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
