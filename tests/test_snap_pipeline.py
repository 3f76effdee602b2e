"""Tests for the on-disk SNAP dataset pipeline (loading, caching, registry)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    dataset_names,
    graph_fingerprint,
    load_dataset,
    load_snap,
    load_snap_report,
    materialize_dataset,
    register_snap_dataset,
    snap_cache_path,
)
from repro.datasets import registry as registry_module
from repro.datasets import snap as snap_module
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.utils.errors import InvalidParameterError, ReproError


@pytest.fixture
def snap_file(tmp_path):
    """A small SNAP-style edge list with the format's usual warts."""
    path = tmp_path / "toy.txt"
    path.write_text(
        "# a comment\n"
        "0 1\n"
        "1 0\n"  # directed duplicate
        "1 2\n"
        "2 2\n"  # self loop
        "0 2\n"
        "2 3\n"
    )
    return path


@pytest.fixture
def scratch_registry():
    """Roll back any dataset registrations made by a test."""
    names_before = set(DATASETS)
    yield
    for name in set(DATASETS) - names_before:
        spec = DATASETS.pop(name)
        registry_module._SPECS.remove(spec)
    load_dataset.cache_clear()


class TestLoadSnap:
    def test_matches_plain_edge_list_parse(self, snap_file):
        assert load_snap(snap_file) == read_edge_list(snap_file)

    def test_first_load_writes_cache_second_hits(self, snap_file):
        graph1, report1 = load_snap_report(snap_file)
        assert report1["cache"] == "rebuilt"
        assert snap_cache_path(snap_file).exists()
        graph2, report2 = load_snap_report(snap_file)
        assert report2["cache"] == "hit"
        assert graph1 == graph2
        assert graph_fingerprint(graph1) == graph_fingerprint(graph2)

    def test_cache_hit_does_not_reparse(self, snap_file, monkeypatch):
        load_snap(snap_file)  # warm the cache

        def _explode(*_args, **_kwargs):  # pragma: no cover - would be a bug
            raise AssertionError("cache hit must not re-read the text file")

        monkeypatch.setattr(snap_module, "read_edge_list", _explode)
        assert load_snap(snap_file).num_edges == 4

    def test_cache_invalidated_when_source_changes(self, snap_file):
        load_snap(snap_file)
        with open(snap_file, "a") as handle:
            handle.write("3 4\n")
        graph, report = load_snap_report(snap_file)
        assert report["cache"] == "rebuilt"
        assert graph.has_edge(3, 4)

    def test_use_cache_false_never_touches_disk_cache(self, snap_file):
        graph, report = load_snap_report(snap_file, use_cache=False)
        assert report["cache"] == "disabled"
        assert not snap_cache_path(snap_file).exists()
        assert graph == read_edge_list(snap_file)

    def test_cache_dir_redirects_the_npz(self, snap_file, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        load_snap(snap_file, cache_dir=cache_dir)
        assert snap_cache_path(snap_file, cache_dir).exists()
        assert not snap_cache_path(snap_file).exists()

    def test_non_integer_labels_fall_back_uncached(self, tmp_path):
        path = tmp_path / "named.txt"
        path.write_text("alice bob\nbob carol\nalice carol\n")
        graph, report = load_snap_report(path)
        assert report["cache"] == "uncacheable"
        assert graph.num_edges == 3
        assert not snap_cache_path(path).exists()

    def test_cache_without_csr_arrays_reports_absent(self, snap_file):
        """An edges-only cache file (written by an older build) still loads
        its edges, and its missing CSR payload is rejected, not attached."""
        load_snap(snap_file)
        cache = snap_cache_path(snap_file)
        with np.load(cache) as payload:
            edges_only = {"edges": payload["edges"], "meta": payload["meta"]}
        with open(cache, "wb") as handle:
            np.savez(handle, **edges_only)
        graph, report = load_snap_report(snap_file)
        assert report["cache"] == "hit"
        assert report["csr"] == "absent"
        assert graph == read_edge_list(snap_file)

    def test_corrupt_cache_falls_back_to_parse(self, snap_file):
        load_snap(snap_file)
        snap_cache_path(snap_file).write_bytes(b"not an npz file")
        graph, report = load_snap_report(snap_file)
        assert report["cache"] == "rebuilt"
        assert graph.num_edges == 4

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError):
            load_snap(tmp_path / "nope.txt")


class TestGraphFingerprint:
    def test_stable_across_identical_builds(self):
        a = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        b = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_sensitive_to_structure(self):
        a = Graph.from_edges([(1, 2), (2, 3)])
        b = Graph.from_edges([(1, 2), (2, 4)])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_sensitive_to_extra_edge(self):
        a = Graph.from_edges([(1, 2), (2, 3)])
        b = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_roundtrip_through_disk_preserves_fingerprint(self, tmp_path):
        path = materialize_dataset("college", tmp_path)
        assert graph_fingerprint(load_snap(path)) == graph_fingerprint(
            load_dataset("college")
        )


class TestRegistryIntegration:
    def test_register_snap_dataset_is_loadable_by_name(
        self, snap_file, scratch_registry
    ):
        spec = register_snap_dataset("toy-disk", snap_file, size_class="small")
        assert spec.name in DATASETS
        assert "toy-disk" in dataset_names()
        assert load_dataset("toy-disk") == read_edge_list(snap_file)

    def test_duplicate_registration_rejected(self, snap_file, scratch_registry):
        register_snap_dataset("toy-disk", snap_file, size_class="small")
        with pytest.raises(InvalidParameterError):
            register_snap_dataset("toy-disk", snap_file, size_class="small")

    def test_replace_clears_the_memoised_graph(
        self, snap_file, tmp_path, scratch_registry
    ):
        register_snap_dataset("toy-disk", snap_file, size_class="small")
        first = load_dataset("toy-disk")
        other = tmp_path / "other.txt"
        write_edge_list(Graph.from_edges([(7, 8), (8, 9), (7, 9)]), other)
        register_snap_dataset("toy-disk", other, size_class="small", replace=True)
        assert load_dataset("toy-disk") != first

    def test_builtin_name_protected(self, snap_file, scratch_registry):
        with pytest.raises(InvalidParameterError):
            register_snap_dataset("college", snap_file, size_class="small")

    def test_materialize_roundtrip(self, tmp_path, scratch_registry):
        path = materialize_dataset("college", tmp_path)
        register_snap_dataset("college-disk", path, size_class="small")
        assert load_dataset("college-disk") == load_dataset("college")
