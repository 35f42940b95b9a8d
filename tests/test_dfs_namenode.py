"""Unit tests for the NameNode metadata service."""

import pytest

from repro.dfs.chunk import ChunkId, Dataset, make_file, uniform_dataset
from repro.dfs.namenode import NameNode


def _register_simple(nn: NameNode):
    meta = make_file("f", 250, chunk_size=100)  # 3 chunks: 100, 100, 50
    locations = {
        ChunkId("f", 0): (0, 1),
        ChunkId("f", 1): (1, 2),
        ChunkId("f", 2): (0, 2),
    }
    nn.register_file(meta, locations)
    return meta, locations


class TestNamespace:
    def test_register_and_stat(self):
        nn = NameNode()
        meta, _ = _register_simple(nn)
        assert nn.exists("f")
        assert nn.stat("f") is meta
        assert nn.list_files() == ["f"]

    def test_stat_missing(self):
        with pytest.raises(FileNotFoundError):
            NameNode().stat("nope")

    def test_duplicate_file_rejected(self):
        nn = NameNode()
        _register_simple(nn)
        with pytest.raises(ValueError):
            _register_simple(nn)

    def test_missing_locations_rejected(self):
        nn = NameNode()
        meta = make_file("g", 250, chunk_size=100)
        with pytest.raises(ValueError, match="missing locations"):
            nn.register_file(meta, {ChunkId("g", 0): (0,)})

    def test_empty_replica_list_rejected(self):
        nn = NameNode()
        meta = make_file("g", 90, chunk_size=100)
        with pytest.raises(ValueError, match="no replicas"):
            nn.register_file(meta, {ChunkId("g", 0): ()})

    def test_duplicate_replica_nodes_rejected(self):
        nn = NameNode()
        meta = make_file("g", 90, chunk_size=100)
        with pytest.raises(ValueError, match="duplicate"):
            nn.register_file(meta, {ChunkId("g", 0): (1, 1)})


class TestBlockLocations:
    def test_get_block_locations_in_order(self):
        nn = NameNode()
        meta, locations = _register_simple(nn)
        got = nn.get_block_locations("f")
        assert [c.id for c, _ in got] == [c.id for c in meta.chunks]
        assert all(nodes == locations[c.id] for c, nodes in got)

    def test_locations_of(self):
        nn = NameNode()
        _register_simple(nn)
        assert nn.locations_of(ChunkId("f", 1)) == (1, 2)
        with pytest.raises(KeyError):
            nn.locations_of(ChunkId("x", 0))

    def test_chunk_lookup(self):
        nn = NameNode()
        _register_simple(nn)
        assert nn.chunk(ChunkId("f", 2)).size == 50
        with pytest.raises(KeyError):
            nn.chunk(ChunkId("f", 7))

    def test_layout_snapshot_is_copy(self):
        nn = NameNode()
        _register_simple(nn)
        snap = nn.layout_snapshot()
        snap[ChunkId("f", 0)] = (9,)
        assert nn.locations_of(ChunkId("f", 0)) == (0, 1)


class TestDatasets:
    def test_register_dataset(self):
        nn = NameNode()
        ds = uniform_dataset("d", 3, chunk_size=100)
        layout = {c.id: (0,) for c in ds.iter_chunks()}
        nn.register_dataset(ds, layout)
        assert nn.list_datasets() == ["d"]
        assert nn.dataset("d") is ds
        assert len(nn.list_files()) == 3

    def test_duplicate_dataset_rejected(self):
        nn = NameNode()
        ds = uniform_dataset("d", 1, chunk_size=100)
        layout = {c.id: (0,) for c in ds.iter_chunks()}
        nn.register_dataset(ds, layout)
        ds2 = Dataset("d")
        with pytest.raises(ValueError):
            nn.register_dataset(ds2, {})

    def test_rejected_dataset_registers_no_file(self):
        nn = NameNode()
        _register_simple(nn)
        token = nn.layout_token
        clash = Dataset("d", [make_file("g", 100, chunk_size=100), make_file("f", 100)])
        with pytest.raises(ValueError, match="'f' already exists"):
            nn.register_dataset(clash, {ChunkId("g", 0): (0,), ChunkId("f", 0): (1,)})
        twice = Dataset("d", [make_file("g", 100), make_file("g", 100)])
        with pytest.raises(ValueError, match="duplicate file name 'g'"):
            nn.register_dataset(twice, {ChunkId("g", 0): (0,)})
        unplaced = Dataset("d", [make_file("g", 100), make_file("h", 100)])
        with pytest.raises(ValueError, match="missing locations"):
            nn.register_dataset(unplaced, {ChunkId("g", 0): (0,)})
        assert nn.list_files() == ["f"]
        assert nn.list_datasets() == []
        assert nn.layout_token == token

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            NameNode().dataset("nope")


class TestMaintenance:
    def test_drop_node_replicas(self):
        nn = NameNode()
        _register_simple(nn)
        touched = nn.drop_node_replicas(0)
        assert set(touched) == {ChunkId("f", 0), ChunkId("f", 2)}
        assert nn.locations_of(ChunkId("f", 0)) == (1,)
        assert nn.locations_of(ChunkId("f", 1)) == (1, 2)

    def test_add_replica(self):
        nn = NameNode()
        _register_simple(nn)
        nn.add_replica(ChunkId("f", 0), 5)
        assert nn.locations_of(ChunkId("f", 0)) == (0, 1, 5)

    def test_add_existing_replica_rejected(self):
        nn = NameNode()
        _register_simple(nn)
        with pytest.raises(ValueError):
            nn.add_replica(ChunkId("f", 0), 1)


class TestLayoutToken:
    """The incremental token always equals the from-scratch definition."""

    def _check(self, nn: NameNode) -> None:
        from repro.dfs.snapshot import layout_token

        assert nn.layout_token == layout_token(nn.layout_snapshot())

    def test_empty_and_after_register(self):
        nn = NameNode()
        self._check(nn)
        _register_simple(nn)
        self._check(nn)

    def test_tracks_every_mutator(self):
        nn = NameNode()
        _register_simple(nn)
        nn.add_replica(ChunkId("f", 0), 5)
        self._check(nn)
        nn.remove_replica(ChunkId("f", 0), 5)
        self._check(nn)
        nn.drop_node_replicas(1)
        self._check(nn)

    def test_changes_on_replica_move(self):
        nn = NameNode()
        _register_simple(nn)
        before = nn.layout_token
        nn.add_replica(ChunkId("f", 0), 7)
        assert nn.layout_token != before
        nn.remove_replica(ChunkId("f", 0), 7)
        assert nn.layout_token == before
