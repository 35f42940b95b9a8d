"""Tests for the DL-MPI-style locality query API."""

import pytest

from repro.dfs.chunk import ChunkId
from repro.parallel.dlmpi import DataLocalityQuery


@pytest.fixture
def query(fs8, placement8):
    return DataLocalityQuery(fs8, placement8)


class TestQueries:
    def test_is_local_matches_layout(self, query, fs8):
        layout = fs8.layout_snapshot()
        for cid, nodes in layout.items():
            for node in range(8):
                assert query.is_local(node, cid) == (node in nodes)

    def test_local_chunks_complete(self, query, fs8):
        layout = fs8.layout_snapshot()
        for rank in range(8):
            expected = sorted(
                (cid for cid, nodes in layout.items() if rank in nodes), key=str
            )
            assert query.local_chunks(rank) == expected

    def test_local_bytes(self, query, fs8):
        for rank in range(8):
            assert query.local_bytes(rank) == fs8.datanodes[rank].stored_bytes

    def test_split_partitions(self, query, fs8):
        chunks = list(fs8.layout_snapshot())
        split = query.split(0, chunks)
        assert set(split.local) | set(split.remote) == set(chunks)
        assert not set(split.local) & set(split.remote)
        assert 0 <= split.locality_ratio <= 1

    def test_locality_map_covers_all_ranks(self, query, fs8):
        chunks = list(fs8.layout_snapshot())[:10]
        m = query.locality_map(chunks)
        assert set(m) == set(range(8))

    def test_best_rank_for(self, query, fs8):
        layout = fs8.layout_snapshot()
        cid = next(iter(layout))
        assert query.best_rank_for(cid) == sorted(layout[cid])

    def test_expected_locality_ratio(self, query, fs8):
        """With r=3 on 8 nodes, a rank sees ~3/8 of chunks locally."""
        chunks = list(fs8.layout_snapshot())
        ratios = [query.split(r, chunks).locality_ratio for r in range(8)]
        assert abs(sum(ratios) / 8 - 3 / 8) < 0.12

    def test_refresh_after_change(self, query, fs8):
        cid = ChunkId("data/part-00000", 0)
        nodes = fs8.layout_snapshot()[cid]
        outsider = next(n for n in range(8) if n not in nodes)
        fs8.datanodes[outsider].add_replica(cid, 16 * 10**6)
        assert not query.is_local(outsider, cid)  # stale view
        query.refresh()
        assert query.is_local(outsider, cid)

    def test_empty_split(self, query):
        split = query.split(0, [])
        assert split.locality_ratio == 1.0
