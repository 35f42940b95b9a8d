"""Tests for the simulated MPI communicator."""

import pytest

from repro.core import ProcessPlacement
from repro.parallel.comm import SimComm


@pytest.fixture
def comm():
    return SimComm(ProcessPlacement.one_per_node(4))


class TestBasics:
    def test_size_and_nodes(self, comm):
        assert comm.size == 4
        assert comm.node_of(2) == 2

    def test_send_recv(self, comm):
        comm.send({"x": 1}, dest=1, source=0, tag=7)
        assert comm.recv(rank=1, source=0, tag=7) == {"x": 1}

    def test_recv_any_source_any_tag(self, comm):
        comm.send("a", dest=2, source=3, tag=5)
        assert comm.recv(rank=2) == "a"

    def test_recv_filters_by_source(self, comm):
        comm.send("from0", dest=2, source=0)
        comm.send("from1", dest=2, source=1)
        assert comm.recv(rank=2, source=1) == "from1"
        assert comm.recv(rank=2, source=0) == "from0"

    def test_recv_filters_by_tag(self, comm):
        comm.send("t1", dest=1, source=0, tag=1)
        comm.send("t2", dest=1, source=0, tag=2)
        assert comm.recv(rank=1, tag=2) == "t2"

    def test_fifo_within_match(self, comm):
        comm.send("first", dest=1, source=0)
        comm.send("second", dest=1, source=0)
        assert comm.recv(rank=1) == "first"
        assert comm.recv(rank=1) == "second"

    def test_recv_empty_raises(self, comm):
        with pytest.raises(LookupError):
            comm.recv(rank=0)

    def test_probe_and_pending(self, comm):
        assert not comm.probe(rank=1)
        comm.send("x", dest=1, source=0, tag=3)
        assert comm.probe(rank=1)
        assert comm.probe(rank=1, tag=3)
        assert not comm.probe(rank=1, tag=4)
        assert comm.pending(1) == 1

    def test_invalid_ranks(self, comm):
        with pytest.raises(ValueError):
            comm.send("x", dest=9, source=0)
        with pytest.raises(ValueError):
            comm.recv(rank=9)


class TestCollectives:
    def test_bcast(self, comm):
        comm.bcast("hello", root=1)
        for rank in (0, 2, 3):
            assert comm.recv(rank=rank, source=1) == "hello"
        assert not comm.probe(rank=1)

    def test_barrier_counts(self, comm):
        assert not comm.barrier_arrive(0)
        assert not comm.barrier_arrive(1)
        assert not comm.barrier_arrive(2)
        assert comm.barrier_arrive(3)
        assert comm.barriers_completed == 1

    def test_barrier_reusable(self, comm):
        for _ in range(2):
            for r in range(3):
                assert not comm.barrier_arrive(r)
            assert comm.barrier_arrive(3)
        assert comm.barriers_completed == 2
