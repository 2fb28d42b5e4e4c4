"""Property tests for the warm pool's guided chunk cutting."""

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.runner.pool import _MAX_CHUNK_JOBS, _ChunkDispatcher


class TestGuidedChunks:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 3000), n_workers=st.integers(1, 8),
           requeue_after=st.integers(0, 40), requeue_count=st.integers(0, 3))
    def test_chunks_cover_in_order_and_shrink(self, n, n_workers,
                                              requeue_after, requeue_count):
        registry = obs.MetricsRegistry()
        dispatcher = _ChunkDispatcher([f"spec{i}" for i in range(n)],
                                      list(range(n)), n_workers, registry)
        bound = min(_MAX_CHUNK_JOBS, -(-n // (2 * n_workers)))
        cut = []
        while (chunk := dispatcher.next_chunk()) is not None:
            assert chunk.chunk_id == len(cut)
            assert all(spec == f"spec{i}" for i, spec in chunk.items)
            cut.append(chunk)
            if len(cut) == requeue_after + 1 and requeue_count:
                # A requeued chunk comes back unchanged, in requeue
                # order, before any new chunk is cut.
                lost = cut[-requeue_count:]
                dispatcher.requeue(lost)
                assert dispatcher.outstanding() >= sum(map(len, lost))
                assert [dispatcher.next_chunk() for _ in lost] == lost

        sizes = [len(chunk) for chunk in cut]
        assert [i for chunk in cut for i, _spec in chunk.items] \
            == list(range(n))
        assert sizes == sorted(sizes, reverse=True)
        assert all(1 <= size <= bound for size in sizes)
        assert registry.counter("runner.chunks").value == len(cut)
        assert registry.gauge("runner.chunk_size").value == \
            (sizes[0] if sizes else 0)
        assert not dispatcher.has_pending()
