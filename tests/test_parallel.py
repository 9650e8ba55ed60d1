"""Properties of the two partitioning rules in :mod:`repro.parallel`.

:func:`map_chunks` cuts a work list into fixed-size chunks that are the
same at every worker count, and :func:`iter_equal_length_groups` cuts a
trace stream into the lock-step batches every batched path stacks.
Every parity contract in the suite rests on both tilings being
deterministic, disjoint and covering, so they are checked here on
arbitrary inputs, and the forked pool is checked to run exactly the
chunks the in-process path runs.
"""

import os
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel as parallel
from repro.parallel import iter_equal_length_groups, map_chunks

sizes = st.integers(min_value=0, max_value=500)
chunk_sizes = st.integers(min_value=1, max_value=64)


def chunks(n, size, workers=1):
    """The chunks :func:`map_chunks` cuts ``range(n)`` into."""
    return list(map_chunks(list, range(n), size, workers))


class TestChunkTiling:
    @given(sizes, chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_disjoint_and_covering(self, n, size):
        assert [i for chunk in chunks(n, size) for i in chunk] \
            == list(range(n))

    @given(sizes, chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_deterministic(self, n, size):
        assert chunks(n, size) == chunks(n, size)

    @given(sizes, chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_fixed_size(self, n, size):
        """Only the last chunk may be shorter: the boundaries depend on
        the chunk size alone."""
        lengths = [len(chunk) for chunk in chunks(n, size)]
        assert all(length == size for length in lengths[:-1])
        assert not lengths or 1 <= lengths[-1] <= size

    @given(sizes, chunk_sizes)
    @settings(max_examples=200, deadline=None)
    def test_ordered_and_nonempty(self, n, size):
        result = chunks(n, size)
        assert len(result) == -(-n // size)
        assert [chunk[0] for chunk in result] == list(range(0, n, size))

    @given(sizes, chunk_sizes)
    @settings(max_examples=100, deadline=None)
    def test_any_iterable_gives_the_same_chunks(self, n, size):
        expected = chunks(n, size)
        assert list(map_chunks(list, list(range(n)), size)) == expected
        assert list(map_chunks(list, (i for i in range(n)), size)) \
            == expected

    def test_invalid_chunk_size(self):
        for size in (0, -3):
            with pytest.raises(ValueError, match="chunk size"):
                next(map_chunks(list, range(5), size))


#: (items, chunk size, workers): an uneven last chunk, one item a chunk,
#: more workers than chunks, more chunks than the in-flight window, one
#: chunk (run in-process) and no items at all
POOL_CASES = [(7, 2, 2), (9, 1, 4), (10, 4, 3), (40, 3, 2), (5, 5, 3),
              (0, 3, 2)]


class TestPool:
    @pytest.mark.parametrize(
        "n, size, workers", POOL_CASES,
        ids=[f"n{n}-size{size}-workers{w}" for n, size, w in POOL_CASES])
    def test_same_chunks_at_every_worker_count(self, n, size, workers):
        assert chunks(n, size, workers) == chunks(n, size)

    def test_chunk_error_reaches_the_caller(self):
        """A chunk that raises in a forked worker raises the same
        exception in the caller, after the results of the chunks before
        it, in order."""
        def fail_on_third(chunk):
            if chunk[0] == 6:
                raise ValueError(f"bad chunk {chunk}")
            return chunk

        got = []
        with pytest.raises(ValueError, match=r"bad chunk \[6, 7, 8\]"):
            for result in map_chunks(fail_on_third, range(12), 3, workers=2):
                got.append(result)
        assert got == [[0, 1, 2], [3, 4, 5]]

    def test_unpicklable_state_is_inherited(self):
        lock = threading.Lock()  # a lock cannot be pickled

        def locked_sum(chunk):
            with lock:
                return sum(chunk)

        assert list(map_chunks(locked_sum, range(10), 3, workers=2)) \
            == [3, 12, 21, 9]

    def test_in_flight_window_is_bounded(self, tmp_path):
        """A consumer that has read one result has let at most
        ``2 * workers + 1`` chunks start, however far ahead the pool
        could run."""
        workers = 2

        def mark(chunk):
            open(os.path.join(tmp_path, f"chunk_{chunk[0]}"), "w").close()
            return chunk[0]

        results = map_chunks(mark, range(40), 2, workers)
        assert next(results) == 0
        time.sleep(0.2)  # room for the pool to run ahead if it could
        assert len(os.listdir(tmp_path)) <= 2 * workers + 1
        assert list(results) == list(range(2, 40, 2))


item_lengths = st.lists(st.integers(min_value=1, max_value=3), max_size=60)
widths = st.integers(min_value=1, max_value=8)


def groups(lengths, width):
    """Items of the given ``len()``s and their lock-step groups at
    *width*."""
    items = [[0] * n for n in lengths]
    with mock.patch.object(parallel, "LOCKSTEP_WIDTH", width):
        return items, list(iter_equal_length_groups(items))


class TestLockstepGroups:
    @given(item_lengths, widths)
    @settings(max_examples=200, deadline=None)
    def test_groups_reproduce_the_input(self, lengths, width):
        items, result = groups(lengths, width)
        assert [id(item) for group in result for item in group] \
            == [id(item) for item in items]

    @given(item_lengths, widths)
    @settings(max_examples=200, deadline=None)
    def test_groups_are_bounded_and_uniform(self, lengths, width):
        for group in groups(lengths, width)[1]:
            assert 1 <= len(group) <= width
            assert len({len(item) for item in group}) == 1

    @given(item_lengths, widths)
    @settings(max_examples=200, deadline=None)
    def test_groups_are_maximal(self, lengths, width):
        """A group closes only when it is full or the next item has
        another length."""
        result = groups(lengths, width)[1]
        for group, following in zip(result, result[1:]):
            assert len(group) == width or len(group[0]) != len(following[0])

    @given(item_lengths, widths)
    @settings(max_examples=200, deadline=None)
    def test_streams_one_group_at_a_time(self, lengths, width):
        """Each group is handed over having pulled at most one item
        beyond it from the input."""
        pulled = []

        def stream():
            for n in lengths:
                pulled.append(n)
                yield [0] * n

        handed_over = 0
        with mock.patch.object(parallel, "LOCKSTEP_WIDTH", width):
            for group in iter_equal_length_groups(stream()):
                handed_over += len(group)
                assert handed_over <= len(pulled) <= handed_over + 1
        assert handed_over == len(lengths)
