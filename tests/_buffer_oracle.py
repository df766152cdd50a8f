"""The client's buffer kept one row at a time: the reference the run buffer
of ``senselink.client`` is checked against (tests/test_properties.py).

A row is (journal index, stream, canonical JSON). A new packet takes rows
from the front of the buffer while their JSON, each row's with one list
separator, fits the budget, and always at least one row. Feedback that
stores as many rows as the packet holds releases them one index at a time
and moves the watermark over released indexes one at a time; feedback of
any other count changes nothing, and the packet stays in flight.
"""

from collections import deque

from senselink import codec


def run_rows(run) -> list[tuple[int, str, bytes]]:
    """A client run's rows as (index, stream, JSON)."""
    starts = [run.base, *(end + 1 for end in run.ends[:-1])]
    return [(run.start + k, run.stream, run.data[begin - run.base:end - run.base])
            for k, (begin, end) in enumerate(zip(starts, run.ends))]


def buffered_rows(session) -> list[tuple[int, str, bytes]]:
    """The rows of a client session's buffer, front first."""
    return [row for run in session._buffer for row in run_rows(run)]


class RowBuffer:
    def __init__(self, budget: int, rows=(), watermark: int = 0):
        self.budget = budget
        self.buffer = deque(rows)
        self.flight: dict[int, list[tuple[int, str, bytes]]] = {}
        self.released: set[int] = set()
        self.watermark = watermark

    def enqueue(self, first: int, row_json: dict[str, list[bytes]]):
        """Buffer a batch journaled from index first (``codec.rows_json``)."""
        for stream, rows in row_json.items():
            for data in rows:
                self.buffer.append((first, stream, data))
                first += 1

    def take(self, seq: int) -> bytes:
        """Put a new packet in flight; returns its payload."""
        take, total = [], 0
        for entry in self.buffer:
            size = len(entry[2]) + 1
            if take and total + size > self.budget:
                break
            take.append(entry)
            total += size
        for _ in take:
            self.buffer.popleft()
        self.flight[seq] = take
        row_json: dict[str, list[bytes]] = {}
        for _, stream, data in take:
            row_json.setdefault(stream, []).append(data)
        return codec.data_payload(seq, row_json)

    def feedback(self, seq: int, stored: int):
        if stored != len(self.flight[seq]):
            return
        for index, _, _ in self.flight.pop(seq):
            self.released.add(index)
        while self.watermark in self.released:
            self.released.discard(self.watermark)
            self.watermark += 1

    def give_up(self, seq: int):
        del self.flight[seq]
