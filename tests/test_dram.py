"""Unit tests for the FR-FCFS DRAM model."""

import pytest

from repro.mem.dram import DRAMModel, SCAN_WINDOW
from repro.sim.config import GPUConfig
from repro.sim.events import EventQueue


@pytest.fixture
def setup():
    config = GPUConfig.small()
    events = EventQueue()
    dram = DRAMModel(config, events)
    return config, events, dram


def drain(events, until=1_000_000):
    """Run the event queue to completion; returns the last processed time."""
    last = 0
    while events:
        t = events.next_time()
        assert t <= until, "runaway event chain"
        events.run_due(t)
        last = t
    return last


class TestReads:
    def test_read_completes_and_calls_back(self, setup):
        config, events, dram = setup
        done = []
        dram.read(0, 0, lambda now, arg: done.append((now, arg)), "req")
        drain(events)
        assert len(done) == 1
        now, arg = done[0]
        assert arg == "req"
        # Cold access: row miss + burst at minimum.
        assert now >= config.dram_t_row_miss + config.dram_t_burst

    def test_row_hit_faster_than_row_miss(self, setup):
        config, events, dram = setup
        times = []
        dram.read(0, 0, lambda now, arg: times.append(now))
        drain(events)
        dram.read(1, times[0], lambda now, arg: times.append(now))  # same row
        drain(events)
        hit_latency = times[1] - times[0]
        miss_latency = times[0]
        assert hit_latency < miss_latency
        assert dram.stats.row_hits == 1
        assert dram.stats.row_misses == 1

    def test_sequential_stream_mostly_row_hits(self, setup):
        config, events, dram = setup
        done = []
        for line in range(config.dram_row_lines):
            dram.read(line, 0, lambda now, arg: done.append(now))
        drain(events)
        assert dram.stats.row_hits == config.dram_row_lines - 1
        assert len(done) == config.dram_row_lines

    def test_bus_serializes_same_channel(self, setup):
        config, events, dram = setup
        done = []
        # Two lines in the same chunk -> same channel.
        dram.read(0, 0, lambda now, arg: done.append(now))
        dram.read(1, 0, lambda now, arg: done.append(now))
        drain(events)
        assert abs(done[1] - done[0]) >= config.dram_t_burst

    def test_different_channels_overlap(self, setup):
        config, events, dram = setup
        done = {}
        # Chunked mapping: chunk k -> channel k % channels.
        line_ch0 = 0
        line_ch1 = config.dram_row_lines
        dram.read(line_ch0, 0, lambda now, arg: done.setdefault("a", now))
        dram.read(line_ch1, 0, lambda now, arg: done.setdefault("b", now))
        drain(events)
        # Both are cold row misses; with independent channels they finish
        # at the same cycle instead of serialising.
        assert done["a"] == done["b"]


class TestWrites:
    def test_write_occupies_bandwidth(self, setup):
        config, events, dram = setup
        done = []
        dram.write(0, 0)
        dram.read(1, 0, lambda now, arg: done.append(now))
        drain(events)
        assert dram.stats.writes == 1
        # The read queued behind the write's bus occupancy.
        solo = config.dram_t_row_miss + config.dram_t_burst
        assert done[0] > solo

    def test_write_generates_no_callback(self, setup):
        config, events, dram = setup
        dram.write(0, 0)
        drain(events)  # must not raise or call anything


class TestFRFCFS:
    def test_row_hit_bypasses_older_row_miss(self, setup):
        config, events, dram = setup
        order = []
        # Open a row on bank (chunk 0), then enqueue: a request to a
        # different row of the SAME bank, then a row hit.
        dram.read(0, 0, lambda now, arg: order.append(arg), "warmup")
        drain(events)
        stride = config.dram_row_lines * config.dram_channels * \
            config.dram_banks_per_channel
        start = 10_000
        dram.read(stride, start, lambda now, arg: order.append(arg), "miss")
        dram.read(1, start, lambda now, arg: order.append(arg), "hit")
        drain(events)
        assert order == ["warmup", "hit", "miss"]

    def test_scan_window_bounds_reordering(self, setup):
        config, events, dram = setup
        # A row hit parked beyond the scan window cannot be promoted.
        assert SCAN_WINDOW >= 1

    def test_pending_requests_counter(self, setup):
        config, events, dram = setup
        for line in range(4):
            dram.read(line, 0, lambda now, arg: None)
        assert dram.pending_requests == 4
        drain(events)
        assert dram.pending_requests == 0


class TestOpenRow:
    def test_open_row_tracking(self, setup):
        config, events, dram = setup
        assert dram.open_row(0) is None
        dram.read(0, 0, lambda now, arg: None)
        drain(events)
        assert dram.open_row(0) == 0


class TestEnqueueCoordinates:
    def test_queued_requests_match_dram_coordinates(self, setup):
        # _enqueue computes channel/bank/row inline; it must agree with the
        # documented mapping (repro.mem.address.dram_coordinates).
        from repro.mem.address import dram_coordinates

        config, _, dram = setup
        stride = config.dram_row_lines // 2 + 1
        lines = [i * stride for i in range(4 * config.dram_channels
                                           * config.dram_banks_per_channel)]
        for line in lines:
            dram.write(line, 0)
        queued = {request.line: (index, request)
                  for index, channel in enumerate(dram._channels)
                  for request in channel.pending}
        for line in lines:
            coords = dram_coordinates(line, config.dram_channels,
                                      config.dram_banks_per_channel,
                                      config.dram_row_lines)
            channel, request = queued[line]
            assert (channel, request.bank, request.row) == \
                (coords.channel, coords.bank, coords.row)
