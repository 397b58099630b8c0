"""DRAM timing model: channels, banks, row buffers, FR-FCFS scheduling.

Models the three effects CTA-scheduling studies care about:

* **latency** — a request pays CAS latency on a row-buffer hit and
  precharge+activate+CAS on a row-buffer miss;
* **bandwidth** — each 128-byte transfer occupies its channel's data bus for
  ``t_burst`` cycles, so concurrent requests queue behind one another;
* **row locality under contention** — the per-channel scheduler is
  FR-FCFS-like: among the oldest ``SCAN_WINDOW`` pending requests it first
  serves one that hits an open row on a ready bank, falling back to the
  oldest ready request.  (Pure FCFS would make interleaved streams from
  many cores thrash every row buffer, which real memory controllers avoid.)

The model is event-driven: requests enqueue, the channel wakes itself
through the GPU event queue, and read completions are delivered through the
callback supplied by the caller.
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim.config import GPUConfig
from ..sim.events import EventQueue
from ..sim.stats import DRAMStats
from .address import dram_coordinates

#: How many of the oldest pending requests the scheduler considers for a
#: row hit (finite scheduler visibility, like real controllers).
SCAN_WINDOW = 32

ResponseCallback = Callable[[int, Any], None]


class _Request:
    __slots__ = ("line", "bank", "row", "callback", "arg", "is_write")

    def __init__(self, line: int, bank: int, row: int,
                 callback: ResponseCallback | None, arg: Any,
                 is_write: bool) -> None:
        self.line = line
        self.bank = bank
        self.row = row
        self.callback = callback
        self.arg = arg
        self.is_write = is_write


class _Channel:
    __slots__ = ("pending", "bus_free", "bank_ready", "open_row", "wake_at")

    def __init__(self, num_banks: int) -> None:
        self.pending: list[_Request] = []
        self.bus_free = 0
        self.bank_ready = [0] * num_banks
        self.open_row = [-1] * num_banks
        self.wake_at: int | None = None   # already-scheduled service time


class DRAMModel:
    """All channels of the device, scheduled FR-FCFS per channel."""

    __slots__ = ("_events", "_channels", "_banks", "_row_lines", "_t_cas",
                 "_t_row_miss", "_t_burst", "_num_channels", "stats")

    def __init__(self, config: GPUConfig, events: EventQueue) -> None:
        self._events = events
        self._num_channels = config.dram_channels
        self._banks = config.dram_banks_per_channel
        self._row_lines = config.dram_row_lines
        self._t_cas = config.dram_t_cas
        self._t_row_miss = config.dram_t_row_miss
        self._t_burst = config.dram_t_burst
        self._channels = [_Channel(self._banks)
                          for _ in range(self._num_channels)]
        self.stats = DRAMStats()

    # ------------------------------------------------------------------ #
    def read(self, line: int, now: int, callback: ResponseCallback,
             arg: Any = None) -> None:
        """Enqueue a read; ``callback(completion_cycle, arg)`` fires later."""
        self.stats.reads += 1
        self._enqueue(line, now, callback, arg, is_write=False)

    def write(self, line: int, now: int) -> None:
        """Enqueue a write (fire-and-forget; still occupies bank and bus)."""
        self.stats.writes += 1
        self._enqueue(line, now, None, None, is_write=True)

    def _enqueue(self, line: int, now: int, callback: ResponseCallback | None,
                 arg: Any, is_write: bool) -> None:
        # dram_coordinates() inlined: one frozen dataclass per DRAM request
        # was a measurable share of memory-bound runs.
        chunk = line // self._row_lines
        channels = self._num_channels
        channel_idx = chunk % channels
        chunk //= channels
        channel = self._channels[channel_idx]
        channel.pending.append(
            _Request(line, chunk % self._banks, chunk // self._banks,
                     callback, arg, is_write))
        self._wake(channel_idx, max(now, channel.bus_free))

    # ------------------------------------------------------------------ #
    def _wake(self, channel_idx: int, when: int) -> None:
        """Arrange for :meth:`_service` to run at ``when`` (deduplicated:
        at most one *live* service event per channel; superseded events are
        recognised by their stamped time and ignored)."""
        channel = self._channels[channel_idx]
        if channel.wake_at is not None and channel.wake_at <= when:
            return
        channel.wake_at = when
        self._events.schedule(when, self._service, (channel_idx, when))

    def _service(self, now: int, arg: tuple[int, int]) -> None:
        channel_idx, stamp = arg
        channel = self._channels[channel_idx]
        if channel.wake_at != stamp:
            return  # superseded by an earlier wake
        channel.wake_at = None
        if not channel.pending:
            return
        if channel.bus_free > now:
            self._wake(channel_idx, channel.bus_free)
            return
        request = self._pick(channel, now)
        if request is None:
            # Every candidate's bank is mid-activate; retry when one frees.
            window = channel.pending[:SCAN_WINDOW]
            self._wake(channel_idx,
                       min(channel.bank_ready[r.bank] for r in window))
            return
        channel.pending.remove(request)
        bank = request.bank
        if channel.open_row[bank] == request.row:
            access_latency = self._t_cas
            self.stats.row_hits += 1
            channel.bank_ready[bank] = now + self._t_burst
        else:
            access_latency = self._t_row_miss
            self.stats.row_misses += 1
            channel.open_row[bank] = request.row
            # Precharge + activate occupies the bank, not the bus.
            channel.bank_ready[bank] = now + self._t_row_miss
        channel.bus_free = now + self._t_burst
        self.stats.bus_busy_cycles += self._t_burst
        if request.callback is not None:
            completion = now + access_latency + self._t_burst
            self._events.schedule(completion, request.callback, request.arg)
        if channel.pending:
            self._wake(channel_idx, channel.bus_free)

    def _pick(self, channel: _Channel, now: int) -> _Request | None:
        """FR-FCFS over the oldest SCAN_WINDOW requests."""
        window = channel.pending[:SCAN_WINDOW]
        oldest_ready = None
        for request in window:
            if channel.bank_ready[request.bank] > now:
                continue
            if channel.open_row[request.bank] == request.row:
                return request           # first ready row hit wins
            if oldest_ready is None:
                oldest_ready = request
        return oldest_ready

    # ------------------------------------------------------------------ #
    @property
    def pending_requests(self) -> int:
        return sum(len(ch.pending) for ch in self._channels)

    def telemetry_snapshot(self) -> dict:
        """Cumulative counters + queue depth for telemetry probes.

        The DRAM model's reporting interface (pure read): per-window bus
        utilization is ``Δbus_busy_cycles / (window × channels)``.
        """
        stats = self.stats
        return {
            "reads": stats.reads,
            "writes": stats.writes,
            "row_hits": stats.row_hits,
            "row_misses": stats.row_misses,
            "bus_busy_cycles": stats.bus_busy_cycles,
            "pending_requests": self.pending_requests,
            "channels": self._num_channels,
        }

    def open_row(self, line: int) -> int | None:
        """Currently open row of the bank serving ``line`` (None if closed)."""
        coords = dram_coordinates(line, self._num_channels, self._banks,
                                  self._row_lines)
        row = self._channels[coords.channel].open_row[coords.bank]
        return None if row < 0 else row
