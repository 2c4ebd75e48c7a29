"""Off-chip main memory (paper Table II: 50 ns latency, 2 GHz 64-bit bus).

The paper models main memory below the DRAM cache as a flat 50 ns access
behind the off-chip bus; contention for that bus is the only queuing
effect.  A 64 B block occupies the 64-bit/2 GHz bus for 4 ns, so the model
is a single-server queue: ``start = max(now, bus_free)``, data returns at
``start + 50 ns``.

That flat model is :class:`MainMemory`, the default
(``mainmem.model="flat"``).  :class:`BankedMainMemory`
(``mainmem.model="banked"``) replaces the single-server queue with a real
banked organisation: its own :class:`~repro.config.DRAMOrganization` and
:class:`~repro.dram.address.AddressMapper`, DDR3-1600-style timings, and
one substrate channel per memory channel built through the same
:func:`~repro.dram.substrate.make_channel` factory the stacked DRAM cache
uses — so bank conflicts, row-buffer locality, bus turnarounds and
rank-to-rank switches (``tCS``) below the cache become visible.  Both
models expose the identical interface (``fetch``/``write``/``stats``/
``reset_stats``/``capture_state``/``restore_state``), and the controller
is built against :data:`AnyMainMemory` through :func:`make_mainmem`.

Reads carry a completion callback (the DRAM-cache controller delivers the
data to the L2 and spawns a refill); writes (dirty victims leaving the
DRAM cache) are fire-and-forget but still consume bus slots.
"""

from __future__ import annotations

from typing import Any, Callable, Union

from repro.config import MainMemoryConfig
from repro.dram.address import AddressMapper
from repro.dram.command import CommandChannel
from repro.dram.substrate import make_channel
from repro.metrics.registry import MetricGroup, MetricRegistry, derived
from repro.sim.engine import Simulator


class MainMemoryStats(MetricGroup):
    """Model-independent main-memory counters.

    Shared by the flat and banked models so the ``mainmem`` metric key
    keeps one schema; the banked model additionally publishes per-channel
    substrate groups in its own registry (mounted as ``mainmem_dev``).
    The ``*_bus_wait_ps`` counters measure queuing delay — time between
    the request and its burst/bus-slot start — which is the contention
    signal both models share.
    """

    COUNTERS = (
        "reads",
        "writes",
        "bus_busy_ps",
        "read_latency_sum_ps",
        "write_latency_sum_ps",
        "read_bus_wait_ps",
        "write_bus_wait_ps",
    )

    @derived
    def mean_read_latency_ps(self) -> float:
        return self.read_latency_sum_ps / self.reads if self.reads else 0.0

    @derived
    def mean_write_latency_ps(self) -> float:
        return self.write_latency_sum_ps / self.writes if self.writes else 0.0


class MainMemory:
    """Flat-latency memory behind a bandwidth-limited off-chip bus."""

    __slots__ = ("sim", "cfg", "_bus_free", "stats")

    def __init__(self, sim: Simulator, cfg: MainMemoryConfig):
        self.sim = sim
        self.cfg = cfg
        self._bus_free = 0
        self.stats = MainMemoryStats()

    def _claim_bus(self) -> int:
        now = self.sim.now
        start = max(now, self._bus_free)
        self._bus_free = start + self.cfg.bus_occupancy_ps
        self.stats.bus_busy_ps += self.cfg.bus_occupancy_ps
        return start

    def fetch(self, addr: int, on_done: Callable[[Any], None], arg: Any = None) -> int:
        """Read one block; ``on_done(addr)`` fires when data returns.

        ``arg`` replaces the address as the callback payload when given
        (``on_done(arg)``), so callers can route the completion to a
        request object with a plain bound method instead of a closure —
        closures in the event heap are invisible to the snapshot layer
        (deepcopy/pickle treat functions as atomic, so a captured closure
        would keep pointing at the *donor* simulation's objects).

        Returns the completion time (useful for tests).
        """
        now = self.sim.now
        start = self._claim_bus()
        done = start + self.cfg.latency_ps
        self.stats.reads += 1
        self.stats.read_latency_sum_ps += done - now
        self.stats.read_bus_wait_ps += start - now
        self.sim.at(done, on_done, addr if arg is None else arg)
        return done

    def write(self, addr: int) -> int:
        """Write one block (dirty victim); consumes a bus slot only."""
        now = self.sim.now
        start = self._claim_bus()
        done = start + self.cfg.latency_ps
        self.stats.writes += 1
        self.stats.write_latency_sum_ps += done - now
        self.stats.write_bus_wait_ps += start - now
        return done

    def reset_stats(self) -> None:
        self.stats.reset()

    # -- state capture --------------------------------------------------------

    def capture_state(self) -> dict[str, Any]:
        """Value-only image of the timing state (not the stats)."""
        return {"model": "flat", "bus_free": self._bus_free}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a :meth:`capture_state` image."""
        if state["model"] != "flat":
            raise ValueError(f"cannot restore {state['model']!r} state "
                             "into a flat MainMemory")
        self._bus_free = state["bus_free"]


class BankedMainMemory:
    """Banked multi-channel/multi-rank main memory behind the Substrate.

    Each memory channel is a full substrate channel — the same
    burst/command models the DRAM cache runs on, built via
    :func:`make_channel` from ``cfg.timings`` (DDR3-1600 by default,
    including the ``tCS`` rank-to-rank bus turnaround) and ``cfg.org``.
    Block addresses are decoded by an :class:`AddressMapper` over
    ``cfg.org``, so the interleave policy below the cache is sweepable
    independently of the cache's own.

    Accesses are issued synchronously at ``sim.now`` — the substrate's
    bus state provides the single-server queuing the flat model got from
    ``bus_free``, and completions are scheduled at the burst end.
    ``stats`` stays a plain :class:`MainMemoryStats` (same ``mainmem``
    schema as the flat model); per-channel substrate counters live in
    :attr:`metrics` (``ch0``, ``ch1``, ...; per-rank groups when the
    channel model carries them), which the system mounts as
    ``mainmem_dev``.
    """

    __slots__ = ("sim", "cfg", "mapper", "channels", "stats", "metrics")

    def __init__(self, sim: Simulator, cfg: MainMemoryConfig):
        self.sim = sim
        self.cfg = cfg
        self.mapper = AddressMapper(cfg.org)
        self.stats = MainMemoryStats()
        self.metrics = MetricRegistry()
        self.channels = []
        for i in range(cfg.org.channels):
            channel = make_channel(cfg.timings, cfg.org, cfg.substrate)
            self.metrics.register(f"ch{i}", channel.stats)
            # Same publication rule as DRAMDevice: the rank dimension
            # appears only where it is real (command fidelity, >1 rank).
            if (isinstance(channel, CommandChannel)
                    and cfg.org.ranks_per_channel > 1):
                for j, rs in enumerate(channel.rank_groups):
                    self.metrics.register(f"ch{i}_rank{j}", rs)
            self.channels.append(channel)

    def fetch(self, addr: int, on_done: Callable[[Any], None], arg: Any = None) -> int:
        """Read one block through its bank; same contract as the flat model."""
        now = self.sim.now
        channel, rank, bank, row, _col, _gb = self.mapper.locate(addr)
        start, done = self.channels[channel].issue(rank, bank, row, False, now)
        self.stats.reads += 1
        self.stats.read_latency_sum_ps += done - now
        self.stats.read_bus_wait_ps += start - now
        self.sim.at(done, on_done, addr if arg is None else arg)
        return done

    def write(self, addr: int) -> int:
        """Write one block (dirty victim) through its bank."""
        now = self.sim.now
        channel, rank, bank, row, _col, _gb = self.mapper.locate(addr)
        start, done = self.channels[channel].issue(rank, bank, row, True, now)
        self.stats.writes += 1
        self.stats.write_latency_sum_ps += done - now
        self.stats.write_bus_wait_ps += start - now
        return done

    def total_stats(self) -> MetricGroup:
        """Cross-channel substrate rollup (mirrors DRAMDevice.total_stats)."""
        return type(self.channels[0].stats).sum(
            [c.stats for c in self.channels])

    def reset_stats(self) -> None:
        self.stats.reset()
        for channel in self.channels:
            channel.reset_stats()

    # -- state capture --------------------------------------------------------

    def capture_state(self) -> dict[str, Any]:
        """Value-only image of every channel's timing state."""
        return {"model": "banked",
                "channels": [c.capture_state() for c in self.channels]}

    def restore_state(self, state: dict[str, Any]) -> None:
        """Adopt a :meth:`capture_state` image (validates before mutating)."""
        if state["model"] != "banked":
            raise ValueError(f"cannot restore {state['model']!r} state "
                             "into a BankedMainMemory")
        if len(state["channels"]) != len(self.channels):
            raise ValueError(
                f"channel count mismatch: captured {len(state['channels'])}, "
                f"memory has {len(self.channels)}")
        for channel, img in zip(self.channels, state["channels"]):
            channel.restore_state(img)


AnyMainMemory = Union[MainMemory, BankedMainMemory]


def make_mainmem(sim: Simulator, cfg: MainMemoryConfig) -> AnyMainMemory:
    """Build the main-memory model ``cfg.model`` selects."""
    if cfg.model == "banked":
        return BankedMainMemory(sim, cfg)
    return MainMemory(sim, cfg)
