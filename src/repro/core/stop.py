"""PIMnet stop: the buffer-less, arbitration-free per-bank "router".

Section V-A / Fig 6(a): the stop is a pass-through datapath element on
the partitioned bank I/O bus — four 16-bit unidirectional channels
(East/West x In/Out), a WRAM tap, and a small amount of control driven
entirely by the pre-computed schedule.  There are no input buffers, no
allocators, and no routing tables; this structural description is what
the hardware-overhead model (:mod:`repro.analysis.hw_overhead`) costs
out and what gives the stop its fixed single-cycle traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class PimnetStopSpec:
    """Structural parameters of one PIMnet stop."""

    channel_width_bits: int = 16
    num_channels: int = 4            # East-in, East-out, West-in, West-out
    wram_port_width_bits: int = 64
    #: 2:1 muxes per output channel: forward-vs-inject selection.
    muxes_per_output: int = 1
    #: Pipeline registers per traversal (one stage: latch and go).
    traversal_stages: int = 1
    #: Schedule-counter + compare control state, in flip-flops.
    control_state_bits: int = 48

    def __post_init__(self) -> None:
        if self.channel_width_bits < 1 or self.num_channels < 1:
            raise ConfigurationError("stop needs positive channel geometry")
        if self.traversal_stages < 1:
            raise ConfigurationError("traversal takes at least one stage")

    @property
    def mux_input_bits(self) -> int:
        """Total mux input bits (2:1 muxes on each output channel)."""
        outputs = self.num_channels // 2
        return 2 * self.channel_width_bits * self.muxes_per_output * outputs


@dataclass(frozen=True)
class SwitchSpec:
    """Inter-chip (or inter-rank) switch on the buffer chip (Fig 6(b,c)).

    A radix-k crossbar with *no* allocation logic: port connectivity is
    written into memory-mapped configuration registers by the host at
    kernel launch, one entry per communication step (Fig 8).
    """

    radix: int = 8
    port_width_bits: int = 4
    num_step_configs: int = 16
    control_state_bits_per_config: int = 32

    def __post_init__(self) -> None:
        if self.radix < 2:
            raise ConfigurationError("switch radix must be >= 2")
        if self.port_width_bits < 1:
            raise ConfigurationError("port width must be positive")

    @property
    def crosspoint_count(self) -> int:
        return self.radix * self.radix

    @property
    def config_register_bits(self) -> int:
        return self.num_step_configs * self.control_state_bits_per_config
