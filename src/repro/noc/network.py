"""NoC topology builder: PIMnet's rings, crossbars, and bus as routers/links.

Router naming:

* ``stop:{r}:{c}:{b}`` — the PIMnet stop of bank b, chip c, rank r;
* ``gw:{r}:{c}`` — the chip I/O gateway (DQ pins) of chip c in rank r,
  attached to the ring at bank 0;
* ``xbar:{r}`` — rank r's inter-chip crossbar on the buffer chip;
* rank-to-rank links ride the shared half-duplex ``bus`` medium.

One simulation cycle is one nanosecond and one flit is
:data:`~repro.config.units.NOC_FLIT_BYTES`; a link's ``cycles_per_flit``
is the ceiling of flit serialization time on that tier's channel.
"""

from __future__ import annotations

import math

from ..config.network import PimnetNetworkConfig
from ..config.units import NOC_CYCLE_S, NOC_FLIT_BYTES
from ..core.schedule import Shape
from ..errors import SimulationError, TopologyError
from .links import Link, SharedMedium


class NocNetwork:
    """The full PIMnet fabric as routers and credit-controlled links."""

    def __init__(
        self,
        shape: Shape,
        network: PimnetNetworkConfig | None = None,
    ) -> None:
        self.shape = shape
        self.network = network or PimnetNetworkConfig()
        self.flit_bytes = NOC_FLIT_BYTES
        self.links: dict[str, Link] = {}
        self.bus_medium = SharedMedium("ddr-bus")
        self._build()

    # -- construction ------------------------------------------------------------
    def _cycles_per_flit(self, bandwidth_bytes_per_s: float) -> int:
        seconds = self.flit_bytes / bandwidth_bytes_per_s
        return max(1, math.ceil(seconds / NOC_CYCLE_S))

    def _add_link(
        self,
        name: str,
        src: str,
        dst: str,
        bandwidth: float,
        latency_s: float,
        medium: SharedMedium | None = None,
    ) -> Link:
        if name in self.links:
            raise SimulationError(f"duplicate link {name}")
        link = Link(
            name=name,
            src_router=src,
            dst_router=dst,
            cycles_per_flit=self._cycles_per_flit(bandwidth),
            latency_cycles=max(0, round(latency_s / NOC_CYCLE_S)),
            medium=medium,
        )
        self.links[name] = link
        return link

    def _build(self) -> None:
        shape = self.shape
        net = self.network
        bank_bw = net.inter_bank.link_bandwidth_bytes_per_s
        chip_bw = net.inter_chip.link_bandwidth_bytes_per_s
        rank_bw = net.inter_rank.link_bandwidth_bytes_per_s
        for r in range(shape.ranks):
            for c in range(shape.chips):
                # ring links in both directions
                if shape.banks > 1:
                    for b in range(shape.banks):
                        east = (b + 1) % shape.banks
                        self._add_link(
                            f"ring:{r}:{c}:{b}>E",
                            f"stop:{r}:{c}:{b}",
                            f"stop:{r}:{c}:{east}",
                            bank_bw,
                            net.inter_bank.hop_latency_s,
                        )
                        self._add_link(
                            f"ring:{r}:{c}:{east}>W",
                            f"stop:{r}:{c}:{east}",
                            f"stop:{r}:{c}:{b}",
                            bank_bw,
                            net.inter_bank.hop_latency_s,
                        )
                # Every bank taps the chip's global I/O bus directly
                # (Fig 7(a)); the DQ pins behind the gateway are the
                # shared bottleneck, not the taps.
                for b in range(shape.banks):
                    self._add_link(
                        f"io:{r}:{c}:{b}:up",
                        f"stop:{r}:{c}:{b}",
                        f"gw:{r}:{c}",
                        chip_bw,
                        net.inter_bank.hop_latency_s,
                    )
                    self._add_link(
                        f"io:{r}:{c}:{b}:down",
                        f"gw:{r}:{c}",
                        f"stop:{r}:{c}:{b}",
                        chip_bw,
                        net.inter_bank.hop_latency_s,
                    )
                # DQ pins to/from the rank crossbar
                self._add_link(
                    f"dq:{r}:{c}:up",
                    f"gw:{r}:{c}",
                    f"xbar:{r}",
                    chip_bw,
                    net.inter_chip.hop_latency_s,
                )
                self._add_link(
                    f"dq:{r}:{c}:down",
                    f"xbar:{r}",
                    f"gw:{r}:{c}",
                    chip_bw,
                    net.inter_chip.hop_latency_s,
                )
        # rank-to-rank over the shared half-duplex bus
        for r_src in range(shape.ranks):
            for r_dst in range(shape.ranks):
                if r_src == r_dst:
                    continue
                self._add_link(
                    f"bus:{r_src}>{r_dst}",
                    f"xbar:{r_src}",
                    f"xbar:{r_dst}",
                    rank_bw,
                    net.inter_rank.hop_latency_s,
                    medium=self.bus_medium,
                )

    # -- routing -----------------------------------------------------------------
    def _ring_path(self, r: int, c: int, b_src: int, b_dst: int) -> list[Link]:
        """Shorter-way ring hops from bank b_src to b_dst on chip (r, c)."""
        if b_src == b_dst:
            return []
        n = self.shape.banks
        east = (b_dst - b_src) % n
        west = n - east
        hops: list[Link] = []
        if east <= west:
            b = b_src
            for _ in range(east):
                hops.append(self.links[f"ring:{r}:{c}:{b}>E"])
                b = (b + 1) % n
        else:
            b = b_src
            for _ in range(west):
                hops.append(self.links[f"ring:{r}:{c}:{b}>W"])
                b = (b - 1) % n
        return hops

    def path(self, src_dpu: int, dst_dpu: int) -> tuple[Link, ...]:
        """Deterministic route from one DPU's stop to another's."""
        if src_dpu == dst_dpu:
            raise TopologyError("no path needed from a DPU to itself")
        r1, c1, b1 = self.shape.coords(src_dpu)
        r2, c2, b2 = self.shape.coords(dst_dpu)
        if (r1, c1) == (r2, c2):
            return tuple(self._ring_path(r1, c1, b1, b2))
        hops: list[Link] = [
            self.links[f"io:{r1}:{c1}:{b1}:up"],
            self.links[f"dq:{r1}:{c1}:up"],
        ]
        if r1 != r2:
            hops.append(self.links[f"bus:{r1}>{r2}"])
        hops.append(self.links[f"dq:{r2}:{c2}:down"])
        hops.append(self.links[f"io:{r2}:{c2}:{b2}:down"])
        return tuple(hops)

    def reset(self) -> None:
        """Start a fresh run on every link and on the bus."""
        for link in self.links.values():
            link.reset()
        self.bus_medium.reset()

    def release(self) -> None:
        """End a run: every link drops its FIFOs (see :meth:`Link.release`)."""
        for link in self.links.values():
            link.release()
