"""Baseline PIM collective backend (**B** in the paper's figures).

Models the stock UPMEM-API implementation used by SimplePIM [16]: every
collective is a host-orchestrated gather / combine / push-back.  Two
real-hardware effects degrade it beyond pure serialization:

* **Chip transposition.**  UPMEM stripes each DPU's MRAM across one DRAM
  chip, so host transfers of per-DPU buffers must byte-transpose data
  across the 8 chips of a rank.  The peak 4.74 / 6.68 GB/s figures are
  for large optimized bulk transfers; collective-sized per-DPU buffers
  reach roughly a third of that ([39] measures 0.1–4.7 GB/s depending on
  the access pattern).  ``transpose_efficiency`` captures this.
* **Host overheads.**  Per-call setup, per-rank serialization, and the
  host-side reduction itself — exactly the costs PID-Comm [67] optimizes
  and Software(Ideal) zeroes out.
"""

from __future__ import annotations

from .backend import registry
from .host_path import HostMediatedBackend, HostPathRates


class HostBaselineBackend(HostMediatedBackend):
    """The unoptimized host-mediated collective path."""

    key = "B"
    name = "Baseline PIM"

    #: Fraction of peak host-link bandwidth achieved by per-DPU
    #: collective-buffer transfers (chip transposition overhead).
    transpose_efficiency: float = 0.35

    def _rates(self) -> HostPathRates:
        links = self.machine.host_links
        return HostPathRates(
            gather_bytes_per_s=(
                links.pim_to_cpu_bytes_per_s * self.transpose_efficiency
            ),
            scatter_bytes_per_s=(
                links.cpu_to_pim_bytes_per_s * self.transpose_efficiency
            ),
            broadcast_bytes_per_s=links.cpu_to_pim_broadcast_bytes_per_s,
            charge_host_overheads=True,
            charge_host_compute=True,
        )


registry.register("B", HostBaselineBackend)
