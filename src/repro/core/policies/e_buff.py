"""e-Buff: the aggressive-buffering baseline (paper Table 4, refs [4, 7]).

Represents prior green-datacenter designs that "aggressively employ
battery energy to manage power mismatch between supply and demand":
placement is plain load balancing, batteries discharge without caps
whenever solar falls short, and no aging signal is ever consulted. Its
failure modes are exactly the paper's: deep discharges, long low-SoC
residence, occasional cut-offs with server downtime, and the fastest
aging of the four schemes.
"""

from __future__ import annotations

from repro.core.policies.base import Policy
from repro.datacenter.vm import VM


class EBuffPolicy(Policy):
    """Aging-blind aggressive battery buffering."""

    name = "e-buff"

    def place_vm(self, vm: VM) -> str:
        self._require_bound()
        assert self.scheduler is not None
        return self.scheduler.place_naive(vm)

    def describe(self) -> str:
        return (
            "Aggressively use battery as the green energy buffer to manage "
            "supply/load power variability"
        )
