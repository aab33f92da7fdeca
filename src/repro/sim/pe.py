"""The Processing Element (§4.2.1).

A PE multiplies the streamed non-zero with the BRAM-resident x value and
accumulates the product into a partial sum.  The Router — a mux pair keyed
by the ``(pvt, PE_src)`` flags decoded from the stream element — steers the
read-modify-write to ``URAM_pvt`` (private channel) or to the matching
``URAM_sh`` bank of the ScUG (shared channel).  Routing is what keeps SpMV
functionally correct under CrHCS: without it, shared-channel products would
corrupt private partial sums (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AcceleratorConfig
from ..errors import SimulationError
from ..scheduling.base import ScheduledElement
from .memory import BramXBuffer, ScugBankGroup, UramBank


def lane_rule_error(
    row: int, origin_channel: int, origin_pe: int, config: AcceleratorConfig
) -> SimulationError:
    """The error for an element whose metadata breaks the Eq. 1 lane rule.

    The Rearrange Unit writes a bank's sums to the rows of the lane
    ``origin_channel * pes_per_channel + origin_pe``, so an element whose
    row is not in that lane (``row % total_pes``) would land in another
    row's output.  Row splitting (``row_split``) schedules such shards.
    """
    return SimulationError(
        f"element of row {row} is tagged (origin channel {origin_channel}, "
        f"origin PE {origin_pe}), breaking the lane rule row % total_pes "
        f"== origin_channel * pes_per_channel + origin_pe "
        f"({row % config.total_pes} != "
        f"{origin_channel * config.pes_per_channel + origin_pe})"
    )


@dataclass
class PEStats:
    """Operation counters of one PE."""

    macs: int = 0
    private_accumulations: int = 0
    shared_accumulations: int = 0
    idle_cycles: int = 0


class ProcessingElement:
    """One multiplier + adder + Router + URAM_pvt + ScUG."""

    def __init__(
        self,
        channel_id: int,
        pe_id: int,
        config: AcceleratorConfig,
        x_buffer: BramXBuffer,
    ):
        self.channel_id = channel_id
        self.pe_id = pe_id
        self.config = config
        self.x_buffer = x_buffer
        self.uram_pvt = UramBank(f"ch{channel_id}.pe{pe_id}.pvt")
        self._scug_size = getattr(config, "scug_size", 0)
        self._max_shared_channels = getattr(config, "migration_span", 0)
        #: One ScUG per donor channel (the paper deploys one, §3.1; wider
        #: migration spans need proportionally more on-chip memory, §6.1).
        self.scugs: dict = {}
        self.stats = PEStats()

    def _address_for_row(self, row: int) -> int:
        """URAM address = the row's position within its home PE (Eq. 1)."""
        return row // self.config.total_pes

    def process(self, element: ScheduledElement) -> None:
        """Execute one MAC: multiply, route, accumulate (§4.2.1)."""
        x_value = self.x_buffer.read(element.col)
        product = element.value * x_value
        self.stats.macs += 1
        address = self._address_for_row(element.row)
        private = element.origin_channel == self.channel_id
        if private and element.origin_pe != self.pe_id:
            raise SimulationError(
                f"private element of PE {element.origin_pe} routed to "
                f"PE {self.pe_id} of channel {self.channel_id}"
            )
        if (
            element.row % self.config.total_pes
            != element.origin_channel * self.config.pes_per_channel
            + element.origin_pe
        ):
            raise lane_rule_error(
                element.row, element.origin_channel, element.origin_pe,
                self.config,
            )
        if private:
            self.uram_pvt.accumulate(address, product)
            self.stats.private_accumulations += 1
        else:
            scug = self.scug_for(element.origin_channel)
            scug.accumulate(element.origin_pe, address, product)
            self.stats.shared_accumulations += 1

    def process_block(
        self,
        rows,
        cols,
        values,
        origin_channels,
        origin_pes,
    ) -> None:
        """Execute a batch of MACs in stream order (vectorized §4.2.1).

        Equivalent to calling :meth:`process` per element: products are
        float64 ``value × x``, routed to ``URAM_pvt`` or the matching ScUG
        bank, and each bank accumulates in stream order.
        """
        n = int(rows.size)
        if n == 0:
            return
        x_values = self.x_buffer.read_block(cols)
        products = values * x_values
        self.stats.macs += n
        addresses = rows // self.config.total_pes
        private = origin_channels == self.channel_id
        misrouted = private & (origin_pes != self.pe_id)
        if misrouted.any():
            raise SimulationError(
                f"private element of PE {int(origin_pes[misrouted][0])} "
                f"routed to PE {self.pe_id} of channel {self.channel_id}"
            )
        off_lane = rows % self.config.total_pes != (
            origin_channels * self.config.pes_per_channel + origin_pes
        )
        if off_lane.any():
            bad = int(np.flatnonzero(off_lane)[0])
            raise lane_rule_error(
                int(rows[bad]), int(origin_channels[bad]),
                int(origin_pes[bad]), self.config,
            )
        if private.any():
            self.uram_pvt.accumulate_block(
                addresses[private], products[private]
            )
            self.stats.private_accumulations += int(private.sum())
        shared = ~private
        if shared.any():
            shared_channels = origin_channels[shared]
            shared_pes = origin_pes[shared]
            shared_addresses = addresses[shared]
            shared_products = products[shared]
            donors, first_seen = np.unique(
                shared_channels, return_index=True
            )
            for donor in donors[np.argsort(first_seen)].tolist():
                scug = self.scug_for(int(donor))
                from_donor = shared_channels == donor
                donor_pes = shared_pes[from_donor]
                donor_addresses = shared_addresses[from_donor]
                donor_products = shared_products[from_donor]
                for source_pe in np.unique(donor_pes).tolist():
                    lane = donor_pes == source_pe
                    scug.bank(int(source_pe)).accumulate_block(
                        donor_addresses[lane], donor_products[lane]
                    )
            self.stats.shared_accumulations += int(shared.sum())

    def scug_for(self, origin_channel: int) -> ScugBankGroup:
        """The ScUG holding partial sums for one donor channel."""
        scug = self.scugs.get(origin_channel)
        if scug is None:
            if self._scug_size == 0 or self._max_shared_channels == 0:
                raise SimulationError(
                    f"channel {self.channel_id} PE {self.pe_id} received a "
                    "migrated element but has no ScUG (Serpens datapath)"
                )
            if len(self.scugs) >= self._max_shared_channels:
                raise SimulationError(
                    f"channel {self.channel_id} PE {self.pe_id} would need "
                    f"{len(self.scugs) + 1} ScUGs but the configuration "
                    f"provisions {self._max_shared_channels} (§6.1)"
                )
            scug = ScugBankGroup(
                f"ch{self.channel_id}.pe{self.pe_id}.scug{origin_channel}",
                source_pes=self.config.pes_per_channel,
                scug_size=self._scug_size,
            )
            self.scugs[origin_channel] = scug
        return scug

    def idle(self) -> None:
        """A zero slot: the MAC is skipped entirely (§2.2)."""
        self.stats.idle_cycles += 1

    def reset(self) -> None:
        """Clear partial sums between row windows."""
        self.uram_pvt.clear()
        for scug in self.scugs.values():
            scug.clear()
