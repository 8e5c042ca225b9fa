"""Footprint-number monitoring (Section 3.1 of the paper).

**Definition.**  The Footprint-number of an application is the number of
unique block addresses it generates to a cache set in an interval of time,
where the interval is measured in shared-LLC misses (1M in the paper —
roughly four times the number of blocks in the 16MB cache; we keep the x4
ratio so scaled configurations behave identically).

**Mechanism.**  Tracking every set is impractical, so the monitor samples a
small number of sets (40 in the paper).  Each application owns, per sampled
set, a small tag array operating like a cache set:

* entries store a *partial tag* (10 bits in the paper — enough that two
  distinct lines collide with probability 1/1024),
* a lookup miss means a unique access: the tag is installed (SRRIP-managed
  replacement when the array is full) and the per-set unique counter
  increments,
* a lookup hit just refreshes the entry's recency bits.

At the end of every interval the application's Footprint-number is the
average of the per-set unique counters, and the arrays and counters reset
(the "sliding" Footprint-number).

Everything here is outside the cache's critical path and independent of
hit/miss results on the main cache — the property that makes the metric
robust at high core counts, unlike set-duelling (Section 2).

Implementation note: the paper stores the *most significant* 10 tag bits.
Our synthetic traces place each application in its own address-space slice
via high address bits, which would make all of an application's partial
tags identical; we therefore take the *low* 10 tag bits, which preserves
the 1/1024 collision probability the paper's argument relies on (documented
substitution).
"""

from __future__ import annotations


class SamplerSet:
    """One monitored set's tag array: partial tags + 2-bit recency."""

    __slots__ = ("entries", "partial_mask", "tags", "rrpv", "unique_count", "counter_max")

    #: 2-bit RRPV bookkeeping per entry, as in the paper's cost budget.
    MAX_RRPV = 3

    def __init__(self, entries: int = 16, partial_tag_bits: int = 10, counter_bits: int = 8):
        if entries < 1:
            raise ValueError("sampler set needs at least one entry")
        self.entries = entries
        self.partial_mask = (1 << partial_tag_bits) - 1
        self.tags: list[int] = []
        self.rrpv: list[int] = []
        self.unique_count = 0
        self.counter_max = (1 << counter_bits) - 1

    def observe(self, tag: int) -> bool:
        """Record one demand access; returns True when it was unique.

        Mirrors a cache-set lookup: hit refreshes recency (RRPV 0); miss
        installs the partial tag, evicting via SRRIP aging when full, and
        bumps the saturating unique counter.
        """
        partial = tag & self.partial_mask
        tags = self.tags
        try:
            idx = tags.index(partial)
        except ValueError:
            idx = -1
        if idx >= 0:
            self.rrpv[idx] = 0
            return False

        if self.unique_count < self.counter_max:
            self.unique_count += 1
        if len(tags) < self.entries:
            tags.append(partial)
            # SRRIP-style insertion at "long" re-reference interval.
            self.rrpv.append(self.MAX_RRPV - 1)
        else:
            rrpv = self.rrpv
            current_max = max(rrpv)
            if current_max < self.MAX_RRPV:
                delta = self.MAX_RRPV - current_max
                for i in range(len(rrpv)):
                    rrpv[i] += delta
            victim = rrpv.index(self.MAX_RRPV)
            tags[victim] = partial
            self.rrpv[victim] = self.MAX_RRPV - 1
        return True

    def reset(self) -> None:
        self.tags.clear()
        self.rrpv.clear()
        self.unique_count = 0


class FootprintSampler:
    """Per-application Footprint-number monitor over sampled LLC sets.

    One instance exists per application (the paper: "there are as many
    instances of this component as the number of applications").  The set
    of monitored LLC sets is chosen evenly across the index space and is
    identical for every application, so results are comparable.
    """

    def __init__(
        self,
        llc_num_sets: int,
        num_monitor_sets: int = 40,
        entries: int = 16,
        partial_tag_bits: int = 10,
    ) -> None:
        if llc_num_sets < 1:
            raise ValueError("LLC must have at least one set")
        num_monitor_sets = min(num_monitor_sets, llc_num_sets)
        self.llc_num_sets = llc_num_sets
        self.entries = entries
        # Evenly spaced monitored sets; a dict gives O(1) membership checks
        # on the hot path (the paper's "test logic").
        stride = llc_num_sets / num_monitor_sets
        chosen: list[int] = []
        for i in range(num_monitor_sets):
            idx = int(i * stride)
            if not chosen or idx != chosen[-1]:
                chosen.append(idx)
        self.monitored_sets = chosen
        self._index_of = {s: i for i, s in enumerate(chosen)}
        self._arrays = [
            SamplerSet(entries, partial_tag_bits) for _ in chosen
        ]
        self.samples = 0
        self.intervals_completed = 0
        self.last_footprint = 0.0

    @property
    def num_monitor_sets(self) -> int:
        return len(self.monitored_sets)

    def observe(self, set_idx: int, block_addr: int) -> None:
        """Sample one demand access if it targets a monitored set."""
        arr_idx = self._index_of.get(set_idx)
        if arr_idx is None:
            return
        self.samples += 1
        # The tag is everything above the set-index bits.
        tag = block_addr // self.llc_num_sets
        self._arrays[arr_idx].observe(tag)

    def footprint_number(self) -> float:
        """Current (mid-interval) average unique count across sampled sets."""
        total = sum(arr.unique_count for arr in self._arrays)
        return total / len(self._arrays)

    def compute_and_reset(self) -> float:
        """End-of-interval: return the Footprint-number and restart.

        This is the "sliding" behaviour: every interval gets a fresh view,
        so dynamic changes in application behaviour are captured.
        """
        footprint = self.footprint_number()
        for arr in self._arrays:
            arr.reset()
        self.intervals_completed += 1
        self.last_footprint = footprint
        return footprint

    # -- hardware cost ------------------------------------------------------

    def storage_bits(self) -> int:
        """Storage in bits, following the Section 3.3 accounting."""
        per_set = self.entries * 12 + 8 + 4  # 10b tag + 2b recency, head/tail, counter
        per_app_sets = per_set * self.num_monitor_sets
        registers = 40  # footprint byte, priority byte, three 1-byte tickers
        return per_app_sets + registers
