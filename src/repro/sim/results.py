"""Result records produced by the simulation drivers.

:class:`CoreSnapshot` is one core's statistics at quota completion;
:class:`SingleRunResult` and :class:`WorkloadResult` wrap one or more of
them.  All three serialise losslessly through ``to_dict``/``from_dict``:
that is what lets :mod:`repro.runner` ship results across process
boundaries and persist them as JSON in the on-disk result store.  Floats
survive the JSON round-trip bit-exactly (Python serialises the shortest
repr that round-trips), so a result re-read from the store compares equal
to the freshly simulated one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class CoreSnapshot:
    """Statistics frozen at the moment a core completes its quota."""

    instructions: float
    cycles: float
    accesses: int
    l1_misses: int
    l2_misses: int
    llc_accesses: int
    llc_misses: int
    llc_bypasses: int

    def to_dict(self) -> dict:
        """A JSON-safe dict; floats survive the round-trip bit-exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CoreSnapshot":
        return cls(**data)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    def mpki(self, misses: int | None = None) -> float:
        """Misses per kilo-instruction; defaults to LLC demand misses."""
        m = self.llc_misses if misses is None else misses
        return 1000.0 * m / self.instructions if self.instructions else 0.0

    @property
    def l2_mpki(self) -> float:
        """The Table 4 intensity metric: L2 misses per kilo-instruction."""
        return self.mpki(self.l2_misses)

    @property
    def llc_mpki(self) -> float:
        return self.mpki(self.llc_misses)


@dataclass
class SingleRunResult:
    """One application running alone on the platform."""

    benchmark: str
    config_name: str
    policy: str
    snapshot: CoreSnapshot
    #: Mean Footprint-numbers by monitor label (when monitored).
    footprints: dict[str, float] = field(default_factory=dict)
    intervals: int = 0

    @property
    def ipc(self) -> float:
        return self.snapshot.ipc

    @property
    def l2_mpki(self) -> float:
        return self.snapshot.l2_mpki

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "config_name": self.config_name,
            "policy": self.policy,
            "snapshot": self.snapshot.to_dict(),
            "footprints": dict(self.footprints),
            "intervals": self.intervals,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SingleRunResult":
        return cls(
            benchmark=data["benchmark"],
            config_name=data["config_name"],
            policy=data["policy"],
            snapshot=CoreSnapshot.from_dict(data["snapshot"]),
            footprints=dict(data.get("footprints", {})),
            intervals=data.get("intervals", 0),
        )


@dataclass
class WorkloadResult:
    """One multi-programmed workload under one LLC policy."""

    workload_name: str
    benchmarks: tuple[str, ...]
    config_name: str
    policy: str
    snapshots: list[CoreSnapshot]
    intervals: int = 0
    policy_state: str = ""

    @property
    def ipcs(self) -> list[float]:
        return [s.ipc for s in self.snapshots]

    @property
    def llc_mpkis(self) -> list[float]:
        return [s.llc_mpki for s in self.snapshots]

    def per_app(self) -> dict[str, CoreSnapshot]:
        """Benchmark-name -> snapshot (first instance wins on duplicates)."""
        out: dict[str, CoreSnapshot] = {}
        for name, snap in zip(self.benchmarks, self.snapshots):
            out.setdefault(name, snap)
        return out

    def to_dict(self) -> dict:
        return {
            "workload_name": self.workload_name,
            "benchmarks": list(self.benchmarks),
            "config_name": self.config_name,
            "policy": self.policy,
            "snapshots": [s.to_dict() for s in self.snapshots],
            "intervals": self.intervals,
            "policy_state": self.policy_state,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadResult":
        return cls(
            workload_name=data["workload_name"],
            benchmarks=tuple(data["benchmarks"]),
            config_name=data["config_name"],
            policy=data["policy"],
            snapshots=[CoreSnapshot.from_dict(s) for s in data["snapshots"]],
            intervals=data.get("intervals", 0),
            policy_state=data.get("policy_state", ""),
        )
