"""Real-workload trace frontend: ingest external traces as first-class
benchmarks.

The subsystem has four layers (see the README's targets section):

* :mod:`repro.targets.formats` — streaming decoders/encoders for
  ChampSim binary, DynamoRIO drcachesim text and valgrind lackey traces;
* :mod:`repro.targets.target` — ``Target``/``TraceSet`` acquisition
  (local file, directory, tarball) with checksum verification;
* :mod:`repro.targets.ingest` — one-time content-addressed
  materialisation into a store's ``traces/`` directory under a
  down-sampling budget (``REPRO_TRACE_BUDGET`` x ``REPRO_SCALE``);
* :mod:`repro.targets.registry` — the ``targets.json`` registry, the
  ``tgt:`` name namespace and the memmapped
  :class:`~repro.targets.registry.IngestedTraceSource` every kernel
  consumes unchanged.
"""

from repro.targets.formats import (
    FORMATS,
    FormatError,
    SyntheticInstr,
    detect_format,
    iter_chunks,
)
from repro.targets.ingest import (
    DEFAULT_BUDGET,
    ingest_file,
    ingest_key,
    ingest_target,
    trace_budget,
)
from repro.targets.registry import (
    ENV_TARGETS_DIR,
    TARGET_PREFIX,
    IngestedTraceSource,
    TargetSpec,
    activate,
    is_target,
    load_registry,
    lookup_target,
    make_target_source,
    require_target,
)
from repro.targets.suite import real_suite
from repro.targets.target import (
    AcquisitionError,
    LocalDirectory,
    LocalFile,
    Tarball,
    Target,
    TraceFile,
    TraceSet,
)

__all__ = [
    "FORMATS",
    "FormatError",
    "SyntheticInstr",
    "detect_format",
    "iter_chunks",
    "DEFAULT_BUDGET",
    "ingest_file",
    "ingest_key",
    "ingest_target",
    "trace_budget",
    "ENV_TARGETS_DIR",
    "TARGET_PREFIX",
    "IngestedTraceSource",
    "TargetSpec",
    "activate",
    "is_target",
    "load_registry",
    "lookup_target",
    "make_target_source",
    "require_target",
    "real_suite",
    "AcquisitionError",
    "LocalDirectory",
    "LocalFile",
    "Tarball",
    "Target",
    "TraceFile",
    "TraceSet",
]
