"""What each CLI command imports, checked in fresh interpreters.

Commands that do not simulate must not pay for the simulator: ``list``
and every ``--help`` stay clear of numpy and the simulation stack, the
static tables never load a kernel, and ``report`` reads a store without
loading the core model or a kernel.
A pooled batch with misses imports the job-execution stack in the parent
before the pool forks, so every worker inherits it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.experiments.commands  # noqa: F401  (registers every subcommand)
from repro.experiments.cli import COMMANDS
from repro.runner import SCHEMA_VERSION, AloneJob, ResultStore, WorkloadJob
from repro.sim.config import SystemConfig
from repro.sim.results import CoreSnapshot, SingleRunResult, WorkloadResult
from repro.trace.workloads import Workload

pytestmark = pytest.mark.integration

SRC = Path(repro.__file__).resolve().parents[1]

#: Runs ``python -m repro.experiments ARGS`` and writes the names in
#: ``sys.modules`` at interpreter exit to the file named by argv[1].
CLI_PROBE = """
import atexit, json, runpy, sys
out = sys.argv[1]
atexit.register(lambda: open(out, "w").write(json.dumps(sorted(sys.modules))))
sys.argv = ["repro-experiments", *sys.argv[2:]]
runpy.run_module("repro.experiments", run_name="__main__", alter_sys=True)
"""

#: The simulated platform and the modules that build and run it.
KERNEL_PACKAGES = ("repro.cpu", "repro.cache", "repro.mem")
KERNEL_MODULES = ("repro.sim.multi", "repro.sim.build")


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def loaded_by(tmp_path: Path, *argv: str) -> set[str]:
    """The modules a fresh CLI invocation of *argv* has imported on exit."""
    out = tmp_path / "modules.json"
    subprocess.run(
        [sys.executable, "-c", CLI_PROBE, str(out), *argv],
        cwd=tmp_path,
        env=_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return set(json.loads(out.read_text()))


def kernel_modules(modules: set[str]) -> list[str]:
    return sorted(
        name
        for name in modules
        if name in KERNEL_MODULES
        or any(name == p or name.startswith(p + ".") for p in KERNEL_PACKAGES)
    )


def simulation_modules(modules: set[str]) -> list[str]:
    """Kernel modules plus numpy and ``repro.sim.single``."""
    extra = {m for m in modules if m.split(".")[0] == "numpy" or m == "repro.sim.single"}
    return sorted(extra) + kernel_modules(modules)


class TestCommandsThatDoNotSimulate:
    def test_list_loads_no_simulation_module(self, tmp_path):
        modules = loaded_by(tmp_path, "list")
        assert "repro.experiments.commands" in modules  # the probe really ran
        assert simulation_modules(modules) == []

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_loads_no_simulation_module(self, tmp_path, command):
        modules = loaded_by(tmp_path, command, "--help")
        assert "repro.experiments.cli" in modules
        assert simulation_modules(modules) == []

    @pytest.mark.parametrize("table", ["table2", "table3", "table6"])
    def test_static_tables_load_no_simulation_stack(self, tmp_path, table):
        modules = loaded_by(tmp_path, table)
        assert "repro.experiments.tables" in modules
        assert kernel_modules(modules) == []

    def test_report_loads_no_core_model_or_kernel(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        _fill_tiny_store(store)
        modules = loaded_by(
            tmp_path,
            "report",
            "--results-dir",
            str(store.root),
            "--no-kernel",
            "--out",
            str(tmp_path / "snapshot.json"),
        )
        assert (tmp_path / "snapshot.json").is_file()  # the report really ran
        assert sorted(m for m in modules if m.startswith("repro.cpu")) == []
        # Decoding a stored job needs the policy spec, not the policy zoo,
        # and no trace generator.
        policies = sorted(m for m in modules if m.startswith("repro.policies."))
        assert policies == ["repro.policies.spec"]
        assert not {"repro.trace.benchmarks", "repro.trace.workloads"} & modules


def _fill_tiny_store(store: ResultStore) -> None:
    """Two policies on one 4-core workload, plus the solo baselines."""
    config = SystemConfig.scaled(4)
    benchmarks = ("lbm", "bzip", "deal", "omn")
    snapshot = CoreSnapshot(1000.0, 1000.0, 1000, 100, 50, 50, 10, 0)

    def put(job, result) -> None:
        store.put(
            job.cache_key(),
            {
                "schema": SCHEMA_VERSION,
                "kind": job.kind,
                "job": job.to_dict(),
                "result": result.to_dict(),
            },
        )

    for benchmark in benchmarks:
        job = AloneJob(benchmark, config.with_cores(1), "tadrrip", 900, 100, 0)
        put(job, SingleRunResult(benchmark, job.config.name, "tadrrip", snapshot))
    for policy in ("tadrrip", "lru"):
        job = WorkloadJob.for_workload(
            Workload("mix-0", benchmarks), config, policy, quota=800, warmup=200, master_seed=0
        )
        put(job, WorkloadResult("mix-0", benchmarks, config.name, policy, [snapshot] * 4))


#: Runs one pooled two-job miss batch and records, at the moment the pool
#: is created, which of the watched modules the parent has imported.
FORK_PROBE = """
import json, sys
import concurrent.futures.process as process

WATCHED = ("repro.sim.multi", "repro.cpu.replay")
seen = []
original = process.ProcessPoolExecutor.__init__

def init(self, *args, **kwargs):
    seen.append([name for name in WATCHED if name in sys.modules])
    original(self, *args, **kwargs)

process.ProcessPoolExecutor.__init__ = init

from repro.runner import AloneJob, ParallelRunner
from repro.sim.config import SystemConfig

assert not any(name in sys.modules for name in WATCHED)
config = SystemConfig.scaled(4).with_cores(1)
jobs = [AloneJob(name, config, "lru", 300, 100, 0) for name in ("lbm", "bzip")]
results = ParallelRunner(jobs=2).run(jobs)
assert all(result is not None for result in results)
print(json.dumps(seen))
"""


class TestPoolWorkersInheritTheExecutionStack:
    def test_parent_imports_the_stack_before_the_pool_forks(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", FORK_PROBE],
            cwd=tmp_path,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [["repro.sim.multi", "repro.cpu.replay"]]
