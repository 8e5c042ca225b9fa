"""The ``targets`` subcommand, ``traces ls`` provenance, gc pinning, and
the subcommand-named usage errors."""

from __future__ import annotations

import pytest
from make_fixtures import FIXTURE_DIR

from repro.experiments.__main__ import main
from repro.targets import ingest_file, load_registry
from repro.targets.registry import buffer_path

CHAMPSIM_FIXTURE = FIXTURE_DIR / "toy-champsim.trace.gz"
LACKEY_FIXTURE = FIXTURE_DIR / "toy.lackey.out"


@pytest.fixture
def store(tmp_path):
    return tmp_path / "results"


def targets_cli(store, *argv):
    return main(["targets", *argv, "--results-dir", str(store)])


class TestTargetsIngest:
    def test_ingest_then_list_then_info(self, store, capsys):
        assert targets_cli(store, "ingest", str(CHAMPSIM_FIXTURE)) == 0
        out = capsys.readouterr().out
        assert "ingested tgt:toy-champsim" in out
        assert "[champsim]" in out

        assert targets_cli(store, "list") == 0
        out = capsys.readouterr().out
        assert "tgt:toy-champsim" in out and "origin=toy-champsim.trace.gz" in out

        assert targets_cli(store, "info", "toy-champsim") == 0
        out = capsys.readouterr().out
        assert "source     sha256:" in out
        assert "core model mlp=2.0" in out

    def test_reingest_reports_reuse(self, store, capsys):
        targets_cli(store, "ingest", str(LACKEY_FIXTURE))
        capsys.readouterr()
        assert targets_cli(store, "ingest", str(LACKEY_FIXTURE)) == 0
        assert "reused tgt:toy.lackey" in capsys.readouterr().out

    def test_custom_name_and_flags(self, store, capsys):
        rc = targets_cli(
            store,
            "ingest",
            str(LACKEY_FIXTURE),
            "--name",
            "mcf",
            "--mlp",
            "4.0",
        )
        assert rc == 0
        registry = load_registry(store / "traces")
        assert registry["tgt:mcf"].mlp == 4.0

    def test_name_with_many_files_is_an_error(self, store, capsys):
        rc = targets_cli(
            store,
            "ingest",
            str(LACKEY_FIXTURE),
            str(CHAMPSIM_FIXTURE),
            "--name",
            "x",
        )
        assert rc == 2
        assert "--name applies to a single file" in capsys.readouterr().err

    def test_unreadable_file_names_the_item(self, store, capsys):
        rc = targets_cli(store, "ingest", "absent.trace")
        assert rc == 2
        assert "targets ingest: absent.trace:" in capsys.readouterr().err

    def test_undetectable_format_is_a_usage_error(self, store, tmp_path, capsys):
        mystery = tmp_path / "mystery.bin"
        mystery.write_bytes(b"\0" * 64)
        assert targets_cli(store, "ingest", str(mystery)) == 2
        assert "--format" in capsys.readouterr().err

    def test_empty_store_list_hints_at_ingest(self, store, capsys):
        assert targets_cli(store, "list") == 0
        assert "targets ingest" in capsys.readouterr().out

    def test_unknown_info_exits_2(self, store, capsys):
        targets_cli(store, "ingest", str(LACKEY_FIXTURE))
        capsys.readouterr()
        assert targets_cli(store, "info", "nonesuch") == 2
        assert "unknown target" in capsys.readouterr().err


class TestTracesInventory:
    def test_ls_renders_target_provenance(self, store, capsys):
        targets_cli(store, "ingest", str(CHAMPSIM_FIXTURE))
        capsys.readouterr()
        assert main(["traces", "ls", "--results-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "target" in out and "champsim" in out

    def test_gc_keeps_registered_buffers(self, store, capsys):
        spec, _ = ingest_file(CHAMPSIM_FIXTURE, directory=store / "traces")
        path = buffer_path(store / "traces", spec.key)
        assert main(["traces", "gc", "--results-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert path.is_file()
        assert "pinned by targets.json" in out
        assert spec.name in out

    def test_gc_deletes_unregistered_target_buffers(self, store, capsys):
        spec, _ = ingest_file(CHAMPSIM_FIXTURE, directory=store / "traces")
        path = buffer_path(store / "traces", spec.key)
        (store / "traces" / "targets.json").unlink()
        assert main(["traces", "gc", "--results-dir", str(store)]) == 0
        assert not path.is_file()


class TestNameAliasing:
    def test_reingest_under_another_budget_misses_the_store(self, store, monkeypatch, capsys):
        """Re-ingesting a name rebinds it to a new buffer; a run stored
        against the old buffer must not be served for the new one."""
        from repro.runner import AloneJob, ParallelRunner, ResultStore
        from repro.sim.config import SystemConfig

        monkeypatch.setenv("REPRO_TARGETS_DIR", str(store / "traces"))
        config = SystemConfig.scaled(4).with_cores(1)
        job = AloneJob("tgt:toy-champsim", config, "lru", 400, 100, 0)
        runner = ParallelRunner(jobs=1, store=ResultStore(store))

        assert targets_cli(store, "ingest", str(CHAMPSIM_FIXTURE), "--budget", "4096") == 0
        assert runner.run_one(job) is not None
        assert targets_cli(store, "ingest", str(CHAMPSIM_FIXTURE), "--budget", "8192") == 0
        assert "ingested tgt:toy-champsim" in capsys.readouterr().out.splitlines()[-1]
        assert runner.run_one(job) is not None
        assert runner.stats["store_hits"] == 0
        assert runner.stats["executed"] == 2


class TestUsageErrors:
    def test_unrecognized_argument_names_the_subcommand(self, store, capsys):
        rc = main(["targets", "list", "--results-dir", str(store), "--frobnicate"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "targets: unrecognized arguments: --frobnicate" in err
        assert "targets --help" in err

    def test_tournament_flags_are_checked_too(self, capsys):
        rc = main(["tournament", "--no-such-flag"])
        assert rc == 2
        assert "tournament: unrecognized arguments" in capsys.readouterr().err

    def test_no_command_still_prints_help(self, capsys):
        assert main([]) == 2
        assert "command" in capsys.readouterr().err


class TestBenchmarkSetFlag:
    @pytest.mark.parametrize("command", ["tournament", "fig3", "table4"])
    def test_flag_is_accepted(self, command):
        from repro.experiments.cli import build_parser

        parser = build_parser()
        args = parser.parse_args([command, "--benchmark-set", "real"])
        assert args.benchmark_set == "real"

    def test_rejects_unknown_set(self, capsys):
        with pytest.raises(SystemExit):
            from repro.experiments.cli import build_parser

            build_parser().parse_args(["tournament", "--benchmark-set", "imaginary"])
