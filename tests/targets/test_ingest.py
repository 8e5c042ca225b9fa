"""Ingestion: content addressing, byte-identity, budgets, acquisition."""

from __future__ import annotations

import tarfile

import numpy as np
import pytest
from make_fixtures import FIXTURE_DIR

from repro.runner.integrity import checksum_path, read_meta, verify_artifact
from repro.targets import (
    AcquisitionError,
    LocalDirectory,
    LocalFile,
    Tarball,
    Target,
    ingest_file,
    ingest_key,
    ingest_target,
    trace_budget,
)
from repro.targets.formats import SyntheticInstr, encode_lackey, expected_accesses
from repro.targets.ingest import DEFAULT_BUDGET, default_name
from repro.targets.registry import TRACE_DTYPE, buffer_path, load_registry

CHAMPSIM_FIXTURE = FIXTURE_DIR / "toy-champsim.trace.gz"
LACKEY_FIXTURE = FIXTURE_DIR / "toy.lackey.out"
CHUNK = 4096


def lackey_file(tmp_path, n_instrs: int, name: str = "big.lackey.out"):
    """A synthetic lackey trace with exactly ``2 * n_instrs`` accesses."""
    instrs = [
        SyntheticInstr(
            pc=0x400000 + 4 * i,
            reads=(0x1000 + 64 * i,),
            writes=(0x800000 + 64 * i,),
        )
        for i in range(n_instrs)
    ]
    path = tmp_path / name
    path.write_text(encode_lackey(instrs))
    return path, instrs


class TestBudget:
    def test_default(self):
        assert trace_budget() == DEFAULT_BUDGET

    def test_env_budget_and_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BUDGET", "100000")
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert trace_budget() == 50_000

    def test_floored_at_one_chunk(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BUDGET", "10")
        assert trace_budget() == CHUNK
        assert trace_budget(1) == CHUNK

    def test_explicit_budget_bypasses_scaling(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert trace_budget(65536) == 65536


class TestContentAddress:
    def test_key_is_stable_and_parameter_sensitive(self):
        base = ingest_key("ab" * 32, 64, 8192)
        assert base == ingest_key("ab" * 32, 64, 8192)
        assert len(base) == 40
        assert base != ingest_key("cd" * 32, 64, 8192)
        assert base != ingest_key("ab" * 32, 128, 8192)
        assert base != ingest_key("ab" * 32, 64, 4096)

    @pytest.mark.parametrize(
        ("file_name", "target_name"),
        [
            ("toy-champsim.trace.gz", "tgt:toy-champsim"),
            ("app.lackey.out", "tgt:app.lackey"),
            ("My Run (v2).drcachesim.txt", "tgt:my-run-v2-.drcachesim"),
        ],
    )
    def test_default_name(self, file_name, target_name):
        assert default_name(file_name) == target_name


class TestIngestGolden:
    def test_buffer_matches_the_decoded_stream(self, traces_dir):
        from make_fixtures import fixture_instrs

        spec, reused = ingest_file(LACKEY_FIXTURE, directory=traces_dir)
        assert not reused
        want = expected_accesses(fixture_instrs(LACKEY_FIXTURE.name))
        buf = np.load(buffer_path(traces_dir, spec.key))
        assert buf.dtype == TRACE_DTYPE
        assert len(buf) == spec.n_chunks * CHUNK
        n = len(want.addrs)
        assert spec.n_accesses == n
        np.testing.assert_array_equal(buf["addr"][:n], want.addrs)
        np.testing.assert_array_equal(buf["pc"][:n], want.pcs)
        np.testing.assert_array_equal(buf["write"][:n], want.writes)
        # Tiled tail repeats the stream cyclically.
        np.testing.assert_array_equal(buf["addr"][n : 2 * n], want.addrs[: n])

    def test_reingestion_is_byte_identical(self, traces_dir):
        spec, _ = ingest_file(CHAMPSIM_FIXTURE, directory=traces_dir)
        path = buffer_path(traces_dir, spec.key)
        first = path.read_bytes()
        # Drop the buffer and its sidecars: a fresh ingest must reproduce
        # the exact bytes (the golden guarantee behind the content key).
        path.unlink()
        checksum_path(path).unlink()
        (traces_dir / f"{path.name}.meta.json").unlink()
        again, reused = ingest_file(CHAMPSIM_FIXTURE, directory=traces_dir)
        assert not reused and again == spec
        assert path.read_bytes() == first

    def test_second_ingest_reuses_without_reparsing(self, traces_dir):
        spec, first_reused = ingest_file(CHAMPSIM_FIXTURE, directory=traces_dir)
        again, reused = ingest_file(CHAMPSIM_FIXTURE, directory=traces_dir)
        assert not first_reused and reused
        assert again == spec

    def test_ingest_into_two_stores_is_identical(self, tmp_path):
        a, _ = ingest_file(CHAMPSIM_FIXTURE, directory=tmp_path / "a")
        b, _ = ingest_file(CHAMPSIM_FIXTURE, directory=tmp_path / "b")
        assert a.key == b.key
        assert (
            buffer_path(tmp_path / "a", a.key).read_bytes()
            == buffer_path(tmp_path / "b", b.key).read_bytes()
        )

    def test_sidecars_and_registry(self, traces_dir):
        spec, _ = ingest_file(CHAMPSIM_FIXTURE, directory=traces_dir)
        path = buffer_path(traces_dir, spec.key)
        assert verify_artifact(path) is True
        meta = read_meta(path)
        assert meta["kind"] == "target"
        assert meta["format"] == "champsim"
        assert meta["origin"] == CHAMPSIM_FIXTURE.name
        assert meta["source_sha256"] == spec.source_sha256
        assert meta["accesses"] == spec.n_accesses
        registry = load_registry(traces_dir)
        assert registry == {"tgt:toy-champsim": spec}

    def test_corrupt_buffer_is_quarantined_and_rebuilt(self, traces_dir):
        spec, _ = ingest_file(CHAMPSIM_FIXTURE, directory=traces_dir)
        path = buffer_path(traces_dir, spec.key)
        good = path.read_bytes()
        path.write_bytes(good[:-4] + b"\xde\xad\xbe\xef")
        again, reused = ingest_file(CHAMPSIM_FIXTURE, directory=traces_dir)
        assert not reused and again == spec
        assert path.read_bytes() == good
        assert (traces_dir / "quarantine" / path.name).is_file()


class TestDownSampling:
    def test_budget_truncates_to_leading_prefix(self, tmp_path, traces_dir):
        path, instrs = lackey_file(tmp_path, 3000)  # 6000 accesses
        spec, _ = ingest_file(path, directory=traces_dir, budget=CHUNK)
        assert spec.n_accesses == CHUNK and spec.n_chunks == 1
        want = expected_accesses(instrs)
        buf = np.load(buffer_path(traces_dir, spec.key))
        np.testing.assert_array_equal(buf["addr"], want.addrs[:CHUNK])

    def test_unbudgeted_keeps_everything(self, tmp_path, traces_dir):
        path, _ = lackey_file(tmp_path, 3000)
        spec, _ = ingest_file(path, directory=traces_dir)
        assert spec.n_accesses == 6000 and spec.n_chunks == 2

    def test_env_scale_reaches_the_default_budget(
        self, tmp_path, traces_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_BUDGET", str(2 * CHUNK))
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        path, _ = lackey_file(tmp_path, 3000)
        spec, _ = ingest_file(path, directory=traces_dir)
        assert spec.budget == CHUNK and spec.n_accesses == CHUNK

    def test_different_budgets_are_different_artifacts(self, tmp_path, traces_dir):
        path, _ = lackey_file(tmp_path, 3000)
        a, _ = ingest_file(path, directory=traces_dir, budget=CHUNK)
        b, _ = ingest_file(path, directory=traces_dir, budget=2 * CHUNK)
        assert a.key != b.key
        assert buffer_path(traces_dir, a.key).is_file()
        assert buffer_path(traces_dir, b.key).is_file()
        # Last ingest under the name wins in the registry.
        assert load_registry(traces_dir)["tgt:big.lackey"] == b


class TestCoreModelParameters:
    def test_ipa_reflects_instruction_density(self, traces_dir):
        spec, _ = ingest_file(LACKEY_FIXTURE, directory=traces_dir)
        # The fixture emits exactly two accesses per instruction.
        assert spec.instructions_per_access == pytest.approx(0.5, abs=0.5)
        assert 1.0 <= spec.instructions_per_access <= 1000.0

    def test_ingest_flags_override_core_model(self, traces_dir):
        spec, _ = ingest_file(
            LACKEY_FIXTURE, directory=traces_dir, mlp=4.0, base_cpi=0.5
        )
        assert spec.mlp == 4.0 and spec.base_cpi == 0.5
        assert spec.thrashing is False


class TestAcquisition:
    def test_local_file_checksum_pin(self, traces_dir):
        from repro.runner.integrity import file_digest

        good = Target(
            "toy",
            LocalFile(CHAMPSIM_FIXTURE, sha256=file_digest(CHAMPSIM_FIXTURE)),
        )
        specs = ingest_target(good, traces_dir / "staging", directory=traces_dir)
        assert [s.name for s in specs] == ["tgt:toy"]
        bad = Target("toy", LocalFile(CHAMPSIM_FIXTURE, sha256="0" * 64))
        with pytest.raises(AcquisitionError, match="checksum mismatch"):
            ingest_target(bad, traces_dir / "staging", directory=traces_dir)

    def test_directory_source_ingests_every_match(self, traces_dir):
        target = Target(
            "toys", LocalDirectory(FIXTURE_DIR, pattern="toy*"), mlp=3.0
        )
        specs = ingest_target(target, traces_dir / "staging", directory=traces_dir)
        assert len(specs) == 3
        assert {s.fmt for s in specs} == {"champsim", "drcachesim", "lackey"}
        assert all(s.name.startswith("tgt:toys-") for s in specs)
        assert all(s.mlp == 3.0 for s in specs)

    def test_tarball_source_extracts_flat(self, tmp_path, traces_dir):
        archive = tmp_path / "bundle.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            # Archive paths are hostile by default: members carry
            # directory components that must never be honoured.
            tar.add(LACKEY_FIXTURE, arcname="deep/../../toy.lackey.out")
            tar.add(CHAMPSIM_FIXTURE, arcname="sub/dir/toy-champsim.trace.gz")
        target = Target("bundle", Tarball(archive, pattern="toy*"))
        staging = tmp_path / "staging"
        specs = ingest_target(target, staging, directory=traces_dir)
        assert len(specs) == 2
        extracted = {p.name for p in staging.iterdir()}
        assert extracted == {"toy.lackey.out", "toy-champsim.trace.gz"}

    def test_missing_inputs_raise(self, tmp_path, traces_dir):
        with pytest.raises(AcquisitionError, match="not found"):
            Target("x", LocalFile(tmp_path / "absent.trace")).trace_set(tmp_path)
        with pytest.raises(AcquisitionError, match="no files match"):
            Target("x", LocalDirectory(tmp_path, pattern="*.trace")).trace_set(
                tmp_path
            )
