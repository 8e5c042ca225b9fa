"""Provenance sidecars: ``traces ls``/``targets info`` render every
artifact under ``traces/`` from its sidecars."""

from __future__ import annotations

import numpy as np
from make_fixtures import FIXTURE_DIR

from repro.experiments.__main__ import main
from repro.runner.integrity import write_meta
from repro.runner.tracegc import collect_garbage, list_traces, provenance_line
from repro.targets import ingest_file
from repro.targets.registry import buffer_path

LACKEY_FIXTURE = FIXTURE_DIR / "toy.lackey.out"


def ingest_lackey(traces_dir):
    spec, _ = ingest_file(LACKEY_FIXTURE, directory=traces_dir)
    return spec, buffer_path(traces_dir, spec.key)


class TestProvenanceLines:
    def test_ingested_target(self, traces_dir):
        _, target = ingest_lackey(traces_dir)
        line = provenance_line(target)
        assert "ingested [lackey]" in line
        assert "origin=toy.lackey.out" in line
        target.with_name(target.name + ".meta.json").unlink()
        assert provenance_line(target) == "(no provenance recorded)"

    def test_unrecognised_meta_kind(self, traces_dir):
        # Buffers written by older builds carry meta kinds nothing writes
        # any more; they render, but as unrecognised.
        traces_dir.mkdir(parents=True)
        legacy = traces_dir / ("ab" * 20 + ".npy")
        np.save(legacy, np.zeros(4))
        write_meta(legacy, {"kind": "synthetic", "generator": "mcf"})
        assert provenance_line(legacy) == "(unrecognised meta kind 'synthetic')"


class TestInventory:
    def test_ls_renders_provenance(self, traces_dir):
        ingest_lackey(traces_dir)
        inventory = list_traces(traces_dir.parent)
        assert len(inventory.entries) == 1
        assert "ingested [lackey]" in inventory.render()

    def test_info_falls_back_to_raw_artifacts(self, traces_dir, capsys):
        spec, target = ingest_lackey(traces_dir)
        for item in (target.name, spec.key):
            rc = main(
                ["targets", "info", item, "--results-dir", str(traces_dir.parent)]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert out.startswith(f"{target.name}: ingested [lackey]")


class TestGcSidecarSweep:
    def test_orphan_meta_sidecars_are_swept(self, traces_dir):
        _, path = ingest_lackey(traces_dir)
        meta = traces_dir / (path.name + ".meta.json")
        path.unlink()  # orphan both sidecars
        assert meta.is_file()
        collect_garbage(traces_dir.parent)
        assert not meta.is_file()

    def test_gc_keeps_sidecars_of_kept_targets(self, traces_dir):
        _, path = ingest_lackey(traces_dir)
        collect_garbage(traces_dir.parent)
        assert path.is_file()
        assert (traces_dir / (path.name + ".meta.json")).is_file()
        assert (traces_dir / (path.name + ".sha256")).is_file()
