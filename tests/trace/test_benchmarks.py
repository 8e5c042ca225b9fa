"""Unit tests for the 36 synthetic benchmarks and their generator."""

import pytest

from repro.trace.benchmarks import (
    BENCHMARKS,
    CLASSES,
    THRASHING_BENCHMARKS,
    Geometry,
    TraceSource,
    benchmarks_by_class,
    make_source,
)
from repro.trace.shared import SharedTraceStore

GEO = Geometry(llc_num_sets=64, l2_blocks=128, l1_blocks=64)


class TestTable4Catalogue:
    def test_table4_row_count(self):
        # The paper's text says "36 benchmarks" but its Table 4 lists 38
        # rows; we reproduce the table.
        assert len(BENCHMARKS) == 38

    def test_class_partition(self):
        assert sum(len(benchmarks_by_class(c)) for c in CLASSES) == len(BENCHMARKS)

    def test_paper_class_counts(self):
        # Table 4 row counts per type column.
        counts = {c: len(benchmarks_by_class(c)) for c in CLASSES}
        assert counts == {"VL": 11, "L": 7, "M": 11, "H": 6, "VH": 3}

    def test_thrashing_matches_fig1b_plus_strm(self):
        expected = {
            "apsi", "astar", "cact", "gap", "gob", "gzip",
            "lbm", "libq", "milc", "wrf", "wup", "STRM",
        }
        assert set(THRASHING_BENCHMARKS) == expected

    def test_footprint_targets_match_table4(self):
        assert BENCHMARKS["mcf"].fpn == 11.9
        assert BENCHMARKS["calc"].fpn == 1.33
        assert BENCHMARKS["libq"].fpn == 29.7

    def test_mpki_targets_match_table4(self):
        assert BENCHMARKS["lbm"].l2_mpki == 48.46
        assert BENCHMARKS["eon"].l2_mpki == 0.02

    def test_working_set_scales_with_llc(self):
        spec = BENCHMARKS["black"]
        assert spec.working_set_blocks(64) == round(7.0 * 64)
        assert spec.working_set_blocks(512) == round(7.0 * 512)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            benchmarks_by_class("XL")


class TestTraceSource:
    def test_produces_triples(self):
        src = TraceSource(BENCHMARKS["mcf"], GEO, core_id=0)
        addr, pc, is_write = src.next_access()
        assert isinstance(addr, int) and isinstance(pc, int)
        assert isinstance(is_write, bool)

    def test_address_space_per_core_disjoint(self):
        a = TraceSource(BENCHMARKS["mcf"], GEO, core_id=0)
        b = TraceSource(BENCHMARKS["mcf"], GEO, core_id=1)
        addrs_a = {a.next_access()[0] for _ in range(500)}
        addrs_b = {b.next_access()[0] for _ in range(500)}
        assert not addrs_a & addrs_b

    def test_deterministic_for_seed(self):
        a = TraceSource(BENCHMARKS["lbm"], GEO, 0, master_seed=5)
        b = TraceSource(BENCHMARKS["lbm"], GEO, 0, master_seed=5)
        assert [a.next_access() for _ in range(100)] == [
            b.next_access() for _ in range(100)
        ]

    def test_different_seeds_differ(self):
        a = TraceSource(BENCHMARKS["lbm"], GEO, 0, master_seed=1)
        b = TraceSource(BENCHMARKS["lbm"], GEO, 0, master_seed=2)
        assert [a.next_access() for _ in range(50)] != [
            b.next_access() for _ in range(50)
        ]

    def test_footprint_stream_covers_working_set(self):
        src = TraceSource(BENCHMARKS["deal"], GEO, 0)
        ws = src.working_set_blocks
        seen = set()
        for _ in range(ws * 40):
            addr, _, _ = src.next_access()
            seen.add(addr - src.address_offset)
        footprint_blocks = {a for a in seen if a < ws}
        assert len(footprint_blocks) > 0.9 * ws

    def test_write_fraction_roughly_honoured(self):
        src = TraceSource(BENCHMARKS["STRM"], GEO, 0)  # write_fraction 0.5
        writes = sum(src.next_access()[2] for _ in range(4000))
        assert 0.4 < writes / 4000 < 0.6

    def test_apki_between_streams(self):
        src = TraceSource(BENCHMARKS["lbm"], GEO, 0)
        assert src.apki == src.footprint_apki + src.hot_apki
        assert src.instructions_per_access == pytest.approx(1000.0 / src.apki)

    def test_intense_benchmarks_have_higher_apki(self):
        lbm = TraceSource(BENCHMARKS["lbm"], GEO, 0)
        eon = TraceSource(BENCHMARKS["eon"], GEO, 0)
        assert lbm.footprint_apki > eon.footprint_apki

    def test_restart_replays_pattern(self):
        src = TraceSource(BENCHMARKS["swapt"], GEO, 0)
        src.next_access()
        src.restart()
        # After restart the cyclic pattern begins at position 0 again.
        assert src.pattern._pos == 0

    def test_echo_reuses_recent_footprint_addresses(self):
        spec = BENCHMARKS["astar"]  # echo_fraction 0.3
        src = TraceSource(spec, GEO, 0)
        addrs = [src.next_access()[0] for _ in range(20_000)]
        hot_base = src.working_set_blocks
        footprint = [
            a - src.address_offset
            for a in addrs
            if a - src.address_offset < hot_base
        ]
        # A shuffled cycle without echo repeats only once per full sweep
        # (span ~ 32*64 = 2048); with 30% echo, repeats appear much closer.
        repeats = len(footprint) - len(set(footprint))
        assert repeats > 0.1 * len(footprint)


class TestLibraryPcs:
    def test_library_pcs_shared_across_benchmarks(self):
        a = TraceSource(BENCHMARKS["lbm"], GEO, 0)
        b = TraceSource(BENCHMARKS["STRM"], GEO, 1)
        lib = range(
            TraceSource.LIBRARY_PC_BASE, TraceSource.LIBRARY_PC_BASE + 16, 4
        )
        pcs_a = {a.next_access()[1] for _ in range(2000)}
        pcs_b = {b.next_access()[1] for _ in range(2000)}
        shared = pcs_a & pcs_b
        assert shared and shared <= set(lib)

    def test_private_pcs_distinct(self):
        a = TraceSource(BENCHMARKS["mcf"], GEO, 0)
        b = TraceSource(BENCHMARKS["art"], GEO, 1)
        assert a._private_pc_base != b._private_pc_base


class TestMakeSource:
    def test_synthetic_names_and_specs_get_plain_sources(self):
        assert type(make_source("mcf", GEO, 0, 5)) is TraceSource
        assert type(make_source(BENCHMARKS["mcf"], GEO, 0, 5)) is TraceSource

    def test_every_source_is_built_through_the_tracer_hook(self, monkeypatch):
        # benchmarks/perf/tracer.py times the trace layer by rebinding
        # this attribute; make_source must look it up on every call.
        seen = []
        build = SharedTraceStore.materialise

        def spy(*args):
            seen.append(args[0])
            return build(*args)

        monkeypatch.setattr(SharedTraceStore, "materialise", spy)
        assert type(make_source("mcf", GEO, 0, 5)) is TraceSource
        assert seen == ["mcf"]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_every_benchmark_streams_identically_chunked_and_scalar(name):
    """``make_source``'s source read chunk-wise (the capture pass's
    path) reproduces a directly built source's one-at-a-time
    stream across chunk boundaries and a mid-chunk restart."""
    chunked = make_source(name, GEO, 1, 3)
    scalar = TraceSource(BENCHMARKS[name], GEO, 1, 3)
    assert type(chunked) is TraceSource

    def take(n):
        out = []
        while len(out) < n:
            addrs, pcs, writes, pos = chunked.next_chunk()
            end = min(len(addrs), pos + n - len(out))
            out.extend(
                zip(
                    addrs[pos:end].tolist(),
                    pcs[pos:end].tolist(),
                    writes[pos:end].tolist(),
                )
            )
            chunked.commit(end)
        return out

    stream = take(TraceSource.CHUNK + 7)
    chunked.restart()
    stream += take(TraceSource.CHUNK)
    expected = [scalar.next_access() for _ in range(TraceSource.CHUNK + 7)]
    scalar.restart()
    expected += [scalar.next_access() for _ in range(TraceSource.CHUNK)]
    assert stream == expected
    assert chunked.chunks_generated == scalar.chunks_generated == 3
    assert chunked._rng.bit_generator.state == scalar._rng.bit_generator.state
