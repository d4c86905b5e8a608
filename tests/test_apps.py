"""Application-skeleton tests: structure, counts, phases, file roles."""

import numpy as np
import pytest

from repro.analysis import (
    FileAccessMap,
    OperationTable,
    PatternKind,
    PatternSummary,
    SizeTable,
    detect_phases,
)
from repro.apps import (
    Collective,
    Escat,
    EscatConfig,
    Render,
    RenderConfig,
    small_escat,
    small_htf,
    small_render,
)
from repro.apps.escat import INPUT_IDS, OUTPUT_IDS, STAGING_IDS
from repro.core.registry import small_experiment
from repro.pablo import InstrumentedPFS, Op
from repro.pfs import PFS
from tests.conftest import drive, make_machine


def run_escat(nodes=8, config=None):
    machine = make_machine(nodes=nodes)
    fs = InstrumentedPFS(PFS(machine))
    app = Escat(machine=machine, fs=fs, config=config or small_escat(nodes))
    return app, app.run()


def run_render(renderers=7, frames=5):
    machine = make_machine(nodes=renderers + 1)
    fs = InstrumentedPFS(PFS(machine))
    app = Render(machine=machine, fs=fs, config=small_render(renderers, frames))
    return app, app.run()


def run_htf(nodes=8):
    """The three HTF traces keyed by program name."""
    return small_experiment(
        "htf", machine_factory=lambda: make_machine(nodes=nodes), config=small_htf(nodes)
    ).run().traces


class TestCollective:
    def test_broadcast_releases_all(self, machine):
        group = Collective(machine, list(range(4)))
        done = []

        def member(node):
            yield from group.broadcast(node, 0, 1_000_000)
            done.append((node, machine.env.now))

        drive(machine, *[member(i) for i in range(4)])
        times = {t for _, t in done}
        assert len(done) == 4 and len(times) == 1

    def test_successive_broadcasts_use_generations(self, machine):
        group = Collective(machine, [0, 1])
        log = []

        def member(node):
            for round_no in range(3):
                yield from group.broadcast(node, 0, 100)
                log.append((node, round_no))

        drive(machine, member(0), member(1))
        assert len(log) == 6

    def test_gather_synchronizes(self, machine):
        group = Collective(machine, [0, 1, 2])
        done = []

        def member(node):
            yield machine.env.timeout(node * 1.0)
            yield from group.gather(node, 0, 1000)
            done.append(machine.env.now)

        drive(machine, *[member(i) for i in range(3)])
        assert min(done) >= 2.0  # nobody finishes before the last arrival

    def test_empty_group_rejected(self, machine):
        with pytest.raises(ValueError):
            Collective(machine, [])


class TestEscatStructure:
    def test_counts_match_config_formulas(self):
        app, trace = run_escat()
        table = OperationTable(trace)
        cfg = app.config
        assert table.row("Write").count == cfg.expected_writes
        assert table.row("Read").count == cfg.expected_reads
        assert table.row("Open").count == cfg.expected_opens
        assert table.row("Close").count == cfg.expected_opens

    def test_all_writes_small(self):
        _, trace = run_escat()
        sizes = SizeTable(trace)
        assert sizes.write.buckets[0] == sizes.write.total  # all < 4 KB

    def test_reads_bimodal(self):
        _, trace = run_escat()
        assert SizeTable(trace).is_bimodal("read")

    def test_paper_file_ids_present(self):
        _, trace = run_escat()
        fids = set(np.unique(trace.events["file_id"]))
        assert set(INPUT_IDS) <= fids
        assert set(STAGING_IDS) <= fids
        assert set(OUTPUT_IDS) <= fids

    def test_file_roles(self):
        _, trace = run_escat()
        amap = FileAccessMap(trace)
        for fid in INPUT_IDS:
            assert amap.files[fid].read_only
        for fid in OUTPUT_IDS:
            assert amap.files[fid].write_only
        for fid in STAGING_IDS:
            assert amap.files[fid].written_then_read()

    def test_staging_writes_contiguous_per_node(self):
        app, trace = run_escat()
        summary = PatternSummary(trace, kind="write")
        staging = [s for s in summary.streams if s.file_id in STAGING_IDS]
        assert staging
        assert all(s.kind is PatternKind.SEQUENTIAL for s in staging)

    def test_reread_volume_exceeds_written_volume(self):
        app, trace = run_escat()
        amap = FileAccessMap(trace)
        for fid in STAGING_IDS:
            fa = amap.files[fid]
            assert fa.bytes_read > fa.bytes_written  # stripe-layout holes

    def test_seek_before_every_staging_write(self):
        app, trace = run_escat()
        cfg = app.config
        seeks = trace.by_op(Op.SEEK)
        assert len(seeks) == cfg.nodes * cfg.iterations * 2

    def test_only_node0_reads_input(self):
        _, trace = run_escat()
        ev = trace.events
        input_reads = ev[
            np.isin(ev["file_id"], INPUT_IDS) & (ev["op"] == int(Op.READ))
        ]
        assert set(input_reads["node"]) == {0}

    def test_phase_marks_ordered(self):
        app, _ = run_escat()
        names = [m.name for m in app.phase_marks]
        assert names == ["phase1", "phase2", "phase3", "phase4", "end"]
        times = [m.time for m in app.phase_marks]
        assert times == sorted(times)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EscatConfig(nodes=0)
        with pytest.raises(ValueError):
            EscatConfig(iterations=100, record_bytes=2008)  # region overflow

    def test_workload_larger_than_machine_rejected(self):
        machine = make_machine(nodes=4)
        with pytest.raises(ValueError):
            Escat(
                machine=machine,
                fs=InstrumentedPFS(PFS(machine)),
                config=small_escat(nodes=8),
            )


class TestRenderStructure:
    def test_op_counts(self):
        app, trace = run_render()
        cfg = app.config
        table = OperationTable(trace)
        assert table.row("AsynchRead").count == cfg.async_reads
        assert table.row("I/O Wait").count == cfg.async_reads
        assert table.row("Read").count == cfg.sync_reads
        assert table.row("Write").count == cfg.expected_writes
        assert table.row("Seek").count == cfg.control_seeks

    def test_two_phases_read_then_write(self):
        app, trace = run_render()
        init_end = app.phase_time("render")
        ev = trace.events
        reads = ev[np.isin(ev["op"], [int(Op.AREAD)])]
        writes = ev[ev["op"] == int(Op.WRITE)]
        assert reads["timestamp"].max() < init_end
        assert writes["timestamp"].min() >= init_end

    def test_output_staircase(self):
        app, trace = run_render()
        amap = FileAccessMap(trace)
        outputs = [fa.file_id for fa in amap.staircase()]
        assert len(outputs) == app.config.frames
        assert amap.is_staircase(outputs)

    def test_frame_write_volume_exact(self):
        app, trace = run_render()
        cfg = app.config
        writes = trace.by_op(Op.WRITE)
        expected = cfg.frames * (
            cfg.frame_bytes + cfg.frame_small_writes * cfg.frame_small_bytes
        )
        assert int(writes["nbytes"].sum()) == expected

    def test_gateway_does_all_io(self):
        _, trace = run_render()
        assert set(trace.events["node"]) == {0}

    def test_seeks_have_zero_distance(self):
        _, trace = run_render()
        seeks = trace.by_op(Op.SEEK)
        assert (seeks["nbytes"] == 0).all()

    def test_hippi_output_writes_no_frame_files(self):
        machine = make_machine(nodes=8)
        fs = InstrumentedPFS(PFS(machine))
        cfg = small_render(7, 4)
        from dataclasses import replace

        app = Render(machine=machine, fs=fs, config=replace(cfg, output="hippi"))
        trace = app.run()
        assert machine.framebuffer.frames_written == 4
        table = OperationTable(trace)
        assert table.row("Write").count == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RenderConfig(frames=0)
        with pytest.raises(ValueError):
            RenderConfig(output="teleport")


class TestHTFStructure:
    def test_three_programs_three_traces(self):
        result = run_htf()
        assert set(result) == {"psetup", "pargos", "pscf"}
        for trace in result.values():
            assert len(trace) > 0

    def test_programs_run_sequentially(self):
        result = run_htf()
        def span(tr):
            ev = tr.events
            return ev["timestamp"].min(), (ev["timestamp"] + ev["duration"]).max()

        s1, e1 = span(result["psetup"])
        s2, e2 = span(result["pargos"])
        s3, _ = span(result["pscf"])
        assert e1 <= s2 and e2 <= s3

    def test_psetup_balanced_small_io(self):
        result = run_htf()
        table = OperationTable(result["psetup"])
        reads, writes = table.row("Read"), table.row("Write")
        assert reads.count > 0 and writes.count > 0
        assert 0.3 < reads.volume / max(writes.volume, 1) < 3.0

    def test_pargos_write_intensive_with_per_node_files(self):
        result = run_htf()
        table = OperationTable(result["pargos"])
        assert table.row("Write").volume > 100 * table.row("Read").volume
        assert table.row("Lsize").count == 8
        assert table.row("Forflush").count > table.row("Write").count * 0.9

    def test_pscf_read_intensive(self):
        result = run_htf()
        table = OperationTable(result["pscf"])
        assert table.row("Read").node_time_s / table.total_time > 0.5
        assert table.row("Read").volume > 10 * table.row("Write").volume

    def test_pscf_rereads_equal_passes_times_records(self):
        result = run_htf()
        cfg = small_htf(8)
        record_reads = result["pscf"].by_op(Op.READ)
        big = record_reads[record_reads["nbytes"] == cfg.integral_record_bytes]
        assert len(big) == cfg.scf_passes * cfg.total_records

    def test_pscf_rewind_seek_distance_matches_file_size(self):
        result = run_htf()
        cfg = small_htf(8)
        reads = result["pscf"].by_op(Op.READ)
        integral_files = set(
            np.unique(reads["file_id"][reads["nbytes"] == cfg.integral_record_bytes])
        )
        seeks = result["pscf"].by_op(Op.SEEK)
        on_integrals = seeks[np.isin(seeks["file_id"], list(integral_files))]
        rewinds = on_integrals[on_integrals["nbytes"] > cfg.integral_record_bytes]
        expected_rewinds = (cfg.scf_passes - 1) * cfg.nodes
        assert len(rewinds) == expected_rewinds
        # Every rewind spans the node's whole integral file.
        for row in rewinds:
            assert row["nbytes"] % cfg.integral_record_bytes == 0

    def test_integral_files_written_then_reread(self):
        result = run_htf()
        # pargos writes them; pscf reads them: check within the combined view.
        pargos_files = set(np.unique(result["pargos"].events["file_id"]))
        pscf_files = set(np.unique(result["pscf"].events["file_id"]))
        assert len(pargos_files & pscf_files) >= 8  # the per-node files

    def test_phase_detection_sees_write_then_read_regime(self):
        result = run_htf()
        pargos_phases = detect_phases(result["pargos"], window_s=5.0)
        pscf_phases = detect_phases(result["pscf"], window_s=5.0)
        assert any(p.label == "write" for p in pargos_phases)
        assert any(p.label == "read" for p in pscf_phases)

    def test_records_split_config(self):
        cfg = small_htf(8)
        counts = [cfg.records_for(n) for n in range(8)]
        assert sum(counts) == cfg.total_records
        assert max(counts) - min(counts) == 1


class TestEscatRestart:
    """The §2 checkpoint-reuse workflow: skip phase 2, reload the staged
    quadrature, and go straight to the energy-dependent calculation."""

    def test_restart_skips_quadrature_writes(self):
        from dataclasses import replace

        cfg = replace(small_escat(8), restart=True)
        app, trace = run_escat(config=cfg)
        table = OperationTable(trace)
        # Only the final output writes remain.
        assert table.row("Write").count == 3 * cfg.output_writes_per_file
        # The reload reads still happen (the whole point of the checkpoint).
        reload_reads = trace.by_op(Op.READ)
        big = reload_reads[reload_reads["nbytes"] == cfg.region_bytes]
        assert len(big) == 2 * cfg.nodes

    def test_restart_is_much_faster(self):
        from dataclasses import replace

        full_app, _ = run_escat()
        cfg = replace(small_escat(8), restart=True)
        restart_app, _ = run_escat(config=cfg)
        full_time = full_app.machine.now
        restart_time = restart_app.machine.now
        assert restart_time < 0.5 * full_time

    def test_restart_reads_same_regions_a_full_run_wrote(self):
        from dataclasses import replace

        full_app, full_trace = run_escat()
        cfg = replace(small_escat(8), restart=True)
        _, restart_trace = run_escat(config=cfg)
        from repro.apps.escat import STAGING_IDS

        def reload_offsets(trace):
            ev = trace.by_op(Op.READ)
            mask = np.isin(ev["file_id"], STAGING_IDS)
            return sorted(zip(ev["file_id"][mask], ev["offset"][mask]))

        assert reload_offsets(full_trace) == reload_offsets(restart_trace)
