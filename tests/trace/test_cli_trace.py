"""Trace front ends: the blast tools' export flags, the caratkop-trace
verbs, and the repro.bench trace-artifact emitter."""

import json

import pytest

from repro.bench import FIGURE_TRACE_CONFIGS, emit_trace_artifact
from repro.cli import blkblast_main, pktblast_main, trace_main
from repro.core.system import CaratKopSystem, SystemConfig
from repro.trace import validate_chrome_trace, write_artifacts


class TestRunVerb:
    """Traced runs: ``pktblast``/``caratkop-blkblast`` with the trace
    export flags."""

    def test_run_writes_all_artifacts(self, tmp_path, capsys):
        chrome = tmp_path / "t.json"
        folded = tmp_path / "t.folded"
        perf = tmp_path / "t.perf"
        stat = tmp_path / "t.stat"
        rc = pktblast_main([
            "--machine", "r415", "--count", "40", "--opt-level", "0",
            "--policy-index", "linear",
            "--chrome", str(chrome), "--folded", str(folded),
            "--perf", str(perf), "--stat-out", str(stat),
        ])
        assert rc == 0
        doc = json.loads(chrome.read_text())
        assert validate_chrome_trace(doc) == []
        assert folded.read_text().splitlines()
        assert "guard:check" in perf.read_text()
        stat_text = stat.read_text()
        assert "[guard cycle cost]" in stat_text
        out = capsys.readouterr().out
        assert "guard checks" in out
        assert f"wrote {chrome}" in out

    def test_blast_without_exports_traces_nothing(self, capsys):
        rc = pktblast_main(["--count", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace:" not in out and "wrote" not in out

    def test_run_interp_engine(self, tmp_path, capsys):
        stat = tmp_path / "t.stat"
        rc = pktblast_main(["--count", "10", "--engine", "interp",
                            "--stat-out", str(stat)])
        assert rc == 0
        assert "[guard sites]" in stat.read_text()

    def test_block_stack_exports_a_trace(self, tmp_path, capsys):
        chrome = tmp_path / "b.json"
        rc = blkblast_main(["--count", "10", "--chrome", str(chrome)])
        assert rc == 0
        assert validate_chrome_trace(json.loads(chrome.read_text())) == []

    def test_run_tiny_drop_ring_reports_lost(self, tmp_path):
        system = CaratKopSystem(SystemConfig(machine="r350"))
        trace = system.kernel.trace
        trace.configure(capacity=8, mode="drop")
        trace.enable()
        system.blast(count=40)
        trace.disable()
        assert trace.ring_stats()["lost"] > 0
        (chrome,) = write_artifacts(trace, chrome=tmp_path / "t.json")
        doc = json.loads(open(chrome).read())
        assert validate_chrome_trace(doc) == []


class TestValidateVerb:
    def test_valid_artifact_passes(self, tmp_path, capsys):
        chrome = tmp_path / "t.json"
        pktblast_main(["--count", "10", "--chrome", str(chrome)])
        capsys.readouterr()
        assert trace_main(["validate", str(chrome)]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_corrupt_artifact_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        assert trace_main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_run_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            trace_main(["run", "--count", "10"])


class TestSchemaVerb:
    def test_prints_catalog(self, capsys):
        assert trace_main(["schema"]) == 0
        out = capsys.readouterr().out
        assert "guard:check" in out
        assert "module:eject" in out


class TestBenchArtifacts:
    def test_every_figure_has_a_trace_config(self):
        assert set(FIGURE_TRACE_CONFIGS) == {
            "fig3", "fig4", "fig5", "fig6", "fig7"}

    def test_emit_trace_artifact(self, tmp_path):
        summary = emit_trace_artifact(tmp_path, fid="fig3", count=40)
        assert summary["packets_sent"] == 40
        assert summary["guard_checks"] > 0
        assert summary["top_sites"]
        doc = json.loads((tmp_path / "fig3.trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        folded = (tmp_path / "fig3.folded").read_text()
        assert folded.splitlines()
        assert all(l.rsplit(" ", 1)[0].endswith("carat_guard")
                   for l in folded.splitlines())
        stat = (tmp_path / "fig3.stat.txt").read_text()
        assert "[guard cycle cost]" in stat
        guards = json.loads((tmp_path / "fig3.guards.json").read_text())
        assert guards["machine"] == "r415"
        assert guards["sites"]
        assert guards["top"][0]["share"] > 0

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_trace_artifact(tmp_path, fid="fig99")
