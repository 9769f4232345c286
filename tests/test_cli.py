"""CLI subcommands and exit codes (0 ok, 1 failed assertions, 2 bad input)."""

import json

import pytest

from ipcconfine.cli import main
from ipcconfine.trace import TraceEvent, fixture_rpcss, serialize_trace


@pytest.fixture
def rpcss_path(tmp_path):
    path = tmp_path / "rpcss.jsonl"
    path.write_text(serialize_trace(fixture_rpcss()), encoding="utf-8")
    return str(path)


def write_trace(tmp_path, events, name="t.jsonl"):
    path = tmp_path / name
    path.write_text(serialize_trace(events), encoding="utf-8")
    return str(path)


class TestReplay:
    def test_ok(self, rpcss_path, capsys):
        assert main(["replay", rpcss_path]) == 0
        out = capsys.readouterr().out
        assert "replayed 35 events: 30 assertions passed, 0 failed, 0 divergences" in out

    def test_dual_oracle_flag(self, rpcss_path):
        assert main(["replay", rpcss_path, "--dual-oracle"]) == 0

    def test_failed_assertion_exits_1(self, tmp_path, capsys):
        events = [
            TraceEvent(seq=1, op="load_long_list", names=()),
            TraceEvent(seq=2, op="vm_create", ip="10.0.0.2"),
            TraceEvent(seq=3, op="spawn", vm=1),
            TraceEvent(seq=4, op="create", actor=1, name=r"\a\b", category="I_Port",
                       expect={"route": "HostPassthrough"}),
        ]
        assert main(["replay", write_trace(tmp_path, events)]) == 1
        out = capsys.readouterr().out
        assert "route expected 'HostPassthrough', got 'VmPrivate'" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        assert main(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.jsonl")]) == 2

    def test_precondition_violation_exits_2(self, tmp_path, capsys):
        events = [
            TraceEvent(seq=1, op="load_long_list", names=()),
            TraceEvent(seq=2, op="vm_create", ip="10.0.0.2"),
            TraceEvent(seq=3, op="spawn", vm=1),
            TraceEvent(seq=4, op="close", actor=1, name=r"\a\b"),
        ]
        assert main(["replay", write_trace(tmp_path, events)]) == 2

    def test_report_written_and_deterministic(self, rpcss_path, tmp_path):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        assert main(["replay", rpcss_path, "--report", str(r1)]) == 0
        assert main(["replay", rpcss_path, "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert json.loads(r1.read_text())["events_run"] == 35


class TestScenario:
    def test_rpcss(self, capsys):
        assert main(["scenario", "rpcss", "--dual-oracle"]) == 0
        assert "0 divergences" in capsys.readouterr().out

    def test_three_iis_prints_bindings(self, capsys):
        assert main(["scenario", "three-iis"]) == 0
        out = capsys.readouterr().out
        for row in ("vm1    10.0.0.2        80",
                    "vm2    10.0.0.3        80",
                    "vm3    10.0.0.4        80"):
            assert row in out

    def test_random_save_and_revalidate(self, tmp_path, capsys):
        path = str(tmp_path / "rand.jsonl")
        assert main(["scenario", "random", "--seed", "9", "--events", "80",
                     "--constrained", "--dual-oracle", "--save-trace", path]) == 0
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["replay", path]) == 0

    def test_random_params_rejected(self, capsys):
        assert main(["scenario", "random", "--events", "10", "--seal-at", "99"]) == 2


class TestValidate:
    def test_ok(self, rpcss_path, capsys):
        assert main(["validate", rpcss_path]) == 0
        assert "OK (35 events)" in capsys.readouterr().out

    def test_invalid_exits_2(self, tmp_path, capsys):
        events = [TraceEvent(seq=1, op="create", actor=1, name=r"\vm1\a",
                             category="I_Port")]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(events[0].to_dict()) + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "reserved" in capsys.readouterr().err


class TestInspect:
    def test_snapshot_dump(self, rpcss_path, capsys):
        assert main(["inspect", rpcss_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["flag"] is True
        assert len(data["short_list"]) == 12
        assert data["counters"]["host_passthroughs"] == 12
