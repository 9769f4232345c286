"""CLI subcommands and exit codes (0 ok, 1 failed assertions, 2 bad input)."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipcconfine.cli import main
from ipcconfine.errors import ParseError, ValidationError
from ipcconfine.trace import (
    OP_SCHEMA,
    TraceEvent,
    fixture_rpcss,
    parse_trace,
    serialize_trace,
)


@pytest.fixture
def rpcss_path(tmp_path):
    path = tmp_path / "rpcss.jsonl"
    path.write_text(serialize_trace(fixture_rpcss()), encoding="utf-8")
    return str(path)


def write_trace(tmp_path, events, name="t.jsonl"):
    path = tmp_path / name
    path.write_text(serialize_trace(events), encoding="utf-8")
    return str(path)


def failing_trace(tmp_path):
    """A trace whose one ``expect`` fails: its create is renamed."""
    return write_trace(tmp_path, [
        TraceEvent(seq=1, op="load_long_list", names=[]),
        TraceEvent(seq=2, op="vm_create", ip="10.0.0.2"),
        TraceEvent(seq=3, op="spawn", vm=1),
        TraceEvent(seq=4, op="create", actor=1, name=r"\a\b", category="I_Port",
                   expect={"route": "HostPassthrough"}),
    ])


# Traces whose strings hold a lone surrogate, each refused with exit 2: a
# payload, which the schema's text rule refuses although ``replay`` never
# reads it, and a listed name, which ``replay --dual-oracle`` would print in
# a divergence record.
_SURROGATE_PAYLOAD = [
    TraceEvent(seq=1, op="load_long_list", names=[]),
    TraceEvent(seq=2, op="vm_create", ip="10.0.0.2"),
    TraceEvent(seq=3, op="spawn", vm=1),
    TraceEvent(seq=4, op="send", actor=1, target=1, payload="\ud800"),
]
_SURROGATE_NAME = [
    TraceEvent(seq=1, op="load_long_list", names=["\\srv\\a\ud800"]),
    TraceEvent(seq=2, op="vm_create", ip="10.0.0.2"),
    TraceEvent(seq=3, op="spawn", vm=0),
    TraceEvent(seq=4, op="spawn", vm=1),
    TraceEvent(seq=5, op="create", actor=1, name="\\srv\\a\ud800", category="I_Port"),
    TraceEvent(seq=6, op="seal"),
    TraceEvent(seq=7, op="open", actor=2, name="\\srv\\a\ud800", category="I_Port"),
]


class TestReplay:
    def test_ok(self, rpcss_path, capsys):
        assert main(["replay", rpcss_path]) == 0
        out = capsys.readouterr().out
        assert "replayed 35 events: 30 assertions passed, 0 failed, 0 divergences" in out

    def test_dual_oracle_flag(self, rpcss_path):
        assert main(["replay", rpcss_path, "--dual-oracle"]) == 0

    def test_failed_assertion_exits_1(self, tmp_path, capsys):
        assert main(["replay", failing_trace(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "route expected 'HostPassthrough', got 'VmPrivate'" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n", encoding="utf-8")
        assert main(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nope.jsonl"
        assert main(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2]")
        assert str(path) in err

    def test_precondition_violation_exits_2(self, tmp_path, capsys):
        events = [
            TraceEvent(seq=1, op="load_long_list", names=[]),
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

    def test_random_divergence_is_printed(self, capsys):
        assert main(["scenario", "random", "--dual-oracle", "--seed", "0", "--events", "60"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "replayed 81 events: 0 assertions passed, 0 failed, 1 divergences",
            r"  seq 69: \srv\host-0010 engine=VmPrivate reference=HostPassthrough",
        ]

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


class TestProcess:
    """The CLI run as its own process, through ``entry()``: the exit status
    is the one ``main`` returns, and no run prints a traceback."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def run(self, *argv, log=None):
        """Run the CLI with ``IPCCONFINE_LOG`` set to ``log``, or unset."""
        env = {key: value for key, value in os.environ.items() if key != "IPCCONFINE_LOG"}
        env["PYTHONPATH"] = self.SRC
        if log is not None:
            env["IPCCONFINE_LOG"] = log
        return subprocess.run([sys.executable, "-m", "ipcconfine.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    def test_exit_codes(self, rpcss_path, tmp_path):
        undecodable = tmp_path / "bytes.jsonl"
        undecodable.write_bytes(b'\xff\xfe{"seq":1}\n')
        payload = write_trace(tmp_path, _SURROGATE_PAYLOAD, "payload.jsonl")
        name = write_trace(tmp_path, _SURROGATE_NAME, "name.jsonl")
        for argv, code in ((["validate", rpcss_path], 0),
                           (["replay", failing_trace(tmp_path)], 1),
                           (["validate", str(undecodable)], 2),
                           (["replay", payload], 2),
                           (["replay", "--dual-oracle", name], 2)):
            done = self.run(*argv)
            assert done.returncode == code, (argv, done.stderr)
            assert "Traceback" not in done.stderr, argv

    def test_log_level_from_the_environment(self):
        """``IPCCONFINE_LOG=info`` prints the engine's info lines on stderr;
        unset, or a name that is no level, it is warn, which prints neither.
        Stdout is the same in every case."""
        info = ["INFO ipcconfine.engine: long host-object list loaded: 12 entries",
                "INFO ipcconfine.engine: host-object flag set; short list frozen at 12 entries"]
        runs = {log: self.run("scenario", "rpcss", log=log) for log in ("info", None, "bogus")}
        for log, done in runs.items():
            assert done.returncode == 0, (log, done.stderr)
            assert done.stdout == runs["info"].stdout, log
        assert runs["info"].stderr.splitlines() == info
        assert runs[None].stderr == runs["bogus"].stderr == ""
        assert "0 divergences" in runs[None].stdout


_SEAL_LINES = b'{"seq": 1, "op": "seal"}\n{"seq": 2, "op": "seal"}\r\n'


def _spliced(parts) -> bytes:
    """Bytes put into a trace at a position."""
    text, inserted, at = parts
    return text[:at] + inserted + text[at:]


class TestUndecodable:
    @pytest.mark.parametrize("data, line", [
        (b'\xff\xfe{"seq":1}\n', 1),
        (_SEAL_LINES + b"\n\xc3(\n", 4),
        (b'{"seq": 1, "op": "seal"}\r{"seq": 2, "op": \xed\xa0\x80 "seal"}\n', 2),
        (b"\x0c\xe2\x82", 2),
    ])
    def test_not_utf8_is_a_parse_error(self, tmp_path, capsys, data, line):
        path = tmp_path / "t.jsonl"
        path.write_bytes(data)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: not valid UTF-8: ")
        assert "Traceback" not in err

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=80)
           | st.tuples(st.just(_SEAL_LINES), st.binary(max_size=3),
                       st.integers(0, len(_SEAL_LINES))).map(_spliced))
    def test_validate_any_bytes(self, data, tmp_path_factory):
        """``validate`` exits 2, never with a traceback, exactly when the
        file is not UTF-8 or ``parse_trace`` rejects its text, and 0
        otherwise."""
        path = tmp_path_factory.getbasetemp() / "bytes.jsonl"
        path.write_bytes(data)
        try:
            parse_trace(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, ParseError, ValidationError):
            expected = 2
        else:
            expected = 0
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["validate", str(path)]) == expected
        assert "Traceback" not in err.getvalue()


# characters of fuzzed trace strings: lone surrogates (category Cs, which
# hypothesis leaves out unless asked) among ASCII, accented and astral ones
_CHARS = st.sampled_from("a9\u00e9\U0001f600") | st.characters(categories=["Cs"])
_TEXT = st.text(_CHARS, max_size=3)
_NAME = st.text(_CHARS, min_size=1, max_size=2).map(lambda text: "\\srv\\" + text)


@st.composite
def _surrogate_traces(draw):
    """Valid-shaped traces over every op: a long list of drawn names, a VM,
    a host process (pid 1) and a VM process (pid 2), then any ops, a seal
    included, on those pids and names, every free-form string drawn from
    text that may hold lone surrogates."""
    names = draw(st.lists(_NAME, min_size=1, max_size=3))
    values = {
        "actor": st.integers(1, 2), "target": st.integers(1, 2), "vm": st.integers(0, 1),
        "ip": _TEXT, "port": st.integers(1, 2), "names": st.lists(_NAME, max_size=2),
        "name": st.sampled_from(names) | _NAME,
        "category": st.sampled_from(["I_Port", "IV_Sync:Mutex"]) | _TEXT.map("I_Port:".__add__),
        "scope": st.sampled_from(["Local", "Global"]),
        "subtype": _TEXT, "payload": _TEXT, "class_name": _TEXT,
        "hook_scope": st.sampled_from(["SystemWide", "OwnVm"]),
    }
    events = [TraceEvent(1, "load_long_list", names=names),
              TraceEvent(2, "vm_create", ip=draw(_TEXT)),
              TraceEvent(3, "spawn", vm=0), TraceEvent(4, "spawn", vm=1)]
    for seq in range(5, 5 + draw(st.integers(1, 10))):
        op = draw(st.sampled_from(sorted(OP_SCHEMA)))
        fields = {f: draw(values[f]) for f in sorted(OP_SCHEMA[op].fields)}
        if draw(st.booleans()):
            fields["expect"] = {"effective_name": draw(_NAME)}
        events.append(TraceEvent(seq, op, **fields))
    return events


class TestStrictStdout:
    @settings(max_examples=200, deadline=None)
    @given(events=_surrogate_traces())
    def test_replay_of_a_valid_trace_never_raises(self, events, tmp_path_factory):
        """Every trace ``validate`` accepts replays in dual mode to
        an exit code, with stdout a UTF-8 stream that refuses what is not
        UTF-8 text, as a terminal's does."""
        path = tmp_path_factory.getbasetemp() / "surrogates.jsonl"
        path.write_text(serialize_trace(events), encoding="utf-8")
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if main(["validate", str(path)]) == 0:
                assert main(["replay", "--dual-oracle", str(path)]) in (0, 1, 2)
            out.flush()


class TestInspect:
    def test_snapshot_dump(self, rpcss_path, capsys):
        assert main(["inspect", rpcss_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["flag"] is True
        assert len(data["short_list"]) == 12
        assert data["counters"]["host_passthroughs"] == 12
