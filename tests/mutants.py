"""Mutation checks that can be run again.

    python3 tests/mutants.py [NAME ...]

Each mutant breaks one rule in ``src/``: it names a file, an exact old
text, the new text that replaces it, and the tests that must fail. For
each mutant, all of them or those named, the script copies ``src/`` to a
temporary directory, applies the mutant there, and runs its tests in one
pytest process with that copy on the path. It prints ``caught`` when every
named test fails and ``missed`` otherwise, and ends with one line that
counts both. The mutants run one after another, never in parallel.

Pytest does not collect this file, as its name does not match
``test_*.py``; ``test_mutants.py`` checks only that each old text occurs
exactly once in ``src/``, so a change that moves the code must update the
mutant. Add a mutant here for each mutation a change checks; a missed one
is reported, not dropped.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    path: str                 # relative to ``src/``
    old: str
    new: str
    tests: tuple[str, ...]    # pytest node ids, relative to the repository root


MODEL_TESTS = ("tests/test_pipeline_model.py::test_engine_matches_model",
               "tests/test_pipeline_model.py::test_a_fixed_sequence_takes_every_step")

MUTANTS = (
    # step (b) without the literal Global component: dual replay alone cannot
    # see it, as the oracle is not asked about (b); the lockstep model can
    Mutant("b-global-component", "ipcconfine/engine.py",
           "if intent is _CREATE and is_global_name(name, scope):",
           "if intent is _CREATE and scope is Scope.GLOBAL:",
           MODEL_TESTS + (
               "tests/test_engine.py::TestPipeline::test_literal_global_component_counts",
               "tests/test_oracle.py::TestLockstepEquivalence::test_literal_global_component")),
    # step (c) reads VM 1's global table for every VM
    Mutant("c-table-lookup", "ipcconfine/engine.py",
           "table = self._global_tables.get(vm_id)",
           "table = self._global_tables.get(1)",
           MODEL_TESTS + ("tests/test_engine.py::TestPipeline::test_global_tables_are_per_vm",)),
    # step (d) no longer moves a hit to the front before the seal
    Mutant("d-mru-move", "ipcconfine/engine.py",
           "                    if not self._flag:\n"
           "                        short.move_to_end(name, last=False)\n",
           "",
           MODEL_TESTS + ("tests/test_engine.py::TestPipeline::test_mru_order",)),
    # step (f) no longer inserts a long hit into the short list
    Mutant("f-short-insert", "ipcconfine/engine.py",
           "                short[name] = outcome\n"
           "                short.move_to_end(name, last=False)\n",
           "",
           MODEL_TESTS + ("tests/test_engine.py::TestPipeline::test_first_host_touch_long_hit",)),
    # step (d) no longer leaves a global Create to (b): a short-listed name
    # created Global passes through instead of entering the VM's table
    Mutant("d-no-global-create-guard", "ipcconfine/engine.py",
           "if outcome is not None and not (\n"
           "                        intent is _CREATE and is_global_name(name, scope)):",
           "if outcome is not None:",
           MODEL_TESTS + (
               "tests/test_engine.py::TestStoredOutcomes::"
               "test_global_create_of_short_listed_name_is_vm_global",
               "tests/test_oracle.py::TestLockstepEquivalence::test_unconstrained_traces")),
    # step (f) passes a listed name through under another name
    Mutant("f-passthrough-suffix", "ipcconfine/engine.py",
           "outcome = _new(ResolveOutcome, (name, _PASSTHROUGH))",
           "outcome = _new(ResolveOutcome, (name + \"x\", _PASSTHROUGH))",
           ("tests/test_engine.py::TestPipeline::test_first_host_touch_long_hit",
            "tests/test_oracle.py::TestTraceEquivalence::test_constrained_traces_never_diverge",
            "tests/test_golden.py::test_fixture_report_bytes",
            "tests/test_acceptance.py::test_criterion_1_service_inventory_classification")),
    # step (f) passes a listed name through under its renamed copy's name
    Mutant("f-passthrough-renamed", "ipcconfine/engine.py",
           "outcome = _new(ResolveOutcome, (name, _PASSTHROUGH))",
           "outcome = _new(ResolveOutcome, (rename(name, vm), _PASSTHROUGH))",
           ("tests/test_engine.py::TestPipeline::test_first_host_touch_long_hit",
            "tests/test_oracle.py::TestTraceEquivalence::test_constrained_traces_never_diverge",
            "tests/test_golden.py::test_fixture_report_bytes",
            "tests/test_acceptance.py::test_criterion_1_service_inventory_classification")),
    # step (g) no longer counts a long-list miss: counter conservation fails
    Mutant("g-no-long-miss-count", "ipcconfine/engine.py",
           "                c.long_misses += 1\n",
           "                pass\n",
           MODEL_TESTS + (
               "tests/test_engine.py::TestPipeline::test_miss_renames",
               "tests/test_engine.py::TestCounters::test_conservation_over_mixed_sequence",
               "tests/test_acceptance.py::test_criterion_4_short_list_frozen_after_seal")),
    # a name enters the checked names before its check: a name that fails
    # raises once, and the next resolve of it skips the check
    Mutant("checked-before-check", "ipcconfine/engine.py",
           "                check_object_name(name)\n"
           "                if len(checked) >= _CHECKED_MAX:\n"
           "                    checked.clear()\n"
           "                checked[name] = None\n",
           "                if len(checked) >= _CHECKED_MAX:\n"
           "                    checked.clear()\n"
           "                checked[name] = None\n"
           "                check_object_name(name)\n",
           ("tests/test_engine.py::TestCheckedNames::test_a_name_that_fails_is_checked_every_time",)),
    # a str subclass uses the checked names too: one that equals and hashes
    # as a checked name borrows its check
    Mutant("checked-any-type", "ipcconfine/engine.py",
           "if type(name) is not str:",
           "if not isinstance(name, str):",
           ("tests/test_engine.py::TestCheckedNames::test_a_str_subclass_never_borrows_a_check",)),
    # the checked names are never cleared: the engine keeps every name
    Mutant("checked-unbounded", "ipcconfine/engine.py",
           "                if len(checked) >= _CHECKED_MAX:\n"
           "                    checked.clear()\n",
           "",
           ("tests/test_engine.py::TestCheckedNames::"
            "test_past_the_bound_outcomes_and_counters_are_a_fresh_engines",
            "tests/test_engine.py::TestCheckedNames::"
            "test_two_threads_across_the_bound_match_a_sequential_run")),
    # the engine's long list without its prefix probe: no pattern matches a
    # name whose prefix does not end in a digit
    Mutant("listed-no-prefix-probe", "ipcconfine/engine.py",
           "        if stem in prefixes:\n"
           "            return True\n",
           "",
           ("tests/test_engine.py::TestWildcard::test_matched_concrete_name_enters_short_list",
            "tests/test_oracle.py::TestWildcardLookup::test_engine_lookup_matches_full_scan",
            "tests/test_pipeline_model.py::test_engine_matches_model",
            "tests/test_acceptance.py::test_criterion_1_service_inventory_classification")),
    # the oracle's exact entries hashed: its scan no longer compares them
    Mutant("oracle-hashed-scan", "ipcconfine/engine.py",
           "self._exact, self._prefixes = list(exact), tuple(prefixes)",
           "self._exact, self._prefixes = exact, tuple(prefixes)",
           ("tests/test_oracle.py::TestReferenceEngine::test_miss_compares_every_exact_entry",)),
    # the oracle's pattern match accepts non-ASCII digits such as '²'
    Mutant("oracle-unicode-digits", "ipcconfine/engine.py",
           "is_ascii_digits(name[len(prefix):])",
           "name[len(prefix):].isdigit()",
           ("tests/test_pipeline_model.py::test_engine_matches_model",
            "tests/test_oracle.py::TestAsciiDigits::test_unicode_digit_suffix_is_not_a_host_object",
            )),
    # dual replay keeps the oracle's answers by name alone: a VM is given
    # the copy the oracle renamed into another VM
    Mutant("oracle-memo-drops-vm", "ipcconfine/trace.py",
           "key = (name, caller.vm.id)",
           "key = name",
           ("tests/test_golden.py::test_fixture_report_bytes[three_iis-True]",
            "tests/test_golden.py::test_random_dual_report_bytes",
            "tests/test_probes.py::test_dual_replay_scans_once_per_host_object_decision",
            "tests/test_oracle.py::TestLockstepEquivalence::"
            "test_refused_second_load_between_repeated_opens")),
    # dual replay loads the oracle first: a refused second load of the long
    # list still replaces the oracle's list
    Mutant("oracle-loaded-before-engine", "ipcconfine/trace.py",
           "        loaded = self.engine.load_long_list(event.names)\n"
           "        if self.reference is not None:\n"
           "            self.reference.load_long_list(event.names)\n",
           "        if self.reference is not None:\n"
           "            self.reference.load_long_list(event.names)\n"
           "        loaded = self.engine.load_long_list(event.names)\n",
           ("tests/test_oracle.py::TestLockstepEquivalence::"
            "test_refused_second_load_between_repeated_opens",)),
    # dual replay never asks the oracle
    Mutant("dual-replay-skips-oracle", "ipcconfine/trace.py",
           "if reference is not None and route is not _VM_GLOBAL and caller.vm.id:",
           "if reference is not None and route is not _VM_GLOBAL and not caller.vm.id:",
           ("tests/test_probes.py::test_dual_replay_scans_once_per_host_object_decision",
            "tests/test_acceptance.py::test_criterion_3_oracle_equivalence_and_divergence")),
    # dual replay asks the oracle only about VmPrivate outcomes, so a
    # short-list hit is never compared
    Mutant("dual-replay-scans-private-only", "ipcconfine/trace.py",
           "if reference is not None and route is not _VM_GLOBAL and caller.vm.id:",
           "if reference is not None and route is Route.VM_PRIVATE and caller.vm.id:",
           ("tests/test_probes.py::test_dual_replay_scans_once_per_host_object_decision",)),
    # a delivered send's row is one slot short: every later row is read
    # from the wrong slots
    Mutant("row-padded-one-short", "ipcconfine/trace.py",
           'return (_SENT, event.seq, event.op, "Delivered", "Allow", None, None)',
           'return (_SENT, event.seq, event.op, "Delivered", "Allow", None)',
           ("tests/test_trace.py::TestReplaySemantics::test_outcome_of_every_op",
            "tests/test_trace.py::TestOutcomes::test_every_row_is_seven_slots",
            "tests/test_trace.py::TestOutcomes::test_every_shape_keeps_its_key_order",
            "tests/test_probes.py::test_replay_keeps_no_gc_container_per_event")),
    # the outcomes view does not wrap a negative index
    Mutant("outcomes-negative-index-unwrapped", "ipcconfine/trace.py",
           "        if index < 0:\n"
           "            index += len(self)\n",
           "",
           ("tests/test_trace.py::TestOutcomes::test_negative_indexes_wrap",
            "tests/test_oracle.py::TestConstructedDivergence::test_failed_open_diverges")),
    # parse_trace's per-line scan accepts a line with more after its value
    Mutant("parse-no-end-check", "ipcconfine/trace.py",
           "if end != len(line):",
           "if not end:",
           ("tests/test_trace.py::TestParseEquivalence::"
            "test_text_matches_json_loads_path[two_values_on_one_line]",
            "tests/test_trace.py::TestParseEquivalence::"
            "test_text_matches_json_loads_path[line_ends_in_bracket]")),
    # ... and builds a line whose value is not a JSON object
    Mutant("parse-no-dict-check", "ipcconfine/trace.py",
           "if error is None and type(value) is dict:",
           "if error is None:",
           ("tests/test_trace.py::TestParseSerialize::test_non_object_line",
            "tests/test_trace.py::TestParseEquivalence::test_raw_line_matches_json_loads_path",
            "tests/test_trace.py::TestBuilders::test_parse_matches_reference_walk")),
    # ... and skips a line the scanner refuses instead of decoding it alone
    Mutant("parse-skips-refused-line", "ipcconfine/trace.py",
           "                value = json.loads(line)\n",
           "                continue\n",
           ("tests/test_trace.py::TestParseSerialize::test_bad_json_reports_line",
            "tests/test_trace.py::TestParseEquivalence::"
            "test_raw_line_matches_json_loads_path[padded]",
            "tests/test_trace.py::TestParseEquivalence::test_one_scanner_call_per_line")),
    # ... hands blank lines to the scanner, which refuses them: each one is
    # handed to ``json.loads`` too, which refuses it as well
    Mutant("parse-no-blank-skip", "ipcconfine/trace.py",
           "        if not line or line.isspace():\n"
           "            continue\n"
           "        try:\n"
           "            value, end = _scan_once(line, 0)\n",
           "        try:\n"
           "            value, end = _scan_once(line, 0)\n",
           ("tests/test_trace.py::TestParseEquivalence::test_one_scanner_call_per_line",)),
    # ... hands every line to ``json.loads`` as well, as if the scanner had
    # refused it: each line is decoded twice
    Mutant("parse-always-falls-back", "ipcconfine/trace.py",
           "if end != len(line):",
           "if True:",
           ("tests/test_trace.py::TestParseEquivalence::test_one_scanner_call_per_line",
            "tests/test_trace.py::TestBuilders::test_roundtrip_of_every_op",
            "tests/test_trace.py::TestBuilders::test_null_for_a_field_the_op_does_not_take")),
    # ... raises a ValidationError that a ParseError on its line or a later
    # one beats
    Mutant("parse-no-fallback-on-validation-error", "ipcconfine/trace.py",
           "            error = event\n",
           "            raise event\n",
           ("tests/test_trace.py::TestBuilders::test_parse_error_beats_an_earlier_validation_error",
            "tests/test_trace.py::TestParseSerialize::test_unknown_field",
            "tests/test_trace.py::TestBuilders::test_missing_seq_or_op_is_worded_as_the_call")),
    # ... no longer checks a line once a line has failed its build: a later
    # line's bad JSON, or the ValidationError, beats the ParseError of the
    # line that failed
    Mutant("parse-bad-json-skips-earlier-lines", "ipcconfine/trace.py",
           "        message = _line_error(value)\n",
           "        message = _line_error(value) if error is None else None\n",
           ("tests/test_trace.py::TestBuilders::test_parse_error_on_an_earlier_line_beats_bad_json",
            "tests/test_trace.py::TestBuilders::test_parse_error_beats_an_earlier_validation_error",
            "tests/test_trace.py::TestParseSerialize::test_unknown_field")),
    # ... numbers the lines with the blank lines left out of the count
    Mutant("parse-error-lines-skip-blanks", "ipcconfine/trace.py",
           "for lineno, line in enumerate(text.splitlines(), start=1):",
           "for lineno, line in enumerate(filter(str.strip, text.splitlines()), start=1):",
           ("tests/test_trace.py::TestBuilders::test_missing_seq_or_op_is_worded_as_the_call",
            "tests/test_trace.py::TestBuilders::"
            "test_parse_error_on_an_earlier_line_beats_bad_json[after_blank_lines]")),
    # ... numbers the lines from 0
    Mutant("parse-lines-numbered-from-zero", "ipcconfine/trace.py",
           "for lineno, line in enumerate(text.splitlines(), start=1):",
           "for lineno, line in enumerate(text.splitlines(), start=0):",
           ("tests/test_trace.py::TestParseSerialize::test_bad_json_reports_line",
            "tests/test_trace.py::TestBuilders::test_missing_seq_or_op_is_worded_as_the_call",
            "tests/test_trace.py::TestBuilders::test_parse_error_on_an_earlier_line_beats_bad_json")),
    # a serialized event keeps its null fields: every trace and report digest moves
    Mutant("to-dict-keeps-null", "ipcconfine/trace.py",
           "if (value := getattr(self, name)) is not None}",
           "if (value := getattr(self, name)) is not None or True}",
           ("tests/test_golden.py::test_fixture_report_bytes",
            "tests/test_golden.py::test_random_dual_report_bytes")),
    # the long list's names are checked for their type only
    Mutant("names-no-rule", "ipcconfine/trace.py",
           "NAMES = FieldType(list, _names_error)",
           "NAMES = FieldType(list)",
           ("tests/test_trace.py::TestValidation::test_rejected_events",
            "tests/test_trace.py::TestLoneSurrogates::"
            "test_each_string_field_refuses_one[load_long_list-names]",
            "tests/test_trace.py::TestFieldRules::test_a_case_for_every_rule",
            "tests/test_trace.py::TestFieldRules::"
            "test_each_rule_refuses_its_bad_value[load_long_list-names]")),
    # a pid is checked for its type only: pid 0 and negative pids pass
    Mutant("pid-no-rule", "ipcconfine/trace.py",
           "PID = FieldType(int, lambda v: None if v >= 1 else \"must be a positive pid\")",
           "PID = FieldType(int)",
           ("tests/test_trace.py::TestValidation::test_rejected_events",
            "tests/test_trace.py::TestFieldRules::test_a_case_for_every_rule",
            "tests/test_trace.py::TestFieldRules::test_each_rule_refuses_its_bad_value[create-actor]",
            "tests/test_trace.py::TestFieldRules::test_each_rule_refuses_its_bad_value[send-target]")),
    # a category is checked for its type only: a message category or an
    # unknown one passes
    Mutant("category-no-rule", "ipcconfine/trace.py",
           "CATEGORY = FieldType(str, _category_error, shared=True)",
           "CATEGORY = FieldType(str, shared=True)",
           ("tests/test_trace.py::TestValidation::test_rejected_events",
            "tests/test_trace.py::TestFieldRules::test_a_case_for_every_rule",
            "tests/test_trace.py::TestFieldRules::"
            "test_each_rule_refuses_its_bad_value[create-category]",
            "tests/test_trace.py::TestFieldRules::"
            "test_each_rule_refuses_its_bad_value[open-category]")),
    # a builder keeps the decoded string of a shared field: each line holds
    # its own copy, though the cache still answers the rule
    Mutant("builder-no-sharing", "ipcconfine/trace.py",
           "lines += [f\"{pad}error, {name} = rule_{op}_{name}({name})\",",
           "lines += [f\"{pad}error = rule_{op}_{name}({name})[0]\",",
           ("tests/test_trace.py::TestSharing::test_equal_values_are_one_object_across_parses",
            "tests/test_trace.py::TestSharing::test_one_object_per_distinct_value")),
    # a builder counts one key too many: a line with one extra key, null or
    # not, never reaches ``_not_taken``, so an unknown field is dropped
    Mutant("builder-key-count-one-over", "ipcconfine/trace.py",
           "count = f\"{2 + len(spec.required)}\"",
           "count = f\"{3 + len(spec.required)}\"",
           ("tests/test_trace.py::TestParseSerialize::test_unknown_field",
            "tests/test_trace.py::TestBuilders::test_accepted_keys_are_the_ops_fields")),
    # a constrained trace with no private names keeps its global creates
    Mutant("generator-constrained-global", "ipcconfine/trace.py",
           "            global_create = False\n",
           "            pass\n",
           ("tests/test_trace.py::TestRandomTraces::"
            "test_constrained_trace_with_only_host_names_drops_global_creates",)),
    # a create resolves its name before it takes the kernel lock: another
    # op sees the name resolved and its object not yet made
    Mutant("kernel-create-resolve-outside-lock", "ipcconfine/kernel.py",
           "        lock = self._lock\n"
           "        lock.acquire()\n"
           "        try:\n"
           "            outcome = self.engine.resolve(caller, name, category, _CREATE, scope)\n",
           "        outcome = self.engine.resolve(caller, name, category, _CREATE, scope)\n"
           "        lock = self._lock\n"
           "        lock.acquire()\n"
           "        try:\n",
           ("tests/test_concurrency.py::TestKernelLinearizability::"
            "test_an_op_paused_in_resolve_is_atomic[create-open]",)),
    # ... and an open: it finds an object its resolve did not route to
    Mutant("kernel-open-resolve-outside-lock", "ipcconfine/kernel.py",
           "        lock = self._lock\n"
           "        lock.acquire()\n"
           "        try:\n"
           "            outcome = self.engine.resolve(caller, name, category, _OPEN, _LOCAL)\n",
           "        outcome = self.engine.resolve(caller, name, category, _OPEN, _LOCAL)\n"
           "        lock = self._lock\n"
           "        lock.acquire()\n"
           "        try:\n",
           ("tests/test_concurrency.py::TestKernelLinearizability::"
            "test_an_op_paused_in_resolve_is_atomic[open-create]",)),
    # a window lookup returns the VM's first window, whatever its class
    Mutant("find-window-ignores-class", "ipcconfine/kernel.py",
           "if record.class_name == class_name:",
           "if True:",
           ("tests/test_kernel.py::TestWindows::test_find_window_matches_class_in_one_list",
            "tests/test_probes.py::test_window_lookups_are_flat_in_vm_count")),
    # a window lookup returns the last window of its class
    Mutant("find-window-last", "ipcconfine/kernel.py",
           "for record in self._windows.get(caller.vm.id, ()):",
           "for record in reversed(self._windows.get(caller.vm.id, [])):",
           ("tests/test_kernel.py::TestWindows::test_registration_order_wins",
            "tests/test_kernel.py::TestWindows::test_find_window_matches_class_in_one_list")),
    # the first VM gets the host's id 0
    Mutant("vm-ids-from-zero", "ipcconfine/model.py",
           "vm = VmId(len(self._aliases) + 1)",
           "vm = VmId(len(self._aliases))",
           ("tests/test_model.py::TestVmRegistry::test_monotone_ids",
            "tests/test_concurrency.py::TestRegistryStress::test_parallel_allocation_is_linearizable",
            "tests/test_golden.py::test_fixture_report_bytes")),
    # the first process gets pid 0, which no trace can name
    Mutant("pids-from-zero", "ipcconfine/model.py",
           "proc = ProcessRef(len(self._processes) + 1, vm)",
           "proc = ProcessRef(len(self._processes), vm)",
           ("tests/test_model.py::TestVmRegistry::test_monotone_ids",
            "tests/test_concurrency.py::TestRegistryStress::test_parallel_allocation_is_linearizable",
            "tests/test_golden.py::test_fixture_report_bytes")),
    # the long list keeps repeated entries
    Mutant("long-list-keeps-repeats", "ipcconfine/engine.py",
           "    exact, prefixes = {}, {}\n"
           "    for name in names:\n"
           "        check_object_name(name, allow_pattern=True)\n"
           "        if name[-1] == \"*\":\n"
           "            prefixes[name[:-1]] = None\n"
           "        else:\n"
           "            exact[name] = None\n",
           "    exact, prefixes = [], []\n"
           "    for name in names:\n"
           "        check_object_name(name, allow_pattern=True)\n"
           "        if name[-1] == \"*\":\n"
           "            prefixes.append(name[:-1])\n"
           "        else:\n"
           "            exact.append(name)\n",
           ("tests/test_engine.py::TestLifecycle::test_load_counts_and_dedups",)),
    # a create of a taken name hands out a second handle to its record
    Mutant("create-reopens-existing", "ipcconfine/kernel.py",
           "                return AlreadyExists, outcome\n",
           "                record.refcount += 1\n"
           "                return self._new_handle(record, outcome), outcome\n",
           ("tests/test_kernel.py::TestNamedObjects::test_duplicate_create_same_vm",
            "tests/test_kernel.py::TestNamedObjects::test_failure_returns_class_and_changes_nothing",
            "tests/test_concurrency.py::TestKernelStress::test_single_winner_for_concurrent_create",
            "tests/test_concurrency.py::TestLockRelease::test_create_releases_on_already_exists")),
    # an open of a missing name raises where it should return NotFound
    Mutant("open-raises-not-found", "ipcconfine/kernel.py",
           "                return NotFound, outcome\n",
           "                raise NotFound(name)\n",
           ("tests/test_kernel.py::TestNamedObjects::test_failure_returns_class_and_changes_nothing",
            "tests/test_concurrency.py::TestLockRelease::test_open_releases_on_not_found",
            "tests/test_golden.py::test_random_dual_report_bytes")),
    # the last close keeps the record, at refcount 0
    Mutant("close-keeps-record", "ipcconfine/kernel.py",
           "                del self._objects[handle.outcome[0]]\n",
           "                pass\n",
           ("tests/test_kernel.py::TestNamedObjects::test_create_open_close_refcounts",
            "tests/test_concurrency.py::TestKernelStress::test_parallel_create_close_distinct_names")),
    # a message is allowed without asking the engine
    Mutant("send-skips-engine", "ipcconfine/kernel.py",
           "return self.engine.access_decide(sender, target)",
           "return True",
           ("tests/test_kernel.py::TestMessages::test_cross_vm_blocked",
            "tests/test_concurrency.py::TestKernelStress::test_host_and_vms_share_message_bus",
            "tests/test_acceptance.py::test_criterion_5_exhaustive_crossborder_denial")),
)


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply ``mutant`` to a temporary copy of ``src/`` and run its tests
    there; return whether every named test failed, and a note."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as work:
        src = Path(work) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return False, f"old text occurs {text.count(mutant.old)} times in {mutant.path}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # the copy replaces src/ on the path: pytest's ``pythonpath`` setting
        # is overridden, and the run's caches stay in the temporary directory
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *(str(ROOT / test) for test in mutant.tests)],
            cwd=work, env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True, timeout=900)
        # pytest prints each node id relative to the run's directory
        failed = set()
        for line in done.stdout.splitlines():
            if line.startswith(("FAILED ", "ERROR ")):
                path, _, test = line.split(" - ")[0].split(" ", 1)[1].partition("::")
                failed.add(f"{(Path(work) / path).resolve().relative_to(ROOT)}::{test}")
    # a parametrized test fails when any of its cases does
    survived = [test for test in mutant.tests
                if not any(f == test or f.startswith(test + "[") for f in failed)]
    if survived:
        return False, "passed: " + ", ".join(survived)
    return True, f"{len(mutant.tests)} named tests failed"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in chosen}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    caught = 0
    for mutant in chosen:
        ok, note = run(mutant)
        caught += ok
        print(f"{'caught' if ok else 'missed'} {mutant.name}: {note}", flush=True)
    print(f"{caught} caught, {len(chosen) - caught} missed, of {len(chosen)} mutants")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
