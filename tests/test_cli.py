"""Command-line behavior: exit codes, report structure, determinism."""

import io
import json
import random
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homoca.automata import SemiCellularAutomaton, shift, step, step_via_origin
from homoca.bounds import PRINT_BLOCK
from homoca.catalog import cyclic_space, identity_automaton, random_rule_automaton, torus_space
from homoca.encoding import decode, encode
from homoca.cli import EXIT_BOUND, EXIT_INPUT, EXIT_PASS, EXIT_VIOLATION, _print_trace, main
from homoca.serialize import dump_automaton, dump_space, load_automaton, write_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejections carry the process exit code
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out


def report_of(out):
    return json.loads(out)


# ---------------------------------------------------------------- validate


def test_validate_accepts_the_bundled_files(capsys):
    code, out = run_cli(
        capsys, "validate", fx("cyclic4_group.json"), fx("square_space.json"), fx("torus_or.json")
    )
    assert code == EXIT_PASS
    report = report_of(out)
    files = report["files"]
    assert files[fx("cyclic4_group.json")]["kind"] == "group"
    assert files[fx("square_space.json")]["kind"] == "space"
    assert files[fx("torus_or.json")]["kind"] == "automaton"
    for entry in files.values():
        assert all(v["ok"] for v in entry["verdicts"])
    for record in report["inputs"].values():
        assert len(record["sha256"]) == 64


def test_validate_flags_a_broken_group(capsys):
    code, out = run_cli(capsys, "validate", fx("bad_group.json"))
    assert code == EXIT_VIOLATION
    verdicts = report_of(out)["files"][fx("bad_group.json")]["verdicts"]
    failing = [v for v in verdicts if not v["ok"]]
    assert failing and failing[0]["law"] == "group-associativity"
    assert "triple" in failing[0]["witness"]


def test_validate_flags_a_broken_action(capsys):
    code, out = run_cli(capsys, "validate", fx("bad_action.json"))
    assert code == EXIT_VIOLATION


def test_validate_flags_an_unclosed_neighborhood(capsys):
    code, out = run_cli(capsys, "validate", fx("square_unclosed_neighborhood.json"))
    assert code == EXIT_VIOLATION
    verdicts = report_of(out)["files"][fx("square_unclosed_neighborhood.json")]["verdicts"]
    failing = [v for v in verdicts if not v["ok"]]
    assert failing[0]["law"] == "neighborhood-closed"
    assert failing[0]["witness"]["missing_representatives"]


def test_validate_missing_file_is_an_input_error(capsys):
    code, _ = run_cli(capsys, "validate", "no-such-file.json")
    assert code == EXIT_INPUT


def test_validate_refuses_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"order": 1, "mul": [[0]], "identity": 0, "name": "\xff"}')
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT, "")
    assert f"input error: {path}: not UTF-8 text: byte 0xff" in captured.err
    assert "Traceback" not in captured.err


def test_validate_and_run_agree_on_a_coset_named_twice(capsys, tmp_path):
    ca = load_automaton(fx("square_identity.json"))
    space = ca.space
    # the identity and another stabilizer element name the same coset
    other = next(h for h in space.stabilizer.members if h != space.group.identity)
    path = tmp_path / "dup.json"
    write_json(path, {"space": fx("square_space.json"), "states": 2, "neighborhood": [0, other], "delta": [0, 1]})
    code, out = run_cli(capsys, "validate", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    code, _ = run_cli(capsys, "run", str(path), "--config", "1,0,0,0")
    assert code == EXIT_INPUT


# --------------------------------------------------------------------- run


def test_run_prints_the_trace(capsys):
    code, out = run_cli(
        capsys, "run", fx("cyclic4_shift.json"), "--config", "1,0,0,0", "--steps", "4"
    )
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "1,0,0,0"
    assert lines[1] == "0,0,0,1"
    assert len(lines) == 5
    assert lines[4] == lines[0]  # the 4-cycle shift has period 4


def test_run_rejects_malformed_configurations(capsys):
    code, _ = run_cli(capsys, "run", fx("cyclic4_shift.json"), "--config", "1,0,0")
    assert code == EXIT_INPUT
    code, _ = run_cli(capsys, "run", fx("cyclic4_shift.json"), "--config", "1,0,0,9")
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "entry",
    ["\u0661", "\uff11", " +1", "+1", " 1", "1 ", "1\n", "1_0", "", "9" * 5000],
    ids=["arabic-indic", "fullwidth", "spaced-plus", "plus", "leading-space", "trailing-space",
         "newline", "underscore", "empty", "past-int-digits"],
)
def test_run_refuses_a_configuration_entry_that_is_not_ascii_digits(capsys, entry):
    # int() reads the first eight, "1_0" as 10 and the others as 1; the last
    # two it refuses too
    config = "0,0,0," + entry
    code = main(["run", fx("cyclic4_or.json"), "--config", config])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT, "")
    assert captured.err.startswith(f"input error: cannot parse configuration {config!r}")


def test_run_validates_the_configuration_even_without_steps(capsys):
    code, _ = run_cli(capsys, "run", fx("cyclic4_shift.json"), "--config", "1,0,0,9", "--steps", "0")
    assert code == EXIT_INPUT
    code, out = run_cli(capsys, "run", fx("cyclic4_shift.json"), "--config", "1,0,0,1", "--steps", "0")
    assert (code, out) == (EXIT_PASS, "1,0,0,1\n")


def test_run_refuses_negative_steps(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "run", fx("cyclic4_shift.json"), "--config", "1,0,0,0", "--steps", "-3", "--out", str(out_path)
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert not out_path.exists()


def test_run_writes_a_trace_report(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code, _ = run_cli(
        capsys,
        "run",
        fx("cyclic4_shift.json"),
        "--config",
        "1,1,0,0",
        "--steps",
        "2",
        "--out",
        str(out_path),
    )
    assert code == EXIT_PASS
    report = json.loads(out_path.read_text())
    assert report["trace"][0] == [1, 1, 0, 0]
    assert len(report["trace"]) == 3


@pytest.mark.parametrize("steps", [10**18, 10**20])
def test_run_refuses_a_trace_past_the_bound(capsys, tmp_path, steps):
    out_path = tmp_path / "trace.json"
    code = main(
        ["run", fx("cyclic4_shift.json"), "--config", "1,0,0,0", "--steps", str(steps), "--out", str(out_path)]
    )
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_BOUND, "")
    assert captured.err.startswith("bound exceeded: ")
    assert "Traceback" not in captured.err
    assert not out_path.exists()


def join_formatted(rows):
    """How `run` printed a trace before its token table: the oracle."""
    return "".join(",".join(map(str, c)) + "\n" for c in rows)


@settings(deadline=None)
@given(
    trace=arrays(
        np.int64,
        st.tuples(st.integers(1, 12), st.integers(1, 9)),
        elements=st.one_of(st.integers(0, 2), st.integers(0, 12), st.integers(0, 2**20)),
    )
)
def test_the_printed_trace_matches_the_join_formatter(trace):
    out = io.StringIO()
    _print_trace(trace, out)
    assert out.getvalue() == join_formatted(trace.tolist())


@pytest.mark.parametrize("cells", [1, 5, 70000])
def test_a_trace_longer_than_a_print_block_matches_the_join_formatter(cells):
    # 200k entries or more: several blocks of 2**16, or one row per block
    # when a row is longer than that
    rng = np.random.default_rng(cells)
    trace = rng.integers(0, 12, size=(max(3, 200_000 // cells), cells))
    out = io.StringIO()
    _print_trace(trace, out)
    assert out.getvalue() == join_formatted(trace.tolist())


def test_printing_a_trace_at_the_bound_takes_a_bounded_block_of_memory():
    class Sink:
        def write(self, text):
            pass

    trace = np.random.default_rng(0).integers(0, 3, size=(1 << 18, 16))
    tracemalloc.start()
    try:
        _print_trace(trace, Sink())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a word per entry would be 32 MiB; a block of 2**16 entries takes ~3 MiB
    assert peak < 8 << 20


@st.composite
def blocks_with_largest_state(draw, over_entries):
    """A one-block trace whose largest state is its entry count less one,
    plus `over_entries`: the last that the lookup prints, or the first
    that it leaves to the sort."""
    rows, cells = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    top = rows * cells - 1 + over_entries
    trace = draw(arrays(np.int64, (rows, cells), elements=st.integers(0, top)))
    trace[draw(st.integers(0, rows - 1)), draw(st.integers(0, cells - 1))] = top
    return trace


def print_counting_sorts(trace):
    """The printed trace and how many blocks np.unique sorted for it."""
    out = io.StringIO()
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        _print_trace(trace, out)
    return out.getvalue(), unique.call_count


@settings(deadline=None)
@given(trace=blocks_with_largest_state(0))
def test_the_printed_trace_looks_up_states_below_the_entry_count(trace):
    assert print_counting_sorts(trace) == (join_formatted(trace.tolist()), 0)


@settings(deadline=None)
@given(trace=blocks_with_largest_state(1))
def test_the_printed_trace_sorts_states_at_the_entry_count(trace):
    assert print_counting_sorts(trace) == (join_formatted(trace.tolist()), 1)


@pytest.mark.parametrize(
    "large",
    [(False, True, False), (True, False, True), (False, False, True)],
    ids=["middle-sorted", "ends-sorted", "partial-last-sorted"],
)
def test_the_printed_trace_takes_each_blocks_own_path(large):
    # three blocks of 16-cell rows, the last one partial: a block holding a
    # state of 2**16 or more is sorted, the others are looked up
    rng = np.random.default_rng(0)
    rows = PRINT_BLOCK // 16
    trace = rng.integers(0, 3, size=(2 * rows + 5, 16))
    for b, sorted_block in enumerate(large):
        if sorted_block:
            trace[b * rows + 2, 7] = PRINT_BLOCK + b
    assert print_counting_sorts(trace) == (join_formatted(trace.tolist()), sum(large))


def test_run_prints_states_past_any_dense_table(capsys, tmp_path):
    # no neighbourhood, 2**62 states: one step sends every cell to 2**61
    path = tmp_path / "wide.json"
    write_json(path, {"space": fx("cyclic4_space.json"), "states": 2**62, "neighborhood": [], "delta": [2**61]})
    config = (2**62 - 1, 0, 12, 2**40)
    out_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "run", str(path), "--config", ",".join(map(str, config)), "--steps", "2", "--out", str(out_path)
    )
    rows = [config, (2**61,) * 4, (2**61,) * 4]
    assert (code, out) == (EXIT_PASS, join_formatted(rows))
    assert json.loads(out_path.read_text())["trace"] == [list(r) for r in rows]


def _cyclic4_file(tmp_path, states, rule):
    """A rule on the 4-cycle over the shift's neighborhood, written to a file."""
    shift_ca = load_automaton(fx("cyclic4_shift.json"))
    ca = SemiCellularAutomaton(shift_ca.space, states, shift_ca.neighborhood, rule)
    path = tmp_path / f"cyclic4_{states}.json"
    write_json(path, dump_automaton(ca))
    return ca, str(path)


@pytest.mark.parametrize(
    "states, rule, config",
    [
        (12, [(v + 5) % 12 for v in range(12)], (11, 3, 7, 10)),  # every state, multi-digit
        (12, list(range(12)), (10, 0, 11, 0)),  # three of twelve states, two multi-digit
        (2, [0, 1], (0, 0, 0, 0)),  # one of two states
    ],
)
@pytest.mark.parametrize("steps", [0, 1, 30])
def test_run_prints_and_reports_the_scalar_trace(capsys, tmp_path, states, rule, config, steps):
    ca, path = _cyclic4_file(tmp_path, states, rule)
    rows = [config]
    for _ in range(steps):
        rows.append(step(ca, rows[-1]))
    out_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "run", path, "--config", ",".join(map(str, config)), "--steps", str(steps), "--out", str(out_path)
    )
    assert (code, out) == (EXIT_PASS, join_formatted(rows))
    report = json.loads(out_path.read_text())
    assert report["trace"] == [[int(v) for v in line.split(",")] for line in out.splitlines()]
    assert report["steps"] == steps


# -------------------------------------------------------------------- laws


def test_laws_full_run_passes_on_an_invariant_rule(capsys):
    code, out = run_cli(capsys, "laws", fx("square_or.json"))
    assert code == EXIT_PASS
    report = report_of(out)
    assert sorted(report["suites"]) == [
        "chl",
        "composition",
        "coordinate-independence",
        "determination",
        "equivalence",
        "invertibility",
        "uniformity",
    ]
    for suite in report["suites"].values():
        assert all(v["ok"] for v in suite.get("verdicts", []))


def test_laws_single_suite_selection(capsys):
    code, out = run_cli(capsys, "laws", fx("cyclic4_shift.json"), "--suite", "chl")
    assert code == EXIT_PASS
    assert list(report_of(out)["suites"]) == ["chl"]


def test_successive_calls_with_repeated_suites_give_independent_reports(capsys):
    # the parser is built once per process; its append action must start
    # every call from an empty suite list
    path = fx("cyclic4_shift.json")
    code, out = run_cli(capsys, "laws", path, "--suite", "chl", "--suite", "determination")
    assert code == EXIT_PASS
    assert sorted(report_of(out)["suites"]) == ["chl", "determination"]
    code, out = run_cli(capsys, "laws", path, "--suite", "equivalence", "--suite", "uniformity")
    assert code == EXIT_PASS
    assert sorted(report_of(out)["suites"]) == ["equivalence", "uniformity"]
    code, out = run_cli(capsys, "laws", path)
    assert len(report_of(out)["suites"]) == 7


def test_laws_determination_with_one_state_passes(capsys, tmp_path):
    # with one state the step is the only global map, so no perturbed
    # map exists to be rejected
    path = tmp_path / "one_state.json"
    automaton = {"space": fx("cyclic4_space.json"), "states": 1, "neighborhood": [1], "delta": [0]}
    path.write_text(json.dumps(automaton))
    code, out = run_cli(capsys, "laws", str(path), "--suite", "determination")
    assert code == EXIT_PASS
    own, perturbed = report_of(out)["suites"]["determination"]["verdicts"]
    assert own["ok"] and own["law"] == "determination-at-origin"
    assert perturbed["ok"] and perturbed["law"] == "determination-rejects-perturbed"
    assert "no" in perturbed["witness"]["reason"]


def test_laws_unknown_suite_is_an_input_error(capsys):
    code, _ = run_cli(capsys, "laws", fx("cyclic4_shift.json"), "--suite", "nonsense")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("name", ["torus_or", "torus_identity"])
def test_laws_on_the_torus_are_exact(capsys, name):
    # 65536 configurations: the uniformity suite reads labelings of the
    # global table, so every suite is decided and passes
    code, out = run_cli(capsys, "laws", fx(f"{name}.json"))
    assert code == EXIT_PASS
    suites = report_of(out)["suites"]
    for suite in suites.values():
        assert "bound_exceeded" not in suite
        assert suite["verdicts"] and all(v["ok"] for v in suite["verdicts"])
    continuity = suites["uniformity"]["verdicts"][2]
    assert continuity["law"] == "uniform-continuity"
    assert [target for target, _ in continuity["witness"]["assignments"]] == [[m] for m in range(16)]


@pytest.mark.parametrize("space", [torus_space(), cyclic_space(30)])
def test_laws_uniformity_on_one_state_is_exact_at_any_size(capsys, tmp_path, space):
    # one configuration, but 2**16 or 2**30 agreement relations: no member
    # is built until a check reads its labeling
    path = tmp_path / "one_state.json"
    write_json(path, dump_automaton(identity_automaton(space, 1)))
    start = time.perf_counter()
    code, out = run_cli(capsys, "laws", str(path), "--suite", "uniformity")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_PASS
    suite = report_of(out)["suites"]["uniformity"]
    assert "bound_exceeded" not in suite
    assert [v["law"] for v in suite["verdicts"]] == [
        "uniformity-base",
        "agreement-intersection",
        "uniform-continuity",
        "continuity-inside-window",
        "isomorphism-matches-invertibility",
    ]
    assert all(v["ok"] for v in suite["verdicts"])
    assert suite["verdicts"][2]["witness"]["assignments"] == [[[m], []] for m in range(space.cells)]


def test_laws_output_is_byte_deterministic(capsys):
    _, first = run_cli(capsys, "laws", fx("square_or.json"), "--seed", "7")
    _, second = run_cli(capsys, "laws", fx("square_or.json"), "--seed", "7")
    assert first == second


def test_laws_with_the_whole_group_as_scope(capsys):
    code, out = run_cli(
        capsys, "laws", fx("square_or.json"), "--suite", "chl", "--subgroup", "0,1,2,3,4,5,6,7"
    )
    assert code == EXIT_PASS
    assert report_of(out)["subgroup"] == [0, 1, 2, 3, 4, 5, 6, 7]


def test_laws_scope_must_contain_the_coordinates(capsys):
    # {0, 2} is closed but misses coordinate 4, leaving cells unreachable
    code, _ = run_cli(capsys, "laws", fx("square_or.json"), "--subgroup", "0,2")
    assert code == EXIT_INPUT


def test_laws_rejects_a_non_subgroup_scope(capsys):
    code, _ = run_cli(capsys, "laws", fx("square_or.json"), "--subgroup", "0,bogus")
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "spec",
    ["0,99", ",".join(map(str, range(64))) + ",-1"],
    ids=["past-the-order", "negative"],
)
def test_laws_refuses_scope_members_outside_the_group(capsys, spec):
    # a negative label once wrapped round to 63 and was reported as a member
    code = main(["laws", fx("torus_or.json"), "--suite", "equivalence", "--subgroup", spec])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith("input error: subgroup member ")
    assert "out of range 0..63" in captured.err


@pytest.mark.parametrize(
    "spec", ["0,\u0662", "0,\uff12", "0, +2", "0,+2", "0, 2", "0,2_0", "0,,2"],
    ids=["arabic-indic", "fullwidth", "spaced-plus", "plus", "space", "underscore", "empty"],
)
@pytest.mark.parametrize("command", ["laws", "invert", "compose"])
def test_a_subgroup_entry_that_is_not_ascii_digits_is_an_input_error(capsys, command, spec):
    # int() read the first five as member 2 and the sixth as member 20
    files = [fx("torus_or.json")] * (2 if command == "compose" else 1)
    code = main([command, *files, "--subgroup", spec])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT, "")
    assert captured.err.startswith(f"input error: cannot parse subgroup member list {spec!r}")


def test_laws_expect_fail_flips_the_outcome(capsys):
    code, _ = run_cli(capsys, "laws", fx("square_or.json"), "--expect-fail")
    assert code == EXIT_VIOLATION


# ----------------------------------------------------------------- extract


def test_extract_recovers_the_shift(capsys):
    code, out = run_cli(capsys, "extract", fx("cyclic4_shift_globalmap.json"))
    assert code == EXIT_PASS
    report = report_of(out)
    laws = {v["law"]: v for v in report["verdicts"]}
    assert laws["extraction-roundtrip"]["witness"]["neighborhood"] == [1]
    assert report["automaton"]["delta"] == [0, 1]
    assert report["seed"] == 0


def test_extract_takes_no_seed(capsys):
    # extraction reads the whole table, so nothing is sampled
    code, out = run_cli(capsys, "extract", fx("cyclic4_shift_globalmap.json"), "--seed", "1")
    assert (code, out) == (EXIT_INPUT, "")


def test_extract_rejects_the_doctored_map_with_a_witness(capsys):
    code, out = run_cli(capsys, "extract", fx("cyclic4_broken_globalmap.json"))
    assert code == EXIT_VIOLATION
    failing = [v for v in report_of(out)["verdicts"] if not v["ok"]]
    assert failing[0]["law"] == "extraction-equivariance"
    assert "config" in failing[0]["witness"]


def _identity17_globalmap(tmp_path, swap=False):
    """The identity on cyclic_space(17) as a global map: 2**17 entries,
    past the table bound; with `swap`, entries 1 and 2 exchanged."""
    table = list(range(2**17))
    if swap:
        table[1], table[2] = table[2], table[1]
    path = tmp_path / "identity17_globalmap.json"
    write_json(path, {"space": dump_space(cyclic_space(17)), "states": 2, "table": table})
    return str(path)


def test_extract_past_the_table_bound_reports_the_bound(capsys, tmp_path):
    # equivariance is checked on the table itself; the round trip needs
    # the extracted automaton's table, past the bound
    out_path = tmp_path / "extracted.json"
    code, out = run_cli(capsys, "extract", _identity17_globalmap(tmp_path), "--out", str(out_path))
    assert code == EXIT_BOUND
    report = report_of(out)
    assert report["bound_exceeded"] == "global tables beyond the exhaustive bound"
    assert report["verdicts"] == [{"law": "extraction-equivariance", "ok": True}]
    assert "automaton" not in report
    assert not out_path.exists()


def test_extract_past_the_table_bound_still_refutes_equivariance(capsys, tmp_path):
    code, out = run_cli(capsys, "extract", _identity17_globalmap(tmp_path, swap=True))
    assert code == EXIT_VIOLATION
    report = report_of(out)
    assert "bound_exceeded" not in report
    [verdict] = report["verdicts"]
    assert verdict["law"] == "extraction-equivariance" and not verdict["ok"]
    assert verdict["witness"]["config"] == list(decode(1, 2, 17))


# ------------------------------------------------------------------ invert


def test_invert_writes_the_inverse_automaton(capsys, tmp_path):
    out_path = tmp_path / "inverse.json"
    code, out = run_cli(capsys, "invert", fx("cyclic4_shift.json"), "--out", str(out_path))
    assert code == EXIT_PASS
    report = report_of(out)
    assert report["verdicts"][0]["witness"]["inverse_neighborhood"] == [3]
    inverse = load_automaton(str(out_path))
    assert inverse.neighborhood == (3,)
    assert inverse.rule == (0, 1)


def test_invert_refuses_the_or_rule_with_a_verified_collision(capsys):
    code, out = run_cli(capsys, "invert", fx("square_or.json"))
    assert code == EXIT_VIOLATION
    verdict = report_of(out)["verdicts"][0]
    assert not verdict["ok"]
    assert verdict["witness"]["verified"] is True


def test_invert_expect_fail(capsys):
    code, _ = run_cli(capsys, "invert", fx("square_or.json"), "--expect-fail")
    assert code == EXIT_PASS
    code, _ = run_cli(capsys, "invert", fx("cyclic4_shift.json"), "--expect-fail")
    assert code == EXIT_VIOLATION


def test_invert_past_256_states_gives_the_inverse(capsys, tmp_path):
    # 300 configurations, inside the table bound, with digits up to 299
    path = tmp_path / "identity300.json"
    write_json(path, dump_automaton(identity_automaton(cyclic_space(1), 300)))
    out_path = tmp_path / "inverse.json"
    code, out = run_cli(capsys, "invert", str(path), "--out", str(out_path))
    assert code == EXIT_PASS
    assert report_of(out)["verdicts"][0]["ok"]
    assert load_automaton(str(out_path)).rule == tuple(range(300))


def _torus3_identity_file(tmp_path):
    """The identity on the torus with 3 states: 3**16 configurations, past
    the table bound, and injective, so no sampled collision refutes it."""
    path = tmp_path / "torus3_identity.json"
    write_json(path, dump_automaton(identity_automaton(torus_space(), 3)))
    return str(path)


@pytest.mark.parametrize("expect_fail", [False, True])
def test_invert_past_the_table_bound_reports_the_bound(capsys, tmp_path, expect_fail):
    flags = ["--expect-fail"] if expect_fail else []
    code, out = run_cli(capsys, "invert", _torus3_identity_file(tmp_path), *flags)
    assert code == EXIT_BOUND
    report = report_of(out)
    assert report["bound_exceeded"] == "cannot certify invertibility beyond the table bound"
    assert "verdicts" not in report and "automaton" not in report


@pytest.mark.parametrize("expect_fail, expected", [(False, EXIT_VIOLATION), (True, EXIT_PASS)])
def test_invert_past_the_table_bound_refutes_with_an_exact_pair(capsys, tmp_path, expect_fail, expected):
    ca, path = _torus3_file(tmp_path, 7, symmetrize=True)
    flags = ["--expect-fail"] if expect_fail else []
    code, out = run_cli(capsys, "invert", path, *flags)
    assert code == expected
    report = report_of(out)
    assert "bound_exceeded" not in report
    [verdict] = report["verdicts"]
    assert verdict["law"] == "invertible" and not verdict["ok"] and "sampled" not in verdict
    a, b = verdict["witness"]["colliding"]
    assert verdict["witness"]["verified"]
    assert step_via_origin(ca, a) == step_via_origin(ca, b) == tuple(verdict["witness"]["image"])


def test_the_invertibility_suite_past_the_bound_is_exact_for_every_seed(capsys, tmp_path):
    _, path = _torus3_file(tmp_path, 7, symmetrize=True)
    suites = []
    for seed in (0, 1):
        code, out = run_cli(capsys, "laws", path, "--suite", "invertibility", "--seed", str(seed))
        assert code == EXIT_PASS
        suites.append(report_of(out)["suites"]["invertibility"])
    [verdict] = suites[0]["verdicts"]
    assert verdict["law"] == "collision-witness" and verdict["ok"] and "sampled" not in verdict
    assert suites[0]["invertible"] is False and suites[0] == suites[1]


@pytest.mark.parametrize(
    "command", [["run", "--config", "0,0,0,0"], ["laws"], ["invert"], ["validate"]], ids=lambda c: c[0]
)
def test_a_state_count_past_int64_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "huge.json"
    write_json(path, {"space": fx("cyclic4_space.json"), "states": 10**30, "neighborhood": [], "delta": [5]})
    code = main([command[0], str(path), *command[1:]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT, "")
    assert captured.err.startswith("input error: ") and "Traceback" not in captured.err


# ----------------------------------------------------------------- compose


def test_compose_two_shifts(capsys):
    code, out = run_cli(capsys, "compose", fx("cyclic4_shift.json"), fx("cyclic4_shift.json"))
    assert code == EXIT_PASS
    report = report_of(out)
    laws = {v["law"]: v for v in report["verdicts"]}
    assert laws["composition-step"]["ok"]
    assert laws["composition-neighborhood"]["witness"]["representatives"] == [2]
    assert report["automaton"]["delta"] == [0, 1]


def test_compose_past_the_table_bound_checks_the_step_on_windows(capsys, tmp_path):
    # 3**16 configurations are past the table bound, but the combined
    # rule and outer-after-inner read one cell each, so the check is exact
    path = _torus3_identity_file(tmp_path)
    code, out = run_cli(capsys, "compose", path, path)
    assert code == EXIT_PASS
    report = report_of(out)
    assert "bound_exceeded" not in report
    assert [(v["law"], v["ok"]) for v in report["verdicts"]] == [
        ("composition-step", True),
        ("composition-neighborhood", True),
    ]
    assert report["automaton"]["delta"] == [0, 1, 2]


def test_compose_requires_matching_spaces(capsys):
    code, _ = run_cli(capsys, "compose", fx("cyclic4_shift.json"), fx("square_or.json"))
    assert code == EXIT_INPUT


# ------------------------------------------------------------------ report


def test_out_flag_duplicates_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    _, out = run_cli(capsys, "laws", fx("cyclic4_shift.json"), "--suite", "chl", "--out", str(out_path))
    assert out_path.read_text() == out


# ----------------------------------------------------- past the table bound


def _torus3_file(tmp_path, seed, symmetrize):
    torus_or = load_automaton(fx("torus_or.json"))
    rng = random.Random(seed)
    ca = random_rule_automaton(torus_or.space, torus_or.neighborhood, 3, rng, symmetrize=symmetrize)
    path = tmp_path / f"torus3_{seed}_{symmetrize}.json"
    write_json(path, dump_automaton(ca))
    return ca, str(path)


def _equivalence(capsys, path, seed):
    code, out = run_cli(capsys, "laws", path, "--suite", "equivalence", "--seed", str(seed))
    report = report_of(out)
    assert report["seed"] == seed
    return code, report["suites"]["equivalence"]


def _recheck_step_side(ca, suite):
    [verdict] = suite["verdicts"]
    w = verdict["witness"]["step_side"]["witness"]
    config = tuple(w["config"])
    moved = shift(ca.space, w["element"], config)
    assert step_via_origin(ca, moved) == tuple(w["shift_then_map"])
    assert shift(ca.space, w["element"], step_via_origin(ca, config)) == tuple(w["map_then_shift"])
    assert w["shift_then_map"] != w["map_then_shift"]


def test_laws_equivalence_past_the_bound_is_exact_for_every_seed(capsys, tmp_path):
    ca, path = _torus3_file(tmp_path, 1, symmetrize=False)
    code, suite = _equivalence(capsys, path, 1)
    [verdict] = suite["verdicts"]
    assert verdict["ok"] and "sampled" not in verdict and code == EXIT_PASS
    assert not verdict["witness"]["step_equivariant"]
    _recheck_step_side(ca, suite)
    assert _equivalence(capsys, path, 2) == (code, suite)


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_laws_finds_a_rare_equivariance_failure_past_the_bound(capsys, tmp_path, seed):
    # the rule breaks rotation invariance on one local pattern only, which
    # few configurations show; the window check finds it whatever the seed
    torus_or = load_automaton(fx("torus_or.json"))
    rule = [0] * 3**5
    rule[encode((2, 2, 1, 0, 0), 3)] = 1
    ca = SemiCellularAutomaton(torus_or.space, 3, torus_or.neighborhood, rule)
    path = tmp_path / "rare.json"
    write_json(path, dump_automaton(ca))
    code, suite = _equivalence(capsys, str(path), seed)
    [verdict] = suite["verdicts"]
    assert verdict["ok"] and "sampled" not in verdict and code == EXIT_PASS
    assert not verdict["witness"]["rule_invariant"] and not verdict["witness"]["step_equivariant"]
    _recheck_step_side(ca, suite)


def test_laws_passes_a_symmetrized_rule_past_the_bound_exactly(capsys, tmp_path):
    _, path = _torus3_file(tmp_path, 2, symmetrize=True)
    code, suite = _equivalence(capsys, path, 0)
    [verdict] = suite["verdicts"]
    assert verdict["ok"] and "sampled" not in verdict and code == EXIT_PASS
    assert verdict["witness"]["rule_invariant"] and verdict["witness"]["step_equivariant"]


def test_laws_equivalence_on_a_non_action_past_the_window_bound(capsys, tmp_path):
    # one row of the torus action table with two entries swapped is no
    # longer an action, which laws does not verify; the step and the
    # shifted step then read 9 cells between them, 5**9 patterns
    data = json.loads(Path(fx("torus_or.json")).read_text())
    row = data["space"]["action"]["act"][1]
    row[1], row[7] = row[7], row[1]
    data["states"] = 5
    data["delta"] = [max(decode(code, 5, 5)) for code in range(5**5)]
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(data))
    code, suite = _equivalence(capsys, str(path), 0)
    assert suite == {"bound_exceeded": "5**9 window patterns exceed the rule table bound", "verdicts": []}
    assert code == EXIT_BOUND


@pytest.mark.parametrize("symmetrize, expected", [(True, EXIT_BOUND), (False, EXIT_VIOLATION)])
def test_laws_with_all_suites_past_the_bound_keeps_its_report(capsys, tmp_path, symmetrize, expected):
    _, path = _torus3_file(tmp_path, 3, symmetrize)
    code, out = run_cli(capsys, "laws", path)
    report = report_of(out)
    assert sorted(report["suites"]) == sorted(
        ["coordinate-independence", "equivalence", "determination", "composition", "chl", "invertibility", "uniformity"]
    )
    refused = {"bound_exceeded": "global tables beyond the exhaustive bound", "verdicts": []}
    assert report["suites"]["uniformity"] == refused
    # a rule that is not rotation-invariant fails a precondition before any bound
    for name in ("coordinate-independence", "composition"):
        if symmetrize:
            # decided on the windows, exactly, past the table bound
            suite = report["suites"][name]
            assert "bound_exceeded" not in suite
            assert all(v["ok"] for v in suite["verdicts"])
            if name == "coordinate-independence":
                [verdict] = suite["verdicts"]
                assert verdict["law"] == name and len(verdict["witness"]["systems"]) == 5
            else:
                # two steps reach 11 of the 4 x 4 torus's cells: 3**11
                # combined rule entries, inside the rule table bound
                step_verdict, invariant = suite["verdicts"]
                assert len(step_verdict["witness"]["neighborhood"]) == 11
                assert (step_verdict["law"], invariant["law"]) == ("composition-step", "composition-rule-invariant")
        else:
            [verdict] = report["suites"][name]["verdicts"]
            assert (verdict["law"], verdict["ok"]) == (f"{name}-precondition", False)
            assert "bound_exceeded" not in report["suites"][name]
    # decided from the rule on windows, exactly, past the table bound
    own, perturbed = report["suites"]["determination"]["verdicts"]
    assert (own["law"], own["ok"], perturbed["law"], perturbed["ok"]) == (
        "determination-at-origin",
        True,
        "determination-rejects-perturbed",
        True,
    )
    assert own["witness"]["equivariant"] == own["witness"]["rule_invariant_and_equal"] == symmetrize
    assert perturbed["witness"]["origin_witness"]["config"] == [0] * 16
    [chl] = report["suites"]["chl"]["verdicts"]
    if symmetrize:
        assert (chl["law"], chl["ok"]) == ("extraction-roundtrip", True)
        assert len(chl["witness"]["neighborhood"]) == 5
    else:
        assert (chl["law"], chl["ok"]) == ("extraction-equivariance", False)
        [equivalence] = report["suites"]["equivalence"]["verdicts"]
        assert chl["witness"] == equivalence["witness"]["step_side"]["witness"]
    for name in ("determination", "chl"):
        assert "bound_exceeded" not in report["suites"][name]
    assert code == expected


def test_laws_preconditions_on_a_rule_inside_the_bound(capsys):
    code, out = run_cli(capsys, "laws", fx("square_projection.json"))
    suites = report_of(out)["suites"]
    for name in ("coordinate-independence", "composition"):
        [verdict] = suites[name]["verdicts"]
        assert (verdict["law"], verdict["ok"]) == (f"{name}-precondition", False)
        assert verdict["witness"]
    for name in ("determination", "chl", "uniformity"):
        assert "bound_exceeded" not in suites[name] and suites[name]["verdicts"]
    assert code == EXIT_VIOLATION

