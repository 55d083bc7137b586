import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from oracles import periodic_points_by_product
from starshift import cli, core_words, gray_factor, jump_action, subshift
from starshift.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable1:
    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "1", "--p-max", "1")
        assert code == 0
        assert out == "n\\p,1\n1,1\n"

    def test_first_nine_columns(self, capsys):
        # rows 7 and 8 read all ones when the family stopped at kappa^6
        code, out, _ = run(capsys, "table1", "--n-max", "8", "--p-max", "9")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n\\p,1,2,3,4,5,6,7,8,9"
        for n, line in enumerate(lines[1:], start=1):
            assert line == f"{n},1,1,0,1,0,0,0,1,0"

    def test_paper_layout_groups_tail_columns(self, capsys):
        code, out, _ = run(capsys, "table1", "--n-max", "2", "--p-max", "20",
                           "--paper-layout")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n\\p,1,2,3,4,5,6,7,8,9,10-20"
        assert lines[1] == "1,1,1,0,1,0,0,0,1,0,0"

    def test_out_file_and_determinism(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "table1", "--n-max", "2", "--p-max", "10",
                   "--out", str(first))[0] == 0
        assert run(capsys, "table1", "--n-max", "2", "--p-max", "10",
                   "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_cap_exit_two(self, capsys):
        code, _, err = run(capsys, "table1", "--n-max", "20")
        assert code == 2
        assert "cap" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0
        assert out.count("PASS") == 6 and "FAIL" not in out

    def test_trivial_run_passes(self, capsys):
        assert run(capsys, "verify", "--max-n", "1")[0] == 0

    @pytest.fixture
    def fresh_word_caches(self):
        # w_n and language membership are cached by n and by word: a run
        # under a patched letter cycle must neither read nor leave them
        caches = core_words._build_w, core_words.language_contains
        for cached in caches:
            cached.cache_clear()
        yield
        for cached in caches:
            cached.cache_clear()

    def test_negative_control(self, capsys, monkeypatch, fresh_word_caches):
        # the middle letters one step out of their cycle D, C, B
        monkeypatch.setattr(core_words, "MIDDLE_LETTERS", "BCD")
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert "w-recursion      FAIL" in out

    @pytest.mark.parametrize("check, module, name, mutant", [
        # b and c trade their jump tables
        ("conjugacy", jump_action, "linear_jump_permutation",
         lambda real: lambda w, g: real(w, {"b": "c", "c": "b"}.get(g, g))),
        # the first two star positions trade their codes
        ("gray-tables", gray_factor, "phi",
         lambda real: lambda n: gray_factor.GrayTable(n, real(n).codes[[1, 0, *range(2, 2**n)]])),
        # the right-hand one of a window and its mirror reads complemented bits
        ("factor-tower", gray_factor, "psi_tower",
         lambda real: lambda k, x: [
             v if 2 * x.origin < len(x.letters) else v.translate(str.maketrans("01", "10"))
             for v in real(k, x)
         ]),
        # the same on a window and its mirror, but not prefix-nested
        ("factor-tower", gray_factor, "psi_tower",
         lambda real: lambda k, x: real(k, x)[::-1]),
        # one factor missing
        ("language-equivalence", core_words, "language_words",
         lambda real: lambda length: real(length)[1:]),
        # a word without w_n among the factors of length 2^(n+1) - 1
        ("minimality", core_words, "language_words",
         lambda real: lambda length: [*real(length), "a" * length]),
    ], ids=["conjugacy", "gray-tables", "mirror", "nesting", "language", "minimality"])
    def test_each_check_fails_on_its_mutant(self, capsys, monkeypatch, check, module, name, mutant):
        monkeypatch.setattr(module, name, mutant(getattr(module, name)))
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 1
        assert f"{check:16s} FAIL" in out

    @pytest.mark.parametrize("max_n", range(1, 5))
    def test_factor_tower_compares_towers(self, capsys, monkeypatch, max_n):
        # w_3 and w_4 have no origin with the margin 8 of a depth-1 tower:
        # the check reads w_5, the 16 origins with a margin of 8 or more,
        # each window and its mirror
        calls = []
        tower = gray_factor.psi_tower
        monkeypatch.setattr(
            gray_factor, "psi_tower", lambda k, x: calls.append(k) or tower(k, x)
        )
        code, out, _ = run(capsys, "verify", "--max-n", str(max_n))
        assert code == 0 and "factor-tower     PASS" in out
        assert len(calls) == 32 and set(calls) == {1}


class TestSchreier:
    def test_linear_dot(self, capsys):
        code, out, _ = run(capsys, "schreier", "--n", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("graph schreier {")
        assert out.count("peripheries=2") == 1
        assert sum(1 for line in out.splitlines() if line.endswith(";") and "--" not in line) == 8

    def test_circular_double_cover_ok(self, capsys):
        code, out, _ = run(capsys, "schreier", "--n", "2", "--circular", "--p", "2",
                           "--require-action", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 8

    def test_circular_triple_cover_rejected(self, capsys):
        # row n first fails at kappa^n((ad)^4), named, not expanded
        for n in ("1", "2", "7"):
            code, out, err = run(capsys, "schreier", "--n", n, "--circular", "--p", "3",
                                 "--require-action")
            assert code == 1 and out == ""
            expected = f"action not well-defined: relator kappa^{n}((ad)^4) moves a starring\n"
            assert err == expected

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "schreier", "--n", "1", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["vertices"] == ["*a", "a*"]


class TestPseudoOrbit:
    def test_demo_passes(self, capsys):
        code, out, _ = run(capsys, "pseudo-orbit", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["checks"] == {
            "in_approximation": True,
            "action_well_defined": True,
            "outside_language": True,
        }

    def test_cap_is_usage_error(self, capsys):
        assert run(capsys, "pseudo-orbit", "--n", "12")[0] == 2


class TestStabilizer:
    def test_seeded_run_verifies(self, capsys):
        code, out, _ = run(capsys, "stabilizer", "--seed", "7", "--budget", "32")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["seed"] == 7
        assert len(payload["recovered"]) == 32

    def test_long_source_word_verifies(self, capsys):
        # w_22 has 2^22 - 1 letters, a language query past the old cap of 2^21
        code, out, _ = run(capsys, "stabilizer", "--source-n", "22", "--budget", "8")
        assert code == 0 and json.loads(out)["verified"] is True

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "stabilizer", "--seed", "3", "--budget", "8")
        _, second, _ = run(capsys, "stabilizer", "--seed", "3", "--budget", "8")
        assert first == second


class TestSft:
    def test_union_demo(self, capsys):
        code, out, _ = run(capsys, "sft", "union-demo")
        assert code == 0
        assert json.loads(out)["languages_equal"] is True

    def test_comb_demo(self, capsys):
        code, out, _ = run(capsys, "sft", "comb-demo", "--k", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["single_phase"] is True
        assert payload["periodic_point_counts"]["3"] == 1
        assert payload["periodic_point_counts"]["4"] == 0

    def test_points_report(self, capsys, tmp_path):
        report = tmp_path / "points.jsonl"
        code, _, _ = run(capsys, "sft", "comb-demo", "--k", "2",
                         "--points-out", str(report))
        assert code == 0
        lines = [json.loads(l) for l in report.read_text().strip().split("\n")]
        assert [l["period"] for l in lines] == list(range(1, 9))
        assert lines[1]["words"] == ["T_"]

    def test_union_points_report(self, capsys, tmp_path):
        union = subshift.union_sft(subshift.ZSft.from_forbidden("01", ["11"]),
                                   subshift.ZSft.from_forbidden("01", ["0"]))
        reports = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for report in reports:
            assert run(capsys, "sft", "union-demo", "--points-out", str(report))[0] == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        lines = [json.loads(l) for l in reports[0].read_text().strip().split("\n")]
        assert [l["period"] for l in lines] == list(range(1, 2 * union.order + 1))
        for line in lines:
            words = periodic_points_by_product(union, line["period"])
            assert line["words"] == words and line["count"] == len(words)

    @pytest.mark.parametrize("k", ["17", "21"])
    def test_comb_demo_beyond_the_period_cap_names_k(self, capsys, k):
        code, _, err = run(capsys, "sft", "comb-demo", "--k", k)
        assert code == 2
        assert f"--k {k}" in err


@pytest.mark.parametrize(
    "first, second",
    [
        (["schreier", "--circular", "--p", "2"], ["schreier"]),
        (["table1", "--paper-layout"], ["table1"]),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_parser_keeps_no_state_between_calls(capsys, first, second):
    cli.build_parser.cache_clear()
    fresh = run(capsys, *second)
    cli.build_parser.cache_clear()
    run(capsys, *first)
    assert run(capsys, *second) == fresh
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-n", "25"],
        ["schreier", "--n", "12"],
        ["schreier", "--n", "8", "--circular", "--p", "16", "--require-action"],
    ],
    ids=" ".join,
)
def test_caps_come_before_any_word_is_built(capsys, monkeypatch, argv):
    built = []
    build = core_words.build_w
    monkeypatch.setattr(core_words, "build_w", lambda n, *a: built.append(n) or build(n, *a))
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: ")
    assert built == []


def test_unknown_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table1", "--frobnicate"])
    assert err.value.code == 2


def test_io_error_exit_two(capsys, tmp_path):
    code = main(["table1", "--n-max", "1", "--p-max", "1",
                 "--out", str(tmp_path / "missing" / "t.csv")])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["schreier", "--n", "0"],
        ["schreier", "--n", "17"],
        ["schreier", "--n", "12"],  # cap: p * 2^n <= 2^11 starring positions
        ["schreier", "--n", "8", "--circular", "--p", "16", "--format", "json"],
        ["schreier", "--n", "1", "--circular", "--p", "1025", "--require-action"],
        ["schreier", "--circular", "--p", "0"],
        ["schreier", "--circular", "--require-action", "--t", "-1"],
        ["schreier", "--n", "3", "--require-action"],  # would PASS a check never run
        ["schreier", "--n", "2", "--p", "5"],  # would print the linear graph of w_2
        ["stabilizer", "--budget", "-1"],
        ["stabilizer", "--budget", "0"],  # would "verify" the empty string
        ["stabilizer", "--source-n", "0"],
        ["stabilizer", "--source-n", "25"],  # cap: w_24
        ["pseudo-orbit", "--n", "0"],
        ["pseudo-orbit", "--t", "-1"],
        ["sft", "comb-demo", "--k", "1"],
        ["sft", "comb-demo", "--k", "17"],  # cap: periods up to 4k pass 64
        ["sft", "comb-demo", "--k", "21"],
        ["verify", "--max-n", "-5"],
        ["verify", "--max-n", "0"],  # would PASS every check having checked nothing
        ["verify", "--max-n", "25"],  # cap: w_24
        ["verify", "--max-n", "3", "--inject-alpha-bug"],
        # the truncated family would PASS what the whole family refuses
        ["schreier", "--circular", "--n", "7", "--p", "3", "--require-action", "--t", "6"],
    ],
    ids=" ".join,
)
def test_bad_input_exits_two(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in err
    assert "PASS" not in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["schreier", "--n", "3", "--require-action"],
         "--require-action checks circular starrings: it needs --circular"),
        (["schreier", "--n", "2", "--p", "5"],
         "--p counts circular repetitions: it needs --circular"),
        (["stabilizer", "--source-n", "3", "--budget", "1"],
         "source word too short for the requested budget"),
    ],
    ids=["schreier", "schreier-p", "stabilizer"],
)
def test_refusals_are_error_lines(capsys, argv, line):
    assert run(capsys, *argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["table1", "--t", "1000000"],
        ["pseudo-orbit", "--t", "1000000"],
        ["pseudo-orbit", "--t", "9"],
    ],
    ids=" ".join,
)
def test_exponent_has_no_cap(capsys, argv):
    # the relator check stops where its tables repeat, whatever --t is
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


# integer flags of each subcommand: (small valid values, values over its cap)
_INTEGER_FLAGS = {
    "table1": {"--n-max": ([1, 2], [13]), "--p-max": ([1, 3, 10], [65]),
               "--t": ([0, 2, 9, 10**6], [])},
    "verify": {"--max-n": ([1, 2, 3], [25])},
    "schreier": {"--n": ([1, 2, 3], [25]), "--p": ([1, 2, 3], [2049])},
    "pseudo-orbit": {"--n": ([1, 2, 3], [9]), "--t": ([0, 2, 9, 10**6], [])},
    "stabilizer": {
        "--seed": ([0, 7], []),
        "--budget": ([1, 4], [10**6]),
        "--source-n": ([6, 8], [25]),
    },
    "sft": {"--k": ([2, 3], [17, 22])},
}
_SWITCHES = {
    "table1": ["--paper-layout"],
    "schreier": ["--circular", "--require-action", "--format=dot", "--format=json", "--format=svg"],
}
_NOT_INTEGERS = ["x", "1.5", "", "1e3", "0x4", "--"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_INTEGER_FLAGS)))
    argv = [command]
    if command == "sft":
        argv.append(draw(st.sampled_from(["union-demo", "comb-demo", "bogus"])))
    for flag, (valid, over) in _INTEGER_FLAGS[command].items():
        if draw(st.booleans()):
            value = draw(
                st.one_of(
                    st.sampled_from(valid + over).map(str),
                    st.integers(-3, 0).map(str),
                    st.sampled_from(_NOT_INTEGERS),
                )
            )
            argv += [flag, value]
    for switch in _SWITCHES.get(command, []):
        if draw(st.booleans()):
            argv.append(switch)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argv())
def test_any_argv_keeps_the_exit_contract(argv):
    # an exception escaping main is the in-process form of a traceback
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
