import json
import re

import pytest

from hesschrom import pathcovers, verify
from hesschrom.cli import run
from hesschrom.verify import SUITES


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestXg:
    def test_text_output(self, capsys):
        code, out, _ = capture(capsys, ["xg", "--m", "2,3", "--basis", "m"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "m[2,1]  t",
            "m[1,1,1]  1 + 4*t + t^2",
        ]

    def test_json_output(self, capsys):
        code, out, _ = capture(capsys, ["xg", "--m", "2,3", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 3 and data["basis"] == "m"
        assert data["terms"][0] == {"partition": [2, 1], "poly": [[1, "1"]]}

    def test_m_basis_flag(self, capsys):
        code, out, _ = capture(capsys, ["xg", "--m", "2", "--basis", "M"])
        assert code == 0
        assert out.strip() == "M(1,1)  1 + t"

    def test_deterministic(self, capsys):
        argv = ["xg", "--m", "2,3,4", "--json"]
        _, first, _ = capture(capsys, argv)
        _, second, _ = capture(capsys, argv)
        assert first == second

    def test_json_round_trip(self, capsys):
        _, out, _ = capture(capsys, ["xg", "--m", "2,3", "--json"])
        assert json.dumps(json.loads(out)) == out.strip()

    def test_n_zero_exits_2(self, capsys):
        code, out, err = capture(capsys, ["xg", "--m", "2,3", "--n", "0"])
        assert code == 2
        assert out == "" and "error" in err


class TestOmegaXg:
    def test_matches_identity_shape(self, capsys):
        code, out, _ = capture(capsys, ["omega-xg", "--m", "2", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["terms"] == [
            {"partition": [2], "poly": [[0, "1"], [1, "1"]]},
            {"partition": [1, 1], "poly": [[0, "1"], [1, "1"]]},
        ]


class TestXi:
    def test_explicit_digraph(self, capsys):
        code, out, _ = capture(capsys, ["xi", "--edges", "1>2,2>1"])
        assert code == 0
        assert out.strip().splitlines() == ["M(1,1)  1 + t", "M(2)  1 + t"]

    def test_isolated_vertices(self, capsys):
        code, out, _ = capture(capsys, ["xi", "--vertices", "1,2"])
        assert code == 0
        assert out.strip() == "M(1,1)  1 + t"


class TestBetti:
    def test_valid(self, capsys):
        code, out, _ = capture(capsys, ["betti", "--m", "2,3", "--lambda", "2,1"])
        assert code == 0
        assert out.strip().splitlines() == [
            "beta[0] = 1",
            "beta[2] = 3",
            "beta[4] = 1",
        ]

    def test_invalid_hessenberg_exits_2(self, capsys):
        code, _, err = capture(capsys, ["betti", "--m", "3,2", "--lambda", "2,1"])
        assert code == 2
        assert "error" in err

    def test_stat_flag_is_not_accepted(self, capsys):
        argv = ["betti", "--m", "2,3", "--lambda", "2,1", "--stat", "des"]
        code, _, err = capture(capsys, argv)
        assert code == 2
        assert "--stat" in err


class TestCharacter:
    def test_values(self, capsys):
        code, out, _ = capture(capsys, ["character", "--m", "2", "--d", "0"])
        assert code == 0
        assert out.strip().splitlines() == ["chi[2] = 1", "chi[1,1] = 1"]

    def test_guard_exit_2(self, capsys):
        argv = ["character", "--m", "2,3,4", "--max-n", "3", "--d", "0"]
        code, _, err = capture(capsys, argv)
        assert code == 2
        assert "guard" in err
        code, out, _ = capture(capsys, argv + ["--force"])
        assert code == 0 and out.startswith("chi[4] = ")


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = capture(capsys, ["enumerate", "--n", "3"])
        assert code == 0
        assert out.strip().splitlines() == ["(1,2)", "(1,3)", "(2,2)", "(2,3)", "(3,3)"]

    def test_guard_exit_2(self, capsys):
        code, _, err = capture(capsys, ["enumerate", "--n", "9"])
        assert code == 2
        assert "guard" in err

    def test_force(self, capsys):
        code, out, _ = capture(capsys, ["enumerate", "--n", "9", "--force", "--json"])
        assert code == 0
        assert json.loads(out)["count"] == 4862

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_size_below_one_exits_2(self, capsys, n):
        code, out, err = capture(capsys, ["enumerate", "--n", n])
        assert code == 2
        assert out == "" and "n >= 1" in err


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = capture(
            capsys, ["verify", "--suite", "sw", "--max-n", "3", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["suite"] == "sw" and report["failures"] == []

    def test_reciprocity_with_seed(self, capsys):
        code, out, _ = capture(
            capsys, ["verify", "--suite", "reciprocity", "--max-n", "3", "--seed", "7"]
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_seed_reaches_every_suite_that_takes_it(self, capsys, monkeypatch):
        """verify passes --seed to a suite whose signature has a seed, not
        to a list of suite names."""
        seeds = []

        def suite_probe(report, max_n: int = 1, seed: int = 0):
            seeds.append(seed)
            report.checked += 1

        monkeypatch.setitem(SUITES, "probe", None)  # removed again after the test
        verify._suite(suite_probe)
        code, out, _ = capture(capsys, ["verify", "--suite", "probe", "--seed", "7"])
        assert code == 0 and out.startswith("PASS suite=probe checked=1 ")
        assert seeds == [7]

    def test_suite_that_checks_nothing_fails(self, capsys):
        for suite in sorted(SUITES):
            code, out, _ = capture(capsys, ["verify", "--suite", suite, "--max-n", "0"])
            assert code == 1, suite
            assert out.startswith(f"FAIL suite={suite} checked=0 "), out

    def test_failing_suite_prints_each_failure_in_text(self, capsys, monkeypatch):
        real = pathcovers.omega
        monkeypatch.setattr(pathcovers, "omega", lambda x: real(x).scaled(2))
        argv = ["verify", "--suite", "reciprocity", "--max-n", "2", "--seed", "1"]
        code, out, _ = capture(capsys, argv + ["--json"])
        assert code == 1
        failures = json.loads(out)["failures"]
        assert failures
        code, out, _ = capture(capsys, argv)
        assert code == 1
        status, *lines = out.splitlines()
        assert status.startswith("FAIL suite=reciprocity checked=")
        assert f" failures={len(failures)} " in status
        assert lines == [
            f"  {f['input']}: expected {f['expected']}, got {f['actual']}"
            for f in failures
        ]

    def test_usage_lists_every_suite(self, capsys):
        """The choices come from SUITES, read only when verify runs."""
        code, out, _ = capture(capsys, ["verify", "--help"])
        assert code == 0
        usage = out.split("\n\n")[0]
        assert re.search(r"--suite\s+\{([^}]*)\}", usage)[1].split(",") == sorted(SUITES)

    def test_unknown_suite_exits_2_naming_the_choices(self, capsys):
        code, out, err = capture(capsys, ["verify", "--suite", "nope"])
        assert code == 2 and out == ""
        choices = ", ".join(repr(s) for s in sorted(SUITES))
        assert f"invalid choice: 'nope' (choose from {choices})" in err

    def test_force_flag_is_not_accepted(self, capsys):
        code, _, err = capture(capsys, ["verify", "--suite", "omega", "--force"])
        assert code == 2
        assert "--force" in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert run(["xg", "--bogus"]) == 2
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()


# The flags each subcommand accepts, in the order its help lists them.
FLAGS = {
    "xg": ["--json", "--max-n", "--force", "--stat", "--m", "--basis"],
    "omega-xg": ["--json", "--max-n", "--force", "--stat", "--m", "--basis"],
    "xi": ["--json", "--max-n", "--force", "--stat", "--edges", "--vertices"],
    "betti": ["--json", "--max-n", "--force", "--m", "--lambda"],
    "character": ["--json", "--max-n", "--force", "--m", "--d"],
    "enumerate": ["--json", "--max-n", "--force", "--n"],
    "verify": ["--json", "--suite", "--max-n", "--seed"],
}
# A small valid request of each subcommand.
VALID = {
    "xg": ["xg", "--m", "2,3"],
    "omega-xg": ["omega-xg", "--m", "2,3"],
    "xi": ["xi", "--edges", "1>2"],
    "betti": ["betti", "--m", "2,3", "--lambda", "2,1"],
    "character": ["character", "--m", "2,3", "--d", "1"],
    "enumerate": ["enumerate", "--n", "3"],
    "verify": ["verify", "--suite", "sw", "--max-n", "2"],
}


def names(flag, text):
    """Whether text names flag as a whole word (so --m is not --max-n)."""
    return re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text) is not None


class TestParsing:
    """How argv is read: help, spellings of a flag, and usage errors, each
    of which exits 2 after the usage line and a message naming the flag."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_names_every_flag(self, capsys, command):
        for switch in ("--help", "-h"):
            code, out, err = capture(capsys, VALID[command] + [switch])
            assert code == 0 and err == ""
            assert out.startswith(f"usage: hesschrom {command} ")
            for flag in FLAGS[command] + ["-h", "--help"]:
                assert names(flag, out), (command, flag)

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--he"]])
    def test_top_level_help_names_every_command(self, capsys, argv):
        code, out, err = capture(capsys, argv)
        assert code == 0 and err == "" and out.startswith("usage: hesschrom ")
        for command in FLAGS:
            assert names(command, out), command

    def test_help_wins_over_a_missing_required_flag(self, capsys):
        code, out, _ = capture(capsys, ["betti", "--help"])
        assert code == 0 and names("--lambda", out)

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["xg", "--m", "2,3", "--basis=e"], ["xg", "--m", "2,3", "--basis", "e"]),
            (["betti", "--m", "2,3", "--lam", "2,1"], VALID["betti"]),
            (["betti", "--m=2,3", "--lambda=2,1"], VALID["betti"]),
            (["enumerate", "--n", "3", "--js"], ["enumerate", "--n", "3", "--json"]),
            (["enumerate", "--ma", "4", "--n", "4"], ["enumerate", "--n", "4"]),
            (["xg", "--m", "2", "--m", "2,3"], VALID["xg"]),
            (["xg", "--basis", "e", "--m", "2,3", "--basis", "M"], ["xg", "--m", "2,3", "--basis", "M"]),
            (["character", "--m", "2,3", "--d", "0", "--d", "1"], VALID["character"]),
            (["xg", "--json", "--m", "2,3", "--json"], ["xg", "--m", "2,3", "--json"]),
        ],
        ids=["equals", "prefix", "equals-prefix", "switch-prefix", "prefix-of-longer",
             "last-wins", "last-choice-wins", "last-int-wins", "switch-twice"],
    )
    def test_accepted_spellings(self, capsys, argv, same_as):
        code, out, err = capture(capsys, argv)
        assert code == 0 and err == ""
        assert (code, out) == capture(capsys, same_as)[:2]

    def test_negative_int_reaches_validation(self, capsys):
        code, out, err = capture(capsys, ["character", "--m", "2,3", "--d", "-1"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "d=-1" in err

    @pytest.mark.parametrize(
        "argv, flag, detail",
        [
            (["betti", "--m", "2,3"], "--lambda", "required"),
            (["character", "--d", "1"], "--m", "required"),
            (["enumerate"], "--n", "required"),
            (["verify"], "--suite", "required"),
            (["enumerate", "--n", "x"], "--n", "'x'"),
            (["xg", "--m", "2,3", "--max-n", "1.5"], "--max-n", "'1.5'"),
            (["xg", "--m", "2,3", "--basis", "Q"], "--basis", "'Q'"),
            (["xi", "--edges", "1>2", "--stat", "up"], "--stat", "'up'"),
            (["betti", "--m", "2,3", "--lambda"], "--lambda", "expected one argument"),
            (["xg", "--m", "--json"], "--m", "expected one argument"),
            (["xg", "--m", "2,3", "--bogus"], "--bogus", "unrecognized"),
            (["enumerate", "--n", "3", "--json=1"], "--json", "'1'"),
            (["verify", "--s", "sw"], "--s", "ambiguous"),
            (["betti", *VALID["betti"][1:], "extra"], "extra", "unrecognized"),
        ],
        ids=["missing-lambda", "missing-m", "missing-n", "missing-suite", "bad-int",
             "bad-float-int", "bad-choice", "bad-stat", "no-value-at-end",
             "no-value-before-flag", "unknown-flag", "switch-with-value",
             "ambiguous-prefix", "stray-positional"],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, flag, detail):
        code, out, err = capture(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: hesschrom ")
        message = err.split("error: ", 1)[1]
        assert names(flag, message) and detail in message, err

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_of_other_subcommands_are_rejected(self, capsys, command):
        own = FLAGS[command]
        for flag in sorted({f for fs in FLAGS.values() for f in fs} - set(own)):
            if any(f.startswith(flag) for f in own):
                continue  # a prefix of an own flag stands for it
            code, out, err = capture(capsys, VALID[command] + [flag, "1"])
            assert code == 2 and out == "", (command, flag)
            assert names(flag, err.split("error: ", 1)[1]), (command, flag, err)

    @pytest.mark.parametrize("argv", [[], ["--json"], ["frobnicate"], ["XG"]])
    def test_missing_or_unknown_command(self, capsys, argv):
        code, out, err = capture(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: hesschrom ") and "error: " in err
