"""Fuzz the CLI's argument handling over a small argv grammar.

Every argv drawn here, well formed or not, must end in exit code 0, 1 or
2 without an uncaught exception. Sizes stay at n <= 5 and no ``--force``
is drawn, so each request is cheap and the size guard stays in force.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from hesschrom.cli import run

# integers as the user types them: in range, out of range, malformed
MALFORMED = st.sampled_from(["", "x", "1.5", "+", "-", "0x3", " 2", "1e2"])
INT = st.one_of(st.integers(-2, 5).map(str), MALFORMED)
INT_LIST = st.lists(INT, max_size=4).map(",".join)
# digraph vertices come from five labels, so a digraph has at most 5
LABEL = st.integers(-1, 3)
LABELS = st.lists(st.one_of(LABEL.map(str), MALFORMED), max_size=4).map(",".join)
EDGE = st.one_of(
    st.tuples(LABEL, LABEL).map(lambda e: f"{e[0]}>{e[1]}"),
    st.sampled_from(["", "1>", ">2", "1-2", "a>b", "1>2>3", ">"]),
)
EDGES = st.lists(EDGE, max_size=6).map(",".join)


def maybe(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def often(name, values):
    """Mostly present, sometimes left out (a required flag going missing)."""
    pair = values.map(lambda v: [name, v])
    return st.one_of(pair, pair, pair, st.just([]))


SWITCHES = st.lists(st.sampled_from(["--json", "--help"]), max_size=1)
GUARD = maybe("--max-n", INT)
STAT = maybe("--stat", st.sampled_from(["asc", "des", "x", ""]))
BASIS = maybe("--basis", st.sampled_from(["m", "M", "e", "h", "p", "s", "F", ""]))

GRAMMAR = {
    "xg": [often("--m", INT_LIST), BASIS, STAT, GUARD],
    "omega-xg": [often("--m", INT_LIST), BASIS, STAT, GUARD],
    "xi": [maybe("--edges", EDGES), maybe("--vertices", LABELS), STAT, GUARD],
    "betti": [often("--m", INT_LIST), often("--lambda", INT_LIST), GUARD],
    "character": [often("--m", INT_LIST), often("--d", INT), GUARD],
    "enumerate": [often("--n", INT), GUARD],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    pieces = [draw(part) for part in GRAMMAR[command]] + [draw(SWITCHES)]
    pieces = draw(st.permutations(pieces))
    return [command] + [token for piece in pieces for token in piece]


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_exit_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
