"""CLI output, ``--json`` and text, pinned byte for byte on golden inputs
at n = 5: every subcommand but ``verify``, each both ways.

``golden/cli_n5.json`` maps each argument line to the exact stdout the CLI
printed for it when the fixture was recorded. Any change to a coefficient,
to the order of terms or to the number format fails here.
"""

import json
from pathlib import Path

import pytest

from hesschrom.base import partitions
from hesschrom.cli import run
from hesschrom.hessenberg import HessenbergFunction, complement, digraph, weight

GOLDEN = Path(__file__).parent / "golden" / "cli_n5.json"

# staircase m_i = i, band m_i = min(i + 2, n), complete m_i = n, at n = 5
FAMILIES = ((1, 2, 3, 4), (3, 4, 5, 5), (5, 5, 5, 5))
BASES = ("m", "M", "e", "h", "p", "s")


def _edges(d):
    return ",".join(f"{u}>{v}" for u, v in sorted(d.edges))


def golden_argvs():
    out = []
    for m in FAMILIES:
        hm = HessenbergFunction(5, m)
        m_text = ",".join(map(str, m))
        for command in ("xg", "omega-xg"):
            for basis in BASES:
                out.append([command, "--m", m_text, "--basis", basis, "--json"])
        for d in (digraph(hm), complement(digraph(hm))):
            out.append(["xi", "--edges", _edges(d), "--vertices", "1,2,3,4,5", "--json"])
        for deg in range(weight(hm) + 1):
            out.append(["character", "--m", m_text, "--d", str(deg), "--json"])
        for lam in partitions(5):
            lam_text = ",".join(map(str, lam.parts))
            out.append(["betti", "--m", m_text, "--lambda", lam_text, "--json"])
    out.append(["enumerate", "--n", "5", "--json"])
    return out


ARGVS = golden_argvs()
TEXT_ARGVS = [argv[:-1] for argv in ARGVS]
EXPECTED = json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case():
    assert list(EXPECTED) == [" ".join(argv) for argv in ARGVS + TEXT_ARGVS]


def _assert_golden(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == EXPECTED[" ".join(argv)]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv[:-1]))
def test_output_is_byte_identical(capsys, argv):
    _assert_golden(capsys, argv)


@pytest.mark.parametrize("argv", TEXT_ARGVS, ids=" ".join)
def test_text_output_is_byte_identical(capsys, argv):
    _assert_golden(capsys, argv)
