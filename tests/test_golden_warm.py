"""The warm path's values, pinned byte for byte at n <= 5: for every
Hessenberg function m and every degree d, the dot-action character, the
terms of its Frobenius image and the Schur multiplicities of the t^d
slice of omega X_{G(m)}(t); and for every m the ``checked`` counts of
``verify_sw_betti`` and ``schur_positivity_report``.

``golden/warm_n5.json`` holds ``warm_values()`` as it was when the
fixture was recorded, serialised by ``dump``. The CLI fixture reaches only
three m per n; this one reaches all of them.
"""

import json
from pathlib import Path

from hesschrom.character import (
    dot_character,
    frobenius_image,
    irreducible_multiplicities,
    schur_positivity_report,
)
from hesschrom.hessenberg import enumerate_hessenberg, weight
from hesschrom.verify import verify_sw_betti

GOLDEN = Path(__file__).parent / "golden" / "warm_n5.json"
MAX_N = 5


def _key(parts):
    return ",".join(map(str, parts))


def _all_m():
    for n in range(1, MAX_N + 1):
        yield from enumerate_hessenberg(n)


def warm_values():
    """{m: {"sw": checked, "schur": checked, "degrees": {d: values}}}."""
    out = {}
    for m in _all_m():
        degrees = {}
        for d in range(weight(m) + 1):
            chi = dot_character(m, d)
            degrees[str(d)] = {
                "character": {_key(mu.parts): v for mu, v in chi.values},
                "frobenius": {
                    _key(lam.parts): str(c) for lam, c in frobenius_image(chi).sorted_terms()
                },
                "multiplicities": {
                    _key(lam.parts): v
                    for lam, v in irreducible_multiplicities(m, d).items()
                },
            }
        out[f"{m.n}:{_key(m.m)}"] = {
            "sw": verify_sw_betti(m).checked,
            "schur": schur_positivity_report(m).checked,
            "degrees": degrees,
        }
    return out


def dump(values) -> str:
    return json.dumps(values, indent=1) + "\n"


def test_fixture_covers_every_m_and_degree():
    expected = json.loads(GOLDEN.read_text())
    want = {
        f"{m.n}:{_key(m.m)}": [str(d) for d in range(weight(m) + 1)] for m in _all_m()
    }
    assert {k: list(v["degrees"]) for k, v in expected.items()} == want
    assert sum(len(ds) for ds in want.values()) == 285


def test_warm_values_are_byte_identical():
    assert dump(warm_values()) == GOLDEN.read_text()
