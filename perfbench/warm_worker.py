"""One verify-warm sweep in a single process.

Reads {"m": [[m_1, ..., m_{n-1}], ...], "trace": bool} on stdin. For each
Hessenberg function, in the given order, it makes the public calls behind
the ``sw``, ``character`` and ``schur`` suites: ``verify_sw_betti``,
``dot_character`` and ``frobenius_image`` for each degree d, and
``schur_positivity_report``. Prints one JSON object with each operation's
latency, the CPU speed factor measured around it (see speed.py), its
results, and the trace when asked.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import speed


def _key(parts):
    return ",".join(map(str, parts))


def main():
    plan = json.load(sys.stdin)
    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer().install()
    import hesschrom as H

    raw = []
    before = speed.factor()
    for parts in plan["m"]:
        m = H.HessenbergFunction(len(parts) + 1, tuple(parts))
        with tracer.span("op") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            sw = H.verify_sw_betti(m, force=True)
            chars = []
            for d in range(H.weight(m) + 1):
                chi = H.dot_character(m, d)
                chars.append((d, chi, H.frobenius_image(chi)))
            schur = H.schur_positivity_report(m)
            end = time.perf_counter()
        after = speed.factor()
        raw.append((parts, (end - start) * 1000, (before + after) / 2, sw, chars, schur))
        before = after

    ops = [
        {
            "m": parts,
            "ms": ms,
            "factor": factor,
            "sw": [sw.ok, sw.checked],
            "schur": [schur.ok, schur.checked],
            "chars": [
                [
                    d,
                    {_key(mu.parts): v for mu, v in chi.values},
                    {_key(lam.parts): str(c.coeff(0)) for lam, c in frob.terms.items()},
                ]
                for d, chi, frob in chars
            ],
        }
        for parts, ms, factor, sw, chars, schur in raw
    ]
    out = {"ops": ops}
    if tracer:
        out["trace"] = tracer.summary()
        out["spans"] = tracer.dump()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
