"""Command-line front end: exact computation and identity verification
with deterministic text or JSON output.

At module level this file imports only ``base`` and ``hessenberg``.  Each
subcommand imports its own pipeline when it runs, and only ``verify``
imports them all, so a cold request pays for no module it does not use.

Each ``_cmd_*`` returns (exit code, JSON document, text lines), and ``run``
prints the document under ``--json`` and the lines otherwise.

Exit codes: 0 success / suite passed, 1 verification failure, 2 usage or
validation error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .base import DEFAULT_MAX_N, Partition, TPoly
from .hessenberg import (
    Digraph,
    HessenbergFunction,
    enumerate_hessenberg,
    incomparability_graph,
    weight,
)


def poly_json(p: TPoly):
    return [[e, str(p.terms[e])] for e in p.exponents()]


def expansion_json(x: QSymElement):
    from .qsym import SYM_BASES
    key = "partition" if x.basis in SYM_BASES else "composition"
    return {
        "degree": x.n,
        "basis": x.basis,
        "terms": [
            {key: list(k.parts), "poly": poly_json(c)} for k, c in x.sorted_terms()
        ],
    }


def _expansion(x: QSymElement):
    """The command result for an expansion: one term a line in text."""
    lines = (f"{x.basis}{k}  {c}" for k, c in x.sorted_terms())
    return 0, expansion_json(x), lines


def _parse_ints(text: str):
    return tuple(int(p) for p in text.split(",") if p)


def _parse_hessenberg(args) -> HessenbergFunction:
    m = _parse_ints(args.m)
    n = len(m) + 1 if args.n is None else args.n
    return HessenbergFunction(n, m)


def _parse_digraph(args) -> Digraph:
    edges = set()
    if args.edges:
        for piece in args.edges.split(","):
            u, _, v = piece.partition(">")
            edges.add((int(u), int(v)))
    vertices = set(args.vertices and _parse_ints(args.vertices) or ())
    for u, v in edges:
        vertices.update((u, v))
    if not vertices:
        raise ValueError("digraph needs --edges and/or --vertices")
    return Digraph(frozenset(vertices), frozenset(edges))


def _cmd_xg(args):
    """X_{G(m)}(t) for ``xg``, omega X_{G(m)}(t) for ``omega-xg``."""
    from .chromatic import chromatic_qsym
    from .qsym import omega, to_m_basis
    m = _parse_hessenberg(args)
    x = chromatic_qsym(
        incomparability_graph(m), args.stat, max_n=args.max_n, force=args.force
    )
    if args.command == "omega-xg":
        x = omega(x)
    if args.basis != "M":
        x = to_m_basis(x)
        if args.basis != "m":
            from .sym import expand_in_basis  # only e, h, p and s need sym
            x = expand_in_basis(x, args.basis)
    return _expansion(x)


def _cmd_xi(args):
    from .pathqsym import path_qsym
    d = _parse_digraph(args)
    xi = path_qsym(d, args.stat, max_n=args.max_n, force=args.force)
    return _expansion(xi)


def _cmd_betti(args):
    from .betti import betti_vector
    m = _parse_hessenberg(args)
    lam = Partition(_parse_ints(args.lam))
    p = betti_vector(m, lam, max_n=args.max_n, force=args.force)
    # t^d counts H^{2d}: print the cohomological degree 2d
    betti = [[2 * d, p.terms[d]] for d in p.exponents()]
    doc = {"m": list(m.m), "lambda": list(lam.parts), "weight": weight(m), "betti": betti}
    return 0, doc, (f"beta[{deg}] = {c}" for deg, c in betti)


def _cmd_character(args):
    from .character import dot_character
    m = _parse_hessenberg(args)
    chi = dot_character(m, args.d, max_n=args.max_n, force=args.force)
    doc = {
        "m": list(m.m),
        "d": args.d,
        "values": [
            {"cycle_type": list(mu.parts), "value": v} for mu, v in chi.values
        ],
    }
    return 0, doc, (f"chi{mu} = {v}" for mu, v in chi.values)


def _cmd_enumerate(args):
    funcs = enumerate_hessenberg(args.n, max_n=args.max_n, force=args.force)
    doc = {"n": args.n, "count": len(funcs), "m": [list(f.m) for f in funcs]}
    return 0, doc, map(str, funcs)


def _cmd_verify(args):
    from .verify import SUITES
    fn = SUITES[args.suite]
    kwargs = {"seed": args.seed} if "seed" in fn.__signature__.parameters else {}
    if args.max_n is not None:
        kwargs["max_n"] = args.max_n
    report = fn(**kwargs)
    lines = [
        f"{'PASS' if report.ok else 'FAIL'} suite={report.suite} "
        f"checked={report.checked} failures={len(report.failures)} "
        f"elapsed_ms={report.elapsed_ms}"
    ] + [
        f"  {f['input']}: expected {f['expected']}, got {f['actual']}"
        for f in report.failures
    ]
    return (0 if report.ok else 1), report.to_json(), lines


def build_parser(suites=()) -> argparse.ArgumentParser:
    # each subcommand gets only the flags it reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="machine-readable output")
    guarded = argparse.ArgumentParser(add_help=False, parents=[output])
    guarded.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, help="enumeration guard")
    guarded.add_argument("--force", action="store_true", help="override the guard")
    with_stat = argparse.ArgumentParser(add_help=False, parents=[guarded])
    with_stat.add_argument("--stat", choices=("asc", "des"), default="asc")
    of_m = argparse.ArgumentParser(add_help=False)
    of_m.add_argument("--n", type=int)
    of_m.add_argument("--m", required=True, help="comma-separated m_1,...,m_{n-1}")

    parser = argparse.ArgumentParser(
        prog="hesschrom",
        description="Chromatic/path quasisymmetric functions, Hessenberg Betti "
        "numbers and dot-action characters, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("xg", "chromatic quasisymmetric function of G(m)"),
                            ("omega-xg", "omega X_{G(m)}(t)")):
        p = sub.add_parser(name, parents=[with_stat, of_m], help=help_text)
        p.add_argument("--basis", choices=("m", "M", "e", "h", "p", "s"), default="m")
        p.set_defaults(fn=_cmd_xg)

    p = sub.add_parser("xi", parents=[with_stat], help="path quasisymmetric function of a digraph")
    p.add_argument("--edges", default="", help="directed edges like 1>2,2>1")
    p.add_argument("--vertices", default="", help="extra isolated vertices, like 1,2,3")
    p.set_defaults(fn=_cmd_xi)

    p = sub.add_parser("betti", parents=[guarded, of_m], help="Betti numbers of a regular Hessenberg variety")
    p.add_argument("--lambda", dest="lam", required=True, help="Jordan type, like 2,1")
    p.set_defaults(fn=_cmd_betti)

    p = sub.add_parser("character", parents=[guarded, of_m], help="dot-action character values")
    p.add_argument("--d", type=int, required=True, help="cohomological degree d (of H^{2d})")
    p.set_defaults(fn=_cmd_character)

    p = sub.add_parser("enumerate", parents=[guarded], help="list Hessenberg functions")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", parents=[output], help="run a verification suite")
    p.add_argument("--suite", choices=sorted(suites), required=True)
    # suites take their own default sizes when --max-n is not given
    p.add_argument("--max-n", type=int, default=None, help="suite size")
    p.add_argument("--seed", type=int, default=0, help="seed for random suites")
    p.set_defaults(fn=_cmd_verify)
    return parser


def run(argv) -> int:
    # listing the suites imports verify and every pipeline, so only a
    # verify request pays for it; the subcommand is argv's first positional
    suites = ()
    if next((a for a in argv if not a.startswith("-")), None) == "verify":
        from .verify import SUITES as suites
    parser = build_parser(suites)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, doc, lines = args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
