"""Command-line front end: exact computation and identity verification
with deterministic text or JSON output.

At module level this file imports only ``base`` and ``hessenberg``.  Each
subcommand imports its own pipeline when it runs, and only ``verify``
imports them all, so a cold request pays for no module it does not use.

One table, ``_COMMANDS``, gives each subcommand its help, handler and
flags.  ``_parse`` reads argv by it, and renders help and usage errors from
it, without argparse.  Each ``_cmd_*`` returns (exit code, JSON document,
text lines), and ``run`` prints the document under ``--json`` and the lines
otherwise.

Exit codes: 0 success, help or suite passed, 1 verification failure, 2
usage or validation error.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

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
    terms = [{key: list(k.parts), "poly": poly_json(c)} for k, c in x.sorted_terms()]
    return {"degree": x.n, "basis": x.basis, "terms": terms}


def _expansion(x: QSymElement):
    """The command result for an expansion: one term a line in text."""
    lines = (f"{x.basis}{k}  {c}" for k, c in x.sorted_terms())
    return 0, expansion_json(x), lines


def _parse_ints(text: str):
    return tuple(int(p) for p in text.split(",") if p)


def _parse_hessenberg(args) -> HessenbergFunction:
    m = _parse_ints(args.m)
    return HessenbergFunction(len(m) + 1, m)


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
    lines = [f"{'PASS' if report.ok else 'FAIL'} suite={report.suite} checked={report.checked} "
             f"failures={len(report.failures)} elapsed_ms={report.elapsed_ms}"]
    lines += (f"  {f['input']}: expected {f['expected']}, got {f['actual']}"
              for f in report.failures)
    return (0 if report.ok else 1), report.to_json(), lines


# Flags as (name, kind, default, help): the kind is None for a switch, int
# or str for a value, or a tuple of choices; a default of ... marks a
# required flag.  Each subcommand takes only the flags it reads.
_OUTPUT = (("--json", None, False, "machine-readable output"),)
_GUARDED = _OUTPUT + (("--max-n", int, DEFAULT_MAX_N, "enumeration guard"),
                      ("--force", None, False, "override the guard"))
_STAT = _GUARDED + (("--stat", ("asc", "des"), "asc", "statistic"),)
_OF_M = (("--m", str, ..., "comma-separated m_1,...,m_{n-1}"),)
_XG = _STAT + _OF_M + (("--basis", ("m", "M", "e", "h", "p", "s"), "m", "output basis"),)
_COMMANDS = {  # command: (help, handler, flags)
    "xg": ("chromatic quasisymmetric function of G(m)", _cmd_xg, _XG),
    "omega-xg": ("omega X_{G(m)}(t)", _cmd_xg, _XG),
    "xi": ("path quasisymmetric function of a digraph", _cmd_xi, _STAT + (
        ("--edges", str, "", "directed edges like 1>2,2>1"),
        ("--vertices", str, "", "extra isolated vertices, like 1,2,3"))),
    "betti": ("Betti numbers of a regular Hessenberg variety", _cmd_betti,
              _GUARDED + _OF_M + (("--lambda", str, ..., "Jordan type, like 2,1"),)),
    "character": ("dot-action character values", _cmd_character, _GUARDED + _OF_M + (
        ("--d", int, ..., "cohomological degree d (of H^{2d})"),)),
    "enumerate": ("list Hessenberg functions", _cmd_enumerate,
                  _GUARDED + (("--n", int, ..., "number of vertices"),)),
    "verify": ("run a verification suite", _cmd_verify, _OUTPUT + (
        ("--suite", (), ..., "suite to run"), ("--max-n", int, None, "suite size"),
        ("--seed", int, 0, "seed for random suites"))),
}
_ABOUT = ("Chromatic/path quasisymmetric functions, Hessenberg Betti numbers and "
          "dot-action characters, exactly.")


def _flag(token, names):
    """The flag a token names: itself, or the one long flag it abbreviates."""
    hits = [n for n in names if n.startswith(token)] if token.startswith("--") and token[2:] else []
    if token in names or len(hits) == 1:
        return token if token in names else hits[0]
    raise ValueError(f"ambiguous option: {token} could match {', '.join(hits)}"
                     if len(hits) > 1 else f"unrecognized arguments: {token}")


def _parse(argv):
    """The namespace the ``_cmd_*`` read, filled from argv by ``_COMMANDS``,
    or the exit code once help (0) or a usage error (2) is printed."""
    command, *tokens = argv or [""]
    prog, usage = "hesschrom", "usage: hesschrom [-h] {%s} ..." % ",".join(_COMMANDS)
    about, fn, table = _COMMANDS.get(command, (_ABOUT, None, ()))
    rows = [(c, v[0]) for c, v in _COMMANDS.items()]
    if fn is _cmd_verify:  # its suites are listed only now: verify imports every pipeline
        from .verify import SUITES
        table = [(n, k if k != () else tuple(sorted(SUITES)), d, h) for n, k, d, h in table]
    kinds = {n: k for n, k, _, _ in table}
    dest = {n: "lam" if n == "--lambda" else n[2:].replace("-", "_") for n in kinds}
    if fn:  # each flag as usage and help show it, with a placeholder for its value
        shown = {n: n if k is None else f"{n} {dest[n].upper()}" if k in (int, str)
                 else f"{n} {{{','.join(k)}}}" for n, k in kinds.items()}
        prog, usage = f"hesschrom {command}", " ".join([f"usage: hesschrom {command} [-h]"] + [
            shown[n] if d is ... else f"[{shown[n]}]" for n, _, d, _ in table])
        rows = [("-h, --help", "show this help and exit")] + [(shown[n], h) for n, _, _, h in table]
        args = SimpleNamespace(command=command, fn=fn, **{dest[n]: d for n, _, d, _ in table})
    tokens = iter(tokens if fn else [command])  # the top level takes only -h
    try:
        if not fn and command[:1] != "-":
            raise ValueError(f"argument command: invalid choice: {command!r}" if command
                             else "the following arguments are required: command")
        for token in tokens:
            token, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
            name = _flag(token, [*kinds, "-h", "--help"])
            if name in ("-h", "--help"):
                print(usage, "", about, "", *(f"  {a:<21} {b}" for a, b in rows), sep="\n")
                return 0
            kind = kinds[name]
            if kind is None and eq:
                raise ValueError(f"argument {name}: ignored explicit argument {value!r}")
            if kind and not eq:
                value = next(tokens, "--")  # a value may be "-" or a negative int
                if value.startswith("-") and value != "-" and not value[1:].isdecimal():
                    raise ValueError(f"argument {name}: expected one argument")
            if isinstance(kind, tuple) and value not in kind:
                choices = ", ".join(map(repr, kind))
                raise ValueError(
                    f"argument {name}: invalid choice: {value!r} (choose from {choices})")
            try:
                setattr(args, dest[name], kind is None or (int(value) if kind is int else value))
            except ValueError:
                raise ValueError(f"argument {name}: invalid int value: {value!r}") from None
        missing = ", ".join(n for n in kinds if getattr(args, dest[n]) is ...)
        if missing:
            raise ValueError(f"the following arguments are required: {missing}")
    except ValueError as exc:
        print(usage, f"{prog}: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    return args


def run(argv) -> int:
    args = _parse(argv)
    if isinstance(args, int):
        return args
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
