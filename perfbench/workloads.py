"""The benchmark's workloads: how each round of operations is drawn from
the seed, and how each operation's output is checked.

A round is a fixed list of operation kinds; only the seeded draws (random
Hessenberg functions, digraphs, degrees, visiting order) change from one
round to the next. Every run does whole rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import comb

import checks as C


@dataclass
class Request:
    """One cold CLI request and what its output must satisfy."""

    argv: list
    check: object  # callable(doc) -> error string or None
    pair: tuple = None  # (m, command, basis) for the omega pairing check
    seconds: float = 0.0  # at the reference CPU speed
    factor: float = 1.0  # CPU slowness measured around the request
    rc: int = None
    stdout: str = field(default="", repr=False)
    stderr: str = field(default="", repr=False)
    doc: dict = field(default=None, repr=False)


def _m_arg(m):
    return ",".join(map(str, m))


def _draw_m(rng, n):
    """A Hessenberg function of weight C(n,2) // 2, uniformly. Fixing the
    weight (the edge count of G(m)) fixes the request's size, so the draw
    varies the structure and not the cost: at n = 6 the number of stable
    ordered partitions then stays within 4% of its median, against a
    6.5-fold range over all m."""
    w = n * (n - 1) // 4
    return rng.choice([m for m in C.hessenberg_functions(n) if C.weight(m) == w])


def xg_request(m, command, basis):
    omega_side = command == "omega-xg"
    return Request(
        [command, "--m", _m_arg(m), "--basis", basis, "--json"],
        lambda doc: C.check_xg(m, omega_side, doc),
        (m, command, basis),
    )


def xg_round(rng, n=6):
    """xg / omega-xg over all six bases plus one character request, on the
    staircase, band and complete m and seeded draws. Each omega-xg request
    shares its m with the xg request in the dual basis."""
    # The staircase (G(m) edgeless, the most ordered partitions) gives the
    # four slowest requests of a round. A run makes four rounds, so
    # op_tail_ms (the 11th-largest of 52 latencies) falls in the middle of
    # those 16 and not at the edge of a group.
    plan = [
        (C.staircase(n), [("xg", "e"), ("omega-xg", "h"), ("xg", "M"), ("omega-xg", "m")]),
        (C.band(n), [("xg", "h"), ("omega-xg", "e"), ("omega-xg", "M")]),
        (C.complete(n), [("xg", "s"), ("omega-xg", "s"), ("xg", "m")]),
        (_draw_m(rng, n), [("xg", "p"), ("omega-xg", "p")]),
    ]
    ops = [xg_request(m, cmd, b) for m, kinds in plan for cmd, b in kinds]
    m = _draw_m(rng, n)
    d = rng.randint(0, C.weight(m))
    ops.append(
        Request(
            ["character", "--m", _m_arg(m), "--d", str(d), "--json"],
            lambda doc: C.check_character(m, d, doc),
        )
    )
    return ops


def pair_errors(ops):
    """omega pairing between the xg and omega-xg outputs of one round."""
    docs = {op.pair: op.doc for op in ops if op.pair and op.doc is not None}
    errors = []
    for (m, command, basis), doc in docs.items():
        dual = C.OMEGA_PAIRS.get(basis)
        if command == "omega-xg" and (m, "xg", dual) in docs:
            err = C.check_omega_pair(docs[(m, "xg", dual)], doc)
            if err:
                errors.append((m, basis, err))
    return errors


def betti_request(m, lam):
    return Request(
        ["betti", "--m", _m_arg(m), "--lambda", _m_arg(lam), "--json"],
        lambda doc: C.check_betti(m, lam, doc),
    )


# lambda |- N requested each round (N = 8 in the benchmark), with the m
# family it runs on. The draw gets (1^N): every filling of a column is
# admissible whatever m is, so the draw changes the output but hardly the
# cost. These four are a round's slowest requests, and a run makes three
# rounds, so op_tail_ms (the 11th-largest of 57 latencies) falls on the
# two complete-m requests, which cost the same as each other.
BETTI_BIG = (
    (lambda N: (2,) + (1,) * (N - 2), "band"),
    (lambda N: (N,), "complete"),
    (lambda N: (2,) * (N // 2) + (1,) * (N % 2), "complete"),
    (lambda N: (1,) * N, "draw"),
)


def _families(rng, n):
    return {
        "staircase": C.staircase(n),
        "band": C.band(n),
        "complete": C.complete(n),
        "draw": _draw_m(rng, n),
    }


def betti_round(rng, n=7):
    """Every lambda |- n, cycling over the three families and a seeded
    draw, plus four lambda |- n + 1 (BETTI_BIG)."""
    small = list(_families(rng, n).values())
    ops = [betti_request(small[i % 4], lam) for i, lam in enumerate(C.partitions(n))]
    big = _families(rng, n + 1)
    ops += [betti_request(big[name], lam(n + 1)) for lam, name in BETTI_BIG]
    return ops


def xi_request(n, edges, m=None):
    argv = ["xi", "--vertices", _m_arg(range(1, n + 1)), "--json"]
    if edges:
        argv[1:1] = ["--edges", ",".join(f"{u}>{v}" for u, v in edges)]
    return Request(argv, lambda doc: C.check_xi(n, edges, doc, m))


def random_digraph(rng, n, edges):
    """A digraph on 1..n with exactly ``edges`` directed edges."""
    return sorted(rng.sample(list(permutations(range(1, n + 1), 2)), edges))


def xi_round(rng, n=6):
    """Complements of D(m) (the reciprocity side), D(m) itself (which must
    reproduce X_G(m)), and seeded random n-vertex digraphs; the band,
    complete and drawn complements run at n - 1."""

    def co(m):
        n = len(m) + 1
        return xi_request(n, C.complement_edges(n, C.digraph_edges(m)))

    def d_of(m):
        return xi_request(len(m) + 1, C.digraph_edges(m), m)

    return [
        co(C.staircase(n)),
        co(C.band(n - 1)),
        co(C.complete(n - 1)),
        co(_draw_m(rng, n - 1)),
        d_of(C.staircase(n)),
        d_of(C.band(n)),
        d_of(C.complete(n)),
        xi_request(n, random_digraph(rng, n, n * (n - 1) * 3 // 10)),
        xi_request(n, random_digraph(rng, n, n * (n - 1) * 3 // 10)),
    ]


COLD_ROUNDS = {"xg-cold": xg_round, "betti-cold": betti_round, "xi-cold": xi_round}

def warm_round(rng, max_n=5):
    """Every Hessenberg function for n = 1..max_n, by increasing n, in a
    seeded order within each n."""
    order = []
    for n in range(1, max_n + 1):
        ms = C.hessenberg_functions(n)
        rng.shuffle(ms)
        order += ms
    return order


def warm_op_error(op):
    """Checks one verify-warm operation's results."""
    m = tuple(op["m"])
    ok, checked = op["sw"]
    if not ok or checked <= 0:
        return f"verify_sw_betti ok={ok} checked={checked}"
    ok, checked = op["schur"]
    if not ok or checked <= 0:
        return f"schur_positivity_report ok={ok} checked={checked}"
    if [d for d, _, _ in op["chars"]] != list(range(C.weight(m) + 1)):
        return "characters do not cover every degree"
    for d, values, frob in op["chars"]:
        values = {tuple(map(int, k.split(","))): v for k, v in values.items()}
        err = C.character_values_error(m, d, values) or C.check_frobenius(
            m, d, {tuple(map(int, k.split(","))): Fraction(v) for k, v in frob.items()}
        )
        if err:
            return err
    return None


def warm_sweep_error(ops, max_n):
    """The sweep visits Catalan-many functions per n, each once."""
    seen = sorted(tuple(op["m"]) for op in ops)
    want = sorted(m for n in range(1, max_n + 1) for m in C.hessenberg_functions(n))
    catalan = sum(comb(2 * n, n) // (n + 1) for n in range(1, max_n + 1))
    if seen != want or len(want) != catalan:
        return "sweep did not visit every Hessenberg function once"
    return None
