"""The path quasisymmetric function Xi_D(x,t) over ordered path covers of
a digraph, the reciprocity identity omega Xi_D = Xi_{D-complement} as an
executable check, path-cover counts for the coefficients c_{d,lambda}
(the [M_alpha] coefficient of Xi of the complement of D(m)), and the
explicit SW-to-T inversion bijection on path covers.

``path_qsym`` is a dynamic programme over subsets. Number the vertices
by sorted label. A state is (U, last): the bitmask U of vertices already
in the sequencing and the last vertex of the open path. Its value maps
(path lengths so far, t-exponent) to a count. A move either starts a new
path at any free vertex w or extends the open path to a free w with
last -> w an edge, and the statistic grows by the neutral pairs between
U and w: for asc, those with a smaller vertex of U; for des, with a
larger one. That is at most n^2 2^n moves in place of one per ordered
path cover. The (path lengths, t-exponent) pairs are packed into one
int key, which ``qsym._unpack`` decodes; ``chromatic`` shares that
decoder and nothing else. ``path_qsym_bruteforce`` keeps the sum over
``ordered_path_covers`` as its oracle; it builds its compositions without
the decoder.

This module does not import ``chromatic``, nor ``chromatic`` this one:
Xi_{D(m)} = X_{G(m)} compares two independent computations."""

from __future__ import annotations

from .base import Composition, DEFAULT_MAX_N, Report, TPoly, _Frozen, check_bound
from .hessenberg import Digraph, HessenbergFunction, complement, digraph
from .qsym import QSymElement, _unpack, omega


class OrderedPathCover(_Frozen):
    """A sequencing q of V(D) cut by a composition beta into consecutive
    directed paths of D."""

    __slots__ = _fields = ("q", "beta")

    def __init__(self, q: tuple, beta: Composition):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "beta", beta)


def _paths_from(v, remaining, d: Digraph):
    """Directed paths in d starting at v using only ``remaining`` vertices."""
    yield (v,)
    rest = remaining - {v}
    for w in sorted(rest):
        if d.has_edge(v, w):
            for tail in _paths_from(w, rest, d):
                yield (v,) + tail


def _covers(remaining, d: Digraph):
    """Sequences of vertex-disjoint directed paths covering ``remaining``."""
    if not remaining:
        yield ()
        return
    for start in sorted(remaining):
        for path in _paths_from(start, remaining, d):
            for tail in _covers(remaining - set(path), d):
                yield (path,) + tail


def ordered_path_covers(
    d: Digraph, max_n: int = DEFAULT_MAX_N, force: bool = False
):
    """All ordered path covers of d, deterministic order."""
    check_bound(len(d.vertices), max_n, force)
    out = []
    for paths in _covers(frozenset(d.vertices), d):
        q = tuple(v for path in paths for v in path)
        beta = Composition(tuple(len(p) for p in paths))
        out.append(OrderedPathCover(q, beta))
    return out


def cover_paths(cover: OrderedPathCover):
    """The cover's paths, recovered from the sequencing and composition."""
    out, pos = [], 0
    for part in cover.beta.parts:
        out.append(cover.q[pos : pos + part])
        pos += part
    return out


def _neutral_pairs(d: Digraph):
    """Pairs {u,v}, u<v, with both directed edges present or neither."""
    vs = sorted(d.vertices)
    return [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if d.has_edge(u, v) == d.has_edge(v, u)
    ]


def sequencing_stat(q: tuple, d: Digraph, stat: str = "asc") -> int:
    """asc q: neutral pairs u<v with v later in q; des q swaps u and v."""
    position = {v: i for i, v in enumerate(q)}
    count = 0
    for u, v in _neutral_pairs(d):
        if stat == "asc":
            count += position[v] > position[u]
        else:
            count += position[u] > position[v]
    return count


def path_qsym(
    d: Digraph, stat: str = "asc", max_n: int = DEFAULT_MAX_N, force: bool = False
) -> QSymElement:
    """Xi_D(x,t) in the M basis, by the subset DP of the module docstring."""
    if stat not in ("asc", "des"):
        raise ValueError(f"stat must be 'asc' or 'des': {stat!r}")
    vs = sorted(d.vertices)
    n = len(vs)
    check_bound(n, max_n, force)
    index = {v: i for i, v in enumerate(vs)}
    succ = [0] * n
    for u, v in d.edges:
        succ[index[u]] |= 1 << index[v]
    # w is charged for the neutral pairs {u, w} with u already placed and,
    # for asc, u < w; for des, u > w
    charged = [0] * n
    for u in range(n):
        for w in range(n):
            if u != w and (succ[u] >> w & 1) == (succ[w] >> u & 1):
                if (u < w) == (stat == "asc"):
                    charged[w] |= 1 << u
    full = (1 << n) - 1
    # states[U]: {last: {key: count}}, where the key packs (path lengths,
    # exponent) as qsym._unpack reads it: starting a path at position |U|
    # adds bit |U|, and every move shifts the exponent by its step. The
    # empty sequencing has no open path (last = -1). None once expanded.
    states = [{} for _ in range(full + 1)]
    states[0][-1] = {0: 1}
    for used in range(full + 1):
        value, states[used] = states[used], None
        # a new path may follow any last vertex, so merge over last first
        closed = {}
        for by_key in value.values():
            for key, count in by_key.items():
                closed[key] = closed.get(key, 0) + count
        if used == full:
            return _unpack(n, closed)
        start = 1 << used.bit_count()
        for w in range(n):
            bit = 1 << w
            if used & bit:
                continue
            shift = (used & charged[w]).bit_count() << n
            slot = states[used | bit].setdefault(w, {})
            delta = shift | start
            for key, count in closed.items():
                slot[key + delta] = slot.get(key + delta, 0) + count
            for last, by_key in value.items():
                if last >= 0 and succ[last] & bit:
                    for key, count in by_key.items():
                        slot[key + shift] = slot.get(key + shift, 0) + count


def path_qsym_bruteforce(
    d: Digraph, stat: str = "asc", max_n: int = DEFAULT_MAX_N, force: bool = False
) -> QSymElement:
    """Oracle for ``path_qsym``: sum the statistic over every ordered
    path cover."""
    if stat not in ("asc", "des"):
        raise ValueError(f"stat must be 'asc' or 'des': {stat!r}")
    acc = {}
    for cover in ordered_path_covers(d, max_n, force):
        slot = acc.setdefault(cover.beta, {})
        e = sequencing_stat(cover.q, d, stat)
        slot[e] = slot.get(e, 0) + 1
    return QSymElement(
        len(d.vertices), "M", {beta: TPoly(slot) for beta, slot in acc.items()}
    )


def verify_reciprocity(
    d: Digraph, max_n: int = DEFAULT_MAX_N, force: bool = False
) -> Report:
    """Compare omega(Xi_D) with Xi of the complement digraph as one check.
    A failure names the first composition where they differ and the lowest
    t-exponent of the difference."""
    report = Report("reciprocity", checked=1)
    lhs = omega(path_qsym(d, "asc", max_n, force))
    rhs = path_qsym(complement(d), "asc", max_n, force)
    if lhs != rhs:
        keys = lhs.terms.keys() | rhs.terms.keys()
        alpha = min(
            (a for a in keys if lhs.coeff(a) != rhs.coeff(a)), key=lambda a: a.parts
        )
        diff = lhs.coeff(alpha) - rhs.coeff(alpha)
        report.record(
            f"vertices {sorted(d.vertices)}, edges {sorted(d.edges)}",
            "equal",
            f"differs at M_{alpha}, t^{min(diff.exponents())}",
        )
    return report


def c_via_path_covers(
    m: HessenbergFunction,
    alpha: Composition,
    stat: str = "asc",
    max_n: int = DEFAULT_MAX_N,
    force: bool = False,
):
    """d -> number of ordered path covers (q, alpha) of the complement of
    D(m) with the chosen statistic equal to d: the [M_alpha] coefficient
    of ``path_qsym`` on that complement."""
    if alpha.n != m.n:
        raise ValueError(f"{alpha} is not a composition of {m.n}")
    xi = path_qsym(complement(digraph(m)), stat, max_n, force)
    return dict(xi.coeff(alpha).terms)


# --- the SW-inversion / T-inversion bijection on path covers ------------
#
# Path covers fill rows from the bottom: path i goes in the i-th row from
# the bottom of the filling, as in Tymoczko's tableau model.

class InvalidCoverError(ValueError):
    pass


def _checked_paths(cover: OrderedPathCover, dbar: Digraph):
    paths = cover_paths(cover)
    for path in paths:
        for u, v in zip(path, path[1:]):
            if not dbar.has_edge(u, v):
                raise InvalidCoverError(
                    f"{u}->{v} is not an edge of the complement digraph"
                )
    return paths


def t_inversions_of_cover(cover: OrderedPathCover, m: HessenbergFunction):
    """T-inversions of the filling whose i-th row from the bottom is the
    i-th path of the cover."""
    paths = _checked_paths(cover, complement(digraph(m)))
    out = set()
    for row in paths:
        for a in range(len(row)):
            for b in range(a + 1, len(row)):
                i, k = row[a], row[b]
                if k < i and (b + 1 == len(row) or i <= m.m_at(row[b + 1])):
                    out.add((i, k))
    for lo in range(len(paths)):
        for hi in range(lo + 1, len(paths)):
            for i in paths[lo]:
                for k in paths[hi]:
                    if k < i <= m.m_at(k):
                        out.add((i, k))
    return out


def sw_inversions_of_cover(cover: OrderedPathCover, m: HessenbergFunction):
    """Pairs (i, k) with i earlier in the sequencing and k < i <= m_k
    (the reduced form of the des-statistic pairs on the complement)."""
    q = cover.q
    out = set()
    for a in range(len(q)):
        for b in range(a + 1, len(q)):
            i, k = q[a], q[b]
            if k < i <= m.m_at(k):
                out.add((i, k))
    return out


def sw_to_t_bijection(cover: OrderedPathCover, m: HessenbergFunction):
    """Map each SW-inversion (i, k) to a T-inversion.

    Cross-path pairs map to themselves.  Within a path, scan right from k
    through its successors k_1, ..., k_r (sentinel m of infinity past the
    end) and stop at the smallest j with i <= m_{k_{j+1}}; the image is
    (i, k_j).
    """
    paths = _checked_paths(cover, complement(digraph(m)))
    path_of, pos_in = {}, {}
    for pi, path in enumerate(paths):
        for idx, v in enumerate(path):
            path_of[v] = pi
            pos_in[v] = idx
    mapping = {}
    for i, k in sorted(sw_inversions_of_cover(cover, m)):
        if path_of[i] != path_of[k]:
            mapping[(i, k)] = (i, k)
            continue
        path = paths[path_of[k]]
        succ = path[pos_in[k] + 1 :]
        j = 0
        chain = (k,) + succ
        while j < len(succ) and i > m.m_at(succ[j]):
            j += 1
        mapping[(i, k)] = (i, chain[j])
    return mapping
