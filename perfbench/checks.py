"""Reference computations that check hesschrom outputs without importing
hesschrom.

Everything here is brute force over colourings, permutations and path
covers, written from the definitions:

- X_G(m) in the M basis, from ordered partitions of [n] into stable sets of
  the incomparability graph G(m), weighted by t^asc;
- principal specialisations f(1^N) of the m, M, e, h, p and s bases, as
  polynomials in N, so omega can be checked through
  (omega f)(1^N) = (-1)^n f(1^-N);
- c_{d,lambda}(m) = [t^d m_lambda] omega X_G(m), counted as fillings of
  lambda whose rows are paths in the complement of D(m), weighted by the
  neutral-pair ascent statistic (the Shareshian-Wachs side of the
  Betti-number identity);
- the Anderson-Tymoczko product prod_j [m_j - j + 1]_t;
- Xi_D(1^N) as a sum over ordered path covers of a digraph.

A polynomial in t is a dict {exponent: coefficient} without zero entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial, prod


def clean(poly):
    return {e: c for e, c in poly.items() if c}


def add_into(acc, poly, scale=1):
    for e, c in poly.items():
        acc[e] = acc.get(e, 0) + c * scale
    return acc


# --- Hessenberg functions -------------------------------------------------

def hessenberg_functions(n):
    """All Hessenberg functions m = (m_1..m_{n-1}), lexicographically."""
    out = []

    def rec(i, lo, prefix):
        if i == n:
            out.append(tuple(prefix))
            return
        for v in range(max(i, lo), n + 1):
            rec(i + 1, v, prefix + [v])

    rec(1, 1, [])
    return out


def staircase(n):
    return tuple(range(1, n))


def band(n):
    return tuple(min(i + 2, n) for i in range(1, n))


def complete(n):
    return (n,) * (n - 1)


def m_at(m, i):
    return len(m) + 1 if i == len(m) + 1 else m[i - 1]


def weight(m):
    return sum(v - i for i, v in enumerate(m, start=1))


def graph_edges(m):
    """Edges {i < j} of the incomparability graph G(m): j <= m_i."""
    return [(i, j) for i in range(1, len(m) + 1) for j in range(i + 1, m[i - 1] + 1)]


def digraph_edges(m):
    """D(m): u -> v iff v precedes u in P(m), i.e. v < u and u > m_v."""
    n = len(m) + 1
    return sorted((u, v) for v in range(1, n + 1) for u in range(m_at(m, v) + 1, n + 1))


def complement_edges(n, edges):
    have = set(edges)
    return sorted(
        (u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and (u, v) not in have
    )


# --- partitions and the bases at 1^N ------------------------------------------

def partitions(n, max_part=None):
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    return [
        (k,) + rest
        for k in range(min(n, max_part), 0, -1)
        for rest in partitions(n - k, k)
    ]


def conjugate(lam):
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0])) if lam else ()


def z_of(mu):
    return prod(k ** mu.count(k) * factorial(mu.count(k)) for k in set(mu))


def _falling(x, k):
    return prod(x - i for i in range(k))


def _binom(x, k):
    return Fraction(_falling(x, k), factorial(k))


def _multiplicities(parts):
    return prod(factorial(parts.count(k)) for k in set(parts))


def specialise(basis, key, N):
    """The basis element indexed by ``key`` evaluated at x = 1^N (N may be
    negative: every formula is a polynomial in N)."""
    key = tuple(key)
    if basis == "M":
        return _binom(N, len(key))
    if basis == "m":
        return Fraction(_falling(N, len(key)), _multiplicities(key))
    if basis == "e":
        return prod((_binom(N, k) for k in key), start=Fraction(1))
    if basis == "h":
        return prod((_binom(N + k - 1, k) for k in key), start=Fraction(1))
    if basis == "p":
        return Fraction(N) ** len(key)
    if basis == "s":
        cols = conjugate(key)
        value = Fraction(1)
        for r, width in enumerate(key):
            for c in range(width):
                hook = (width - c) + (cols[c] - r) - 1
                value *= Fraction(N + c - r, hook)
        return value
    raise ValueError(f"unknown basis {basis!r}")


def evaluate(basis, terms, N):
    """sum_key coeff(t) * basis_key(1^N), as a polynomial in t."""
    acc = {}
    for key, poly in terms.items():
        add_into(acc, poly, specialise(basis, key, N))
    return clean(acc)


# --- the qsym side: X_G(m) by brute force -------------------------------------

@lru_cache(maxsize=None)
def chromatic_m_expansion(m):
    """{composition: {asc: count}} for X_G(m) in the M basis, from proper
    colourings whose colours are exactly 1..k (ordered stable partitions)."""
    n = len(m) + 1
    lower = {v: [u for u, w in graph_edges(m) if w == v] for v in range(1, n + 1)}
    out = {}
    colour = [0] * (n + 1)

    def rec(v, asc):
        if v > n:
            used = sorted(set(colour[1:]))
            if used[-1] != len(used):
                return
            alpha = tuple(colour[1:].count(c) for c in used)
            row = out.setdefault(alpha, {})
            row[asc] = row.get(asc, 0) + 1
            return
        for c in range(1, n + 1):
            if all(colour[u] != c for u in lower[v]):
                colour[v] = c
                rec(v + 1, asc + sum(1 for u in lower[v] if colour[u] < c))
        colour[v] = 0

    rec(1, 0)
    return out


def chromatic_at(m, N):
    """X_G(m)(1^N) = sum over proper N-colourings of t^asc, extended to
    every integer N through the M-basis expansion."""
    return evaluate("M", chromatic_m_expansion(m), N)


@lru_cache(maxsize=None)
def ascent_enumerator(m):
    """sum over sigma in S_n of t^{#{edges i<j of G(m): sigma_i < sigma_j}}."""
    n = len(m) + 1
    edges = graph_edges(m)
    out = {}
    for sigma in permutations(range(n)):
        a = sum(1 for i, j in edges if sigma[i - 1] < sigma[j - 1])
        out[a] = out.get(a, 0) + 1
    return out


@lru_cache(maxsize=None)
def anderson_tymoczko(m):
    """prod_{j=1}^{n} [m_j - j + 1]_t, with m_n = n."""
    poly = {0: 1}
    for j in range(1, len(m) + 2):
        k = m_at(m, j) - j + 1
        nxt = {}
        for e, c in poly.items():
            for s in range(k):
                nxt[e + s] = nxt.get(e + s, 0) + c
        poly = nxt
    return poly


@lru_cache(maxsize=None)
def c_coefficients(m, lam):
    """{d: c_{d,lam}(m)}: fillings of lam, rows read in order, with each
    row a directed path in the complement of D(m) (a <= m_b for a left of
    b), weighted by t^(#edges u<v of G(m) with u read before v)."""
    n = len(m) + 1
    lower_mask = [0] * (n + 1)
    for u, v in graph_edges(m):
        lower_mask[v] |= 1 << u
    row_starts = set()
    pos = 0
    for part in lam:
        row_starts.add(pos)
        pos += part
    out = {}

    def rec(i, placed, prev, asc):
        if i == n:
            out[asc] = out.get(asc, 0) + 1
            return
        for v in range(1, n + 1):
            if placed >> v & 1:
                continue
            if i not in row_starts and prev > m_at(m, v):
                continue
            rec(i + 1, placed | 1 << v, v, asc + bin(placed & lower_mask[v]).count("1"))

    rec(0, 0, 0, 0)
    return out


# --- the path side: Xi_D at 1^N -------------------------------------------------

def path_cover_count(n, edges, N):
    """sum over ordered path covers (q, beta) of t^asc(q) * C(N, l(beta)),
    where asc counts neutral pairs u<v (both or neither edge) with u
    before v in q."""
    have = set(edges)
    neutral = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if ((u, v) in have) == ((v, u) in have)
    ]
    out = {}
    for q in permutations(range(1, n + 1)):
        where = {v: i for i, v in enumerate(q)}
        asc = sum(1 for u, v in neutral if where[u] < where[v])
        joins = sum(1 for a, b in zip(q, q[1:]) if (a, b) in have)
        forced = n - 1 - joins
        weight_ = sum(comb(joins, k) * comb(N, 1 + forced + k) for k in range(joins + 1))
        if weight_:
            out[asc] = out.get(asc, 0) + weight_
    return out


# --- checking program outputs -------------------------------------------------

def parse_poly(pairs):
    return clean({int(e): Fraction(c) for e, c in pairs})


def parse_element(doc):
    """CLI JSON of a qsym/sym element -> (basis, {key: poly})."""
    keyname = "composition" if doc["basis"] in ("M", "F") else "partition"
    return doc["basis"], {tuple(t[keyname]): parse_poly(t["poly"]) for t in doc["terms"]}


def check_xg(m, omega_side, doc):
    """Every basis: the output at 1^n must equal the brute-force X_G(m) at
    1^n (for omega-xg, via (omega f)(1^N) = (-1)^n f(1^-N)). The M basis
    of xg must also equal the brute-force expansion term by term."""
    n = len(m) + 1
    basis, terms = parse_element(doc)
    if doc["degree"] != n:
        return f"degree {doc['degree']} != {n}"
    if omega_side:
        got = evaluate(basis, terms, -n)
        got = {e: c * (-1) ** n for e, c in got.items()}
    else:
        got = evaluate(basis, terms, n)
    want = chromatic_at(m, n)
    if got != want:
        return f"value at 1^{n} is {got}, brute force gives {want}"
    if basis == "M" and not omega_side and terms != chromatic_m_expansion(m):
        return "M-basis terms differ from the brute-force expansion"
    return None


OMEGA_PAIRS = {"e": "h", "h": "e", "s": "s", "p": "p"}


def check_omega_pair(xg_doc, omega_doc):
    """omega-xg in basis b against xg in the dual basis: h <-> e,
    s_lam <-> s_lam', p_lam <-> (-1)^(n - l(lam)) p_lam."""
    b, wx = parse_element(omega_doc)
    b2, x = parse_element(xg_doc)
    if OMEGA_PAIRS.get(b) != b2:
        return f"bases {b}/{b2} are not an omega pair"
    n = omega_doc["degree"]
    if b in ("e", "h"):
        expect = x
    elif b == "s":
        expect = {conjugate(lam): poly for lam, poly in x.items()}
    else:
        expect = {
            lam: {e: c * (-1) ** (n - len(lam)) for e, c in poly.items()}
            for lam, poly in x.items()
        }
    if wx != expect:
        return f"omega-xg --basis {b} is not omega of xg --basis {b2}"
    return None


def check_character(m, d, doc):
    """chi_d(1^n) = [t^d] ascent enumerator; sum_mu chi_d(mu)/z_mu =
    [t^d] Anderson-Tymoczko product."""
    n = len(m) + 1
    values = {tuple(v["cycle_type"]): v["value"] for v in doc["values"]}
    if set(values) != set(partitions(n)):
        return "character values do not cover every cycle type"
    if any(not isinstance(v, int) for v in values.values()):
        return "non-integral character value"
    return character_values_error(m, d, values)


def character_values_error(m, d, values):
    n = len(m) + 1
    dim = values[(1,) * n]
    if dim != ascent_enumerator(m).get(d, 0):
        return f"chi_{d}(1^n)={dim}, ascent enumerator gives {ascent_enumerator(m).get(d, 0)}"
    trivial = sum(Fraction(v, z_of(mu)) for mu, v in values.items())
    if trivial != anderson_tymoczko(m).get(d, 0):
        return f"sum chi/z = {trivial}, Anderson-Tymoczko gives {anderson_tymoczko(m).get(d, 0)}"
    return None


def check_betti(m, lam, doc):
    """beta_{2d}(m, lam) = c_{d,lam}(m) for every d; lam = (n) also against
    the Anderson-Tymoczko product, lam = (1^n) against the ascent
    enumerator."""
    n = len(m) + 1
    got = {}
    for deg, count in doc["betti"]:
        if deg % 2:
            return f"odd degree {deg}"
        got[deg // 2] = count
    got = clean(got)
    if got != c_coefficients(m, lam):
        return f"betti {got} != path-cover count {c_coefficients(m, lam)}"
    if lam == (n,) and got != anderson_tymoczko(m):
        return "betti of (n) differs from the Anderson-Tymoczko product"
    if lam == (1,) * n and got != ascent_enumerator(m):
        return "betti of (1^n) differs from the ascent enumerator"
    return None


def check_xi(n, edges, doc, m=None):
    """Xi_D(1^n) against the brute-force path-cover count; for D = D(m)
    also Xi_D = X_G(m) term by term in the M basis."""
    basis, terms = parse_element(doc)
    if basis != "M" or doc["degree"] != n:
        return f"xi returned basis {basis}, degree {doc['degree']}"
    got = evaluate("M", terms, n)
    want = path_cover_count(n, edges, n)
    if got != want:
        return f"xi at 1^{n} is {got}, path covers give {want}"
    if m is not None and terms != chromatic_m_expansion(m):
        return "xi on D(m) differs from X_G(m) in the M basis"
    return None


def check_frobenius(m, d, frob):
    """[m_lam] ch(chi_d) = c_{d,lam}(m) for every lam ({lam: Fraction})."""
    for lam in partitions(len(m) + 1):
        if frob.get(lam, 0) != c_coefficients(m, lam).get(d, 0):
            return f"[m_{lam}] ch(chi_{d}) = {frob.get(lam, 0)}, expected {c_coefficients(m, lam).get(d, 0)}"
    return None
