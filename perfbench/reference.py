"""Independent answers that the benchmark checks the CLI's outputs against.

Nothing here imports ``singular_pi1``: the counts come from closed
formulas for the generated families and the bundled corpus, evaluated
with plain permutation arithmetic, and from a counter of homomorphisms
that shares no code with the package's counting engine.

For an involution ``x`` of Sym(d), ``e(x)`` is the number of ``b`` with
``b^2 = (xb)^3 = 1``, i.e. of homomorphisms S3 = <s1, s2> -> Sym(d) with
``s1 -> x``, and ``C(x)`` is the centraliser of ``x``.  Then

* nontrivial chain and star with N pieces (N + 1 copies of S3
  amalgamated along <s1>):   #Hom = sum_x e(x)^(N+1);
* nontrivial theta (two copies of S3 amalgamated along <s1>, plus
  N - 1 stable letters centralising s1):   sum_x e(x)^2 |C(x)|^(N-1);
* a configuration whose groups are all trivial (a free group of the
  cycle rank r = m~ - m - n + 1):   (d!)^r.
"""

from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial


def _compose(p, q):
    """Apply ``p`` first, then ``q``."""
    return tuple(q[x] for x in p)


@lru_cache(maxsize=None)
def involution_stats(d):
    """``(e(x), |C(x)|)`` for every ``x`` in Sym(d) with ``x^2 = 1``."""
    perms = list(permutations(range(d)))
    ident = tuple(range(d))
    invols = [p for p in perms if _compose(p, p) == ident]
    out = []
    for x in invols:
        e = 0
        for b in invols:
            xb = _compose(x, b)
            if _compose(_compose(xb, xb), xb) == ident:
                e += 1
        centraliser = sum(1 for c in perms
                          if _compose(x, c) == _compose(c, x))
        out.append((e, centraliser))
    return tuple(out)


def cycle_rank(doc):
    """m~ - m - n + 1 of a configuration document."""
    return (len(doc["branches"]) - len(doc["singulars"])
            - len(doc["components"]) + 1)


def family_homs(family, variant, n, d):
    """#Hom(pi_1, Sym(d)) of a generated family member."""
    if variant == "trivial":
        return factorial(d) ** (n - 1 if family == "theta" else 0)
    stats = involution_stats(d)
    if family in ("chain", "star"):
        return sum(e ** (n + 1) for e, _ in stats)
    if family == "theta":
        return sum(e * e * c ** (n - 1) for e, c in stats)
    raise ValueError(f"unknown family {family!r}")


def _all_trivial(doc):
    return all(item["group"]["kind"] == "trivial"
               for key in ("components", "singulars", "branches")
               for item in doc[key])


# pi_1 of the bundled configurations with a non-trivial group, read off
# their dual graphs: regular is C2, semistable-C2 is C2 * C2,
# nontrivial-Z is C2 x Z (the second branch is a stable letter
# centralising g), nontrivial-Z2 is C2 * Z (the trivial loop through Q).
_CORPUS_FORMULAS = {
    "regular": lambda d: len(involution_stats(d)),
    "semistable-C2": lambda d: len(involution_stats(d)) ** 2,
    "nontrivial-Z": lambda d: sum(c for _, c in involution_stats(d)),
    "nontrivial-Z2": lambda d: len(involution_stats(d)) * factorial(d),
}


def corpus_homs(name, doc, d):
    """#Hom(pi_1, Sym(d)) of a bundled configuration."""
    if name in _CORPUS_FORMULAS:
        return _CORPUS_FORMULAS[name](d)
    if _all_trivial(doc):
        return factorial(d) ** cycle_rank(doc)
    raise ValueError(f"no reference for the bundled config {name!r}")


def transitive_homs(homs):
    """Transitive hom counts ``t_1..t_D`` from ``homs = [h_1..h_D]``.

    Hall's exponential formula: h_d = sum_{k=1..d} C(d-1, k-1) t_k h_{d-k},
    with h_0 = 1 (M. Hall 1949).
    """
    h = [1] + list(homs)
    t = [0]
    for d in range(1, len(h)):
        rest = sum(comb(d - 1, k - 1) * t[k] * h[d - k] for k in range(1, d))
        t.append(h[d] - rest)
    return t[1:]


# -- counting homomorphisms of an emitted presentation ---------------------

def count_homs_d2(generators, relators):
    """#Hom(<generators | relators>, Sym(2)).

    Sym(2) is the group of order two, so a hom is a vector over GF(2)
    killed by the exponent-sum matrix of the relators: the count is
    2^(#generators - rank).
    """
    col = {g: i for i, g in enumerate(generators)}
    rows = []
    for rel in relators:
        bits = 0
        for sym, exp in rel:
            if exp % 2:
                bits ^= 1 << col[sym]
        rows.append(bits)
    rank = 0
    while rows:
        pivot = rows.pop()
        if not pivot:
            continue
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
    return 2 ** (len(generators) - rank)


def count_homs_elimination(generators, relators, d, max_table=50_000):
    """#Hom(<generators | relators>, Sym(d)) by bucket elimination.

    Each relator is a factor over its distinct generators; generators
    are summed out in min-degree order (Dechter 1999).  Returns ``None``
    when some factor table would exceed ``max_table`` entries.
    """
    perms = list(permutations(range(d)))
    size = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    mul = [[index[_compose(p, q)] for q in perms] for p in perms]
    inv = [index[tuple(sorted(range(d), key=p.__getitem__))] for p in perms]
    ident = index[tuple(range(d))]

    def evaluate(rel, value):
        acc = ident
        for sym, exp in rel:
            p = value[sym]
            if exp < 0:
                p, exp = inv[p], -exp
            for _ in range(exp):
                acc = mul[acc][p]
        return acc

    factors = []
    for rel in relators:
        scope = tuple(dict.fromkeys(sym for sym, _ in rel))
        if size ** len(scope) > max_table:
            return None
        table = {}
        for combo in product(range(size), repeat=len(scope)):
            if evaluate(rel, dict(zip(scope, combo))) == ident:
                table[combo] = 1
        factors.append((scope, table))

    total = 1
    remaining = set(generators)
    while remaining:
        def degree(g):
            return len({s for scope, _ in factors if g in scope
                        for s in scope})
        var = min(sorted(remaining), key=degree)
        remaining.discard(var)
        bucket = [f for f in factors if var in f[0]]
        factors = [f for f in factors if var not in f[0]]
        if not bucket:
            total *= size
            continue
        scope = tuple(dict.fromkeys(s for sc, _ in bucket for s in sc
                                    if s != var))
        if size ** (len(scope) + 1) > max_table:
            return None
        table = {}
        for combo in product(range(size), repeat=len(scope) + 1):
            value = dict(zip(scope + (var,), combo))
            weight = 1
            for sc, tb in bucket:
                weight *= tb.get(tuple(value[s] for s in sc), 0)
                if not weight:
                    break
            if weight:
                key = combo[:-1]
                table[key] = table.get(key, 0) + weight
        factors.append((scope, table))
    for scope, table in factors:
        total *= sum(table.values())
    return total

