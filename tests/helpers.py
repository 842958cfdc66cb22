"""Brute-force oracles and instance generators shared by the tests.

Everything here is written from the problem statements alone, without
touching the package implementations, so the tests compare two
independently derived answers.
"""

from __future__ import annotations

import itertools
import random


# ---------------------------------------------------------------------------
# independent oracles


def brute_maxconv(a: list[int], b: list[int], limit: int | None = None) -> list[int]:
    full = len(a) + len(b) - 2
    hi = full if limit is None else min(limit, full)
    out = []
    for k in range(hi + 1):
        best = None
        for i in range(len(a)):
            j = k - i
            if 0 <= j < len(b):
                s = a[i] + b[j]
                if best is None or s > best:
                    best = s
        out.append(best)
    return out


def brute_upper(a, b, c) -> bool:
    n = len(a)
    return all(
        a[i] + b[j] <= c[i + j] for i in range(n) for j in range(n - i)
    )


def brute_lower(a, b, c) -> bool:
    n = len(a)
    for k in range(n):
        if not any(a[i] + b[k - i] >= c[k] for i in range(k + 1) if k - i < n and i < n):
            return False
    return True


def brute_superadd(a) -> bool:
    n = len(a)
    return all(a[i] + a[j] <= a[i + j] for i in range(n) for j in range(n - i))


def brute_mcsp(a) -> list[int]:
    n = len(a)
    return [
        max(sum(a[j : j + k]) for j in range(n - k + 1)) for k in range(1, n + 1)
    ]


def enum_knapsack01(items, t) -> list[int]:
    """Profile by enumerating all 2^n subsets (n must stay small)."""
    best = [0] * (t + 1)
    n = len(items)
    for mask in range(1 << n):
        w = v = 0
        for i in range(n):
            if mask >> i & 1:
                w += items[i][0]
                v += items[i][1]
        if w <= t:
            for cap in range(w, t + 1):
                if v > best[cap]:
                    best[cap] = v
    return best


def enum_unbounded(items, t) -> list[int]:
    """Profile by depth-first enumeration of multiplicities."""
    best = [0] * (t + 1)

    def go(idx, w, v):
        if v > best[w]:
            best[w] = v
        if idx == len(items):
            return
        go(idx + 1, w, v)
        iw, iv = items[idx]
        if iw > 0 and w + iw <= t:
            go(idx, w + iw, v + iv)

    go(0, 0, 0)
    run = 0
    for cap in range(t + 1):
        run = max(run, best[cap])
        best[cap] = run
    return best


def enum_tree_sparsity(parent, weight, k) -> int:
    """Best weight of a connected k-node subgraph containing the root,
    by enumerating all node subsets (trees must stay tiny)."""
    n = len(parent)
    root = parent.index(-1)
    best = None
    for mask in range(1 << n):
        nodes = [i for i in range(n) if mask >> i & 1]
        if len(nodes) != k:
            continue
        if k > 0 and root not in nodes:
            continue
        # Connectivity: every chosen non-root node's parent is chosen too
        # (subsets of a tree containing the root are connected iff closed
        # under parents).
        if any(parent[v] not in nodes for v in nodes if v != root):
            continue
        total = sum(weight[v] for v in nodes)
        if best is None or total > best:
            best = total
    return 0 if k == 0 else best


def enum_necklace(x, y, L) -> int:
    """Doubled l-infinity alignment cost: the least spread max d - min d over
    every bijection sigma and every winding w_i in {-1, 0, 1}, where
    d_i = y[sigma(i)] - x[i] + L * w_i (n must stay small)."""
    n = len(x)
    best = None
    for perm in itertools.permutations(y):
        base = [q - p for p, q in zip(x, perm)]
        for wind in itertools.product((-L, 0, L), repeat=n):
            d = [b + s for b, s in zip(base, wind)]
            spread = max(d) - min(d)
            if best is None or spread < best:
                best = spread
    return best


# ---------------------------------------------------------------------------
# generators


def rand_seq(rng: random.Random, n: int, w: int) -> list[int]:
    return [rng.randint(-w, w) for _ in range(n)]


def rand_superadd_candidate(rng: random.Random, n: int, w: int) -> list[int]:
    """Mix of uniform noise, genuinely superadditive sequences (convex with
    a zero head), and near misses, so both verdicts show up often."""
    roll = rng.random()
    if roll < 0.45:
        return rand_seq(rng, n, w)
    step = max(1, w // max(1, n - 1))
    incs = sorted(rng.randint(0, step) for _ in range(n - 1))
    seq = [0]
    for inc in incs:
        seq.append(seq[-1] + inc)
    if roll >= 0.75 and n > 1:
        seq[rng.randrange(1, n)] += rng.randint(1, 3)
    return seq


def rand_bound_triple(rng: random.Random, n: int, w: int, upper: bool):
    """Triples biased so YES and NO both occur for the requested check."""
    a = rand_seq(rng, n, w)
    b = rand_seq(rng, n, w)
    roll = rng.random()
    if roll < 0.5:
        c = rand_seq(rng, n, 2 * w)
    else:
        c = brute_maxconv(a, b, n - 1)
        if roll < 0.75:
            slack = [rng.randint(0, 2) for _ in range(n)]
            c = [v + s if upper else v - s for v, s in zip(c, slack)]
        else:
            idx = rng.randrange(n)
            c[idx] += (-1 - rng.randint(0, w)) if upper else (1 + rng.randint(0, w))
    return a, b, c


def rand_items(rng: random.Random, n: int, t: int, vmax: int):
    return [(rng.randint(1, t), rng.randint(0, vmax)) for _ in range(n)]


def rand_tree(rng: random.Random, n: int, wmax: int):
    parent = [-1] + [rng.randint(0, i - 1) for i in range(1, n)]
    weight = [rng.randint(0, wmax) for _ in range(n)]
    return parent, weight
