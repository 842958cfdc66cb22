"""Brute-force oracles and instance generators shared by the tests.

The oracles and generators here are written from the problem statements
alone, without touching the package implementations, so the tests compare
two independently derived answers.  The small scopes at the end are built
the same way; ``scope_disagreements`` runs the package's methods on them.
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


# ---------------------------------------------------------------------------
# small scopes: every instance up to a size, built here and not by `gen`,
# so that `GEN_DIGEST` and every crosscheck seed stay put


def _every(n: int, lo: int, hi: int):
    """Every list of n values in lo..hi."""
    return map(list, itertools.product(range(lo, hi + 1), repeat=n))


def small_scope(conv_n: int, bound_sizes, seq_n: int, tree_n: int, necklace_n: int) -> dict:
    """Every payload of each problem up to the given sizes, keyed by tag;
    each value is a fresh iterator.

    - maxconv: a and b of one length n <= conv_n, values -2..2;
    - upperbound, lowerbound, 3sumconv: for each (n, w, cw) in
      ``bound_sizes``, a and b of length n in -w..w, c in -cw..cw;
    - superadd, mcsp: n <= seq_n, values -2..2;
    - treesparsity: every parent array with parent[i] < i up to tree_n
      nodes, weights 0..2, k = n // 2;
    - necklace: n <= necklace_n beads a side, circle length L in 1..3,
      sorted positions in 0..L;
    - knapsack01, uknapsack: at most 2 items, weights 0..3, values 0..2,
      capacities 0..4.
    """

    def conv():
        for n in range(1, conv_n + 1):
            seqs = list(_every(n, -2, 2))
            for a, b in itertools.product(seqs, repeat=2):
                yield {"a": a, "b": b}

    def triples():
        for n, w, cw in bound_sizes:
            seqs, cs = list(_every(n, -w, w)), list(_every(n, -cw, cw))
            for a, b, c in itertools.product(seqs, seqs, cs):
                yield {"a": a, "b": b, "c": c}

    def seqs():
        for n in range(1, seq_n + 1):
            for a in _every(n, -2, 2):
                yield {"a": a}

    def trees():
        for n in range(1, tree_n + 1):
            for parent in itertools.product(*map(range, range(1, n))):
                for weight in _every(n, 0, 2):
                    yield {"parent": [-1, *parent], "weight": weight, "k": n // 2}

    def necklaces():
        for n in range(1, necklace_n + 1):
            for length in (1, 2, 3):
                sorted_beads = itertools.combinations_with_replacement(range(length + 1), n)
                beads = list(map(list, sorted_beads))
                for x, y in itertools.product(beads, repeat=2):
                    yield {"x": x, "y": y, "circle_length": length}

    def knapsacks():
        pool = [(w, v) for w in range(4) for v in range(3)]
        for size in range(3):
            for items in itertools.combinations_with_replacement(pool, size):
                for t in range(5):
                    yield {"items": [list(item) for item in items], "capacity": t}

    return {
        "maxconv": conv(),
        "upperbound": triples(),
        "lowerbound": triples(),
        "3sumconv": triples(),
        "superadd": seqs(),
        "mcsp": seqs(),
        "treesparsity": trees(),
        "necklace": necklaces(),
        "knapsack01": knapsacks(),
        "uknapsack": knapsacks(),
    }


def _outcome(solve, objs, opts):
    """A method's answer, or the type and message of the input error it raises."""
    try:
        return solve(objs, opts)
    except ValueError as exc:
        return type(exc), str(exc)


def scope_disagreements(problem: str, payloads) -> list:
    """Run every registered method of ``problem`` on each payload and return
    (payload, method, answer, reference answer) for each disagreement.

    Answers are compared with the reference method's through the CLI's own
    comparison, and input errors as errors: both must raise the same
    ValueError.  ``knapsack01/rand`` runs at seed 0, where it is exact on
    its whole profile, and necklace's one method is checked against
    ``enum_necklace``.  Unlike the oracles above, this runs the package.
    """
    from maxconv.cli import METHODS, RANDOMIZED, REFERENCE, _compare
    from maxconv.serialize import payload_objects

    opts = {"delta": 0.25, "seed": 0}
    bad = []
    for payload in payloads:
        objs = payload_objects(problem, payload)
        got = {name: _outcome(solve, objs, opts) for name, solve in METHODS[problem].items()}
        ref = got[REFERENCE[problem]]
        if problem == "necklace":
            x, y, length = payload["x"], payload["y"], payload["circle_length"]
            ref = {"doubled_objective": enum_necklace(x, y, length)}
        for name, out in got.items():
            if isinstance(out, tuple) or isinstance(ref, tuple):
                same = out == ref
            else:
                same = _compare(problem, name, out, ref) == (True, False)
                same &= (problem, name) not in RANDOMIZED or out == ref
            if not same:
                bad.append((payload, name, out, ref))
    return bad
