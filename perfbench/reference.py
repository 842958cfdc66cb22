"""Reference answers computed without the package under test, and the
comparison of a run report's answer against them.

Values stay far inside int64 for every generated instance (magnitudes are
at most the headroom bound, so sums of n of them stay below WORD_MAX/400),
which keeps the numpy arithmetic here exact.
"""

from __future__ import annotations

import numpy as np

INT_MIN = np.iinfo(np.int64).min


def maxconv(a, b, limit: int) -> np.ndarray:
    """c[k] = max_{i+j=k} a[i] + b[j] for k <= limit, one numpy row per a[i]."""
    av = np.asarray(a, dtype=np.int64)
    bv = np.asarray(b, dtype=np.int64)
    if len(av) > len(bv):
        av, bv = bv, av
    out = np.full(limit + 1, INT_MIN, dtype=np.int64)
    for i in range(min(len(av), limit + 1)):
        top = min(limit, i + len(bv) - 1)
        seg = out[i : top + 1]
        np.maximum(seg, bv[: top - i + 1] + av[i], out=seg)
    return out


def _knapsack01(items, t: int) -> np.ndarray:
    best = np.zeros(t + 1, dtype=np.int64)
    for w, v in items:
        if w == 0:
            best += v
        elif w <= t:
            best[w:] = np.maximum(best[w:], best[:-w] + v)
    return best


def _uknapsack(items, t: int) -> np.ndarray:
    ws = np.array([w for w, _ in items], dtype=np.int64)
    vs = np.array([v for _, v in items], dtype=np.int64)
    best = np.zeros(t + 1, dtype=np.int64)
    for cap in range(1, t + 1):
        fit = (ws >= 1) & (ws <= cap)
        best[cap] = best[cap - 1]
        if fit.any():
            best[cap] = max(best[cap], (best[cap - ws[fit]] + vs[fit]).max())
    return best


def _mcsp(a) -> list[int]:
    prefix = np.concatenate(([0], np.cumsum(np.asarray(a, dtype=np.int64))))
    n = len(a)
    return [int((prefix[k:] - prefix[: n + 1 - k]).max()) for k in range(1, n + 1)]


def _tree_vector(parent, weight) -> list[int]:
    n = len(parent)
    kids = [[] for _ in range(n)]
    root = parent.index(-1)
    for i, p in enumerate(parent):
        if p != -1:
            kids[p].append(i)
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    vec: list = [None] * n
    for v in reversed(order):
        h = np.zeros(1, dtype=np.int64)
        for c in kids[v]:
            h = maxconv(h, vec[c], len(h) + len(vec[c]) - 2)
            vec[c] = None
        vec[v] = np.concatenate(([0], h + weight[v]))
    return vec[root].tolist()


def _necklace(x, y, length: int) -> int:
    n = len(x)
    xs = np.asarray(x, dtype=np.int64)
    ys = np.asarray(y, dtype=np.int64)
    j = np.arange(n)[:, None] + np.arange(n)[None, :]  # row k, column i
    d = ys[j % n] - xs[None, :] + length * (j >= n)
    return int((d.max(axis=1) - d.min(axis=1)).min())


def _three_sum(a, b, c) -> bool:
    av, bv, cv = (np.asarray(s, dtype=np.int64) for s in (a, b, c))
    n = len(av)
    return any(bool((av[i] + bv[: n - i] == cv[i:]).any()) for i in range(n))


def answer(problem: str, payload: dict) -> dict:
    """The reference answer, in the run-report field names of docs/format.md."""
    p = payload
    if problem == "maxconv":
        return {"sequence": maxconv(p["a"], p["b"], len(p["a"]) - 1).tolist()}
    if problem in ("upperbound", "lowerbound"):
        conv = maxconv(p["a"], p["b"], len(p["a"]) - 1)
        c = np.asarray(p["c"], dtype=np.int64)
        holds = (conv <= c).all() if problem == "upperbound" else (conv >= c).all()
        return {"decision": bool(holds)}
    if problem == "superadd":
        a = np.asarray(p["a"], dtype=np.int64)
        return {"decision": bool((maxconv(a, a, len(a) - 1) <= a).all())}
    if problem == "3sumconv":
        return {"decision": _three_sum(p["a"], p["b"], p["c"])}
    if problem in ("knapsack01", "uknapsack"):
        solve = _knapsack01 if problem == "knapsack01" else _uknapsack
        prof = solve(p["items"], p["capacity"]).tolist()
        return {"profile": prof, "value_at_capacity": prof[-1]}
    if problem == "mcsp":
        return {"sums": _mcsp(p["a"])}
    if problem == "treesparsity":
        vector = _tree_vector(p["parent"], p["weight"])
        return {"k": p["k"], "value": vector[p["k"]], "vector": vector}
    if problem == "necklace":
        return {"doubled_objective": _necklace(p["x"], p["y"], p["circle_length"])}
    raise ValueError(f"no reference for {problem!r}")


def entries(ref: dict) -> int:
    """How many answer entries the reference has (a verdict is one entry)."""
    for key in ("sequence", "profile", "sums", "vector"):
        if key in ref:
            return len(ref[key])
    return 1


def compare(ref: dict, ans: dict, randomized: bool) -> tuple[bool, int]:
    """Return (sound, matching entries) for a run-report answer.

    A deterministic answer is sound only when every reference field equals
    it.  A randomised profile is sound when no entry exceeds the optimum
    (one-sided error) and its value at capacity is its last entry; missed
    optima only lower the matching count.
    """
    if randomized:
        got, want = ans.get("profile"), ref["profile"]
        if not isinstance(got, list) or len(got) != len(want):
            return False, 0
        sound = all(g <= r for g, r in zip(got, want)) and ans.get("value_at_capacity") == got[-1]
        return sound, sum(g == r for g, r in zip(got, want))
    sound = all(ans.get(key) == val for key, val in ref.items())
    return sound, entries(ref) if sound else 0
