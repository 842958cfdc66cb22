"""Independent reference solvers for every problem in the family.

These are deliberately plain dynamic programs and brute-force scans: they
do not share code with the convolution kernels or the reductions, so they
can serve as ground truth when the fancier routes are cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

import numpy as np

from .core import Decision, SequenceLike, _check_int, _equal_lists, as_values


def _check_items(items) -> list[tuple[int, int]]:
    """Each ``(weight, value)`` pair as two non-negative Python ints.  An
    entry that is not a tuple, list or array of two raises ValueError."""
    out = []
    for item in items:
        if not isinstance(item, (tuple, list, np.ndarray)) or len(item) != 2:
            raise ValueError(f"item {item!r} is not a [weight, value] pair")
        w, v = item
        out.append((_check_int(w, "item weight"), _check_int(v, "item value")))
    return out


@dataclass(frozen=True)
class KnapsackInstance:
    """Item list with non-negative weights/values and a capacity: the input
    of 0/1 and of unbounded knapsack alike.  The solver called says which
    question is asked (``knapsack01_dp`` or ``unbounded_knapsack_dp``).

    Items heavier than the capacity can never be packed and are dropped at
    construction, so ``items`` always satisfies weight <= capacity.
    """

    items: tuple[tuple[int, int], ...]
    capacity: int

    def __post_init__(self):
        t = _check_int(self.capacity, "capacity")
        kept = tuple((w, v) for w, v in _check_items(self.items) if w <= t)
        object.__setattr__(self, "capacity", t)
        object.__setattr__(self, "items", kept)


@dataclass(frozen=True)
class ValueProfile:
    """best[w] = maximum total value achievable with total weight <= w.

    The <=-capacity reading makes profiles monotone, which is what lets
    them compose under truncated max-plus convolution without sentinels.
    """

    best: tuple[int, ...]

    def __post_init__(self):
        b = self.best
        # Kept as a tuple: a list would leave the profile unhashable and
        # unequal to the same entries in a tuple, and any other iterable (a
        # generator, say) would be spent by the checks.
        if not isinstance(b, tuple):
            b = tuple(b)
            object.__setattr__(self, "best", b)
        if not b:
            raise ValueError("profiles must cover at least capacity 0")
        # Plain ints, non-negative and sorted, pass at C speed; anything else
        # takes the loop below, which names the fault.
        if set(map(type, b)) == {int} and b[0] >= 0 and all(map(le, b, b[1:])):
            return
        vals: list[int] = []
        for v in b:
            v = _check_int(v, "profile entry")
            if vals and v < vals[-1]:
                raise ValueError("profile entries must be non-decreasing")
            vals.append(v)
        object.__setattr__(self, "best", tuple(vals))

    @property
    def capacity(self) -> int:
        return len(self.best) - 1

    def __len__(self) -> int:
        return len(self.best)

    def __getitem__(self, idx):
        return self.best[idx]

    def __iter__(self):
        return iter(self.best)


def knapsack01_dp(inst: KnapsackInstance) -> ValueProfile:
    """Exact optimum for every capacity <= t, each item taken at most once;
    classic O(n*t) table.  A zero-weight item runs the same loop over every
    capacity, so a positive value is added at each."""
    t = inst.capacity
    best = [0] * (t + 1)
    for w, v in inst.items:
        for cap in range(t, w - 1, -1):
            cand = best[cap - w] + v
            if cand > best[cap]:
                best[cap] = cand
    return ValueProfile(tuple(best))


def unbounded_knapsack_dp(inst: KnapsackInstance) -> ValueProfile:
    """Exact optimum per capacity with unlimited copies.

    Only the most valuable item per distinct weight can matter, so the
    instance is deduplicated first, leaving at most t items for the DP.
    """
    t = inst.capacity
    best_for_weight: dict[int, int] = {}
    for w, v in inst.items:
        if w == 0:
            if v > 0:
                raise ValueError(
                    "zero-weight item with positive value: objective is unbounded"
                )
            continue
        if v > best_for_weight.get(w, -1):
            best_for_weight[w] = v
    items = sorted(best_for_weight.items())
    best = [0] * (t + 1)
    for cap in range(1, t + 1):
        b = best[cap - 1]
        for w, v in items:
            if w > cap:
                break
            cand = best[cap - w] + v
            if cand > b:
                b = cand
        best[cap] = b
    return ValueProfile(tuple(best))


def mcsp_brute(a: SequenceLike) -> list[int]:
    """Maximum consecutive-window sum for every window length 1..n."""
    av = as_values(a)
    n = len(av)
    prefix = [0]
    for v in av:
        prefix.append(prefix[-1] + v)
    return [
        max(prefix[j + k] - prefix[j] for j in range(n - k + 1))
        for k in range(1, n + 1)
    ]


# ---------------------------------------------------------------------------
# trees


@dataclass(frozen=True)
class WeightedTree:
    """Rooted tree given as a parent array (-1 marks the root) plus weights,
    both kept as tuples of Python ints (numpy integers are converted)."""

    parent: tuple[int, ...]
    weight: tuple[int, ...]

    def __post_init__(self):
        n = len(self.parent)
        if n == 0 or len(self.weight) != n:
            raise ValueError("parent and weight arrays must be non-empty and equal length")
        parent = tuple(_check_int(p, "parent link", minimum=-1) for p in self.parent)
        if parent.count(-1) != 1:
            raise ValueError("exactly one node must have parent -1")
        for i, p in enumerate(parent):
            if p >= n or p == i:
                raise ValueError(f"bad parent link {p!r} at node {i}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(
            self, "weight", tuple(_check_int(w, "node weight") for w in self.weight)
        )
        # Reachability from the root doubles as the acyclicity check.
        if len(self.preorder()) != n:
            raise ValueError("parent array contains a cycle or a disconnected node")

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.parent]
        for i, p in enumerate(self.parent):
            if p != -1:
                kids[p].append(i)
        return kids

    def preorder(self, kids: list[list[int]] | None = None) -> list[int]:
        """Nodes reachable from the root, each before its children, so the
        reversed list folds a tree bottom-up.  ``kids`` is ``children()``,
        passed in by callers that already hold it."""
        if kids is None:
            kids = self.children()
        order = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(kids[v])
        return order


def _merge_exact(h: list[int], f: list[int]) -> list[int]:
    # Max-plus product of per-size vectors; entries are >= 0 and every cell
    # has at least one candidate, so 0-initialisation is safe.
    out = [0] * (len(h) + len(f) - 1)
    for i, hv in enumerate(h):
        for j, fv in enumerate(f):
            s = hv + fv
            if s > out[i + j]:
                out[i + j] = s
    return out


def tree_sparsity_dp(tree: WeightedTree) -> list[int]:
    """Root vector: entry k is the best total weight of a connected,
    root-containing subgraph of size k, for every k in 0..n.  Children
    vectors are folded bottom-up.
    """
    kids = tree.children()
    vec: list[list[int] | None] = [None] * tree.n
    for v in reversed(tree.preorder(kids)):
        h = [0]
        for c in kids[v]:
            h = _merge_exact(h, vec[c])  # type: ignore[arg-type]
        vec[v] = [0] + [tree.weight[v] + hv for hv in h]
    root_vec = vec[tree.root]
    assert root_vec is not None and len(root_vec) == tree.n + 1
    return root_vec


# ---------------------------------------------------------------------------
# necklaces


@dataclass(frozen=True)
class NecklaceInstance:
    """Two equal-size bead lists on a circle, positions sorted non-decreasing.

    Coincident beads are allowed, including at 0 versus circle_length.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    circle_length: int

    def __post_init__(self):
        length = _check_int(self.circle_length, "circle length", minimum=1)
        object.__setattr__(self, "circle_length", length)
        if len(self.x) == 0 or len(self.x) != len(self.y):
            raise ValueError("bead lists must be non-empty and of equal size")
        for name in ("x", "y"):
            beads: list[int] = []
            for p in getattr(self, name):
                p = _check_int(p, "bead position")
                if p > length:
                    raise ValueError("bead position outside the circle")
                if beads and p < beads[-1]:
                    raise ValueError("bead positions must be sorted")
                beads.append(p)
            object.__setattr__(self, name, tuple(beads))


def necklace_linf_brute(inst: NecklaceInstance) -> int:
    """Doubled best-alignment spread over all non-crossing matchings.

    y is unrolled once, each bead repeated one circle length further on;
    offset k then matches x[i] with the unrolled y[k+i], so the
    displacements of one matching sit on a common unrolling.  The
    alignment cost of the instance equals the returned value / 2; it is
    kept doubled so the result is always an integer.
    """
    x, y, L = inst.x, inst.y, inst.circle_length
    yy = y + tuple(q + L for q in y)
    offsets = ([q - p for p, q in zip(x, yy[k:])] for k in range(len(x)))
    return min(max(d) - min(d) for d in offsets)


def three_sum_conv_brute(
    a: SequenceLike, b: SequenceLike, c: SequenceLike
) -> Decision:
    """Does some pair satisfy a[i] + b[j] = c[i+j] exactly (with i+j < n)?"""
    av, bv, cv, n = _equal_lists(a, b, c)
    for i in range(n):
        ai = av[i]
        for j in range(n - i):
            if ai + bv[j] == cv[i + j]:
                return Decision(True, (i, j))
    return Decision(False)
