"""Executable transformations between the convolution-family problems.

Each reduction builds target-problem instances plus an interpretation rule
mapping target answers back to the source answer.  The rules are total:
whatever the target oracle returns, ``interpret`` produces a source answer.
Soundness is established empirically in the test suite by running the
direct solver and the reduction route side by side.  The one exception,
``tree_sparsity_via_maxconv``, returns the root vector, not an outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    Sequence,
    SequenceLike,
    _equal_lists,
    as_values,
    resolve_kernel,
)
from .oracles import KnapsackInstance, NecklaceInstance, WeightedTree


@dataclass(frozen=True)
class ReductionOutcome:
    """Target instances plus the contract for reading the answer back.

    ``instances`` holds the target problem's instances (none when the
    answer is a constant).  ``interpret`` consumes the list of target
    answers (one per instance, in order) and returns the source answer.
    Each reduction's docstring states its growth in n and W, where W is
    max(1, max |input value|); the tests check it on the instances built.
    """

    instances: tuple
    interpret: Callable[[list], object]


def _constant_outcome(value) -> ReductionOutcome:
    return ReductionOutcome((), lambda answers: value)


# ---------------------------------------------------------------------------
# unbounded knapsack -> 0/1 knapsack


def reduce_unbounded_to_01(inst: KnapsackInstance) -> ReductionOutcome:
    """Binary-expand multiplicities: item (w, v) becomes (2^j w, 2^j v) for
    every j up to floor(log2 t) (none at t = 0).  Any multiplicity <= t
    decomposes over the doubled copies, and any 0/1 selection maps back to a
    multiset, so the optima agree at every capacity up to t.

    Growth: at most n * t.bit_length() items.
    """
    t = inst.capacity
    if any(w == 0 and v > 0 for w, v in inst.items):
        # Unlimited copies of a free positive item: no finite 0/1 image.
        raise ValueError("zero-weight item with positive value: objective is unbounded")
    items = []
    for w, v in inst.items:
        for j in range(t.bit_length()):
            if (w << j) <= t:
                items.append((w << j, v << j))
    target = KnapsackInstance(tuple(items), t)

    def interpret(answers: list):
        (profile,) = answers
        return profile[t]

    return ReductionOutcome((target,), interpret)


# ---------------------------------------------------------------------------
# superadditivity -> unbounded knapsack


def reduce_superadditivity_to_unbounded(a: SequenceLike) -> ReductionOutcome:
    """Pair weights i and 2n-1-i so that value D is always reachable; the
    optimum exceeds D exactly when some a'[i] + a'[j] > a'[i+j].

    A positive leading element alone refutes superadditivity (the pair
    (0, 0) violates), so it short-circuits to NO.  Otherwise the input is
    rewritten as a'[0] = 0 and a'[i] = C*i + a[i], which keeps the verdict:
    the term C*i cancels on both sides of every pair with i, j >= 1, and
    zeroing the head keeps every pair with i = 0 true, as a[0] <= 0 made
    it.  C = max|a[i]| + 1 is the smallest slope that works for every input
    of that magnitude: it makes a' non-negative with a'[1] >= 1.  Then a'
    is strictly increasing on every YES input (superadditivity forces
    a'[i] + a'[1] <= a'[i+1]); inputs that swing down faster than C give
    a non-monotone a', but those are never superadditive, so monotonicity
    holds whenever it matters.
    D must exceed the value of ANY multiset of light items (repetition is
    allowed, so a sum-based threshold is not enough: light items fill at
    most the full capacity 2n-1 at value <= max(a') each unit), hence
    D = (2n-1) * max(a') + 1.  An optimal packing then always contains
    exactly one heavy item, and superadditivity lets the light remainder
    be merged into the single matching partner.

    Growth: none (a[0] > 0), or 2n-1 items at capacity 2n-1, values
    <= (2n-1)n(W+1) + 1.
    """
    av = as_values(a)
    if av[0] > 0:
        return _constant_outcome(False)
    n = len(av)
    slope = max(map(abs, av)) + 1
    ap = [0] + [slope * i + av[i] for i in range(1, n)]
    d = (2 * n - 1) * max(ap) + 1
    items = [(i, ap[i]) for i in range(1, n)]
    items += [(2 * n - 1 - i, d - ap[i]) for i in range(n)]
    target = KnapsackInstance(tuple(items), 2 * n - 1)

    def interpret(answers: list) -> bool:
        (profile,) = answers
        return profile[2 * n - 1] == d

    return ReductionOutcome((target,), interpret)


# ---------------------------------------------------------------------------
# upper-bound check -> superadditivity


def reduce_upperbound_to_superadditivity(
    a: SequenceLike, b: SequenceLike, c: SequenceLike
) -> ReductionOutcome:
    """Pack the three sequences into one block sequence e of length 4n whose
    superadditivity is equivalent to a[i] + b[j] <= c[i+j] everywhere.

    The operands are first made non-negative and increasing (adding C + D*i
    with C = W+1, D = 2W+1 preserves each inequality); blocks are lifted by
    multiples of K = max value so only cross-block pairs (a-block, b-block)
    land on the c-block, where the offsets cancel.

    Growth: one sequence of length 4n, entries in [0, 6K], K <= (2W+1)(n+1).
    """
    av, bv, cv, n = _equal_lists(a, b, c)
    w = max(max(abs(v) for v in vals) for vals in (av, bv, cv))
    shift_c = w + 1
    shift_d = 2 * w + 1
    ap = [shift_c + av[i] + shift_d * i for i in range(n)]
    bp = [shift_c + bv[i] + shift_d * i for i in range(n)]
    cp = [2 * shift_c + cv[i] + shift_d * i for i in range(n)]
    k = max(ap[-1], bp[-1], cp[-1])
    e = (
        [0] * n
        + [k + v for v in ap]
        + [4 * k + v for v in bp]
        + [5 * k + v for v in cp]
    )

    def interpret(answers: list) -> bool:
        (decision,) = answers
        return bool(decision)

    return ReductionOutcome((Sequence(e),), interpret)


# ---------------------------------------------------------------------------
# maximum consecutive sums -> max-plus convolution


def reduce_mcsp_to_maxconv(a: SequenceLike) -> ReductionOutcome:
    """Window sums of every length drop out of one convolution of prefix sums
    against negated reversed prefix sums; a -D filler (D twice any partial
    sum) keeps the padding from ever winning a maximum.  The one target
    instance is the tuple ``(b, c, limit)`` of ``max_conv``'s arguments.

    Growth: operands of length 2n, |entries| <= 2(nW + 1).
    """
    av = as_values(a)
    n = len(av)
    prefix = [0]
    for v in av:
        prefix.append(prefix[-1] + v)
    filler = -2 * (sum(abs(v) for v in av) + 1)
    b = [prefix[k + 1] for k in range(n)] + [filler] * n
    c = [-prefix[n - k] for k in range(n + 1)] + [filler] * (n - 1)
    inst = (Sequence(b), Sequence(c), 2 * n - 1)

    def interpret(answers: list) -> list[int]:
        (conv,) = answers
        return [conv[n + k - 1] for k in range(1, n + 1)]

    return ReductionOutcome((inst,), interpret)


# ---------------------------------------------------------------------------
# superadditivity -> maximum consecutive sums


def reduce_superadditivity_to_mcsp(a: SequenceLike) -> ReductionOutcome:
    """a[k] <= min window sum of length k over the difference sequence, for
    every k, is exactly superadditivity; window minima are read off the
    window maxima of the negated differences.

    A single-element input carries only the pair (0,0), i.e. the verdict is
    a[0] <= 0, decided without any target instance.

    Growth: none, or one sequence of length n-1, |entries| <= 2W.
    """
    av = as_values(a)
    n = len(av)
    if n == 1:
        return _constant_outcome(av[0] <= 0)
    neg_diff = [-(av[i + 1] - av[i]) for i in range(n - 1)]
    inst = Sequence(neg_diff)

    def interpret(answers: list) -> bool:
        (sums,) = answers
        return all(av[k] <= -sums[k - 1] for k in range(1, n))

    return ReductionOutcome((inst,), interpret)


# ---------------------------------------------------------------------------
# tree sparsity via max-plus convolution


def tree_sparsity_via_maxconv(tree: WeightedTree) -> list[int]:
    """Root sparsity vector computed through heavy-path decomposition.

    ``spine_vector(head)`` walks the spine from ``head`` into the child with
    the larger subtree, folds each spine node's light children (their own
    spine vectors) into its attachment vector, then halves the spine
    interval and merges the halves with two convolutions.  No merge runs
    while the recursion descends, and a light child holds at most half of
    its parent's subtree, so it is at most floor(log2 n) + 1 spine_vector
    frames deep.  A path of n nodes makes 2(n - 1) kernel calls.
    """
    kids = tree.children()
    kernel = resolve_kernel()

    def merge(x: list[int], y: list[int]) -> list[int]:
        return kernel(x, y, len(x) + len(y) - 2)

    sizes = [1] * tree.n
    for v in reversed(tree.preorder(kids)):
        for c in kids[v]:
            sizes[v] += sizes[c]

    def spine_vector(head: int) -> list[int]:
        # Attachment vector per spine node: joint profile of all its light
        # children, or the vector (0) when there are none.
        u_at: list[list[int]] = []
        weights: list[int] = []
        v = head
        while v is not None:
            below = max(kids[v], key=lambda c: (sizes[c], -c), default=None)
            acc = [0]
            for c in kids[v]:
                if c != below:
                    acc = merge(acc, spine_vector(c))
            u_at.append(acc)
            weights.append(tree.weight[v])
            v = below

        def solve(a: int, b: int) -> tuple[list[int], list[int]]:
            # Returns (attachment profile over spine[a..b],
            #          best subtree rooted at spine[a] avoiding spine[b+1]).
            if a == b:
                u = u_at[a]
                y = [0] + [weights[a] + hv for hv in u]
                return u, y
            c = (a + b) // 2
            u_left, y_left = solve(a, c)
            u_right, y_right = solve(c + 1, b)
            u = merge(u_left, u_right)
            # Subtrees that stop above spine[c + 1] are y_left, over sizes
            # 0..len(y_left) - 1.  Those that take all of spine[a..c] and
            # go on are ``through``, over sizes taken..taken + len(through) - 1.
            # Since len(y_left) - taken = len(u_left) <= len(through), y is
            # y_left's head, then the overlap's maxima, then through's tail.
            spine_sum = sum(weights[a : c + 1])
            taken = c - a + 1
            through = [spine_sum + v for v in merge(u_left, y_right)]
            cut = len(y_left) - taken
            assert 0 <= cut <= len(through)
            y = y_left[:taken] + list(map(max, y_left[taken:], through[:cut])) + through[cut:]
            return u, y

        return solve(0, len(weights) - 1)[1]

    out = spine_vector(tree.root)
    assert len(out) == tree.n + 1
    return out


# ---------------------------------------------------------------------------
# lower-bound check -> circular alignment


_ALIGN_SCALE = 10  # bounds the length of any index combination used below


def reduce_lowerbound_to_necklace(
    a: SequenceLike, b: SequenceLike, c: SequenceLike
) -> ReductionOutcome:
    """Encode "every c[k] is reachable" as a circular alignment instance.

    The operands are shifted non-negative with a <= c pointwise, b gets an
    appended sentinel larger than any short combination, and a steep linear
    ramp D*i makes every positive-order combination non-negative.  On the
    resulting 2n-bead necklaces of circumference 2B, an offset k < n has
    alignment spread (B - B1) + (conv(a,b)[n-k-1] - c[n-k-1]), so the
    doubled objective drops below B - B1 exactly when the source answer
    is NO.

    Growth: 2n beads per side, circumference 2M(S^2 n + S) <= 2(4W+3)(100n+10),
    with S = _ALIGN_SCALE = 10 and M <= 4W+3 the largest shifted entry.
    """
    av, bv, cv, n = _equal_lists(a, b, c)
    w = max(max(abs(v) for v in vals) for vals in (av, bv, cv))
    c1 = c2 = w + 1
    a1 = [v + c1 for v in av]
    b1 = [v + c1 + c2 for v in bv]
    cc1 = [v + 2 * c1 + c2 for v in cv]
    m1 = max(max(a1), max(b1), max(cc1))
    sentinel = m1 * _ALIGN_SCALE
    b2 = b1 + [sentinel]
    ramp = sentinel * _ALIGN_SCALE
    a3 = [a1[i] + ramp * i for i in range(n)]
    b3 = [b2[i] + ramp * i for i in range(n + 1)]
    c3 = [cc1[i] + ramp * i for i in range(n)]
    big = b3[n]
    big1 = b3[n - 1]
    big2 = b3[n] - b3[1]
    x = a3 + [big + v for v in c3]
    y = (
        [big1 - b3[n - 1 - r] for r in range(n)]
        + [big + big2 - b3[n - 1 - r] for r in range(n - 1)]
        + [2 * big]
    )
    inst = NecklaceInstance(tuple(x), tuple(y), 2 * big)
    threshold = big - big1

    def interpret(answers: list) -> bool:
        (doubled,) = answers
        return doubled >= threshold

    return ReductionOutcome((inst,), interpret)


# ---------------------------------------------------------------------------
# upper-bound check -> exact-sum convolution instances


def _pre(x: int, k: int, width: int) -> int:
    return x >> (width - k)


def _gate(vals: list[int], k: int, width: int, bit: int, miss: int) -> Sequence:
    # The k-bit prefix of every value whose next bit is ``bit``; the
    # sentinel ``miss`` everywhere else.
    return Sequence([_pre(x, k, width) if _pre(x, k + 1, width) & 1 == bit else miss for x in vals])


def reduce_upperbound_to_3sumconv(
    a: SequenceLike, b: SequenceLike, c: SequenceLike
) -> ReductionOutcome:
    """Turn each strict inequality a[i] + b[j] > c[i+j] into an alternative
    of exact-sum equations on binary prefixes.

    x + y > z holds iff either some prefix satisfies pre(x) + pre(y) =
    pre(z) + 1, or at some bit both x and y continue with 1 while z
    continues with 0 and the prefixes sum exactly.  The first family uses
    prefix lengths 1..width, the second gates entries with a +-D sentinel
    that no genuine sum can match.  Inputs are shifted non-negative first
    (add W to a and b, 2W to c), which preserves every strict inequality.

    Growth: 2 max(1, bit_length(3W)) instances of length n, |entries| <= 6W+1.
    """
    av, bv, cv, n = _equal_lists(a, b, c)
    w = max(max(abs(v) for v in vals) for vals in (av, bv, cv))
    a1 = [v + w for v in av]
    b1 = [v + w for v in bv]
    c1 = [v + 2 * w for v in cv]
    wp = max(max(a1), max(b1), max(c1))
    width = max(1, wp.bit_length())
    d = 2 * wp + 1
    instances = []
    for k in range(width):
        kp = k + 1
        eq_a = Sequence([_pre(x, kp, width) for x in a1])
        eq_b = Sequence([_pre(x, kp, width) for x in b1])
        eq_c = Sequence([_pre(x, kp, width) + 1 for x in c1])
        instances.append((eq_a, eq_b, eq_c))
        instances.append(
            (_gate(a1, k, width, 1, -d), _gate(b1, k, width, 1, -d), _gate(c1, k, width, 0, d))
        )

    def interpret(answers: list) -> bool:
        return not any(bool(ans) for ans in answers)

    return ReductionOutcome(tuple(instances), interpret)
