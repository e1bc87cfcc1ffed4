"""Exact permutation arithmetic on {0..n-1}.

Composition convention, fixed once for the whole package:

    compose(p, q) maps x to p(q(x))   ("p after q").

The text format for cycles is 1-based to match the usual notation in the
literature, e.g. "(1,2)(3,4)"; internally everything is 0-based.
"""
from __future__ import annotations

from itertools import islice
from math import lcm
from typing import Iterable, Sequence


class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(n)):
            raise ValueError("images do not form a bijection of {0..n-1}")
        object.__setattr__(self, "images", images)

    # -- basic protocol ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({cycle_text(self.images) or 'id'}, n={self.n})"

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    # -- arithmetic --------------------------------------------------------

    def inverse(self) -> "Permutation":
        return Permutation(inverse_images(self.images))

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g * self * g^-1."""
        return compose(compose(g, self), g.inverse())

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        """The lcm of the cycle lengths."""
        return lcm(*map(len, cycles(self.images)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from 0-based cycles; elements not mentioned are fixed."""
        images = list(range(n))
        seen = set()
        for cyc in cycles:
            for i in cyc:
                if not 0 <= i < n:
                    raise ValueError(f"index {i} out of range for degree {n}")
                if i in seen:
                    raise ValueError(f"element {i} repeated across cycles")
                seen.add(i)
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                images[a] = b
        return Permutation(images)


def inverse_images(images: Sequence[int]) -> list[int]:
    """The images of the inverse of the permutation with these images."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return inv


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation x -> p(q(x))."""
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} != {q.n}")
    qi = q.images
    pi = p.images
    return Permutation(tuple(pi[qi[x]] for x in range(p.n)))


def is_transitive(gens: list[Permutation], n: int) -> bool:
    """True iff <gens> has a single orbit on {0..n-1}.

    The search follows the generators forward only: <gens> is finite, so
    g^-1 is a power of g and reaches no square that g does not."""
    for g in gens:
        if g.n != n:
            raise ValueError(f"degree mismatch: generator has degree {g.n}, not {n}")
    maps = [g.images for g in gens]
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for m in maps:
            y = m[x]
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def _canonical_pair(h: Sequence[int], v: Sequence[int],
                    orbits: Sequence[int] | None = None
                    ) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    """Canonical relabelling of a transitive pair of image tuples under
    simultaneous conjugation.

    A BFS from a start square with edge order (h, v) numbers the squares in
    visiting order and gives the relabelled pair (hn, vn); it reaches every
    square, since <h, v> is finite and h^-1, v^-1 are powers of h and v.
    The result is the lexicographically least (hn, vn) over the start
    squares, with the winning start's visiting `order`: order[k] is the
    square that gets label k, so hn[k] = order.index(h[order[k]]).

    The starts are the squares whose top-right corner is a cone point, where
    going right then up and going up then right end on different squares
    (h[v[s]] != v[h[s]]): 3 squares in H(2), 6 in H(2, 2).  A relabelling
    maps this set to itself, so the least (hn, vn) over it is still a
    complete invariant of the conjugacy class.  A pair without one (a torus)
    starts at square 0 alone: there hv = vh, so <h, v> is abelian and
    transitive, hence regular, and its elements are translations carrying
    square 0 to any square; every start gives the same (hn, vn).

    The BFS fixes hn[k] = new[h[order[k]]] when it takes node k from the
    queue, so the starts play a lazy tournament on hn.  The best start so far
    keeps a partial BFS, advanced one node at a time and only as far as a
    challenger has matched it.  The challenger stops at its first entry
    above the best's hn and becomes the best, with its partial BFS, at its
    first entry below it.  Starts whose hn ties all the way are compared by
    vn, and on equal vn the earlier start stays: the result and `order` are
    those of the first start reaching the least (hn, vn).  After the last
    start the winner alone finishes its BFS and builds (hn, vn).

    `orbits` optionally labels each square by its orbit under the
    translations, the permutations commuting with h and v: squares with equal
    labels lie in one orbit.  A BFS from t(s) gives the same (hn, vn) as one
    from s, so only the first start of each label is tried.  The first start
    reaching the least (hn, vn) is the first of its orbit, so the result and
    `order` do not change.
    """
    n = len(h)
    starts = [s for s in range(n) if h[v[s]] != v[h[s]]] or [0]
    if orbits is not None:
        # keep the first start of each orbit; translations commute with h
        # and v, so each orbit lies inside `starts` or misses it
        firsts: dict[int, int] = {}
        for start in starts:
            firsts.setdefault(orbits[start], start)
        starts = firsts.values()
    starts = iter(starts)
    # the best start's BFS: labels, visiting order, next label, nodes taken
    # from the queue, and its vn once a tie has needed it
    start = next(starts)
    best_new = [-1] * n
    best_new[start] = 0
    best_order = [start]
    best_cnt = 1
    done = 0
    best_v = None
    for start in starts:
        new = [-1] * n
        new[start] = 0
        order = [start]
        cnt = 1
        for k, s in enumerate(order):
            t = h[s]
            x = new[t]
            if x < 0:
                new[t] = x = cnt
                cnt += 1
                order.append(t)
            if k < done:
                y = best_new[h[best_order[k]]]
            else:
                # the best takes node k from its queue
                b = best_order[k]
                t = h[b]
                y = best_new[t]
                if y < 0:
                    best_new[t] = y = best_cnt
                    best_cnt += 1
                    best_order.append(t)
                t = v[b]
                if best_new[t] < 0:
                    best_new[t] = best_cnt
                    best_cnt += 1
                    best_order.append(t)
                done = k + 1
            if x > y:
                break
            t = v[s]
            if new[t] < 0:
                new[t] = cnt
                cnt += 1
                order.append(t)
            if x < y:
                best_new, best_order, best_cnt, done = new, order, cnt, k + 1
                best_v = None
                break
        else:
            # hn ties all the way, and both BFSs are complete
            vn = tuple([new[v[s]] for s in order])
            if best_v is None:
                best_v = tuple([best_new[v[s]] for s in best_order])
            if vn < best_v:
                best_new, best_order, best_v = new, order, vn
    # the winner alone finishes its BFS
    for s in islice(best_order, done, None):
        t = h[s]
        if best_new[t] < 0:
            best_new[t] = best_cnt
            best_cnt += 1
            best_order.append(t)
        t = v[s]
        if best_new[t] < 0:
            best_new[t] = best_cnt
            best_cnt += 1
            best_order.append(t)
    if best_v is None:
        best_v = tuple([best_new[v[s]] for s in best_order])
    return tuple([best_new[h[s]] for s in best_order]), best_v, best_order


def cycles(images: Sequence[int],
           include_fixed: bool = False) -> list[tuple[int, ...]]:
    """Disjoint cycles of the permutation with these images, each starting at
    its smallest element, listed in the order of those elements; fixed points
    only with `include_fixed`."""
    seen = [False] * len(images)
    out = []
    for start, j in enumerate(images):
        if seen[start] or (j == start and not include_fixed):
            continue
        cyc = [start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = images[j]
        out.append(tuple(cyc))
    return out


#: _LABELS[i] is "," + str(i + 1), the comma-prefixed text label of element
#: i; grown on demand
_LABELS: list[str] = []


def cycle_text(images: Sequence[int]) -> str:
    """1-based disjoint-cycle text of the permutation with these images;
    the identity gives "".

    The cycle walk of `cycles` writes the text as it goes: "(" and the head's
    label, a comma-prefixed label per further element, then ")", all joined
    once."""
    n = len(images)
    if len(_LABELS) < n:
        _LABELS.extend("," + str(i + 1) for i in range(len(_LABELS), n))
    labels = _LABELS
    seen = [False] * n
    out = []
    for start, j in enumerate(images):
        if seen[start] or j == start:
            continue
        out.append("(" + labels[start][1:])
        while j != start:
            seen[j] = True
            out.append(labels[j])
            j = images[j]
        out.append(")")
    return "".join(out)


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse 1-based disjoint-cycle notation such as "(1,2)(3,4)".

    Whitespace is ignored; the empty string is the identity.
    """
    s = "".join(text.split())
    cycles: list[list[int]] = []
    pos = 0
    while pos < len(s):
        if s[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} in {text!r}")
        end = s.find(")", pos)
        if end < 0:
            raise ValueError(f"unbalanced parenthesis in {text!r}")
        body = s[pos + 1 : end]
        if not body:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            cyc = [int(t) - 1 for t in body.split(",")]
        except ValueError as exc:
            raise ValueError(f"malformed cycle {body!r} in {text!r}") from exc
        cycles.append(cyc)
        pos = end + 1
    return Permutation.from_cycles(n, cycles)
