"""Finite-set language operators: insertion, reversal, shuffle, homomorphisms,
permutation closure, and bounded generators for the stock languages."""

from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Callable, Iterable, Optional

from jumpfa.core import Word, insertion_closure, shortlex_key, word


class LangSet:
    """A finite, canonically ordered set of words.

    ``bound`` optionally records that the set stands for a language truncated
    to words of length <= bound. Equality and hashing ignore the bound.
    """

    __slots__ = ("words", "bound")

    def __init__(self, words: Iterable[Word], bound: Optional[int] = None):
        ws = frozenset(tuple(w) for w in words)
        if bound is not None and any(len(w) > bound for w in ws):
            raise ValueError("word longer than declared bound")
        self.words: frozenset[Word] = ws
        self.bound = bound

    def sorted_words(self) -> list[Word]:
        return sorted(self.words, key=shortlex_key)

    def __iter__(self):
        return iter(self.sorted_words())

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: Word) -> bool:
        return tuple(w) in self.words

    def __eq__(self, other) -> bool:
        if isinstance(other, LangSet):
            return self.words == other.words
        if isinstance(other, (set, frozenset)):
            return self.words == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.words)

    def __repr__(self) -> str:
        inner = ", ".join(".".join(w) if w else "eps" for w in self.sorted_words())
        return f"LangSet({{{inner}}})"


def langset(*dotted: str) -> LangSet:
    """Convenience builder from dotted word strings."""
    return LangSet(word(t) for t in dotted)


def insert(l: LangSet, k: LangSet) -> LangSet:
    """All words u1 v u2 with u1u2 in l and v in k (every split point)."""
    out = {u[:i] + v + u[i:] for u in l.words for v in k.words for i in range(len(u) + 1)}
    bound = None
    if l.bound is not None and k.words:
        bound = l.bound + max(len(v) for v in k.words)
    return LangSet(out, bound)


def insert_star_bounded(l: LangSet, k: LangSet, max_len: int) -> LangSet:
    """Iterated-insertion closure truncated to words of length <= max_len.

    The closure of l under the context-free insertion rules k at one node
    (:func:`core.insertion_closure`).
    """
    edges = [("", ((), v, ()), "") for v in k.words]
    return LangSet(insertion_closure(edges, [("", w) for w in l.words], max_len, {""}), max_len)


def reverse_set(l: LangSet) -> LangSet:
    """Elementwise word reversal."""
    return LangSet((tuple(reversed(w)) for w in l.words), l.bound)


def _interleavings(u: Word, v: Word) -> Iterable[Word]:
    n, m = len(u), len(v)
    for positions in itertools.combinations(range(n + m), n):
        pos = set(positions)
        it_u, it_v = iter(u), iter(v)
        yield tuple(next(it_u) if i in pos else next(it_v) for i in range(n + m))


def shuffle_sets(k: LangSet, l: LangSet, max_len: int) -> LangSet:
    """All interleavings of a k-word with an l-word, truncated to max_len."""
    out: set[Word] = set()
    for u in k.words:
        for v in l.words:
            if len(u) + len(v) <= max_len:
                out.update(_interleavings(u, v))
    return LangSet(out, max_len)


class Homomorphism(namedtuple("Homomorphism", "mapping")):
    """A total map from domain symbols to words over the target alphabet.

    Construction copies the mapping, so the caller's dict can change later;
    the hash is that of its items, since a dict has none.
    """

    def __new__(cls, mapping: dict[str, Word]):
        return super().__new__(cls, dict(mapping))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.mapping)

    def apply(self, w: Word) -> Word:
        out: list[str] = []
        for sym in w:
            out.extend(self.mapping[sym])
        return tuple(out)

    def __hash__(self) -> int:
        return hash(frozenset(self.mapping.items()))


def hom_preimage_bounded(
    h: Homomorphism, member: Callable[[Word], bool], max_domain_len: int
) -> LangSet:
    """All domain words v with len(v) <= max_domain_len and member(h(v)).

    Exhaustive search over the domain side; bounds stay desk-scale.
    """
    syms = sorted(h.domain)
    out: set[Word] = set()
    for n in range(max_domain_len + 1):
        for combo in itertools.product(syms, repeat=n):
            if member(h.apply(combo)):
                out.add(combo)
    return LangSet(out, None)


def perm_closure(l: LangSet) -> LangSet:
    """All words sharing a symbol multiset with some word of l."""
    out: set[Word] = set()
    for w in l.words:
        out.update(itertools.permutations(w))
    return LangSet(out, l.bound)


def sigma_star_bounded(alphabet: Iterable[str], max_len: int) -> LangSet:
    """All words over the alphabet of length <= max_len."""
    syms = sorted(set(alphabet))
    out: set[Word] = set()
    for n in range(max_len + 1):
        out.update(itertools.product(syms, repeat=n))
    return LangSet(out, max_len)


def dyck_bounded(max_len: int) -> LangSet:
    """Balanced words over {a, abar} of length <= max_len (closure of a.abar)."""
    return insert_star_bounded(LangSet([()]), langset("a.abar"), max_len)


def semi_dyck_bounded(k: int, max_len: int) -> LangSet:
    """Balanced words over k bracket pairs a1/a1bar..ak/akbar, length <= max_len."""
    if k < 1:
        raise ValueError("need at least one bracket pair")
    pairs = LangSet([(f"a{i}", f"a{i}bar") for i in range(1, k + 1)])
    return insert_star_bounded(LangSet([()]), pairs, max_len)
