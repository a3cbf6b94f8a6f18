"""Bounded automata comparison, the union-of-compositions falsifier, and the
JFA permutation-closure check.

Two JFAs are compared by the Parikh vectors of their languages, each side's
set from one search over (state, vector) nodes; a pair with a GJFA compares
the enumerated words. ``jfa_permutation_check`` checks the theorem the vector
comparison rests on, so it enumerates words.

The falsifier implements a necessary condition: if a language is a union of
compositions of degree n, then every non-empty member w contains a factor v
(1 <= |v| <= n) that can be re-inserted at any other position of the rest of
the word without leaving the language. A word where every factorization fails
proves that no degree-n jumping automaton accepts the language.
"""

from __future__ import annotations

import operator
from collections import Counter
from math import comb
from typing import Callable, NamedTuple, Optional

from jumpfa.core import FIELD, Gjfa, Nfa, Word, degree, is_jfa, search
from jumpfa.langops import LangSet
from jumpfa.semantics import enumerate_language

Oracle = Callable[[Word], bool]


class EquivReport(NamedTuple):
    equal: bool
    bound: int
    counterexamples: tuple[Word, ...]


class UcReport(NamedTuple):
    """Verdict of the necessary-condition check on a single word.

    On ``passes``: ``witness`` is a factorization (u1, v, u2) whose factor v
    survives re-insertion at every split of u1u2. On ``falsified``: for every
    candidate factorization, ``violations`` records one split (x, y) with
    x v y outside the language. ``trivial`` flags n >= |w|, where v = w makes
    the condition hold whenever w itself is a member.
    """

    verdict: str  # "passes" | "falsified"
    word: Word
    degree: int
    witness: Optional[tuple[Word, Word, Word]] = None
    violations: tuple[tuple[tuple[Word, Word, Word], tuple[Word, Word]], ...] = ()
    trivial: bool = False

    @property
    def passes(self) -> bool:
        return self.verdict == "passes"


def bounded_equiv(a: Gjfa, b: Gjfa, max_len: int) -> EquivReport:
    """Compare the languages up to max_len; counterexamples are the symmetric difference, shortlex.

    Two JFAs agree up to max_len iff they have the same Parikh vectors of
    total at most max_len (:func:`_jfa_vectors`), and the counterexamples
    are the words of the vectors that one side lacks. Otherwise both
    languages are enumerated.
    """
    return _compare(a, b, max_len, operator.xor)


def bounded_inclusion(a: Gjfa, b: Gjfa, max_len: int) -> EquivReport:
    """Check L(a) subset of L(b) up to max_len; counterexamples from a only, in shortlex order.

    Two JFAs are compared by their Parikh vectors, as in :func:`bounded_equiv`.
    """
    return _compare(a, b, max_len, operator.sub)


def _compare(a: Gjfa, b: Gjfa, max_len: int, difference) -> EquivReport:
    """The report on the words in difference(L(a), L(b)) up to max_len, a set operator."""
    if is_jfa(a) and is_jfa(b):
        symbols = sorted(set().union(a.alphabet, b.alphabet, *(r.label for r in a.rules | b.rules)))
        units = {sym: 1 << FIELD * i | 1 for i, sym in enumerate(symbols, 1)}
        diff = difference(_jfa_vectors(a, units, max_len), _jfa_vectors(b, units, max_len))
        words = LangSet(w for x in diff for w in _arrangements(symbols, x))
    else:
        la, lb = (enumerate_language(m, max_len).words for m in (a, b))
        words = LangSet(difference(la, lb))
    diff = words.sorted_words()
    return EquivReport(not diff, max_len, tuple(diff))


# The total of a vector packed by _jfa_vectors' units: its lowest field.
_TOTAL = (1 << FIELD) - 1


def _jfa_vectors(m: Gjfa, units: dict[str, int], max_len: int) -> set[int]:
    """The Parikh vectors of the words of L(m) up to max_len, for a JFA m (Meduna and Zemek: L(m) is
    the permutation closure of m read as an automaton).

    A vector is the sum of the units of its symbols; a unit sets field 0 (the
    total) and the symbol's own field to 1. One :func:`search` forward from
    (initial, 0) over (state, vector) nodes, taking the rules in sorted order
    and adding each label's vector; a node whose total exceeds max_len is cut.
    """
    edges = m._rule_graph(False, lambda label: sum(map(units.__getitem__, label)))

    def successors(node):
        q, x = node
        for dst, weight in edges.get(q, ()):
            y = x + weight
            if y & _TOTAL <= max_len:
                yield dst, y

    return {x for q, x in search([(m.initial, 0)], successors)[0] if q in m.finals}


def _arrangements(symbols: list[str], vector: int):
    """The distinct words with the Parikh vector (packed as in :func:`_jfa_vectors`), in
    lexicographic order: each is the next permutation of the one before."""
    w = [sym for i, sym in enumerate(symbols, 1) for _ in range(vector >> FIELD * i & _TOTAL)]
    while True:
        yield tuple(w)
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1 :] = reversed(w[i + 1 :])


def uc_condition(member: Oracle, w: Word, n: int) -> UcReport:
    """Check the degree-n re-insertion condition on w.

    Tries every factorization w = u1 v u2 with 1 <= |v| <= n (occurrences,
    not values: the same factor at two positions is two candidates). A
    factorization passes when x v y is a member for every split x y = u1 u2.
    Each distinct x v y is asked of ``member`` once per call.
    """
    w = tuple(w)
    if not w:
        raise ValueError("the condition is vacuous on the empty word")
    if n < 1:
        raise ValueError("degree must be >= 1")
    answers: dict[Word, bool] = {}
    violations = []
    for i in range(len(w)):
        for j in range(i + 1, min(i + n, len(w)) + 1):
            u1, v, u2 = w[:i], w[i:j], w[j:]
            rest = u1 + u2
            bad = None
            for cut in range(len(rest) + 1):
                x, y = rest[:cut], rest[cut:]
                u = x + v + y
                ok = answers.get(u)
                if ok is None:
                    ok = answers[u] = member(u)
                if not ok:
                    bad = (x, y)
                    break
            if bad is None:
                return UcReport("passes", w, n, witness=(u1, v, u2), trivial=n >= len(w))
            violations.append(((u1, v, u2), bad))
    return UcReport("falsified", w, n, violations=tuple(violations))


def uc_soundness_check(m: Gjfa, max_len: int) -> bool:
    """Every accepted non-empty word must pass the condition at the automaton's degree.

    A falsification here would contradict the fact that every jumping-automaton
    language is a union of compositions of its degree.

    Membership is answered exactly from the enumeration: each query x v y
    rearranges a member w, so |x v y| = |w| <= max_len, and the enumeration
    is L(m) cut at max_len, which agrees with ``jump_accepts`` (test_01
    checks the two semantics). When w passes with witness (u1, v, u2),
    every x v y with x y = u1 u2 is a member, and its factorization
    (x, v, y) passes for the same reason: its re-insertions are those of w's
    witness. Those words are certified and not checked again. A failing word
    certifies nothing, so the verdict is the one checking every word gives.
    The enumeration and the certified set live for this call only.
    """
    n = max(degree(m), 1)
    lang = enumerate_language(m, max_len)
    member = lang.words.__contains__
    passed: set[Word] = set()
    for w in lang:
        if not w or w in passed:
            continue
        report = uc_condition(member, w, n)
        if not report.passes:
            return False
        u1, v, u2 = report.witness
        rest = u1 + u2
        passed.update(rest[:cut] + v + rest[cut:] for cut in range(len(rest) + 1))
    return True


def gjfa_as_nfa(m: Gjfa) -> Nfa:
    """Read a degree-<=1 automaton as a classical NFA (eps labels are eps moves)."""
    if not is_jfa(m):
        raise ValueError(f"degree {degree(m)} > 1: not a jumping finite automaton")
    transitions = {(r.src, r.label[0] if r.label else None, r.dst) for r in m.rules}
    return Nfa(m.states, m.alphabet, transitions, m.initial, m.finals)


def _parikh(w: Word) -> tuple[tuple[str, int], ...]:
    """The Parikh vector of w, as its (symbol, count) pairs in symbol order."""
    return tuple(sorted(Counter(w).items()))


def _multinomial(vector: tuple[tuple[str, int], ...]) -> int:
    """The number of words with the given Parikh vector."""
    total, count = 0, 1
    for _, k in vector:
        total += k
        count *= comb(total, k)
    return count


def jfa_permutation_check(m: Gjfa, max_len: int) -> bool:
    """Jumping language equals the permutation closure of the classical NFA language.

    Both sides are cut at max_len, and a permutation keeps the length, so the
    closure of the NFA's words up to max_len is the whole right side. Without
    building it: the two sides are equal iff they have the same Parikh
    vectors and the jumping side holds, for each vector, every word with it,
    as many as the vector's multinomial coefficient.
    """
    nfa = gjfa_as_nfa(m)
    regular = {_parikh(w) for w in nfa.enumerate_bounded(max_len)}
    jumping = Counter(map(_parikh, enumerate_language(m, max_len).words))
    return jumping.keys() == regular and all(
        count == _multinomial(vector) for vector, count in jumping.items()
    )
