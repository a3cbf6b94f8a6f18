"""Bounded automata comparison, the union-of-compositions falsifier, and the
JFA permutation-closure check.

The falsifier implements a necessary condition: if a language is a union of
compositions of degree n, then every non-empty member w contains a factor v
(1 <= |v| <= n) that can be re-inserted at any other position of the rest of
the word without leaving the language. A word where every factorization fails
proves that no degree-n jumping automaton accepts the language.
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Callable, NamedTuple, Optional

from jumpfa.core import Gjfa, Nfa, Word, degree, is_jfa
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
    """Compare bounded enumerations; counterexamples are the symmetric difference."""
    la = enumerate_language(a, max_len).words
    lb = enumerate_language(b, max_len).words
    diff = LangSet(la ^ lb).sorted_words()
    return EquivReport(not diff, max_len, tuple(diff))


def bounded_inclusion(a: Gjfa, b: Gjfa, max_len: int) -> EquivReport:
    """Check L(a) subset of L(b) at the bound; counterexamples from a only."""
    la = enumerate_language(a, max_len).words
    lb = enumerate_language(b, max_len).words
    diff = LangSet(la - lb).sorted_words()
    return EquivReport(not diff, max_len, tuple(diff))


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
