"""Automaton constructions: finite languages, insertion closures, reversal, union.

Fresh states use the reserved prefix ``_g`` so they can never collide with
user-declared states (``validate`` rejects nothing here; the prefix simply is
not producible from the file format's token conventions by accident).
"""

from __future__ import annotations

from typing import Iterable

from jumpfa.core import Gjfa, Rule, fresh_state, word_str
from jumpfa.langops import LangSet


def finite_gjfa(k: LangSet, alphabet: Iterable[str]) -> Gjfa:
    """Two-state automaton accepting exactly the finite language k."""
    alphabet = frozenset(alphabet)
    for w in k.sorted_words():
        outside = sorted(set(w) - alphabet)
        if outside:
            raise ValueError(f"word {word_str(w)} uses symbol {outside[0]} outside the alphabet")
    rules = {Rule("q", w, "r") for w in k.words}
    return Gjfa({"q", "r"}, alphabet, rules, "q", {"r"})


def insert_gjfa(ml: Gjfa, k: LangSet) -> Gjfa:
    """Accepts L(ml) <- k: fresh start feeding the old start with one k-word.

    The alphabet gains k's symbols, so the result passes ``validate``.
    """
    s = fresh_state(ml.states)
    rules = set(ml.rules) | {Rule(s, v, ml.initial) for v in k.words}
    return Gjfa(ml.states | {s}, ml.alphabet.union(*k.words), rules, s, ml.finals)


def insert_star_gjfa(ml: Gjfa, k: LangSet) -> Gjfa:
    """Accepts L(ml) <-* k: fresh start with k-self-loops and an eps bridge.

    An empty word in k stays as an eps self-loop, faithful to the rule set of
    the underlying construction; the search semantics cycle-cut it. The
    alphabet gains k's symbols, as in :func:`insert_gjfa`.
    """
    s = fresh_state(ml.states)
    rules = set(ml.rules) | {Rule(s, v, s) for v in k.words} | {Rule(s, (), ml.initial)}
    return Gjfa(ml.states | {s}, ml.alphabet.union(*k.words), rules, s, ml.finals)


def reverse_gjfa(m: Gjfa) -> Gjfa:
    """Same state graph with every label reversed; recognizes the reversal."""
    rules = {Rule(r.src, tuple(reversed(r.label)), r.dst) for r in m.rules}
    return Gjfa(m.states, m.alphabet, rules, m.initial, m.finals)


def union_gjfa(a: Gjfa, b: Gjfa) -> Gjfa:
    """Accepts L(a) | L(b): disjointly renamed copies behind a fresh start.

    The fresh start is final iff either original start is, so enumeration at
    bound 0 stays exact without extra eps rules into final states.
    """

    def renamed(m: Gjfa, suffix: str) -> Gjfa:
        ren = {q: q + suffix for q in m.states}
        return Gjfa(
            ren.values(),
            m.alphabet,
            {Rule(ren[r.src], r.label, ren[r.dst]) for r in m.rules},
            ren[m.initial],
            {ren[f] for f in m.finals},
        )

    a2 = renamed(a, "_1")
    b2 = renamed(b, "_2")
    s = fresh_state(a2.states | b2.states)
    states = a2.states | b2.states | {s}
    rules = set(a2.rules) | set(b2.rules) | {Rule(s, (), a2.initial), Rule(s, (), b2.initial)}
    finals = a2.finals | b2.finals
    if a.initial in a.finals or b.initial in b.finals:
        finals = finals | {s}
    return Gjfa(states, a.alphabet | b.alphabet, rules, s, finals)
