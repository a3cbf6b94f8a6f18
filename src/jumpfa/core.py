"""Domain types: symbols, words, rules, GJFA, and a small NFA.

Symbols and state ids are plain interned token strings; words are tuples of
symbol tokens. The empty tuple is the empty word and is written ``eps`` in
all textual forms. Every bounded search runs on :func:`search`: over automata,
insertion systems, and (state, vector) nodes for the Parikh vector tests
(:meth:`Gjfa.vector_search`). Every bounded insertion closure (GJFA enumeration,
iterated insertion, the insertion systems) runs on :func:`insertion_closure`, on
tuple words. Only the two membership word searches code words as ``str``
(:class:`Coded`, built once per automaton); the tests before them read tuples.
"""

from __future__ import annotations

import re
from collections import deque, namedtuple
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

SYMBOL_RE = re.compile(r"[A-Za-z0-9_]+\Z")
EPS_TOKEN = "eps"

# A word is a tuple of symbol tokens; () is the empty word.
Word = tuple[str, ...]


def check_symbol(name: str) -> str:
    """Validate a symbol (or state) token and return it."""
    if not SYMBOL_RE.match(name):
        raise ValueError(f"invalid token {name!r}")
    if name == EPS_TOKEN:
        raise ValueError(f"{EPS_TOKEN!r} is reserved for the empty word")
    return name


def multimap(pairs: Iterable[tuple]) -> dict:
    """Map each key of the (key, value) pairs to the list of its values."""
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return out


def fresh_state(existing: Iterable[str]) -> str:
    """The first of ``_g0``, ``_g1``, ... not in existing."""
    existing = set(existing)
    i = 0
    while f"_g{i}" in existing:
        i += 1
    return f"_g{i}"


def search(starts, successors, stop=None):
    """Breadth-first search over hashable nodes; returns (parents, found).

    ``successors(node)`` yields the next nodes. ``parents`` maps each reached
    node to the node it was first reached from, or to None for a start. When
    ``stop`` is given, the search ends at the first dequeued node it accepts,
    returned as ``found``; otherwise, or when no node is accepted, ``found``
    is None and ``parents`` holds every reachable node.
    """
    parents = dict.fromkeys(starts)
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        if stop is not None and stop(node):
            return parents, node
        for nxt in successors(node):
            if nxt not in parents:
                parents[nxt] = node
                queue.append(nxt)
    return parents, None


def word(text: str) -> Word:
    """Parse a dotted word: ``a.abar`` -> ('a', 'abar'); ``eps`` -> ()."""
    if text == EPS_TOKEN or text == "":
        return ()
    return tuple(check_symbol(tok) for tok in text.split("."))


def word_str(w: Word) -> str:
    """Inverse of :func:`word`."""
    return ".".join(w) if w else EPS_TOKEN


def shortlex_key(w: Word):
    """Sort key: length first, then symbol tokens in name order."""
    return (len(w), w)


class Rule(NamedTuple):
    """A rule (from-state, label word, to-state)."""

    src: str
    label: Word
    dst: str

    def __str__(self) -> str:
        return f"({self.src}, {word_str(self.label)}, {self.dst})"


def insert_positions(w: str | Word, v: str | Word):
    """The positions of w to insert v at, except those that repeat the word of the position before:
    an empty v gives one word everywhere, and a run of one symbol c the same word after a c as before it."""
    if not v:
        return (0,)
    if v.count(v[0]) < len(v):
        return range(len(w) + 1)
    return [i for i in range(len(w) + 1) if not i or w[i - 1] != v[0]]


def insertion_closure(edges, starts, max_len: int, ends) -> list[Word]:
    """The distinct words that the insertion closure from the starts reaches at a node in ends.

    ``starts`` is a list of (node, word) pairs. Each (src, rule, dst) edge
    applies rule, a (left, ins, right) triple of words, to a word at src: it
    inserts ins between an occurrence of left and right and moves to dst. A word
    longer than max_len is never built, and a longer start is dropped. A rule
    with contexts inserts after left at each occurrence of left + right,
    overlapping ones too, and a context-free rule at :func:`insert_positions`.
    """
    by_src = multimap((src, (left + right, len(left), ins, dst)) for src, (left, ins, right), dst in edges)

    def successors(node):
        src, w = node
        room = max_len - len(w)
        for context, cut, v, dst in by_src.get(src, ()):
            if len(v) > room:
                continue
            if context:
                k = len(context)
                for pos in range(len(w) - k + 1):
                    if w[pos : pos + k] == context:
                        i = pos + cut
                        yield dst, w[:i] + v + w[i:]
            else:
                for i in insert_positions(w, v):
                    yield dst, w[:i] + v + w[i:]

    starts = [(node, w) for node, w in starts if len(w) <= max_len]
    kept = [w for node, w in search(starts, successors)[0] if node in ends]  # the map is freed here
    return list(set(kept))


# A Parikh vector packs one FIELD-bit count per symbol of a code, symbol i in
# bits FIELD * i and up. Counts stay below 2 ** (FIELD - 1): the top bit of a
# field is the guard of the non-negativity test in Gjfa.vector_search.
FIELD = 32


def label_sums(starts, edges, bound: int) -> dict:
    """Per node, the sums up to bound of the weights along the paths from a start to it.

    ``edges`` maps a node to its (next node, weight) pairs; weights are not
    negative. The fixpoint passes on only the sums new at a node. A node
    that no path reaches is absent.
    """
    sums = {q: {0} for q in starts}
    work = {q: {0} for q in starts}
    while work:
        q, delta = work.popitem()
        for nxt, weight in edges.get(q, ()):
            new = {x + weight for x in delta if x + weight <= bound}
            new.difference_update(sums.get(nxt, ()))
            if new:
                sums.setdefault(nxt, set()).update(new)
                work.setdefault(nxt, set()).update(new)
    return sums


class Coded:
    """An automaton's words as ``str`` for the two membership searches, with ``chr(i)`` for
    ``symbols[i]``: the distinct symbols of its alphabet and labels in name order. Also its rules
    in sorted order paired with coded labels, grouped by source and by target state, its accepting
    configurations (final state, empty word), and :meth:`vector`, which reads tuple words."""

    def __init__(self, m: Gjfa):
        self.symbols = tuple(sorted(m.alphabet.union(*(r.label for r in m.rules))))
        self.chars = {sym: chr(i) for i, sym in enumerate(self.symbols)}
        rules = [(r, self.encode(r.label)) for r in sorted(m.rules)]
        self.by_src: dict[str, list[tuple[Rule, str]]] = multimap((r.src, (r, v)) for r, v in rules)
        self.by_dst: dict[str, list[tuple[Rule, str]]] = multimap((r.dst, (r, v)) for r, v in rules)
        self.jfa = is_jfa(m)  # every label has length at most 1
        self.goals = frozenset((f, "") for f in m.finals)
        self.units = {sym: 1 << FIELD * i for i, sym in enumerate(self.symbols)}
        self.guards = sum(unit << FIELD - 1 for unit in self.units.values())

    def encode(self, w: Iterable[str]) -> str:
        """The coded form of w, whose symbols are all in the code."""
        return "".join(map(self.chars.__getitem__, w))

    def vector(self, w: Iterable[str]) -> Optional[int]:
        """The Parikh vector of w, packed: the count of symbols[i] in bits FIELD * i and up; None
        when w has a symbol outside the code."""
        try:
            return sum(map(self.units.__getitem__, w))
        except KeyError:
            return None


class Gjfa(namedtuple("Gjfa", "states alphabet rules initial finals")):
    """A general jumping finite automaton: (states, alphabet, rules, initial, finals).

    Construction coerces the collections to frozen sets; structural problems
    are reported by :func:`validate` rather than raised here.
    """

    def __new__(
        cls,
        states: Iterable[str],
        alphabet: Iterable[str],
        rules: Iterable[Rule],
        initial: str,
        finals: Iterable[str],
    ):
        return super().__new__(
            cls, frozenset(states), frozenset(alphabet), frozenset(rules), initial, frozenset(finals)
        )

    @cached_property
    def coded(self) -> Coded:
        """The coded form, built once per automaton."""
        return Coded(self)

    def final_lengths(self, n: int) -> dict[str, set[int]]:
        """Per state q, the sums of the label lengths along the paths from q to a final state;
        exact for every length <= n.

        Every such path yields a word of that length, so the initial state's
        set holds the lengths of L(M). Built on first use as a fixpoint over
        the rules, and rebuilt at twice the bound when a longer word asks. A
        state with no path to a final state is absent.
        """
        bound, sums = self.__dict__.get("_final_lengths", (-1, None))
        if n > bound:
            bound = max(n, 2 * bound)
            sums = label_sums(self.finals, self._rule_graph(True, len), bound)
            self.__dict__["_final_lengths"] = (bound, sums)
        return sums

    def final_feasible(self, vector: int) -> bool:
        """True iff the labels of some accepting path sum to the Parikh vector (:meth:`Coded.vector`),
        by the forward :meth:`vector_search`; memoized. The deletion side's test, and on a JFA the
        whole test (Meduna and Zemek: L(M) is the permutation closure of M read as an automaton)."""
        return self._feasible("_final_verdicts", True, vector)

    def initial_feasible(self, vector: int) -> bool:
        """The generation side's :meth:`final_feasible`: the backward search, with a memo of its own."""
        return self._feasible("_initial_verdicts", False, vector)

    def _feasible(self, key: str, forward: bool, vector: int) -> bool:
        memo = self.__dict__.setdefault(key, {})
        verdict = memo.get(vector)
        if verdict is None:
            verdict = memo[vector] = self.vector_search(forward, vector)[1] is not None
        return verdict

    def vector_search(self, forward: bool, vector: int):
        """:func:`search` over (state, vector left) nodes for an accepting path whose labels sum to vector.

        Forward from (initial, vector) to (final state, 0), or backward from
        (f, vector) for each final state f to (initial, 0), taking the rules in
        sorted order and subtracting each label's vector. A node where a count
        would go negative is cut (with every field's guard bit set, the
        subtraction clears a guard just then), so at most prod(c_i + 1) nodes
        per state are reached.
        """
        guards = self.coded.guards
        edges = self._rule_graph(not forward, self.coded.vector)

        def successors(node):
            q, x = node
            x |= guards
            for dst, weight in edges.get(q, ()):
                y = x - weight
                if y & guards == guards:
                    yield dst, y ^ guards

        if forward:
            return search([(self.initial, vector)], successors, lambda n: not n[1] and n[0] in self.finals)
        return search([(f, vector) for f in sorted(self.finals)], successors, (self.initial, 0).__eq__)

    def _rule_graph(self, backward: bool, weight) -> dict:
        """Per state, its (next state, label weight) pairs; rules in sorted order, reversed when backward."""
        rules = sorted(self.rules)
        if backward:
            return multimap((r.dst, (r.src, weight(r.label))) for r in rules)
        return multimap((r.src, (r.dst, weight(r.label))) for r in rules)


def validate(m: Gjfa) -> list[str]:
    """Check all Gjfa invariants; return one diagnostic string per violation."""
    diags: list[str] = []
    for what, tokens in (("state token", m.states), ("alphabet symbol", m.alphabet)):
        for tok in sorted(tokens):
            try:
                check_symbol(tok)
            except ValueError:
                diags.append(f"invalid {what}: {tok!r}")
    if m.initial not in m.states:
        diags.append(f"initial state not declared: {m.initial}")
    for f in sorted(m.finals - m.states):
        diags.append(f"final state not declared: {f}")
    for r in sorted(m.rules):
        if r.src not in m.states:
            diags.append(f"rule {r} references undeclared state {r.src}")
        if r.dst not in m.states:
            diags.append(f"rule {r} references undeclared state {r.dst}")
        for sym in r.label:
            if sym not in m.alphabet:
                diags.append(f"rule {r} uses undeclared symbol {sym}")
    return diags


def degree(m: Gjfa) -> int:
    """Maximum rule-label length; 0 for a rule-free automaton."""
    return max((len(r.label) for r in m.rules), default=0)


def is_jfa(m: Gjfa) -> bool:
    """True iff every label has length at most 1."""
    return degree(m) <= 1


class Nfa(namedtuple("Nfa", "states alphabet transitions initial finals")):
    """A classical NFA with epsilon moves; labels are single tokens or None.

    Construction coerces the collections to frozen sets.
    """

    def __new__(
        cls,
        states: Iterable[str],
        alphabet: Iterable[str],
        transitions: Iterable[tuple[str, Optional[str], str]],
        initial: str,
        finals: Iterable[str],
    ):
        return super().__new__(
            cls, frozenset(states), frozenset(alphabet), frozenset(transitions), initial,
            frozenset(finals),
        )

    @cached_property
    def delta(self) -> dict[tuple[str, Optional[str]], list[str]]:
        """Transition targets keyed (source, label), built once per automaton."""
        return multimap(((src, label), dst) for src, label, dst in self.transitions)

    def eps_closure(self, states: Iterable[str]) -> frozenset[str]:
        delta = self.delta
        parents, _ = search(states, lambda q: delta.get((q, None), ()))
        return frozenset(parents)

    def step(self, states: frozenset[str], token: str) -> frozenset[str]:
        delta = self.delta
        return self.eps_closure({dst for q in states for dst in delta.get((q, token), ())})

    def accepts(self, w: Word) -> bool:
        current = self.eps_closure({self.initial})
        for tok in w:
            current = self.step(current, tok)
            if not current:
                return False
        return bool(current & self.finals)

    def enumerate_bounded(self, max_len: int) -> set[Word]:
        """All accepted words of length at most max_len."""
        alphabet = sorted(self.alphabet)

        def successors(node):
            states, w = node
            if len(w) < max_len:
                for tok in alphabet:
                    nstates = self.step(states, tok)
                    if nstates:
                        yield nstates, w + (tok,)

        parents, _ = search([(self.eps_closure({self.initial}), ())], successors)
        return {w for states, w in parents if states & self.finals}
