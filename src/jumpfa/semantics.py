"""The two equivalent GJFA semantics.

Deletion side: step from configuration (state, word) by deleting a factor
equal to a rule label anywhere in the word; accept on reaching a final state
with the empty word. Generation side: walk rules backward from final states,
inserting labels anywhere; a word is accepted when the walk reaches the
initial state carrying exactly that word.

The tape-head position is not modeled: the head may move anywhere in each
step, so a configuration is just (state, word). Only the two membership
searches code a word, as ``str`` by ``Gjfa.coded`` for ``str.find``, when
they start; enumeration runs :func:`core.insertion_closure` on tuple words.
The public functions take and return tuples.

Before any word search, each side tests the word's Parikh vector: the labels
along an accepting path sum to it. The deletion side searches forward from the
initial state (``Gjfa.final_feasible``), the generation side backward from the
final states (``Gjfa.initial_feasible``), each with its own verdict memo, so
neither side reads the other's structure. On a JFA the test is exact, and no
word search runs.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from jumpfa.core import FIELD, Gjfa, Rule, Word, insert_positions, insertion_closure, search
from jumpfa.langops import LangSet


class AcceptanceWitness(NamedTuple):
    """Replayable evidence of acceptance.

    ``steps`` lists (rule, position) in deletion order; inserting the labels
    back in reverse order at the recorded positions regenerates the word.
    An empty ``steps`` witnesses the empty-word case (initial state final).
    """

    word: Word
    steps: tuple[tuple[Rule, int], ...]

    def replay(self) -> Word:
        w: Word = ()
        for rule, pos in reversed(self.steps):
            w = w[:pos] + rule.label + w[pos:]
        return w


def _deletions(m: Gjfa, lengths: dict[str, set[int]]):
    """Successors of the deletion search on coded words: each rule's label deleted at each occurrence.

    A rule (q, v, r) is tried only when the remainder's length is in r's set
    of ``lengths`` (``Gjfa.final_lengths``).
    """
    by_src = m.coded.by_src

    def successors(node):
        state, w = node
        for rule, v in by_src.get(state, ()):
            if len(w) - len(v) not in lengths.get(rule.dst, ()):
                continue
            pos = w.find(v)
            while pos >= 0:
                yield rule.dst, w[:pos] + w[pos + len(v) :]
                pos = w.find(v, pos + 1) if v else -1

    return successors


def _admitted(m: Gjfa, w: Word) -> Optional[dict[str, set[int]]]:
    """The length sets (``Gjfa.final_lengths``) when the tuple w passes the tests before a search, else None.

    The length test comes first, then :meth:`Gjfa.final_feasible` on the Parikh
    vector, which is None for a symbol outside the code. Neither codes the word.
    """
    n = len(w)
    lengths = m.final_lengths(n)
    if n not in lengths.get(m.initial, ()):
        return None
    vector = m.coded.vector(w)
    if vector is None or not m.final_feasible(vector):
        return None
    return lengths


def _accepting_search(m: Gjfa, w: Word, lengths: dict[str, set[int]]):
    """The deletion search from (initial, coded w): (parents, accepting node), the node None on rejection."""
    coded = m.coded
    return search([(m.initial, coded.encode(w))], _deletions(m, lengths), coded.goals.__contains__)


def acceptance_witness(m: Gjfa, w: Word) -> Optional[AcceptanceWitness]:
    """Breadth-first deletion search; returns the replayable witness on acceptance.

    A word with a length that no path from the initial state to a final
    state has, with a symbol outside the code, or with a Parikh vector that
    no such path's labels sum to, is rejected at once. The search tries a
    rule only when the remainder's length is in the length set of the rule's
    target state. A JFA runs no word search: its path is the forward
    :meth:`Gjfa.vector_search`'s, each vector difference's symbol deleted at
    its leftmost occurrence. Each step (q, u) -> (r, rest) is the first rule
    of ``coded.by_src[q]`` into r, at its leftmost position, that deletes u
    to rest: the move the word search took first.
    """
    w = tuple(w)
    coded = m.coded
    if coded.jfa:
        vector = coded.vector(w)
        parents, node = ({}, None) if vector is None else m.vector_search(True, vector)
    else:
        lengths = _admitted(m, w)
        parents, node = ({}, None) if lengths is None else _accepting_search(m, w, lengths)
    if node is None:
        return None
    path = [node]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    if coded.jfa:  # each node's word: each vector difference's symbol deleted at its leftmost occurrence
        diffs = (x - y for (_, x), (_, y) in zip(path, path[1:]))
        cuts = (chr(d.bit_length() // FIELD) if d else "" for d in diffs)
        words = accumulate(cuts, lambda u, c: u.replace(c, "", 1), initial=coded.encode(w))
        path = [(q, u) for (q, _), u in zip(path, words)]
    steps: list[tuple[Rule, int]] = []
    for (q, u), (r, rest) in zip(path, path[1:]):
        moves = ((rule, v, i) for rule, v in coded.by_src[q] if rule.dst == r for i in range(len(rest) + 1))
        steps.append(next((rule, i) for rule, v, i in moves if u == rest[:i] + v + rest[i:]))
    return AcceptanceWitness(w, tuple(steps))


def jump_accepts(m: Gjfa, w: Word) -> bool:
    """Deletion-side acceptance: the tests and search of :func:`acceptance_witness`, without the witness.
    On a JFA the Parikh vector test is exact, so no word search runs."""
    w = tuple(w)
    lengths = _admitted(m, w)
    if lengths is None:
        return False
    return m.coded.jfa or _accepting_search(m, w, lengths)[1] is not None


def _embeds(v: str, t: str, lo: int, hi: int) -> bool:
    """True iff v is a subsequence of t[lo:hi]."""
    for c in v:
        lo = t.find(c, lo, hi) + 1
        if not lo:
            return False
    return True


def _insertions(m: Gjfa, target: str):
    """Successors of the backward walk toward target on coded words: its subsequences only.

    From a rule (q, v, r) the walk moves r -> q, inserting v at each of
    :func:`core.insert_positions` (as :func:`core.insertion_closure`, the
    unpruned walk, does) that keeps a subsequence of target. With u[:i] in a
    shortest prefix target[:lo[i]] and u[i:] in a shortest suffix
    target[hi[i]:], v at i keeps one iff v embeds in target[lo[i]:hi[i]].
    """
    by_dst = m.coded.by_dst
    n = len(target)

    def successors(node):
        state, u = node
        room = n - len(u)
        lo = [*accumulate(u, lambda j, c: target.find(c, j) + 1, initial=0)]
        hi = [*accumulate(u[::-1], lambda j, c: target.rfind(c, 0, j), initial=n)][::-1]
        for rule, v in by_dst.get(state, ()):
            if len(v) <= room:
                for i in insert_positions(u, v):
                    if _embeds(v, target, lo[i], hi[i]):
                        yield rule.src, u[:i] + v + u[i:]

    return successors


def generate_accepts(m: Gjfa, w: Word) -> bool:
    """Generation-side acceptance: backward walk from final states.

    A word is rejected without a walk when :meth:`Gjfa.initial_feasible`
    rejects its Parikh vector, and on a JFA that test is exact, so no walk
    runs. Insertion only adds symbols, so the walk keeps only subsequences of
    the target. Epsilon-labeled rules are cycle-cut by the visited set.
    """
    w = tuple(w)
    coded = m.coded
    vector = coded.vector(w)
    if vector is None or not m.initial_feasible(vector):
        return False
    if coded.jfa:
        return True
    u = coded.encode(w)
    return search([(f, "") for f in m.finals], _insertions(m, u), (m.initial, u).__eq__)[1] is not None


def enumerate_language(m: Gjfa, max_len: int) -> LangSet:
    """L(m) truncated to words of length <= max_len, by backward generation.

    The walk is the insertion closure of the reversed rule graph (a rule
    (q, v, r) inserts v on the edge r -> q) from the empty word at each final state.
    """
    edges = [(r.dst, ((), r.label, ()), r.src) for r in m.rules]
    return LangSet(insertion_closure(edges, [(f, ()) for f in m.finals], max_len, {m.initial}), max_len)
