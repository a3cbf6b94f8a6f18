"""The two equivalent GJFA semantics.

Deletion side: step from configuration (state, word) by deleting a factor
equal to a rule label anywhere in the word; accept on reaching a final state
with the empty word. Generation side: walk rules backward from final states,
inserting labels anywhere; a word is accepted when the walk reaches the
initial state carrying exactly that word.

The tape-head position is not modeled: the head may move anywhere in each
step, so a configuration is just (state, word).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from jumpfa.core import Gjfa, Rule, Word, search
from jumpfa.langops import LangSet


class Configuration(NamedTuple):
    state: str
    word: Word


@dataclass(frozen=True)
class AcceptanceWitness:
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


def _occurrences(w: Word, v: Word) -> list[int]:
    if not v:
        return [0]
    return [i for i in range(len(w) - len(v) + 1) if w[i : i + len(v)] == v]


def _deletions(m: Gjfa):
    """Successors of the deletion search; a move is (rule, position)."""
    by_src = m.by_src

    def successors(c):
        state, w = c
        for rule in by_src.get(state, ()):
            n = len(rule.label)
            for pos in _occurrences(w, rule.label):
                yield (rule, pos), (rule.dst, w[:pos] + w[pos + n :])

    return successors


def delete_successors(m: Gjfa, c: Configuration) -> set[Configuration]:
    """All configurations reachable in one deletion step."""
    return {Configuration(*nxt) for _, nxt in _deletions(m)(c)}


def acceptance_witness(m: Gjfa, w: Word) -> Optional[AcceptanceWitness]:
    """Breadth-first deletion search; returns the replayable witness on acceptance."""
    w = tuple(w)
    goals = {(f, ()) for f in m.finals}
    parents, node = search([(m.initial, w)], _deletions(m), goals.__contains__)
    if node is None:
        return None
    steps: list[tuple[Rule, int]] = []
    while parents[node] is not None:
        node, step = parents[node]
        steps.append(step)
    steps.reverse()
    return AcceptanceWitness(w, tuple(steps))


def jump_accepts(m: Gjfa, w: Word) -> bool:
    """Deletion-side acceptance."""
    return acceptance_witness(m, w) is not None


def _insertions(m: Gjfa, max_len: int):
    """Successors of the backward walk, up to words of length max_len.

    From a rule (q, v, r) the walk moves r -> q, inserting v at any position.
    Positions that repeat the word of the position before are skipped: an
    empty v gives the same word everywhere, and a v made of one repeated
    symbol c gives the same word just after a c as just before it.
    """
    by_dst = m.by_dst

    def successors(node):
        state, u = node
        room = max_len - len(u)
        for rule in by_dst.get(state, ()):
            v = rule.label
            if len(v) <= room:
                src = rule.src
                run = v[0] if v and v.count(v[0]) == len(v) else None
                for i in range(len(u) + 1 if v else 1):
                    if i and u[i - 1] == run:
                        continue
                    yield rule, (src, u[:i] + v + u[i:])

    return successors


def generate_accepts(m: Gjfa, w: Word) -> bool:
    """Generation-side acceptance: backward walk from final states.

    Words longer than the target are pruned (insertion is length-monotone);
    epsilon-labeled rules are cycle-cut by the visited set.
    """
    goal = (m.initial, tuple(w))
    _, found = search([(f, ()) for f in m.finals], _insertions(m, len(goal[1])), goal.__eq__)
    return found is not None


def enumerate_language(m: Gjfa, max_len: int) -> LangSet:
    """L(m) truncated to words of length <= max_len, by backward generation."""
    parents, _ = search([(f, ()) for f in m.finals], _insertions(m, max_len))
    return LangSet((u for state, u in parents if state == m.initial), max_len)
