"""Insertion systems with contexts, graph-controlled insertion systems,
regular-control semicontextual grammars, and the conversions tying the
context-free (0,0) classes to jumping automata."""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, NamedTuple

from jumpfa.core import Gjfa, Nfa, Rule, Word, fresh_state, insertion_closure, word_str
from jumpfa.langops import LangSet


class NonzeroContextError(ValueError):
    """Raised by conversions that require empty left/right contexts."""

    def __init__(self, rule: "InsRule"):
        self.rule = rule
        super().__init__(f"rule {rule} has a non-empty context")


class InsRule(NamedTuple):
    """Insert ``ins`` between an occurrence of ``left`` and ``right``."""

    left: Word
    ins: Word
    right: Word

    @property
    def context_free(self) -> bool:
        return not self.left and not self.right

    def __str__(self) -> str:
        return f"({word_str(self.left)}|{word_str(self.ins)}|{word_str(self.right)})"


# The rule that inserts nothing: a move that only changes component or state.
_NOOP = InsRule((), (), ())


class InsSystem(namedtuple("InsSystem", "alphabet axioms rules")):
    """Insertion rules applied to the axioms in any order; the collections become frozen sets."""

    def __new__(cls, alphabet: Iterable[str], axioms: LangSet, rules: Iterable[InsRule]):
        return super().__new__(cls, frozenset(alphabet), axioms, frozenset(rules))


def _require_context_free(rules: Iterable[InsRule]) -> None:
    """Raise NonzeroContextError for the first rule, in the given order, that has a context."""
    for rule in rules:
        if not rule.context_free:
            raise NonzeroContextError(rule)


def apply_rule(rule: InsRule, w: Word) -> set[Word]:
    """The words from inserting rule.ins into w where w reads ...left][right..."""
    lw, rw = len(rule.left), len(rule.right)
    return {
        w[:i] + rule.ins + w[i:]
        for i in range(lw, len(w) + 1)
        if w[i - lw : i] == rule.left and w[i : i + rw] == rule.right
    }


def ins_enumerate(sys: InsSystem, max_len: int) -> LangSet:
    """Closure of the axioms under the rules, truncated to max_len."""
    edges = [("", rule, "") for rule in sys.rules]
    return LangSet(insertion_closure(edges, [("", w) for w in sys.axioms.words], max_len, {""}), max_len)


class GcInsSystem(namedtuple("GcInsSystem", "components edges axioms alphabet initial final")):
    """Insertion rules on the edges of a directed multigraph of components.

    A word is accepted when it is derived from an axiom along an edge path
    from the initial component to the final component; the zero-length path
    accepts axioms exactly when initial = final. The collections become
    frozen sets.
    """

    def __new__(
        cls,
        components: Iterable[str],
        edges: Iterable[tuple[str, InsRule, str]],
        axioms: LangSet,
        alphabet: Iterable[str],
        initial: str,
        final: str,
    ):
        return super().__new__(
            cls, frozenset(components), frozenset(edges), axioms, frozenset(alphabet), initial, final
        )


def gcis_enumerate(g: GcInsSystem, max_len: int) -> LangSet:
    """Words of length <= max_len reachable at the final component."""
    starts = [(g.initial, w) for w in g.axioms.words]
    return LangSet(insertion_closure(g.edges, starts, max_len, {g.final}), max_len)


def gcis_from_gjfa(m: Gjfa) -> GcInsSystem:
    """Same structure as the automaton, with edges reversed.

    The generative reading applies the last rule's label first, so a rule
    (q, v, r) becomes an edge r -> q inserting v; a fresh initial component
    reaches every final state by a no-op edge, and the final component is the
    automaton's start. The only axiom is the empty word.
    """
    entry = fresh_state(m.states)
    edges = {(r.dst, InsRule((), r.label, ()), r.src) for r in m.rules}
    edges |= {(entry, _NOOP, f) for f in m.finals}
    return GcInsSystem(
        m.states | {entry}, edges, LangSet([()]), m.alphabet, entry, m.initial
    )


def gjfa_from_gcis(g: GcInsSystem) -> Gjfa:
    """Inverse direction for context-free systems: axioms become final deletions."""
    _require_context_free(rule for _, rule, _ in sorted(g.edges))
    sink = fresh_state(g.components)
    rules = {Rule(dst, rule.ins, src) for src, rule, dst in g.edges}
    rules |= {Rule(g.initial, a, sink) for a in g.axioms.words}
    return Gjfa(g.components | {sink}, g.alphabet, rules, g.final, {sink})


class RcGrammar(namedtuple("RcGrammar", "alphabet axioms rules control")):
    """Insertion rules with an NFA over rule indices constraining application order.

    The alphabet becomes a frozen set and the rules a tuple, indexed by the control's labels.
    """

    def __new__(cls, alphabet: Iterable[str], axioms: LangSet, rules: Iterable[InsRule], control: Nfa):
        return super().__new__(cls, frozenset(alphabet), axioms, tuple(rules), control)


def _control_edges(r: RcGrammar) -> set[tuple[str, InsRule, str]]:
    """The control transitions as insertion edges; an eps move inserts nothing."""
    return {
        (src, _NOOP if label is None else r.rules[int(label)], dst)
        for src, label, dst in r.control.transitions
    }


def rcg_enumerate(r: RcGrammar, max_len: int) -> LangSet:
    """Words derivable along a rule-index sequence the control NFA accepts."""
    starts = [(r.control.initial, w) for w in r.axioms.words]
    return LangSet(insertion_closure(_control_edges(r), starts, max_len, r.control.finals), max_len)


def rcg_from_gcis(g: GcInsSystem) -> RcGrammar:
    """Component graph becomes the control NFA; edges are relabeled by rule index."""
    _require_context_free(rule for _, rule, _ in sorted(g.edges))
    rules = tuple(sorted({rule for _, rule, _ in g.edges}))
    index = {rule: i for i, rule in enumerate(rules)}
    transitions = {(src, str(index[rule]), dst) for src, rule, dst in g.edges}
    control = Nfa(
        g.components,
        {str(i) for i in range(len(rules))},
        transitions,
        g.initial,
        {g.final},
    )
    return RcGrammar(g.alphabet, g.axioms, rules, control)


def gcis_from_rcg(r: RcGrammar) -> GcInsSystem:
    """Control NFA states become components; eps moves become no-op insertions.

    If the control has several final states, a fresh final component collects
    them by no-op edges (the graph-controlled model fixes a single final).
    """
    _require_context_free(r.rules)
    edges = _control_edges(r)
    components = set(r.control.states)
    finals = sorted(r.control.finals)
    if len(finals) == 1:
        final = finals[0]
    else:
        final = fresh_state(components)
        components.add(final)
        edges |= {(f, _NOOP, final) for f in finals}
    return GcInsSystem(components, edges, r.axioms, r.alphabet, r.control.initial, final)
