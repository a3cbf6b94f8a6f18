"""Line-oriented text formats for automata and insertion systems.

All formats share the conventions: UTF-8, ``#`` starts a comment, words are
``.``-joined symbol tokens with ``eps`` for the empty word. Serialization is
canonical (sorted directives), so parse -> serialize is a stable round trip.
"""

from __future__ import annotations

from jumpfa.core import Gjfa, Nfa, Rule, Word, shortlex_key, word, word_str
from jumpfa.langops import LangSet
from jumpfa.insertion_systems import GcInsSystem, InsRule, InsSystem, RcGrammar


class ParseError(ValueError):
    pass


def _directive_lines(text: str) -> list[tuple[str, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected '<directive>: ...', got {raw!r}")
        key, _, rest = line.partition(":")
        out.append((key.strip(), rest.strip()))
    return out


def _parse_word(text: str) -> Word:
    try:
        return word(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _rule_sort_key(r: Rule):
    return (r.src, shortlex_key(r.label), r.dst)


def parse_gjfa(text: str) -> Gjfa:
    alphabet: set[str] = set()
    states: set[str] = set()
    initial: str | None = None
    finals: set[str] = set()
    rules: set[Rule] = set()
    for key, rest in _directive_lines(text):
        if key == "alphabet":
            alphabet.update(rest.split())
        elif key == "states":
            states.update(rest.split())
        elif key == "initial":
            if initial is not None:
                raise ParseError("duplicate initial directive")
            initial = rest
        elif key == "final":
            finals.update(rest.split())
        elif key == "rule":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(f"rule needs '<from> <label> <to>', got {rest!r}")
            rules.add(Rule(parts[0], _parse_word(parts[1]), parts[2]))
        else:
            raise ParseError(f"unknown directive {key!r}")
    if initial is None:
        raise ParseError("missing initial directive")
    return Gjfa(states, alphabet, rules, initial, finals)


def serialize_gjfa(m: Gjfa) -> str:
    lines = [
        "alphabet: " + " ".join(sorted(m.alphabet)),
        "states: " + " ".join(sorted(m.states)),
        f"initial: {m.initial}",
        "final: " + " ".join(sorted(m.finals)),
    ]
    for r in sorted(m.rules, key=_rule_sort_key):
        lines.append(f"rule: {r.src} {word_str(r.label)} {r.dst}")
    return "\n".join(lines) + "\n"


def _parse_ins_rule(text: str) -> InsRule:
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(f"insertion rule needs '(<left>|<ins>|<right>)', got {text!r}")
    parts = text[1:-1].split("|")
    if len(parts) != 3:
        raise ParseError(f"insertion rule needs three '|'-separated words: {text!r}")
    return InsRule(*(_parse_word(p) for p in parts))


def parse_ins(text: str) -> InsSystem:
    alphabet: set[str] = set()
    axioms: set[Word] = set()
    rules: set[InsRule] = set()
    for key, rest in _directive_lines(text):
        if key == "alphabet":
            alphabet.update(rest.split())
        elif key == "axiom":
            axioms.add(_parse_word(rest))
        elif key == "rule":
            rules.add(_parse_ins_rule(rest))
        else:
            raise ParseError(f"unknown directive {key!r}")
    return InsSystem(alphabet, LangSet(axioms), rules)


def serialize_ins(sys: InsSystem) -> str:
    lines = ["alphabet: " + " ".join(sorted(sys.alphabet))]
    lines += [f"axiom: {word_str(a)}" for a in sys.axioms.sorted_words()]
    lines += [f"rule: {r}" for r in sorted(sys.rules)]
    return "\n".join(lines) + "\n"


def parse_gcis(text: str) -> GcInsSystem:
    alphabet: set[str] = set()
    components: set[str] = set()
    axioms: set[Word] = set()
    edges: set[tuple[str, InsRule, str]] = set()
    initial: str | None = None
    final: str | None = None
    for key, rest in _directive_lines(text):
        if key == "alphabet":
            alphabet.update(rest.split())
        elif key == "component":
            components.update(rest.split())
        elif key == "axiom":
            axioms.add(_parse_word(rest))
        elif key == "initial":
            if initial is not None:
                raise ParseError("duplicate initial directive")
            initial = rest
        elif key == "final":
            if final is not None:
                raise ParseError("duplicate final directive")
            final = rest
        elif key == "edge":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(f"edge needs '<from> (<l>|<i>|<r>) <to>', got {rest!r}")
            edges.add((parts[0], _parse_ins_rule(parts[1]), parts[2]))
        else:
            raise ParseError(f"unknown directive {key!r}")
    if initial is None or final is None:
        raise ParseError("missing initial or final directive")
    for what, comp in (("initial", initial), ("final", final)):
        if comp not in components:
            raise ParseError(f"{what} component {comp!r} is not declared")
    return GcInsSystem(components, edges, LangSet(axioms), alphabet, initial, final)


def serialize_gcis(g: GcInsSystem) -> str:
    lines = [
        "alphabet: " + " ".join(sorted(g.alphabet)),
        "component: " + " ".join(sorted(g.components)),
        f"initial: {g.initial}",
        f"final: {g.final}",
    ]
    lines += [f"axiom: {word_str(a)}" for a in g.axioms.sorted_words()]
    for src, rule, dst in sorted(g.edges):
        lines.append(f"edge: {src} {rule} {dst}")
    return "\n".join(lines) + "\n"


def parse_rcg(text: str) -> RcGrammar:
    alphabet: set[str] = set()
    axioms: set[Word] = set()
    rules: dict[int, InsRule] = {}
    control_states: set[str] = set()
    control_initial: str | None = None
    control_finals: set[str] = set()
    control_edges: list[tuple[str, str, str]] = []
    for key, rest in _directive_lines(text):
        if key == "alphabet":
            alphabet.update(rest.split())
        elif key == "axiom":
            axioms.add(_parse_word(rest))
        elif key == "rule":
            parts = rest.split()
            if len(parts) != 2 or not parts[0].isdigit():
                raise ParseError(f"rule needs '<index> (<l>|<i>|<r>)', got {rest!r}")
            idx = int(parts[0])
            if idx in rules:
                raise ParseError(f"duplicate rule index {idx}")
            rules[idx] = _parse_ins_rule(parts[1])
        elif key == "control-state":
            control_states.update(rest.split())
        elif key == "control-initial":
            control_initial = rest
        elif key == "control-final":
            control_finals.update(rest.split())
        elif key == "control-edge":
            parts = rest.split()
            if len(parts) != 3:
                raise ParseError(f"control-edge needs '<from> <tok> <to>', got {rest!r}")
            control_edges.append(tuple(parts))
        else:
            raise ParseError(f"unknown directive {key!r}")
    if control_initial is None:
        raise ParseError("missing control-initial directive")
    if sorted(rules) != list(range(len(rules))):
        raise ParseError("rule indices must be 0..n-1 without gaps")
    ordered = tuple(rules[i] for i in range(len(rules)))
    labels = {str(i) for i in range(len(ordered))}
    transitions = set()
    for src, label, dst in control_edges:
        if label != "eps" and label not in labels:
            raise ParseError(
                f"control-edge label {label!r} is neither eps nor a rule index < {len(ordered)}"
            )
        transitions.add((src, None if label == "eps" else label, dst))
    control = Nfa(control_states, labels, transitions, control_initial, control_finals)
    return RcGrammar(alphabet, LangSet(axioms), ordered, control)


def serialize_rcg(r: RcGrammar) -> str:
    lines = ["alphabet: " + " ".join(sorted(r.alphabet))]
    lines += [f"axiom: {word_str(a)}" for a in r.axioms.sorted_words()]
    lines += [f"rule: {i} {rule}" for i, rule in enumerate(r.rules)]
    lines.append("control-state: " + " ".join(sorted(r.control.states)))
    lines.append(f"control-initial: {r.control.initial}")
    lines.append("control-final: " + " ".join(sorted(r.control.finals)))
    for src, label, dst in sorted(
        r.control.transitions, key=lambda t: (t[0], t[1] or "", t[2])
    ):
        lines.append(f"control-edge: {src} {label if label is not None else 'eps'} {dst}")
    return "\n".join(lines) + "\n"
