"""Line-oriented text formats for automata and insertion systems.

All formats share the conventions: UTF-8, ``#`` starts a comment, words are
``.``-joined symbol tokens with ``eps`` for the empty word. Serialization is
canonical (sorted directives), so parse -> serialize is a stable round trip.
"""

from __future__ import annotations

from jumpfa.core import Gjfa, Nfa, Rule, Word, check_symbol, shortlex_key, word, word_str
from jumpfa.langops import LangSet
from jumpfa.insertion_systems import GcInsSystem, InsRule, InsSystem, RcGrammar


class ParseError(ValueError):
    pass


def _directives(text: str, once: tuple[str, ...], many: tuple[str, ...]) -> dict:
    """Read the ``<directive>: <value>`` lines of a file.

    ``#`` comments and blank lines are skipped. Each ``once`` directive must
    appear exactly once and maps to its value; each ``many`` directive maps
    to the list of its values in file order.
    """
    values = {key: [] for key in once + many}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected '<directive>: ...', got {raw!r}")
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in values:
            raise ParseError(f"unknown directive {key!r}")
        if key in once and values[key]:
            raise ParseError(f"duplicate {key} directive")
        values[key].append(rest.strip())
    for key in once:
        if not values[key]:
            raise ParseError(f"missing {key} directive")
        values[key] = values[key][0]
    return values


def _fields(rest: str, n: int, usage: str) -> list[str]:
    """Split a directive value into exactly n whitespace-separated fields."""
    parts = rest.split()
    if len(parts) != n:
        raise ParseError(f"{usage}, got {rest!r}")
    return parts


def _tokens(values: list[str]) -> set[str]:
    """The union of the whitespace-separated tokens of every value; rejects an invalid token."""
    try:
        return {check_symbol(tok) for value in values for tok in value.split()}
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _check_declared(declared: set[str], noun: str, uses: dict) -> None:
    """Reject, for each use mapped to its names, the first name that is not declared."""
    for what, names in uses.items():
        undeclared = sorted(set(names) - declared)
        if undeclared:
            raise ParseError(f"{what} {noun} {undeclared[0]!r} is not declared")


def _alphabet(values: list[str], axioms: LangSet, rules: tuple[InsRule, ...]) -> set[str]:
    """The alphabet's tokens; rejects the first axiom or rule with a symbol outside it."""
    alphabet = _tokens(values)
    uses = [(f"axiom {word_str(a)}", a) for a in axioms.sorted_words()]
    uses += [(f"rule {r}", r.left + r.ins + r.right) for r in sorted(rules)]
    for what, w in uses:
        outside = sorted(set(w) - alphabet)
        if outside:
            raise ParseError(f"{what} uses symbol {outside[0]!r} outside the alphabet")
    return alphabet


def _parse_word(text: str) -> Word:
    try:
        return word(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _rule_sort_key(r: Rule):
    return (r.src, shortlex_key(r.label), r.dst)


def parse_gjfa(text: str) -> Gjfa:
    d = _directives(text, ("initial",), ("alphabet", "states", "final", "rule"))
    rules = set()
    for rest in d["rule"]:
        src, label, dst = _fields(rest, 3, "rule needs '<from> <label> <to>'")
        rules.add(Rule(src, _parse_word(label), dst))
    states, alphabet, finals = _tokens(d["states"]), _tokens(d["alphabet"]), _tokens(d["final"])
    return Gjfa(states, alphabet, rules, d["initial"], finals)


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
    d = _directives(text, (), ("alphabet", "axiom", "rule"))
    axioms, rules = LangSet(map(_parse_word, d["axiom"])), tuple(map(_parse_ins_rule, d["rule"]))
    return InsSystem(_alphabet(d["alphabet"], axioms, rules), axioms, rules)


def serialize_ins(sys: InsSystem) -> str:
    lines = ["alphabet: " + " ".join(sorted(sys.alphabet))]
    lines += [f"axiom: {word_str(a)}" for a in sys.axioms.sorted_words()]
    lines += [f"rule: {r}" for r in sorted(sys.rules)]
    return "\n".join(lines) + "\n"


def parse_gcis(text: str) -> GcInsSystem:
    d = _directives(text, ("initial", "final"), ("alphabet", "component", "axiom", "edge"))
    axioms = LangSet(map(_parse_word, d["axiom"]))
    edges = set()
    for rest in d["edge"]:
        src, rule, dst = _fields(rest, 3, "edge needs '<from> (<l>|<i>|<r>) <to>'")
        edges.add((src, _parse_ins_rule(rule), dst))
    components = _tokens(d["component"])
    uses = {
        "initial": [d["initial"]],
        "final": [d["final"]],
        "edge": [c for src, _, dst in edges for c in (src, dst)],
    }
    _check_declared(components, "component", uses)
    alphabet = _alphabet(d["alphabet"], axioms, tuple(rule for _, rule, _ in edges))
    return GcInsSystem(components, edges, axioms, alphabet, d["initial"], d["final"])


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
    d = _directives(
        text,
        ("control-initial",),
        ("alphabet", "axiom", "rule", "control-state", "control-final", "control-edge"),
    )
    axioms = LangSet(map(_parse_word, d["axiom"]))
    rules: dict[int, InsRule] = {}
    usage = "rule needs '<index> (<l>|<i>|<r>)'"
    for rest in d["rule"]:
        idx, rule = _fields(rest, 2, usage)
        if not (idx.isascii() and idx.isdigit()):
            raise ParseError(f"{usage}, got {rest!r}")
        if int(idx) in rules:
            raise ParseError(f"duplicate rule index {int(idx)}")
        rules[int(idx)] = _parse_ins_rule(rule)
    if sorted(rules) != list(range(len(rules))):
        raise ParseError("rule indices must be 0..n-1 without gaps")
    ordered = tuple(rules[i] for i in range(len(rules)))
    labels = {str(i) for i in range(len(ordered))}
    transitions = set()
    for rest in d["control-edge"]:
        src, label, dst = _fields(rest, 3, "control-edge needs '<from> <tok> <to>'")
        if label != "eps" and label not in labels:
            raise ParseError(
                f"control-edge label {label!r} is neither eps nor a rule index < {len(ordered)}"
            )
        transitions.add((src, None if label == "eps" else label, dst))
    states, finals = _tokens(d["control-state"]), _tokens(d["control-final"])
    uses = {
        "control-initial": [d["control-initial"]],
        "control-final": finals,
        "control-edge": [q for src, _, dst in transitions for q in (src, dst)],
    }
    _check_declared(states, "state", uses)
    alphabet = _alphabet(d["alphabet"], axioms, ordered)
    control = Nfa(states, labels, transitions, d["control-initial"], finals)
    return RcGrammar(alphabet, axioms, ordered, control)


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
