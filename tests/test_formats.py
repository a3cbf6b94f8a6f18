import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumpfa.core import Gjfa, Nfa, Rule
from jumpfa.corpus import corpus_automata, corpus_get
from jumpfa.formats import (
    ParseError,
    parse_gcis,
    parse_gjfa,
    parse_ins,
    parse_rcg,
    serialize_gcis,
    serialize_gjfa,
    serialize_ins,
    serialize_rcg,
)
from jumpfa.insertion_systems import (
    GcInsSystem,
    InsRule,
    InsSystem,
    RcGrammar,
    gcis_from_gjfa,
    rcg_from_gcis,
)
from jumpfa.langops import LangSet, langset

SAMPLE = """\
# degree-2 two-state automaton
alphabet: a abar
states: q r
initial: q
final: r
rule: q abar.a q   # self loop
rule: q a.abar r
"""


def test_parse_sample():
    m = parse_gjfa(SAMPLE)
    assert m == corpus_get("thm1_m").value


def test_round_trip_corpus():
    for name, m in corpus_automata():
        text = serialize_gjfa(m)
        assert parse_gjfa(text) == m, name
        assert serialize_gjfa(parse_gjfa(text)) == text, name


def test_serialization_is_canonical():
    shuffled = "\n".join(reversed(SAMPLE.splitlines())) + "\n"
    assert serialize_gjfa(parse_gjfa(shuffled)) == serialize_gjfa(parse_gjfa(SAMPLE))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_gjfa("states: q\n")  # no initial
    with pytest.raises(ParseError):
        parse_gjfa("initial: q\nbogus: x\n")
    with pytest.raises(ParseError):
        parse_gjfa("initial: q\nrule: q a\n")
    with pytest.raises(ParseError):
        parse_gjfa("just a line without colon\n")


def test_parse_ins_rejects_word_outside_alphabet():
    with pytest.raises(ParseError, match=re.escape("axiom a.b uses symbol 'b' outside the alphabet")):
        parse_ins("alphabet: a\naxiom: a.b\n")
    with pytest.raises(ParseError, match=re.escape("rule (a|eps|c) uses symbol 'c' outside the alphabet")):
        parse_ins("alphabet: a b\naxiom: a\nrule: (a|eps|c)\n")


def test_gcis_round_trip():
    for name, m in corpus_automata():
        g = gcis_from_gjfa(m)
        text = serialize_gcis(g)
        assert parse_gcis(text) == g, name
        assert serialize_gcis(parse_gcis(text)) == text, name


def test_ins_round_trip():
    sys = InsSystem(
        {"a", "abar"},
        langset("eps", "a.abar"),
        {InsRule((), ("a", "abar"), ()), InsRule(("a",), (), ("abar",))},
    )
    text = serialize_ins(sys)
    assert parse_ins(text) == sys
    assert serialize_ins(parse_ins(text)) == text


def test_rcg_round_trip():
    for name, m in corpus_automata():
        r = rcg_from_gcis(gcis_from_gjfa(m))
        text = serialize_rcg(r)
        assert parse_rcg(text) == r, name
        assert serialize_rcg(parse_rcg(text)) == text, name


def test_rcg_rejects_index_gaps():
    with pytest.raises(ParseError):
        parse_rcg("rule: 1 (eps|a|eps)\ncontrol-initial: c\ncontrol-state: c\n")


state_names = st.sampled_from(["q0", "q1", "q2"])
labels = st.lists(st.sampled_from(["a", "b"]), max_size=2).map(tuple)


@given(
    st.sets(state_names, min_size=1, max_size=3),
    st.sets(st.tuples(state_names, labels, state_names), max_size=5),
)
def test_round_trip_random_automata(states, triples):
    states = set(states) | {s for s, _, _ in triples} | {d for _, _, d in triples}
    rules = {Rule(s, l, d) for s, l, d in triples}
    initial = sorted(states)[0]
    m = Gjfa(states, {"a", "b"}, rules, initial, set(list(states)[:1]))
    text = serialize_gjfa(m)
    assert parse_gjfa(text) == m
    assert serialize_gjfa(parse_gjfa(text)) == text


symbols = st.sets(st.sampled_from(["a", "b", "c"]))
ins_rules = st.builds(InsRule, labels, labels, labels)
axiom_sets = st.sets(labels, max_size=3).map(LangSet)


def _covering(alphabet, axioms, rules):
    """The alphabet plus every symbol of the axioms and rules, as the parsers require."""
    return set(alphabet).union(*axioms.words, *(r.left + r.ins + r.right for r in rules))


@given(symbols, axiom_sets, st.sets(ins_rules, max_size=4))
def test_round_trip_random_ins(alphabet, axioms, rules):
    sys = InsSystem(_covering(alphabet, axioms, rules), axioms, rules)
    text = serialize_ins(sys)
    assert parse_ins(text) == sys
    assert serialize_ins(parse_ins(text)) == text


@st.composite
def gcis_systems(draw):
    components = sorted(draw(st.sets(state_names, min_size=1)))
    nodes = st.sampled_from(components)
    edges = draw(st.sets(st.tuples(nodes, ins_rules, nodes), max_size=5))
    axioms = draw(axiom_sets)
    alphabet = _covering(draw(symbols), axioms, [rule for _, rule, _ in edges])
    return GcInsSystem(components, edges, axioms, alphabet, draw(nodes), draw(nodes))


@given(gcis_systems())
def test_round_trip_random_gcis(g):
    text = serialize_gcis(g)
    assert parse_gcis(text) == g
    assert serialize_gcis(parse_gcis(text)) == text


@st.composite
def rcg_grammars(draw):
    rules = tuple(draw(st.lists(ins_rules, max_size=3)))
    states = sorted(draw(st.sets(state_names, min_size=1)))
    nodes = st.sampled_from(states)
    indices = [str(i) for i in range(len(rules))]
    tokens = st.sampled_from([None, *indices])
    transitions = draw(st.sets(st.tuples(nodes, tokens, nodes), max_size=5))
    finals = draw(st.sets(nodes))
    control = Nfa(states, indices, transitions, draw(nodes), finals)
    axioms = draw(axiom_sets)
    return RcGrammar(_covering(draw(symbols), axioms, rules), axioms, rules, control)


@given(rcg_grammars())
def test_round_trip_random_rcg(r):
    text = serialize_rcg(r)
    assert parse_rcg(text) == r
    assert serialize_rcg(parse_rcg(text)) == text


# A minimal valid file per format, and its exactly-once directives.
VALID = {
    "gjfa": (parse_gjfa, "alphabet: a\nstates: q\ninitial: q\nfinal: q\n", ("initial",)),
    "ins": (parse_ins, "alphabet: a\naxiom: eps\n", ()),
    "gcis": (
        parse_gcis,
        "alphabet: a\ncomponent: c\ninitial: c\nfinal: c\naxiom: eps\n",
        ("initial", "final"),
    ),
    "rcg": (
        parse_rcg,
        "alphabet: a\naxiom: eps\ncontrol-state: s\ncontrol-initial: s\ncontrol-final: s\n",
        ("control-initial",),
    ),
}


def reader_cases():
    for fmt, (parse, text, once) in VALID.items():
        yield pytest.param(
            parse, text + "bogus: x\n", "unknown directive 'bogus'", id=f"{fmt}-unknown"
        )
        for key in once:
            line = next(l for l in text.splitlines(keepends=True) if l.startswith(f"{key}:"))
            yield pytest.param(
                parse, text + line, f"duplicate {key} directive", id=f"{fmt}-duplicate-{key}"
            )
            yield pytest.param(
                parse, text.replace(line, ""), f"missing {key} directive", id=f"{fmt}-missing-{key}"
            )


@pytest.mark.parametrize("parse, text, message", reader_cases())
def test_directive_rules_are_shared(parse, text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text)
