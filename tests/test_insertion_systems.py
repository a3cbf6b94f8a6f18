import random

import pytest
from test_core import COLLECTIONS

from jumpfa.analysis import bounded_equiv
from jumpfa.core import Gjfa, Rule, insertion_closure, multimap, search, word
from jumpfa.corpus import corpus_automata, corpus_get
from jumpfa.insertion_systems import (
    GcInsSystem,
    InsRule,
    InsSystem,
    NonzeroContextError,
    RcGrammar,
    _control_edges,
    apply_rule,
    gcis_enumerate,
    gcis_from_gjfa,
    gcis_from_rcg,
    gjfa_from_gcis,
    ins_enumerate,
    rcg_enumerate,
    rcg_from_gcis,
)
from jumpfa.core import Nfa
from jumpfa.langops import LangSet, dyck_bounded, insert_star_bounded, langset
from jumpfa.semantics import enumerate_language

THM1 = corpus_get("thm1_m").value
EQUAL_COUNTS = corpus_get("equal_counts_jfa").value

DYCK_RULE = InsRule((), word("a.abar"), ())


def dyck_system():
    return InsSystem({"a", "abar"}, langset("eps"), {DYCK_RULE})


def systems_from(make):
    """An InsSystem, a GcInsSystem and an RcGrammar whose collection arguments are built by make."""
    control = Nfa({"c"}, {"0"}, {("c", "0", "c")}, "c", {"c"})
    return (
        InsSystem(make(["a", "abar"]), langset("eps"), make([DYCK_RULE])),
        GcInsSystem(make(["p"]), make([("p", DYCK_RULE, "p")]), langset("eps"), make(["a"]), "p", "p"),
        RcGrammar(make(["a", "abar"]), langset("eps"), make([DYCK_RULE]), control),
    )


@COLLECTIONS
def test_system_constructors_coerce_collections(make):
    ins, gcis, rcg = systems_from(make)
    assert (ins, gcis, rcg) == systems_from(frozenset)
    assert type(ins.alphabet) is type(ins.rules) is frozenset
    assert type(gcis.components) is type(gcis.edges) is type(gcis.alphabet) is frozenset
    assert type(rcg.alphabet) is frozenset and rcg.rules == (DYCK_RULE,)


@pytest.mark.parametrize("value", [DYCK_RULE, *systems_from(list)], ids=lambda v: type(v).__name__)
def test_insertion_value_hashes_as_its_field_tuple(value):
    assert hash(value) == hash(tuple(value))
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


def test_ins_rules_sort_in_field_tuple_order():
    a_c, ab, b = InsRule((), ("a",), ("c",)), InsRule((), ("a", "b"), ()), InsRule(("b",), (), ())
    assert sorted([b, ab, a_c, DYCK_RULE]) == [a_c, DYCK_RULE, ab, b]


def test_apply_rule_no_context():
    got = apply_rule(DYCK_RULE, word("a.abar"))
    assert got == {word("a.abar.a.abar"), word("a.a.abar.abar")}


def test_apply_rule_left_context():
    rule = InsRule(("a",), ("b",), ())
    assert apply_rule(rule, word("c.a")) == {word("c.a.b")}
    assert apply_rule(rule, word("c")) == set()


def test_ins_enumerate_dyck():
    assert ins_enumerate(dyck_system(), 4) == dyck_bounded(4)


def test_ins_enumerate_no_rules():
    sys = InsSystem({"a", "b"}, langset("a.b"), set())
    assert ins_enumerate(sys, 5) == langset("a.b")


def test_ins_enumerate_unmatchable_context():
    sys = InsSystem({"a"}, langset("eps"), {InsRule(("a",), ("a",), ())})
    assert ins_enumerate(sys, 3) == langset("eps")


def test_context_rule_never_fires_without_context_factor():
    rule = InsRule(("a",), ("b",), ("c",))
    for w in [(), ("a",), ("c", "a"), ("b", "c")]:
        if ("a", "c") not in [w[i : i + 2] for i in range(len(w) - 1)]:
            assert apply_rule(rule, w) == set()
    assert apply_rule(rule, ("a", "c")) == {("a", "b", "c")}


def test_gcis_from_gjfa_structure():
    g = gcis_from_gjfa(THM1)
    assert len(g.components) == len(THM1.states) + 1
    assert g.final == THM1.initial
    assert g.axioms == langset("eps")

    g2 = gcis_from_gjfa(EQUAL_COUNTS)
    assert len(g2.components) == 4
    assert len(g2.edges) == 4  # three reversed rules plus one entry edge


def test_gcis_enumerate_matches_source():
    g = gcis_from_gjfa(THM1)
    assert gcis_enumerate(g, 4) == enumerate_language(THM1, 4)


def test_gcis_zero_length_path():
    lone = GcInsSystem({"c"}, set(), langset("a.b"), {"a", "b"}, "c", "c")
    assert gcis_enumerate(lone, 5) == langset("a.b")
    split = GcInsSystem({"c", "d"}, set(), langset("a.b"), {"a", "b"}, "c", "d")
    assert gcis_enumerate(split, 5) == set()


def test_gjfa_from_gcis_single_component():
    lone = GcInsSystem({"c"}, set(), langset("a.b"), {"a", "b"}, "c", "c")
    m = gjfa_from_gcis(lone)
    assert enumerate_language(m, 4) == langset("a.b")


def test_gjfa_from_gcis_rejects_contexts():
    g = GcInsSystem(
        {"c"},
        {("c", InsRule(("a",), ("b",), ()), "c")},
        langset("eps"),
        {"a", "b"},
        "c",
        "c",
    )
    with pytest.raises(NonzeroContextError) as exc:
        gjfa_from_gcis(g)
    assert "(a|b|eps)" in str(exc.value)


def test_gjfa_gcis_round_trip_on_corpus():
    for name, m in corpus_automata():
        back = gjfa_from_gcis(gcis_from_gjfa(m))
        assert bounded_equiv(back, m, 8).equal, name


def test_gcis_forward_equivalence_on_corpus():
    for name, m in corpus_automata():
        assert gcis_enumerate(gcis_from_gjfa(m), 8) == enumerate_language(m, 8), name


def all_sequences_control(n_rules):
    transitions = {("c", str(i), "c") for i in range(n_rules)}
    return Nfa({"c"}, {str(i) for i in range(n_rules)}, transitions, "c", {"c"})


def test_rcg_enumerate_unconstrained_control():
    r = RcGrammar({"a", "abar"}, langset("eps"), (DYCK_RULE,), all_sequences_control(1))
    assert rcg_enumerate(r, 4) == dyck_bounded(4)


def test_rcg_enumerate_empty_sequence_only():
    control = Nfa({"c"}, {"0"}, set(), "c", {"c"})
    r = RcGrammar({"a", "b"}, langset("a.b"), (InsRule((), ("c",), ()),), control)
    assert rcg_enumerate(r, 5) == langset("a.b")


def test_rcg_enumerate_single_mandatory_insertion():
    control = Nfa({"c0", "c1"}, {"0"}, {("c0", "0", "c1")}, "c0", {"c1"})
    r = RcGrammar({"a", "b", "c"}, langset("a.b"), (InsRule((), ("c",), ()),), control)
    assert rcg_enumerate(r, 5) == langset("c.a.b", "a.c.b", "a.b.c")


def test_rcg_gcis_round_trip_on_dyck():
    g = gcis_from_gjfa(corpus_get("dyck_gjfa").value)
    r = rcg_from_gcis(g)
    assert rcg_enumerate(r, 6) == gcis_enumerate(g, 6)
    back = gcis_from_rcg(r)
    assert gcis_enumerate(back, 6) == gcis_enumerate(g, 6)


def test_rcg_gcis_round_trip_on_corpus():
    for name, m in corpus_automata():
        g = gcis_from_gjfa(m)
        r = rcg_from_gcis(g)
        assert rcg_enumerate(r, 8) == gcis_enumerate(g, 8), name
        assert gcis_enumerate(gcis_from_rcg(r), 8) == gcis_enumerate(g, 8), name


def test_gcis_from_rcg_single_state_control():
    r = RcGrammar({"a", "abar"}, langset("eps"), (DYCK_RULE,), all_sequences_control(1))
    g = gcis_from_rcg(r)
    assert g.initial == g.final
    assert len(g.components) == 1
    assert gcis_enumerate(g, 4) == dyck_bounded(4)


def test_gcis_from_rcg_no_rules():
    control = Nfa({"c"}, set(), set(), "c", {"c"})
    r = RcGrammar({"a"}, langset("a"), (), control)
    g = gcis_from_rcg(r)
    assert g.edges == frozenset()
    assert gcis_enumerate(g, 3) == langset("a")


def test_single_component_ins_system_is_insert_star():
    axioms = langset("eps", "b")
    rules = {InsRule((), ("a",), ()), InsRule((), ("b", "b"), ())}
    sys = InsSystem({"a", "b"}, axioms, rules)
    k = LangSet([("a",), ("b", "b")])
    assert ins_enumerate(sys, 5) == insert_star_bounded(axioms, k, 5)


def eps_two_final_control():
    # p0 -0-> p1, and p0 -eps-> p2 -1-> p3 with a 1-loop on p3; p1 and p3 final.
    transitions = {("p0", "0", "p1"), ("p0", None, "p2"), ("p2", "1", "p3"), ("p3", "1", "p3")}
    return Nfa({"p0", "p1", "p2", "p3"}, {"0", "1"}, transitions, "p0", {"p1", "p3"})


def test_rcg_enumerate_eps_move_two_finals_and_context():
    rules = (InsRule((), ("c",), ()), InsRule(("a",), ("b",), ()))
    r = RcGrammar({"a", "b", "c"}, langset("a.a"), rules, eps_two_final_control())
    assert rcg_enumerate(r, 2) == set()
    assert rcg_enumerate(r, 3) == langset("c.a.a", "a.c.a", "a.a.c", "a.b.a", "a.a.b")


def test_rcg_enumerate_eps_move_two_finals_matches_gcis():
    rules = (InsRule((), ("c",), ()), InsRule((), ("b",), ()))
    r = RcGrammar({"a", "b", "c"}, langset("a.a"), rules, eps_two_final_control())
    assert rcg_enumerate(r, 5) == gcis_enumerate(gcis_from_rcg(r), 5)


def _plain_derivations(edges, starts, max_len):
    """The (node, word) pairs reached by applying rules with apply_rule, on tuple words."""
    by_src = multimap((src, (InsRule(*rule), dst)) for src, rule, dst in edges)

    def successors(node):
        src, w = node
        for rule, dst in by_src.get(src, ()):
            for nxt in apply_rule(rule, w):
                if len(nxt) <= max_len:
                    yield dst, nxt

    parents, _ = search([(node, w) for node, w in starts if len(w) <= max_len], successors)
    return set(parents)


def _random_word(rng, most):
    return tuple(rng.choice("aab") for _ in range(rng.randint(0, most)))


def _random_rule(rng):
    # left contexts of length 2 over {a, b} occur overlapping, as a.a in a.a.a
    return InsRule(_random_word(rng, 2), _random_word(rng, 2), _random_word(rng, 1))


def _random_axioms(rng):
    return LangSet([_random_word(rng, 2) for _ in range(rng.randint(1, 3))] + [_random_word(rng, 3) or ("a",)])


def _starts(node, axioms):
    return [(node, w) for w in axioms.words]


def _random_systems(rng):
    """An InsSystem, a GcInsSystem, an RcGrammar and a GJFA, each with its edges, starts and finals."""
    sys = InsSystem("ab", _random_axioms(rng), [_random_rule(rng) for _ in range(rng.randint(1, 3))])
    yield sys, {("", rule, "") for rule in sys.rules}, _starts("", sys.axioms), {""}

    comps = [f"c{i}" for i in range(rng.randint(1, 3))]
    edges = {(rng.choice(comps), _random_rule(rng), rng.choice(comps)) for _ in range(rng.randint(1, 5))}
    g = GcInsSystem(comps, edges, _random_axioms(rng), "ab", rng.choice(comps), rng.choice(comps))
    yield g, g.edges, _starts(g.initial, g.axioms), {g.final}

    rules = tuple(_random_rule(rng) for _ in range(rng.randint(1, 3)))
    states = [f"p{i}" for i in range(rng.randint(1, 3))]
    labels = [None] + [str(i) for i in range(len(rules))]
    transitions = {(rng.choice(states), rng.choice(labels), rng.choice(states)) for _ in range(rng.randint(1, 5))}
    control = Nfa(states, labels[1:], transitions, states[0], rng.sample(states, rng.randint(1, len(states))))
    r = RcGrammar("ab", _random_axioms(rng), rules, control)
    yield r, _control_edges(r), _starts(control.initial, r.axioms), control.finals

    # the reversed rule graph as enumerate_language walks it, rules as plain
    # triples, from the empty word at each of two or more final states
    states = [f"q{i}" for i in range(rng.randint(2, 3))]
    rules = {Rule(rng.choice(states), _random_word(rng, 2), rng.choice(states)) for _ in range(rng.randint(1, 4))}
    rules.add(Rule(rng.choice(states), (), rng.choice(states)))
    m = Gjfa(states, "ab", rules, states[0], rng.sample(states, rng.randint(2, len(states))))
    edges = {(rule.dst, ((), rule.label, ()), rule.src) for rule in m.rules}
    yield m, edges, [(f, ()) for f in m.finals], {m.initial}


def test_closure_derivations_match_apply_rule_search(search_counter):
    # contexts, empty inserts, several components, eps control moves and
    # several starts all occur among the seeded systems; every axiom set has
    # a non-empty word
    enumerate_system = {
        InsSystem: ins_enumerate,
        GcInsSystem: gcis_enumerate,
        RcGrammar: rcg_enumerate,
        Gjfa: enumerate_language,
    }
    rng = random.Random(1997)
    seen = set()
    for _ in range(100):
        for system, edges, starts, finals in _random_systems(rng):
            max_len = rng.randint(3, 6)
            plain = _plain_derivations(edges, starts, max_len)
            words = insertion_closure(edges, starts, max_len, finals)
            parents = search_counter[-1]
            assert len(parents) == len(plain)
            assert set(parents) == plain, system
            language = {w for node, w in plain if node in finals}
            assert len(words) == len(language) and set(words) == language, system
            assert enumerate_system[type(system)](system, max_len) == language, system
            seen |= {"context" for _, (left, _, right), _ in edges if left or right}
            seen |= {"empty insert" for _, (_, ins, _), _ in edges if not ins}
            seen |= {"components" for src, _, dst in edges if src != dst}
            seen |= {"starts" for node, _ in starts if node != starts[0][0]}
            if isinstance(system, RcGrammar):
                seen |= {"eps move" for _, label, _ in system.control.transitions if label is None}
    assert seen == {"context", "empty insert", "components", "eps move", "starts"}
