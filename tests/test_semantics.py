import itertools
import random

from jumpfa.core import Gjfa, Rule, degree, word
from jumpfa.corpus import corpus_get
from jumpfa.insertion_systems import gcis_enumerate, gcis_from_gjfa, rcg_enumerate, rcg_from_gcis
from jumpfa.langops import langset
from jumpfa.semantics import (
    Configuration,
    acceptance_witness,
    delete_successors,
    enumerate_language,
    generate_accepts,
    jump_accepts,
)

THM1 = corpus_get("thm1_m").value
EQUAL_COUNTS = corpus_get("equal_counts_jfa").value


def test_delete_successors_two_occurrences():
    # abar.a deletes at position 0; a.abar deletes at position 2 (and switches state)
    got = delete_successors(THM1, Configuration("q", word("abar.a.a.abar")))
    assert got == {
        Configuration("q", word("a.abar")),
        Configuration("r", word("abar.a")),
    }


def test_delete_successors_single_occurrence():
    got = delete_successors(EQUAL_COUNTS, Configuration("q0", word("a.b.c")))
    assert got == {Configuration("q1", word("b.c"))}


def test_delete_successors_no_applicable_rule():
    got = delete_successors(EQUAL_COUNTS, Configuration("q0", word("b.b")))
    assert got == set()


def test_delete_successors_eps_rule_keeps_word():
    m = Gjfa({"q", "r"}, {"a"}, {Rule("q", (), "r")}, "q", {"r"})
    got = delete_successors(m, Configuration("q", ("a",)))
    assert got == {Configuration("r", ("a",))}


def test_jump_accepts_equal_counts():
    assert jump_accepts(EQUAL_COUNTS, word("a.b.c"))
    assert not jump_accepts(EQUAL_COUNTS, word("a.b"))
    assert jump_accepts(EQUAL_COUNTS, word("c.b.a"))


def test_generate_accepts_thm1():
    assert generate_accepts(THM1, word("a.abar"))
    assert not generate_accepts(THM1, word("abar.a"))


def test_generate_accepts_empty_word_needs_final_start():
    accepting = Gjfa({"q"}, {"a"}, set(), "q", {"q"})
    rejecting = Gjfa({"q", "r"}, {"a"}, set(), "q", {"r"})
    assert generate_accepts(accepting, ())
    assert not generate_accepts(rejecting, ())
    assert not generate_accepts(THM1, ())


def test_enumerate_thm1():
    got = enumerate_language(THM1, 4)
    assert got == langset(
        "a.abar", "abar.a.a.abar", "a.abar.a.abar", "a.abar.abar.a"
    )


def test_enumerate_equal_counts():
    got = enumerate_language(EQUAL_COUNTS, 3)
    assert got == langset("eps", "a.b.c", "a.c.b", "b.a.c", "b.c.a", "c.a.b", "c.b.a")


def test_enumerate_rule_free():
    m = Gjfa({"q"}, {"a"}, set(), "q", {"q"})
    assert enumerate_language(m, 5) == langset("eps")


def test_enumerate_matches_jump_sweep():
    # oracle: exhaustive membership sweep through the deletion semantics
    for m, max_len in ((THM1, 6), (EQUAL_COUNTS, 4)):
        expected = set()
        for n in range(max_len + 1):
            for w in itertools.product(sorted(m.alphabet), repeat=n):
                if jump_accepts(m, w):
                    expected.add(w)
        assert enumerate_language(m, max_len) == expected


def test_dual_semantics_agree_on_sweep():
    for m, max_len in ((THM1, 6), (EQUAL_COUNTS, 4)):
        for n in range(max_len + 1):
            for w in itertools.product(sorted(m.alphabet), repeat=n):
                assert jump_accepts(m, w) == generate_accepts(m, w)


def test_enumerate_monotone_in_bound():
    for k in range(6):
        assert enumerate_language(THM1, k).words <= enumerate_language(THM1, k + 1).words


def test_witness_replay():
    rng = random.Random(7)
    pool = list(enumerate_language(EQUAL_COUNTS, 6))
    for w in rng.sample(pool, min(10, len(pool))):
        witness = acceptance_witness(EQUAL_COUNTS, w)
        assert witness is not None
        assert witness.replay() == w
        for rule, _pos in witness.steps:
            assert rule in EQUAL_COUNTS.rules


def test_witness_empty_accept():
    m = Gjfa({"q"}, {"a"}, set(), "q", {"q"})
    witness = acceptance_witness(m, ())
    assert witness is not None and witness.steps == ()
    assert acceptance_witness(THM1, word("abar.a")) is None


def test_all_eps_rules_never_loop():
    m = Gjfa(
        {"q", "r", "s"},
        {"a"},
        {Rule("q", (), "r"), Rule("r", (), "q"), Rule("r", (), "s")},
        "q",
        {"s"},
    )
    assert jump_accepts(m, ())
    assert generate_accepts(m, ())
    assert not jump_accepts(m, ("a",))
    assert enumerate_language(m, 3) == langset("eps")


def test_unreachable_final_accepts_nothing():
    m = Gjfa({"q", "r"}, {"a"}, {Rule("r", ("a",), "r")}, "q", {"r"})
    assert enumerate_language(m, 4) == set()


def _random_gjfa(rng):
    states = [f"q{i}" for i in range(rng.randint(2, 3))]
    labels = [()] + [(a,) for a in "ab"] + [(a, b) for a in "ab" for b in "ab"]
    rules = {
        Rule(rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(2, 5))
    }
    finals = rng.sample(states, rng.randint(1, len(states)))
    return Gjfa(states, "ab", rules, states[0], finals)


def test_search_kernel_differential_random_gjfa():
    # every bounded search built on the kernel must agree on random small automata
    rng = random.Random(2015)
    machines = [_random_gjfa(rng) for _ in range(20)]
    assert any(degree(m) == 2 for m in machines)
    assert any(not r.label for m in machines for r in m.rules)
    for m in machines:
        accepted = set()
        for n in range(6):
            for w in itertools.product("ab", repeat=n):
                witness = acceptance_witness(m, w)
                assert jump_accepts(m, w) == (witness is not None) == generate_accepts(m, w), (m, w)
                if witness is None:
                    continue
                accepted.add(w)
                assert witness.replay() == w
                state = m.initial
                for rule, _pos in witness.steps:
                    assert rule in m.rules and rule.src == state
                    state = rule.dst
                assert state in m.finals
        assert enumerate_language(m, 5) == accepted
        g = gcis_from_gjfa(m)
        assert gcis_enumerate(g, 5) == accepted
        assert rcg_enumerate(rcg_from_gcis(g), 5) == accepted
