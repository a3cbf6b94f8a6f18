import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from jumpfa import core, semantics
from jumpfa.core import Gjfa, Rule, degree, search, word
from jumpfa.corpus import corpus_automata, corpus_get, sigma_star_gjfa
from jumpfa.insertion_systems import gcis_enumerate, gcis_from_gjfa, rcg_enumerate, rcg_from_gcis
from jumpfa.langops import langset
from jumpfa.semantics import (
    _deletions,
    acceptance_witness,
    enumerate_language,
    generate_accepts,
    jump_accepts,
)

THM1 = corpus_get("thm1_m").value
EQUAL_COUNTS = corpus_get("equal_counts_jfa").value


def _decode(m, u):
    """The tuple word of the word u coded by m.coded."""
    return tuple(m.coded.symbols[ord(c)] for c in u)


def _one_step(m, state, w):
    """The (state, word) pairs one deletion step from (state, w), decoded."""
    return {(q, _decode(m, u)) for q, u in _deletions(m)((state, m.coded.encode(w)))}


def test_delete_successors_two_occurrences():
    # abar.a deletes at position 0; a.abar deletes at position 2 (and switches state)
    got = _one_step(THM1, "q", word("abar.a.a.abar"))
    assert got == {
        ("q", word("a.abar")),
        ("r", word("abar.a")),
    }


def test_delete_successors_single_occurrence():
    got = _one_step(EQUAL_COUNTS, "q0", word("a.b.c"))
    assert got == {("q1", word("b.c"))}


def test_delete_successors_no_applicable_rule():
    got = _one_step(EQUAL_COUNTS, "q0", word("b.b"))
    assert got == set()


def test_delete_successors_eps_rule_keeps_word():
    m = Gjfa({"q", "r"}, {"a"}, {Rule("q", (), "r")}, "q", {"r"})
    got = _one_step(m, "q", ("a",))
    assert got == {("r", ("a",))}


def test_deletions_overlapping_occurrences():
    m = Gjfa({"q", "r"}, {"a", "b"}, {Rule("q", word("a.b.a"), "r")}, "q", {"r"})
    assert _one_step(m, "q", word("a.b.a.b.a")) == {("r", word("b.a")), ("r", word("a.b"))}


def test_degree_two_needs_more_than_leftmost_deletions():
    # the only accepting run deletes the last b first; deleting the leftmost b leaves a.b
    b_rule, ba_rule = Rule("q0", ("b",), "q1"), Rule("q1", word("b.a"), "q0")
    m = Gjfa({"q0", "q1"}, {"a", "b"}, {b_rule, ba_rule}, "q0", {"q0"})
    witness = acceptance_witness(m, word("b.a.b"))
    assert witness is not None and witness.steps == ((b_rule, 2), (ba_rule, 0))


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


def test_witness_steps_follow_an_accepting_path():
    for _, m in corpus_automata():
        for n in range(7):
            for w in itertools.product(sorted(m.alphabet), repeat=n):
                witness = acceptance_witness(m, w)
                if witness is not None:
                    assert witness.replay() == w
                    states = [m.initial] + [rule.dst for rule, _ in witness.steps]
                    assert [rule.src for rule, _ in witness.steps] == states[:-1], (m, w)
                    assert states[-1] in m.finals


def test_witnesses_do_not_depend_on_the_hash_seed():
    # rules are a frozenset; the searches try them in sorted order, so the
    # first deletion found, and hence each witness step, is the same in every
    # run; on a JFA that is the vector search's path, and the five rules of the
    # one-state Sigma* automaton give it many to choose from
    probe = (
        "import itertools\n"
        "from jumpfa.corpus import corpus_automata, sigma_star_gjfa\n"
        "from jumpfa.semantics import acceptance_witness\n"
        "for name, m in corpus_automata():\n"
        "    for n in range(7):\n"
        "        for w in itertools.product(sorted(m.alphabet), repeat=n):\n"
        "            print(name, acceptance_witness(m, w))\n"
        "symbols = [f's{i}' for i in range(5)]\n"
        "print(acceptance_witness(sigma_star_gjfa(symbols), tuple(symbols) * 2))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in "01"
    }
    # 340 corpus witnesses and the Sigma* one
    assert len(outputs) == 1 and outputs.pop().count("steps=") == 340 + 1


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


def _assert_replays(m, witness):
    """The witness regenerates its word along a path of m from initial to final."""
    assert witness.replay() == witness.word
    state = m.initial
    for rule, _pos in witness.steps:
        assert rule in m.rules and rule.src == state
        state = rule.dst
    assert state in m.finals


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
                _assert_replays(m, witness)
        assert enumerate_language(m, 5) == accepted
        g = gcis_from_gjfa(m)
        assert gcis_enumerate(g, 5) == accepted
        assert rcg_enumerate(rcg_from_gcis(g), 5) == accepted


def _random_jfa(rng):
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    labels = [(), ("a",), ("b",)]
    rules = {
        Rule(rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(2, 6))
    }
    finals = rng.sample(states, rng.randint(1, len(states)))
    return Gjfa(states, "ab", rules, states[0], finals)


def _plain_jump(m, w):
    """Deletion search over every occurrence of every label, on the coded word."""
    goals = {(f, "") for f in m.finals}
    _, found = search([(m.initial, m.coded.encode(w))], _deletions(m), goals.__contains__)
    return found is not None


def test_parikh_path_differential_random_jfa():
    # on a JFA, jump_accepts and generate_accepts answer from each side's
    # Parikh vector search alone, and acceptance_witness reads its steps off
    # the deletion side's, deleting each label at its leftmost occurrence; the
    # plain deletion search and the enumeration must agree with all three
    rng = random.Random(2012)
    machines = [_random_jfa(rng) for _ in range(30)]
    assert all(m.coded.jfa for m in machines)
    assert any(not r.label for m in machines for r in m.rules)
    verdicts = set()
    for m in machines:
        language = enumerate_language(m, 6)
        for n in range(7):
            for w in itertools.product("ab", repeat=n):
                witness = acceptance_witness(m, w)
                verdict = witness is not None
                assert verdict == jump_accepts(m, w) == _plain_jump(m, w) == generate_accepts(m, w), (m, w)
                assert verdict == (w in language), (m, w)
                verdicts.add(verdict)
                if witness is not None:
                    _assert_replays(m, witness)
    assert verdicts == {True, False}


def test_pruned_generation_matches_enumeration():
    rng = random.Random(2015)
    for m in [_random_gjfa(rng) for _ in range(20)]:
        language = enumerate_language(m, 6)
        for n in range(7):
            for w in itertools.product("ab", repeat=n):
                assert generate_accepts(m, w) == (w in language), (m, w)


def _is_subsequence(u, t):
    rest = iter(t)
    return all(sym in rest for sym in u)


def _searches(maps):
    """The recorded searches in two lists: the node counts of the vector searches, whose nodes
    carry ``int`` Parikh vectors, and the maps of the word searches, whose nodes carry coded words."""
    vectors = [len(parents) for parents in maps if all(isinstance(x, int) for _, x in parents)]
    words = [parents for parents in maps if all(isinstance(u, str) for _, u in parents)]
    assert len(vectors) + len(words) == len(maps)
    return vectors, words


def _fresh(name):
    """A copy of the corpus automaton with no cached forms, so no memo is warm from an earlier query."""
    return Gjfa(*corpus_get(name).value)


def test_fast_paths_bound_the_search(search_counter):
    names = ["dyck_gjfa", "semidyck2_gjfa", "thm1_m", "equal_counts_jfa"]
    dyck, semidyck2, thm1, equal_counts = map(_fresh, names)
    # the vector search walks back from (r, vector): r and q, then _g0 at each
    # count of the Dyck pairs; thm1's two words share the vector (2, 2), so the
    # second is answered by the generation side's memo
    cases = [
        (dyck, ("a",) * 10 + ("abar",) * 10, True, [13]),
        (thm1, word("abar.a.a.abar"), True, [3]),
        (thm1, word("abar.a.abar.a"), False, []),
    ]
    for m, target, verdict, nodes in cases:
        search_counter.clear()
        assert generate_accepts(m, target) == verdict
        vectors, (parents,) = _searches(search_counter)
        assert vectors == nodes
        assert all(_is_subsequence(_decode(m, u), target) for _, u in parents)
    # two a2 and one a2bar, and two a, two b and one c: no accepting path has
    # these Parikh vectors, so no word search runs; the deletion side rejects
    # the odd length 5 before the vector
    infeasible = [(semidyck2, word("a1.a2.a2bar.a1bar.a2"), [6]), (equal_counts, word("c.b.a.a.b"), [4])]
    for m, target, nodes in infeasible:
        search_counter.clear()
        assert not generate_accepts(m, target)
        assert not jump_accepts(m, target)
        assert _searches(search_counter) == (nodes, [])
    search_counter.clear()
    # length 19 is not a multiple of 3, so no accepting path has it
    assert not jump_accepts(equal_counts, ("a", "b", "c") * 6 + ("a",))
    assert search_counter == []
    # Parikh vector (8, 7, 6): the length 21 passes, the vector does not; the
    # search subtracts a, b, c in turn from q0 and stops at 21 nodes
    assert not jump_accepts(equal_counts, ("a", "b", "c") * 6 + ("a", "a", "b"))
    assert _searches(search_counter) == ([21], [])
    search_counter.clear()
    # the vector (10, 10) is feasible: the vector search reaches each of the
    # three states at each count k <= 10; in the word search each remainder is
    # a^k abar^k in state _g0, and the length sets let the eps-rules to q and r
    # in only at k = 0
    assert jump_accepts(dyck, ("a",) * 10 + ("abar",) * 10)
    vectors, (parents,) = _searches(search_counter)
    assert vectors == [33]
    assert len(parents) <= 11 + 2


def _lengths(m, q, n):
    """The lengths up to n in q's set of ``Gjfa.final_lengths(n)``."""
    return {k for k in m.final_lengths(n).get(q, ()) if k <= n}


def test_length_masks_match_enumeration():
    # each state's set holds the lengths of the words accepted from it
    rng = random.Random(2015)
    machines = [(m, 8) for _, m in corpus_automata()] + [(_random_gjfa(rng), 6) for _ in range(20)]
    assert any(not r.label for m, _ in machines for r in m.rules)
    for m, n in machines:
        for q in sorted(m.states):
            from_q = Gjfa(m.states, m.alphabet, m.rules, q, m.finals)
            lengths = {len(w) for w in enumerate_language(from_q, n)}
            # growing bounds exercise the rebuild at twice the bound
            for k in range(n + 1):
                got = _lengths(m, q, k)
                assert got == {x for x in lengths if x <= k}, (m, q, k)


def test_length_pruned_jump_matches_plain_search():
    rng = random.Random(2015)
    machines = [_random_gjfa(rng) for _ in range(20)]
    assert any(_lengths(m, m.initial, 6) != set(range(7)) for m in machines)
    for m in machines:
        for n in range(7):
            for w in itertools.product("ab", repeat=n):
                witness = acceptance_witness(m, w)
                assert (witness is not None) == jump_accepts(m, w) == _plain_jump(m, w), (m, w)
                if witness is not None:
                    _assert_replays(m, witness)
            # one symbol outside the code, at every position: rejected whether
            # or not the initial state has the length
            for rest in itertools.product("ab", repeat=max(n - 1, 0)):
                for i in range(n):
                    w = rest[:i] + ("x",) + rest[i:]
                    assert not jump_accepts(m, w), (m, w)
                    assert acceptance_witness(m, w) is None, (m, w)


def test_parikh_generation_and_length_check_node_counts(search_counter):
    # a JFA is decided by its Parikh vector, with no walk: the vector search
    # reaches each of the (4 + 1) ** 2 sub-vectors of (4, 4) in its one state
    assert generate_accepts(_fresh("sigma_star_ab"), word("a.b") * 4)
    assert _searches(search_counter) == ([25], [])
    search_counter.clear()
    # a GJFA word with a feasible vector is walked: one node (_g0, a^k abar^k)
    # per k <= 4, and r and q with the empty word; its vector search reaches
    # r, q and _g0 with (4, 4), then _g0 with each smaller count
    assert generate_accepts(_fresh("dyck_gjfa"), ("a",) * 4 + ("abar",) * 4)
    vectors, (parents,) = _searches(search_counter)
    assert vectors == [7]
    assert len(parents) <= 5 + 2
    search_counter.clear()
    # the odd length 3 is rejected before the vector
    assert not jump_accepts(corpus_get("semidyck2_gjfa").value, word("a1.a1bar.a2"))
    assert search_counter == []


def _vector(m, w):
    return m.coded.vector(tuple(w))


def test_parikh_vectors_match_enumeration():
    # for every vector of total <= 6, each side's memoized verdict says whether
    # the re-rooted automaton has a word with that vector: the deletion side
    # rooted at each state q, the generation side with q the one final state
    rng = random.Random(2018)
    machines = [m for _, m in corpus_automata()] + [_random_gjfa(rng) for _ in range(20)]
    assert any(not r.label for m in machines for r in m.rules)
    n = 6
    for m in machines:
        words = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(m.coded.symbols, k) for k in range(n + 1)
        )
        vectors = [_vector(m, c) for c in words]
        rng.shuffle(vectors)
        for q in sorted(m.states):
            sides = [
                (Gjfa(m.states, m.alphabet, m.rules, q, m.finals), Gjfa.final_feasible),
                (Gjfa(m.states, m.alphabet, m.rules, m.initial, {q}), Gjfa.initial_feasible),
            ]
            for rooted, feasible in sides:
                expected = {_vector(m, w) for w in enumerate_language(rooted, n)}
                # the second pass reads the memo
                for _ in range(2):
                    assert {x for x in vectors if feasible(rooted, x)} == expected, (m, q, feasible)


def test_each_side_reads_only_its_own_vector_sets(monkeypatch):
    # the twin of test_generation_does_not_use_length_masks: the deletion side
    # never asks the generation side's vector test, nor the generation side
    # the deletion side's
    for patched, accepts in [("initial_feasible", jump_accepts), ("final_feasible", generate_accepts)]:
        monkeypatch.setattr(Gjfa, patched, None)
        for name, m in corpus_automata():
            language = enumerate_language(m, 4)
            for n in range(5):
                for w in itertools.product(sorted(m.alphabet), repeat=n):
                    assert accepts(m, w) == (w in language), (name, w)
                    if accepts is jump_accepts:
                        assert (acceptance_witness(m, w) is not None) == (w in language), (name, w)
        monkeypatch.undo()


def test_parikh_search_is_sized_to_the_query(search_counter):
    # each query reaches only the sub-vectors of its own vector, whatever was
    # asked before it: prod(c_i + 1) * |Q| = 21 nodes for s_i^20
    symbols = [f"s{i}" for i in range(5)]
    m = sigma_star_gjfa(symbols)
    for sym in symbols:
        search_counter.clear()
        assert jump_accepts(m, (sym,) * 20)
        assert _searches(search_counter) == ([21], [])
    # a vector asked again, with its symbols in any order, runs no search
    search_counter.clear()
    assert jump_accepts(m, ("s0",) * 20)
    assert jump_accepts(m, ("s3", "s1")) and jump_accepts(m, ("s1", "s3"))
    assert _searches(search_counter) == ([4], [])
    # each side keeps its own memo and walks its own way: the deletion side
    # forward from (p, vector) to (r, 0), the generation side back from
    # (r, vector) to (p, 0)
    g = Gjfa({"p", "r"}, {"a"}, {Rule("p", ("a",), "r"), Rule("r", ("a",), "r")}, "p", {"r"})
    w = ("a",) * 3
    search_counter.clear()
    assert jump_accepts(g, w) and generate_accepts(g, w)
    forward, backward = search_counter
    assert list(forward) == [("p", _vector(g, w))] + [("r", _vector(g, w[k:])) for k in (1, 2, 3)]
    assert next(iter(backward)) == ("r", _vector(g, w)) and len(backward) == 7
    search_counter.clear()
    assert jump_accepts(g, w) and generate_accepts(g, w)
    assert search_counter == []
    # a JFA witness runs the one vector search that decides it, over the
    # 3 ** 8 sub-vectors of (2, ..., 2), and no word search; each step deletes
    # its symbol at the leftmost occurrence
    symbols = [f"s{i}" for i in range(8)]
    m = sigma_star_gjfa(symbols)
    search_counter.clear()
    witness = acceptance_witness(m, tuple(symbols) * 2)
    assert _searches(search_counter) == ([3**8], [])
    _assert_replays(m, witness)
    rest = witness.word
    for rule, pos in witness.steps:
        assert pos == rest.index(rule.label[0])
        rest = rest[:pos] + rest[pos + 1 :]
    assert rest == ()


def test_infeasible_vector_is_rejected_without_search(search_counter):
    # every accepting path of this automaton deletes an even number of a's;
    # the generation walk on (ab)^15 used to reach 964,001 nodes
    m = Gjfa(
        {"p", "q"},
        {"a", "b"},
        {Rule("p", word("a.b"), "q"), Rule("q", word("b.a"), "p"), Rule("q", word("b.b"), "q")},
        "p",
        {"p"},
    )
    w = word("a.b") * 15
    assert not generate_accepts(m, w)
    assert not jump_accepts(m, w)
    assert acceptance_witness(m, w) is None
    # one vector search per side, and the witness reads the deletion side's memo
    assert _searches(search_counter) == ([65, 65], [])
    search_counter.clear()
    # a feasible vector still needs a word search on a GJFA
    assert generate_accepts(m, word("a.b.b.a")) and jump_accepts(m, word("b.a.a.b"))
    vectors, words = _searches(search_counter)
    assert vectors == [3, 3] and len(words) == 2


def test_generation_does_not_use_length_masks(monkeypatch):
    monkeypatch.setattr(Gjfa, "final_lengths", None)
    for name, m in corpus_automata():
        language = enumerate_language(m, 4)
        for n in range(5):
            for w in itertools.product(sorted(m.alphabet), repeat=n):
                assert generate_accepts(m, w) == (w in language), (name, w)


def test_word_outside_the_code_is_rejected_without_search(monkeypatch):
    monkeypatch.setattr(semantics, "search", None)
    # on a JFA no search would catch the symbol: the vector test must
    sigma_star = corpus_get("sigma_star_ab").value
    assert not jump_accepts(sigma_star, word("a.x")) and not generate_accepts(sigma_star, word("x.b"))
    assert acceptance_witness(THM1, word("a.x")) is None
    assert not jump_accepts(THM1, word("x"))
    assert not generate_accepts(THM1, word("abar.x.a"))


def test_wrong_length_is_rejected_before_coding(monkeypatch):
    # a word is coded only when a search runs: the length and Parikh vector
    # tests read the tuple word
    sigma_star = corpus_get("sigma_star_ab").value
    semidyck2 = corpus_get("semidyck2_gjfa").value
    jfas = [EQUAL_COUNTS, sigma_star]
    assert all(m.coded for m in jfas + [semidyck2])  # built once per automaton, before the patches below
    languages = [enumerate_language(m, 6) for m in jfas]

    def fail(*args):
        raise AssertionError("called before a search runs")

    monkeypatch.setattr(core.Coded, "encode", fail)
    monkeypatch.setattr(semantics, "search", fail)
    # length 19 is not a multiple of 3, so no accepting path has it
    long_word = ("a", "b", "c") * 6 + ("a",)
    assert not jump_accepts(EQUAL_COUNTS, long_word)
    assert not jump_accepts(EQUAL_COUNTS, iter(long_word))
    assert acceptance_witness(EQUAL_COUNTS, long_word) is None
    # length 2 and a symbol outside the alphabet
    assert not jump_accepts(EQUAL_COUNTS, ("a", "x"))
    # an admissible length and a symbol outside the code
    assert not jump_accepts(EQUAL_COUNTS, ("a", "b", "x"))
    assert not generate_accepts(EQUAL_COUNTS, ("a", "b", "x"))
    # on a JFA both sides answer every word from its length and vector alone
    for m, language in zip(jfas, languages):
        for n in range(7):
            for w in itertools.product(sorted(m.alphabet), repeat=n):
                assert jump_accepts(m, w) == generate_accepts(m, w) == (w in language), (m, w)
    # a GJFA word of an admissible length whose Parikh vector no path has
    w = word("a1.a1.a1bar.a2bar")
    assert len(w) in semidyck2.final_lengths(len(w))[semidyck2.initial]
    assert not jump_accepts(semidyck2, w)
    assert acceptance_witness(semidyck2, w) is None
    assert not generate_accepts(semidyck2, w)


def test_boolean_membership_builds_no_witness(monkeypatch):
    accepted = [(m, w) for _, m in corpus_automata() for w in enumerate_language(m, 6)]
    witnesses = [acceptance_witness(m, w) for m, w in accepted]

    def fail(*args):
        raise AssertionError("a boolean query built a witness")

    monkeypatch.setattr(semantics, "AcceptanceWitness", fail)
    assert all(jump_accepts(m, w) for m, w in accepted)
    monkeypatch.undo()
    for (m, w), witness in zip(accepted, witnesses):
        assert witness.word == w
        _assert_replays(m, witness)
