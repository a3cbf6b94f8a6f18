import itertools
import random
from collections import Counter

import pytest
from test_semantics import _random_gjfa

from jumpfa import analysis
from jumpfa.analysis import (
    bounded_equiv,
    bounded_inclusion,
    EquivReport,
    gjfa_as_nfa,
    jfa_permutation_check,
    UcReport,
    uc_condition,
    uc_soundness_check,
)
from jumpfa.constructions import finite_gjfa, reverse_gjfa, union_gjfa
from jumpfa.core import FIELD, Gjfa, Rule, degree, is_jfa, label_sums, word
from jumpfa.corpus import ab_star, corpus_automata, corpus_get, dyck_balance, sigma_star_gjfa
from jumpfa.langops import LangSet, dyck_bounded, langset, perm_closure
from jumpfa.semantics import enumerate_language, jump_accepts

THM1 = corpus_get("thm1_m").value
DYCK = corpus_get("dyck_gjfa").value
EQUAL_COUNTS = corpus_get("equal_counts_jfa").value


def test_bounded_equiv_reflexive():
    assert bounded_equiv(THM1, THM1, 6).equal


def test_bounded_equiv_double_reversal():
    assert bounded_equiv(reverse_gjfa(reverse_gjfa(THM1)), THM1, 6).equal


def test_bounded_equiv_counterexamples():
    a = finite_gjfa(langset("a.b"), {"a", "b"})
    b = finite_gjfa(langset("b.a"), {"a", "b"})
    report = bounded_equiv(a, b, 2)
    assert not report.equal
    assert set(report.counterexamples) == {word("a.b"), word("b.a")}


def test_bounded_inclusion_dyck():
    small = finite_gjfa(langset("a.abar"), {"a", "abar"})
    assert bounded_inclusion(small, DYCK, 4).equal
    report = bounded_inclusion(DYCK, small, 4)
    assert not report.equal
    assert report.counterexamples[0] in (word("eps"), word("a.abar.a.abar"))


def test_bounded_inclusion_union_upper_bound():
    for m in (THM1, DYCK):
        assert bounded_inclusion(m, union_gjfa(m, DYCK), 5).equal


SIGMA_AB = corpus_get("sigma_star_ab").value


def _compare_by_enumeration(a, b, n, equiv):
    """The report that comparing the enumerated word sets gives: the symmetric difference or L(a) - L(b)."""
    la = enumerate_language(a, n).words
    lb = enumerate_language(b, n).words
    diff = LangSet(la ^ lb if equiv else la - lb).sorted_words()
    return EquivReport(not diff, n, tuple(diff))


def _random_jfa_pair_side(rng, symbols):
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    labels = [()] * 2 + [(sym,) for sym in symbols]
    rules = {
        Rule(rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(1, 6))
    }
    finals = rng.sample(states, rng.randint(1, len(states)))
    return Gjfa(states, symbols, rules, rng.choice(states), finals)


def _jfa_pairs():
    rng = random.Random(2201)
    alphabets = ["ab", "ab", "a", "abc", "bc"]
    pairs = []
    for _ in range(40):
        a = _random_jfa_pair_side(rng, rng.choice(alphabets))
        b = _random_jfa_pair_side(rng, rng.choice(alphabets))
        pairs.append((a, b))
    # b's labels use c and d, which neither alphabet declares
    rules = {Rule("p", ("c",), "r"), Rule("r", ("d",), "p"), Rule("r", (), "r")}
    undeclared = Gjfa({"p", "r"}, {"a"}, rules, "p", {"r"})
    pairs.append((sigma_star_gjfa({"a", "c"}), undeclared))
    units = finite_gjfa(langset("a", "b", "c"), {"a", "b", "c"})
    corpus = [SIGMA_AB, EQUAL_COUNTS, units, finite_gjfa(langset("eps", "a"), {"a"})]
    pairs += list(itertools.combinations(corpus, 2)) + [(m, m) for m in corpus]
    return pairs


def _eps_cycle(m):
    eps = {(r.src, r.dst) for r in m.rules if not r.label}
    return any(src == dst or (dst, src) in eps for src, dst in eps)


def test_jfa_comparison_matches_enumeration():
    # two JFAs are compared by Parikh vectors; the whole report must be the
    # one that comparing the enumerated word sets gives, counterexample order too
    pairs = _jfa_pairs()
    machines = [m for pair in pairs for m in pair]
    assert all(is_jfa(m) for m in machines)
    assert any(_eps_cycle(m) for m in machines)
    assert any(m.initial in m.finals for m in machines)
    assert any(not enumerate_language(m, 6).words for m in machines)  # no final state reachable
    assert any(a.alphabet != b.alphabet for a, b in pairs)
    seen = set()
    for a, b in pairs:
        for n in range(7):
            for x, y, equiv in ((a, b, True), (a, b, False), (b, a, False)):
                check = bounded_equiv if equiv else bounded_inclusion
                report = check(x, y, n)
                assert report == _compare_by_enumeration(x, y, n, equiv), (x, y, n, equiv)
                seen.add((equiv, report.equal, len(report.counterexamples) > 1))
    # both verdicts, and reports with one and with several counterexamples
    outcomes = {(True, False), (False, True), (False, False)}
    assert seen == {(equiv, equal, many) for equiv in (True, False) for equal, many in outcomes}


def test_jfa_comparison_counts_vectors_not_words(search_counter, monkeypatch):
    # sigma_star_ab has one state and C(26, 2) vectors of total <= 24: two
    # label_sums fixpoints with 325 vectors at the initial state and no search,
    # where enumeration builds 2 ** 25 - 1 words per side
    sums = []

    def recording(*args):
        sums.append(label_sums(*args))
        return sums[-1]

    monkeypatch.setattr(analysis, "label_sums", recording)
    assert bounded_equiv(SIGMA_AB, SIGMA_AB, 24) == EquivReport(True, 24, ())
    assert search_counter == []
    assert [len(per_state[SIGMA_AB.initial]) for per_state in sums] == [325, 325]
    assert all(isinstance(x, int) for per_state in sums for x in per_state[SIGMA_AB.initial])


def test_gjfa_and_mixed_pairs_enumerate(search_counter, monkeypatch):
    def refuse(*args):
        raise AssertionError("vector search on a pair with a GJFA")

    monkeypatch.setattr(analysis, "label_sums", refuse)
    for a, b in ((THM1, DYCK), (SIGMA_AB, THM1), (DYCK, EQUAL_COUNTS)):
        for equiv in (True, False):
            search_counter.clear()
            report = (bounded_equiv if equiv else bounded_inclusion)(a, b, 6)
            # the two insertion closures, whose nodes carry words
            assert len(search_counter) == 2
            assert all(isinstance(w, tuple) for parents in search_counter for _, w in parents)
            assert report == _compare_by_enumeration(a, b, 6, equiv)


def test_jfa_permutation_check_does_not_use_the_vector_search(monkeypatch):
    # the check tests the theorem the vector comparison rests on
    def refuse(*args):
        raise AssertionError("jfa_permutation_check used the vector search")

    monkeypatch.setattr(analysis, "label_sums", refuse)
    assert jfa_permutation_check(SIGMA_AB, 6)
    assert jfa_permutation_check(EQUAL_COUNTS, 6)


def test_arrangements_are_the_distinct_permutations():
    symbols = ["a", "b", "c"]
    for counts in itertools.product(range(4), repeat=3):
        vector = sum(k * (1 << FIELD * i | 1 << FIELD * 3) for i, k in enumerate(counts))
        words = list(analysis._arrangements(symbols, vector))
        assert words == sorted(set(itertools.permutations(sorted(words[0])))), counts
        assert Counter(words[0]) == Counter({sym: k for sym, k in zip(symbols, counts) if k})


def test_uc_condition_falsifies_ab_star():
    report = uc_condition(ab_star, word("a.b.a.b.a.b"), 2)
    assert report.verdict == "falsified"
    # every recorded violation replays as a non-member
    for (u1, v, u2), (x, y) in report.violations:
        assert u1 + v + u2 == word("a.b.a.b.a.b")
        assert not ab_star(x + v + y)


def test_uc_condition_sigma_star_passes():
    report = uc_condition(lambda w: True, word("a.b.a"), 1)
    assert report.passes
    u1, v, u2 = report.witness
    assert len(v) == 1 and u1 + v + u2 == word("a.b.a")


def test_uc_condition_dyck_minimal_word():
    report = uc_condition(dyck_balance, word("a.abar"), 2)
    assert report.passes
    assert report.witness == ((), word("a.abar"), ())
    assert report.trivial


def test_uc_condition_rejects_empty_word():
    with pytest.raises(ValueError):
        uc_condition(ab_star, (), 2)


def test_uc_condition_rejects_degree_zero():
    with pytest.raises(ValueError, match="degree must be >= 1"):
        uc_condition(ab_star, word("a.b"), 0)


def test_uc_condition_witness_replays():
    report = uc_condition(dyck_balance, word("a.a.abar.abar"), 2)
    assert report.passes
    u1, v, u2 = report.witness
    rest = u1 + u2
    for cut in range(len(rest) + 1):
        assert dyck_balance(rest[:cut] + v + rest[cut:])


def test_uc_falsification_scales_with_degree():
    for n in (1, 2, 3):
        w = word(".".join(["a.b"] * (n + 1)))
        assert uc_condition(ab_star, w, n).verdict == "falsified"


def test_uc_sweep_reports_in_input_order():
    # every repetition beyond one block already fails the degree-2 condition;
    # the single block passes trivially (v is the whole word)
    words = LangSet([word("a.b"), word("a.b.a.b"), word("a.b.a.b.a.b")])
    reports = [uc_condition(ab_star, w, 2) for w in words]
    assert [r.verdict for r in reports] == ["passes", "falsified", "falsified"]
    assert reports[0].trivial


def test_uc_sweep_dyck_all_pass():
    words = LangSet([w for w in dyck_bounded(6).words if w])
    assert all(uc_condition(dyck_balance, w, 2).passes for w in words)


def test_uc_sweep_sigma_star_all_pass():
    words = LangSet([word("a"), word("a.b"), word("b.b.a")])
    assert all(uc_condition(lambda w: True, w, 1).passes for w in words)


def _uc_condition_plain(member, w, n):
    """The condition's loop without deduplication: one query per split."""
    violations = []
    for i in range(len(w)):
        for j in range(i + 1, min(i + n, len(w)) + 1):
            u1, v, u2 = w[:i], w[i:j], w[j:]
            rest = u1 + u2
            splits = ((rest[:cut], rest[cut:]) for cut in range(len(rest) + 1))
            bad = next(((x, y) for x, y in splits if not member(x + v + y)), None)
            if bad is None:
                return UcReport("passes", w, n, witness=(u1, v, u2), trivial=n >= len(w))
            violations.append(((u1, v, u2), bad))
    return UcReport("falsified", w, n, violations=tuple(violations))


@pytest.mark.parametrize("name", dict(corpus_automata()))
def test_uc_condition_asks_each_word_once(name):
    m = corpus_get(name).value
    language = enumerate_language(m, 8)
    verdicts = set()
    for n in sorted({1, degree(m)}):
        for w in language:
            if not w:
                continue
            asked = Counter()

            def counting(u):
                asked[u] += 1
                return u in language

            report = uc_condition(counting, w, n)
            assert max(asked.values()) == 1, (w, n)
            assert report == _uc_condition_plain(language.words.__contains__, w, n), (w, n)
            verdicts.add(report.verdict)
    assert "passes" in verdicts


def test_uc_soundness_on_corpus():
    assert uc_soundness_check(THM1, 8)
    assert uc_soundness_check(EQUAL_COUNTS, 6)
    assert uc_soundness_check(DYCK, 8)


def _soundness_oracle_matches_jump_search(monkeypatch, m, max_len):
    # uc_soundness_check answers membership from its enumeration; every query
    # must rearrange w, and every report must equal the one that the plain
    # deletion search gives. A word it skips must be x v y for the witness
    # (u1, v, u2) of an earlier checked word, with x y = u1 u2, and must pass
    # under the plain search too.
    checked = {}

    def differential(member, w, n):
        def oracle(u):
            assert Counter(u) == Counter(w), (m, w, u)
            return member(u)

        assert w not in checked, (m, w)
        report = uc_condition(oracle, w, n)
        assert report == uc_condition(lambda u: jump_accepts(m, u), w, n), (m, w)
        checked[w] = report
        return report

    monkeypatch.setattr(analysis, "uc_condition", differential)
    assert uc_soundness_check(m, max_len)
    n = max(degree(m), 1)
    certified = set()
    for w in enumerate_language(m, max_len):
        if w in checked:
            u1, v, u2 = checked[w].witness
            rest = u1 + u2
            certified |= {rest[:cut] + v + rest[cut:] for cut in range(len(rest) + 1)}
        elif w:
            assert w in certified, (m, w)
            assert uc_condition(lambda u: jump_accepts(m, u), w, n).passes, (m, w)
    return len(checked)


@pytest.mark.parametrize("name", dict(corpus_automata()))
def test_uc_soundness_oracle_differential_corpus(monkeypatch, name):
    _soundness_oracle_matches_jump_search(monkeypatch, corpus_get(name).value, 8)


def test_uc_soundness_oracle_differential_random_gjfa(monkeypatch):
    rng = random.Random(2015)
    for m in [_random_gjfa(rng) for _ in range(20)]:
        _soundness_oracle_matches_jump_search(monkeypatch, m, 5)


def test_uc_soundness_certified_words_bound_the_checks(monkeypatch):
    # without certification every one of the 1,618 non-empty members is checked
    assert _soundness_oracle_matches_jump_search(monkeypatch, corpus_get("semidyck2_gjfa").value, 10) <= 372


def test_uc_soundness_false_on_non_uc_language(monkeypatch):
    # {a b} is not a union of degree-1 compositions: b a is not a member
    monkeypatch.setattr(analysis, "enumerate_language", lambda m, n: LangSet([("a", "b")], n))
    assert uc_soundness_check(EQUAL_COUNTS, 2) is False


def test_jfa_permutation_check_equal_counts():
    assert jfa_permutation_check(EQUAL_COUNTS, 6)


def test_jfa_permutation_check_unary_loop():
    m = sigma_star_gjfa({"a"})
    assert jfa_permutation_check(m, 3)


def test_jfa_permutation_check_rejects_degree_two():
    with pytest.raises(ValueError):
        jfa_permutation_check(THM1, 4)
    with pytest.raises(ValueError):
        gjfa_as_nfa(THM1)


def random_jfa(rng: random.Random) -> Gjfa:
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    alphabet = ["a", "b"]
    labels = [(), ("a",), ("b",)]
    rules = {
        Rule(rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(1, 4))
    }
    finals = {q for q in states if rng.random() < 0.5} or {rng.choice(states)}
    return Gjfa(states, alphabet, rules, rng.choice(states), finals)


def test_jfa_permutation_check_random_automata():
    rng = random.Random(2024)
    for _ in range(5):
        assert jfa_permutation_check(random_jfa(rng), 6)


def _permutation_check_plain(m, language):
    """The brute-force check: language against perm_closure of the NFA's bounded language."""
    regular = LangSet(gjfa_as_nfa(m).enumerate_bounded(language.bound), language.bound)
    return language == perm_closure(regular)


def test_jfa_permutation_check_matches_perm_closure(monkeypatch):
    # seeded differential against the brute-force check, on each language and
    # on the language with one word dropped or one word of another vector added
    rng = random.Random(1980)
    machines = [random_jfa(rng) for _ in range(30)]
    assert any(not r.label for m in machines for r in m.rules)
    verdicts = set()
    for m in machines:
        for n in range(7):
            language = enumerate_language(m, n)
            variants = [language]
            if language.words:
                variants.append(LangSet(language.words - {rng.choice(sorted(language.words))}, n))
            outside = sorted(set(itertools.product("ab", repeat=n)) - language.words)
            if outside:
                variants.append(LangSet(language.words | {rng.choice(outside)}, n))
            for variant in variants:
                monkeypatch.setattr(analysis, "enumerate_language", lambda m, n, variant=variant: variant)
                verdict = jfa_permutation_check(m, n)
                assert verdict == _permutation_check_plain(m, variant), (m, n, variant)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_jfa_permutation_check_false_on_a_vector_one_side_lacks(monkeypatch):
    m = corpus_get("sigma_star_ab").value
    language = enumerate_language(m, 3).words
    # the jumping side lacks the vector of a.b
    lacking = LangSet(language - {word("a.b"), word("b.a")}, 3)
    monkeypatch.setattr(analysis, "enumerate_language", lambda m, n: lacking)
    assert jfa_permutation_check(m, 3) is False
    # the jumping side has a vector that the NFA's words lack
    language = enumerate_language(EQUAL_COUNTS, 3).words
    monkeypatch.setattr(analysis, "enumerate_language", lambda m, n: LangSet(language | {word("a")}, n))
    assert jfa_permutation_check(EQUAL_COUNTS, 3) is False


def test_jfa_permutation_check_false_on_a_class_one_word_short(monkeypatch):
    # every vector is there, but the class of (1, 1, 1) has 5 of its 6 words
    language = enumerate_language(EQUAL_COUNTS, 3).words
    monkeypatch.setattr(analysis, "enumerate_language", lambda m, n: LangSet(language - {word("c.b.a")}, n))
    assert jfa_permutation_check(EQUAL_COUNTS, 3) is False
