import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpfa.core import word
from jumpfa.corpus import corpus_get, dyck_balance, semidyck2_balance
from jumpfa.langops import (
    Homomorphism,
    LangSet,
    dyck_bounded,
    hom_preimage_bounded,
    insert,
    insert_star_bounded,
    langset,
    perm_closure,
    reverse_set,
    semi_dyck_bounded,
    shuffle_sets,
    sigma_star_bounded,
)


def naive_insert(l, k):
    # independent oracle: string splits, no shared code with insert()
    out = set()
    for u in l:
        for v in k:
            for i in range(len(u) + 1):
                out.add(tuple(u[:i]) + tuple(v) + tuple(u[i:]))
    return out


word_st = st.lists(st.sampled_from(["a", "b", "c"]), max_size=4).map(tuple)
words_strategy = st.lists(word_st, max_size=4).map(LangSet)


def test_insert_three_split_points():
    assert insert(langset("a.b"), langset("c")) == langset("c.a.b", "a.c.b", "a.b.c")


def test_insert_theorem1_layer():
    got = insert(langset("a.abar"), langset("abar.a"))
    assert got == langset("abar.a.a.abar", "a.abar.a.abar", "a.abar.abar.a")
    assert got == naive_insert(langset("a.abar"), langset("abar.a"))


def test_insert_into_empty_word():
    assert insert(langset("eps"), langset("a.abar")) == langset("a.abar")


@settings(max_examples=60)
@given(words_strategy, words_strategy)
def test_insert_matches_naive_oracle(l, k):
    assert insert(l, k).words == naive_insert(l, k)


def test_insert_star_dyck_prefix():
    got = insert_star_bounded(langset("eps"), langset("a.abar"), 4)
    assert got == langset("eps", "a.abar", "a.abar.a.abar", "a.a.abar.abar")


def test_insert_star_unary():
    got = insert_star_bounded(langset("eps"), langset("a"), 3)
    assert got == langset("eps", "a", "a.a", "a.a.a")


def test_insert_star_empty_k():
    assert insert_star_bounded(langset("a.b"), LangSet([]), 10) == langset("a.b")


def test_insert_star_strips_eps_from_k():
    with_eps = insert_star_bounded(langset("eps"), langset("eps", "a"), 3)
    without = insert_star_bounded(langset("eps"), langset("a"), 3)
    assert with_eps == without


def _insert_until_fixed(l, k, max_len):
    # reference on tuple words through insert(), independent of core.insertion_closure
    out = {w for w in l.words if len(w) <= max_len}
    while True:
        grown = out | {w for w in insert(LangSet(out), k).words if len(w) <= max_len}
        if grown == out:
            return out
        out = grown


def test_insert_star_matches_insert_until_fixed():
    rng = random.Random(2015)

    def lang(most, size):
        return LangSet(tuple(rng.choice("abc") for _ in range(rng.randint(0, most))) for _ in range(size))

    seen = set()
    for _ in range(60):
        l, k, max_len = lang(6, rng.randint(1, 3)), lang(3, rng.randint(0, 3)), rng.randint(0, 5)
        assert insert_star_bounded(l, k, max_len) == _insert_until_fixed(l, k, max_len), (l, k, max_len)
        seen |= {"eps in k" for v in k.words if not v}
        seen |= {"long base word" for w in l.words if len(w) > max_len}
    assert seen == {"eps in k", "long base word"}


def test_insert_star_monotone_over_base():
    base = langset("a.b", "b")
    out = insert_star_bounded(base, langset("c"), 6)
    assert base.words <= out.words


def test_reverse_set_involution():
    l = langset("a.b", "b.a")
    assert reverse_set(l) == langset("b.a", "a.b")
    assert reverse_set(reverse_set(l)) == l


def test_reverse_set_palindrome():
    assert reverse_set(langset("a.abar.abar.a")) == langset("a.abar.abar.a")


def test_reverse_distributes_over_insert():
    l, k = langset("a.b"), langset("c")
    assert reverse_set(insert(l, k)) == insert(reverse_set(l), reverse_set(k))
    assert reverse_set(insert(l, k)) == langset("b.a.c", "b.c.a", "c.b.a")


@settings(max_examples=60)
@given(words_strategy, words_strategy)
def test_reverse_insert_property(l, k):
    assert reverse_set(insert(l, k)) == insert(reverse_set(l), reverse_set(k))


def test_shuffle_two_words():
    got = shuffle_sets(langset("a.b"), langset("c.d"), 4)
    expected = {
        word("a.c.b.d"),
        word("a.c.d.b"),
        word("c.a.b.d"),
        word("a.b.c.d"),
        word("c.d.a.b"),
        word("c.a.d.b"),
    }
    assert got == expected


def test_shuffle_identity_and_commutativity():
    l = langset("a.b", "b")
    assert shuffle_sets(langset("eps"), l, 4) == l
    k = langset("c", "c.c")
    assert shuffle_sets(k, l, 4) == shuffle_sets(l, k, 4)


def test_shuffle_contains_proof_word():
    d2 = semi_dyck_bounded(2, 4)
    w = word("a1.a1.a2.a2.a1bar.a1bar.a2bar.a2bar")
    assert w in shuffle_sets(d2, d2, 8)
    assert w not in semi_dyck_bounded(2, 8)


def phi():
    return corpus_get("phi_thm4").value


def test_hom_preimage_trivial_predicates():
    h = phi()
    assert hom_preimage_bounded(h, lambda w: False, 4) == LangSet([])
    assert hom_preimage_bounded(h, lambda w: True, 2) == sigma_star_bounded({"a", "b"}, 2)


def test_perm_closure_examples():
    assert perm_closure(langset("a.b")) == langset("a.b", "b.a")
    assert len(perm_closure(langset("a.b.c"))) == 6
    assert perm_closure(langset("eps")) == langset("eps")


def test_perm_closure_idempotent_and_parikh_preserving():
    l = langset("a.b.b", "c")
    closed = perm_closure(l)
    assert perm_closure(closed) == closed
    counts = {tuple(sorted(w)) for w in l.words}
    assert {tuple(sorted(w)) for w in closed.words} == counts


def test_sigma_star_bounded_small():
    assert sigma_star_bounded({"a", "b"}, 1) == langset("eps", "a", "b")
    assert len(sigma_star_bounded({"a", "b"}, 3)) == 1 + 2 + 4 + 8


def test_dyck_bounded_small():
    assert dyck_bounded(2) == langset("eps", "a.abar")


def test_semi_dyck_bounded_small():
    assert semi_dyck_bounded(2, 2) == langset("eps", "a1.a1bar", "a2.a2bar")


def test_semi_dyck_bounded_needs_a_bracket_pair():
    with pytest.raises(ValueError, match="need at least one bracket pair"):
        semi_dyck_bounded(0, 4)


def test_langset_rejects_a_word_longer_than_its_bound():
    assert LangSet([word("a.b")], 2).bound == 2
    with pytest.raises(ValueError, match="word longer than declared bound"):
        LangSet([word("a.b.a")], 2)


def test_dyck_matches_counter_oracle():
    # both directions at bound 8: generated words balance, balanced words generated
    generated = dyck_bounded(8)
    for w in generated:
        assert dyck_balance(w)
    for n in range(9):
        for w in itertools.product(["a", "abar"], repeat=n):
            assert (w in generated) == dyck_balance(w)


def test_semidyck_matches_stack_oracle():
    generated = semi_dyck_bounded(2, 6)
    syms = ["a1", "a1bar", "a2", "a2bar"]
    for n in range(7):
        for w in itertools.product(syms, repeat=n):
            assert (w in generated) == semidyck2_balance(w)


def test_langset_canonical_order():
    l = langset("b", "a", "a.a", "eps")
    assert l.sorted_words() == [(), ("a",), ("b",), ("a", "a")]


def test_homomorphism_apply_concatenates():
    h = Homomorphism({"a": ("x", "y"), "b": ()})
    assert h.apply(("a", "b", "a")) == ("x", "y", "x", "y")
