import pytest

from jumpfa.constructions import (
    finite_gjfa,
    insert_gjfa,
    insert_star_gjfa,
    reverse_gjfa,
    union_gjfa,
)
from jumpfa.core import validate, word
from jumpfa.corpus import corpus_get
from jumpfa.langops import LangSet, dyck_bounded, insert, insert_star_bounded, langset, reverse_set
from jumpfa.semantics import enumerate_language

THM1 = corpus_get("thm1_m").value
DYCK = corpus_get("dyck_gjfa").value


def test_finite_gjfa_two_words():
    m = finite_gjfa(langset("a.b", "b.a"), {"a", "b"})
    assert len(m.states) == 2 and len(m.rules) == 2
    assert validate(m) == []
    assert enumerate_language(m, 4) == langset("a.b", "b.a")


def test_finite_gjfa_epsilon():
    m = finite_gjfa(langset("eps"), {"a"})
    assert enumerate_language(m, 3) == langset("eps")


def test_finite_gjfa_empty():
    m = finite_gjfa(LangSet([]), {"a"})
    assert enumerate_language(m, 3) == set()


def test_finite_gjfa_rejects_word_outside_alphabet():
    with pytest.raises(ValueError, match="word a.b uses symbol b outside the alphabet"):
        finite_gjfa(langset("a", "a.b"), {"a"})
    with pytest.raises(ValueError, match="word a uses symbol a outside the alphabet"):
        finite_gjfa(langset("a"), set())


def test_insert_gjfa_matches_set_insert():
    base = finite_gjfa(langset("a.b"), {"a", "b", "c"})
    m = insert_gjfa(base, langset("c"))
    assert enumerate_language(m, 3) == langset("c.a.b", "a.c.b", "a.b.c")


def test_insert_gjfa_eps_k_is_identity():
    m = insert_gjfa(DYCK, langset("eps"))
    assert enumerate_language(m, 4) == dyck_bounded(4)


def test_insert_gjfa_accepts_k_when_base_has_eps():
    base = finite_gjfa(langset("eps"), {"a", "b"})
    m = insert_gjfa(base, langset("a.b"))
    assert enumerate_language(m, 2) == langset("a.b")


def test_insert_star_gjfa_builds_dyck():
    base = finite_gjfa(langset("eps"), {"a", "abar"})
    m = insert_star_gjfa(base, langset("a.abar"))
    assert enumerate_language(m, 4) == langset(
        "eps", "a.abar", "a.abar.a.abar", "a.a.abar.abar"
    )


def test_insert_star_gjfa_unary():
    base = finite_gjfa(langset("eps"), {"a"})
    m = insert_star_gjfa(base, langset("a"))
    assert enumerate_language(m, 2) == langset("eps", "a", "a.a")


def test_insert_star_gjfa_empty_k():
    m = insert_star_gjfa(THM1, LangSet([]))
    assert enumerate_language(m, 6) == enumerate_language(THM1, 6)


def test_insert_constructions_match_langops():
    # cross-check both constructions against the set operators at bound 8
    bases = [
        finite_gjfa(langset("a.b", "eps"), {"a", "b"}),
        THM1,
        DYCK,
    ]
    ks = [langset("a"), langset("a.b", "b"), langset("eps", "a")]
    for base in bases:
        lang = enumerate_language(base, 8)
        for k in ks:
            if not all(set(v) <= base.alphabet for v in k.words):
                continue
            one = enumerate_language(insert_gjfa(base, k), 8)
            expected_one = LangSet(
                {w for w in insert(lang, k).words if len(w) <= 8}
            )
            assert one == expected_one
            star = enumerate_language(insert_star_gjfa(base, k), 8)
            assert star == insert_star_bounded(lang, k, 8)


def test_reverse_gjfa_labels():
    rev = reverse_gjfa(THM1)
    labels = {r.label for r in rev.rules}
    assert labels == {word("a.abar"), word("abar.a")}
    assert rev.states == THM1.states


def test_reverse_gjfa_involution():
    for name, m in [("thm1", THM1), ("dyck", DYCK)]:
        assert reverse_gjfa(reverse_gjfa(m)) == m


def test_reverse_gjfa_language():
    assert enumerate_language(reverse_gjfa(THM1), 4) == reverse_set(
        enumerate_language(THM1, 4)
    )


def test_union_small_finites():
    m = union_gjfa(finite_gjfa(langset("a"), {"a"}), finite_gjfa(langset("b"), {"b"}))
    assert validate(m) == []
    assert enumerate_language(m, 1) == langset("a", "b")


def test_union_idempotent_language():
    m = union_gjfa(THM1, THM1)
    assert enumerate_language(m, 6) == enumerate_language(THM1, 6)


def test_union_dyck_and_finite():
    m = union_gjfa(DYCK, finite_gjfa(langset("a.b"), {"a", "b"}))
    assert enumerate_language(m, 2) == langset("eps", "a.abar", "a.b")


def test_union_preserves_empty_word_exactly():
    eps_free = finite_gjfa(langset("a"), {"a"})
    with_eps = finite_gjfa(langset("eps"), {"a"})
    assert () not in enumerate_language(union_gjfa(eps_free, eps_free), 0)
    assert () in enumerate_language(union_gjfa(eps_free, with_eps), 0)


def test_fresh_states_never_collide():
    m = insert_gjfa(insert_gjfa(THM1, langset("a")), langset("abar"))
    assert validate(m) == []
    assert len(m.states) == len(THM1.states) + 2
