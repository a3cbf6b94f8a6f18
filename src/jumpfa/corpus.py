"""Named ready-made automata, oracle predicates, and mappings used by the
tests and the CLI.

Barred symbols are spelled ``abar``, ``a1bar``, ... so every token stays
ASCII-safe in the file format.
"""

from __future__ import annotations

from typing import Any, Iterable, NamedTuple

from jumpfa.core import Gjfa, Rule, Word, word
from jumpfa.langops import Homomorphism, LangSet
from jumpfa.constructions import finite_gjfa, insert_star_gjfa


class CorpusEntry(NamedTuple):
    name: str
    kind: str  # "gjfa" | "predicate" | "homomorphism" | "builder"
    value: Any
    citation: str


def sigma_star_gjfa(alphabet: Iterable[str]) -> Gjfa:
    """Single-state automaton for all words over the alphabet."""
    alphabet = sorted(set(alphabet))
    rules = {Rule("q", (sym,), "q") for sym in alphabet}
    return Gjfa({"q"}, alphabet, rules, "q", {"q"})


def unitary_gjfa(w: Word, k: LangSet) -> Gjfa:
    """Automaton for the unitary language w <-* K."""
    alphabet = set(w)
    for v in k.words:
        alphabet |= set(v)
    return insert_star_gjfa(finite_gjfa(LangSet([tuple(w)]), alphabet), k)


def ab_star(w: Word) -> bool:
    """True iff w is a repetition of the two-symbol block ab."""
    return len(w) % 2 == 0 and all(
        sym == ("a" if i % 2 == 0 else "b") for i, sym in enumerate(w)
    )


def dyck_balance(w: Word) -> bool:
    """Counter check over {a, abar}: prefixes never dip below zero, total zero."""
    depth = 0
    for sym in w:
        if sym == "a":
            depth += 1
        elif sym == "abar":
            depth -= 1
        else:
            return False
        if depth < 0:
            return False
    return depth == 0


def semidyck2_balance(w: Word) -> bool:
    """Stack check over the pairs a1/a1bar and a2/a2bar."""
    stack: list[str] = []
    for sym in w:
        if sym in ("a1", "a2"):
            stack.append(sym)
        elif sym in ("a1bar", "a2bar"):
            if not stack or stack.pop() != sym[:2]:
                return False
        else:
            return False
    return not stack


def equal_counts(w: Word) -> bool:
    """True iff a, b, and c occur equally often and nothing else occurs."""
    if any(sym not in ("a", "b", "c") for sym in w):
        return False
    return w.count("a") == w.count("b") == w.count("c")


def _build_catalog() -> dict[str, CorpusEntry]:
    entries = []

    equal_counts_jfa = Gjfa(
        {"q0", "q1", "q2"},
        {"a", "b", "c"},
        {Rule("q0", ("a",), "q1"), Rule("q1", ("b",), "q2"), Rule("q2", ("c",), "q0")},
        "q0",
        {"q0"},
    )
    entries.append(
        CorpusEntry(
            "equal_counts_jfa",
            "gjfa",
            equal_counts_jfa,
            "three-state cycle on a, b, c accepting the equal-counts language "
            "(the source writes the alphabet with a stray star; {a, b, c} is meant)",
        )
    )

    thm1_m = Gjfa(
        {"q", "r"},
        {"a", "abar"},
        {Rule("q", word("abar.a"), "q"), Rule("q", word("a.abar"), "r")},
        "q",
        {"r"},
    )
    entries.append(
        CorpusEntry(
            "thm1_m",
            "gjfa",
            thm1_m,
            "two-state degree-2 automaton whose language meets the Dyck "
            "language in exactly the repetitions of a.abar",
        )
    )

    invhom_m = Gjfa(
        {"q", "r"},
        {"a1", "a1bar", "a2", "a2bar"},
        {
            Rule("q", word("a1.a1bar"), "q"),
            Rule("q", word("a2.a2bar"), "q"),
            Rule("q", word("a1bar.a1"), "r"),
        },
        "q",
        {"r"},
    )
    entries.append(
        CorpusEntry(
            "invhom_m",
            "gjfa",
            invhom_m,
            "automaton for D2 a1bar D2 a1 D2, the inverse-homomorphism "
            "counterexample language",
        )
    )

    dyck_gjfa = insert_star_gjfa(
        finite_gjfa(LangSet([()]), {"a", "abar"}), LangSet([word("a.abar")])
    )
    entries.append(
        CorpusEntry(
            "dyck_gjfa",
            "gjfa",
            dyck_gjfa,
            "balanced words over one bracket pair: closure of a.abar under insertion",
        )
    )

    semidyck2_gjfa = insert_star_gjfa(
        finite_gjfa(LangSet([()]), {"a1", "a1bar", "a2", "a2bar"}),
        LangSet([word("a1.a1bar"), word("a2.a2bar")]),
    )
    entries.append(
        CorpusEntry(
            "semidyck2_gjfa",
            "gjfa",
            semidyck2_gjfa,
            "balanced words over two bracket pairs",
        )
    )

    entries.append(
        CorpusEntry(
            "sigma_star_ab",
            "gjfa",
            sigma_star_gjfa({"a", "b"}),
            "all words over {a, b}",
        )
    )

    entries.append(
        CorpusEntry("sigma_star_gjfa", "builder", sigma_star_gjfa, "all words over a given alphabet")
    )
    entries.append(
        CorpusEntry("unitary", "builder", unitary_gjfa, "unitary language w <-* K")
    )

    entries.append(CorpusEntry("ab_star", "predicate", ab_star, "repetitions of ab"))
    entries.append(
        CorpusEntry("dyck_balance", "predicate", dyck_balance, "counter-based balance check")
    )
    entries.append(
        CorpusEntry(
            "semidyck2_balance", "predicate", semidyck2_balance, "stack-based balance check"
        )
    )
    entries.append(
        CorpusEntry("equal_counts", "predicate", equal_counts, "equal counts of a, b, c")
    )

    phi_thm4 = Homomorphism({"a": word("a1bar.a2"), "b": word("a2bar.a1")})
    entries.append(
        CorpusEntry(
            "phi_thm4",
            "homomorphism",
            phi_thm4,
            "a maps to a1bar.a2 and b maps to a2bar.a1; its preimage of the "
            "invhom_m language is the non-empty repetitions of ab",
        )
    )

    return {e.name: e for e in entries}


_CATALOG = _build_catalog()


def corpus_get(name: str) -> CorpusEntry:
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown corpus name: {name}") from None


def corpus_list() -> list[tuple[str, str, str]]:
    return [(e.name, e.kind, e.citation) for e in _CATALOG.values()]


def corpus_automata() -> list[tuple[str, Gjfa]]:
    """All concrete automata of the catalog, in catalog order."""
    return [(e.name, e.value) for e in _CATALOG.values() if e.kind == "gjfa"]
