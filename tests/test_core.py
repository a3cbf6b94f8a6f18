import importlib
import importlib.util
import inspect
import itertools
from pathlib import Path

import pytest

from jumpfa import semantics
from jumpfa.analysis import EquivReport, UcReport
from jumpfa.core import (
    Gjfa,
    Nfa,
    Rule,
    degree,
    insert_positions,
    is_jfa,
    search,
    validate,
    word,
    word_str,
)
from jumpfa.corpus import CorpusEntry, corpus_get
from jumpfa.langops import Homomorphism
from jumpfa.semantics import AcceptanceWitness, acceptance_witness, jump_accepts

EQUAL_COUNTS = corpus_get("equal_counts_jfa").value
THM1 = corpus_get("thm1_m").value


def test_word_parsing_round_trip():
    assert word("a.abar") == ("a", "abar")
    assert word("eps") == ()
    assert word_str(("a", "abar")) == "a.abar"
    assert word_str(()) == "eps"


def test_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        word("a.!")
    with pytest.raises(ValueError):
        word("a..b")


def test_validate_equal_counts_is_clean():
    assert validate(EQUAL_COUNTS) == []


def test_validate_names_undeclared_rule_state():
    m = Gjfa({"q"}, {"a"}, {Rule("q", ("a",), "x")}, "q", {"q"})
    diags = validate(m)
    assert len(diags) == 1
    assert "x" in diags[0]


def test_validate_flags_missing_initial():
    m = Gjfa({"q"}, {"a"}, set(), "s", {"q"})
    diags = validate(m)
    assert len(diags) == 1
    assert "initial" in diags[0]


def test_validate_is_pure():
    m = Gjfa({"q"}, {"a"}, {Rule("q", ("b",), "q")}, "q", set())
    assert validate(m) == validate(m)


def test_degree_examples():
    assert degree(EQUAL_COUNTS) == 1
    assert degree(THM1) == 2
    assert degree(Gjfa({"q"}, {"a"}, set(), "q", {"q"})) == 0


def test_is_jfa_examples():
    assert is_jfa(EQUAL_COUNTS)
    assert not is_jfa(THM1)
    assert is_jfa(Gjfa({"q"}, {"a"}, set(), "q", {"q"}))


def test_degree_zero_iff_all_eps_labels():
    m = Gjfa({"q", "r"}, {"a"}, {Rule("q", (), "r"), Rule("r", (), "q")}, "q", {"r"})
    assert degree(m) == 0
    assert is_jfa(m)


# The collection arguments a constructor must coerce: a set, a list or a one-shot generator.
COLLECTIONS = pytest.mark.parametrize(
    "make", [set, list, lambda xs: (x for x in xs)], ids=["set", "list", "generator"]
)


def gjfa_from(make):
    return Gjfa(make(["q", "r"]), make(["a"]), make([Rule("q", ("a",), "r")]), "q", make(["r"]))


def nfa_from(make):
    transitions = [("0", "a", "1"), ("1", None, "0")]
    return Nfa(make(["0", "1"]), make(["a"]), make(transitions), "0", make(["1"]))


@COLLECTIONS
@pytest.mark.parametrize("build", [gjfa_from, nfa_from], ids=["Gjfa", "Nfa"])
def test_constructor_coerces_collections_to_frozensets(build, make):
    m = build(make)
    assert m == build(frozenset)
    assert all(type(field) is frozenset for field in m if not isinstance(field, str))


RULE = Rule("q", ("a",), "r")
VALUES = {
    "Rule": RULE,
    "Gjfa": gjfa_from(list),
    "Nfa": nfa_from(list),
    "AcceptanceWitness": AcceptanceWitness(("a",), ((RULE, 0),)),
    "EquivReport": EquivReport(False, 2, (("a",),)),
    "UcReport": UcReport("passes", ("a",), 1, witness=((), ("a",), ())),
    "CorpusEntry": CorpusEntry("m", "gjfa", gjfa_from(list), "Sec. 1"),
}


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_value_hashes_and_compares_as_its_field_tuple(value):
    assert hash(value) == hash(tuple(value))
    assert value == tuple(value)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


def test_rules_sort_in_field_tuple_order():
    pa, pab, qb = Rule("p", ("a",), "r"), Rule("p", ("a", "b"), "q"), Rule("q", ("b",), "p")
    assert sorted([qb, pab, pa, RULE]) == [pa, pab, RULE, qb]


def _load_bench_spans():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_cached_forms_are_built_once(monkeypatch):
    m, nfa = gjfa_from(list), nfa_from(list)
    assert m.coded is m.coded
    assert nfa.delta is nfa.delta
    # every deletion search stops on the code's one goal set
    assert m.coded.goals == {("r", "")}
    stops = []

    def recording(starts, successors, stop=None):
        stops.append(stop)
        return search(starts, successors, stop)

    monkeypatch.setattr(semantics, "search", recording)
    # m is a JFA: its Parikh vector decides a boolean query, and the witness is
    # read off the vector search, so only the GJFA g runs a word search
    assert jump_accepts(m, ("a",)) and not jump_accepts(m, ("a", "a"))
    assert acceptance_witness(m, ("a",))
    assert stops == []
    g = Gjfa({"q", "r"}, {"a"}, {Rule("q", ("a", "a"), "r")}, "q", {"r"})
    assert jump_accepts(g, ("a", "a"))
    (stop,) = stops
    assert stop.__self__ is g.coded.goals
    # bench/spans.py times these by rebinding them on their module or on the
    # class, so a moved or renamed one breaks the traced benchmark run
    spans = _load_bench_spans()
    for mod, names in spans.WRAPPED.items():
        module = importlib.import_module(f"jumpfa.{mod}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{mod}.{name}"
    assert set(spans.NFA_METHODS) <= Nfa.__dict__.keys()


@pytest.mark.parametrize("v", ["", "a", "aa", "ab", "ba"])
def test_insert_positions_keep_every_word_once(v):
    # a breadth-first closure drops repeated words anyway, so only this test
    # sees a position rule that keeps too many positions
    for n in range(6):
        for w in map("".join, itertools.product("ab", repeat=n)):
            kept = [w[:i] + v + w[i:] for i in insert_positions(w, v)]
            assert set(kept) == {w[:i] + v + w[i:] for i in range(n + 1)}, (w, v)
            if len(set(v)) <= 1:
                assert len(kept) == len(set(kept)), (w, v)


def test_homomorphism_copies_its_mapping_and_hashes_by_items():
    mapping = {"a": ("b",), "c": ()}
    h = Homomorphism(mapping)
    mapping["a"] = ("c",)
    assert h.apply(("a", "c")) == ("b",)
    assert hash(h) == hash(Homomorphism({"c": (), "a": ("b",)}))
    assert h == Homomorphism({"a": ("b",), "c": ()}) != Homomorphism(mapping)
    with pytest.raises(AttributeError):
        h.mapping = {}


def make_ab_nfa():
    # accepts (ab)* using one eps shortcut
    return Nfa(
        {"0", "1"},
        {"a", "b"},
        {("0", "a", "1"), ("1", "b", "0")},
        "0",
        {"0"},
    )


def test_nfa_accepts():
    nfa = make_ab_nfa()
    assert nfa.accepts(())
    assert nfa.accepts(("a", "b"))
    assert not nfa.accepts(("a",))
    assert not nfa.accepts(("b", "a"))


def test_nfa_enumerate_matches_accepts():
    # oracle: exhaustive sweep through accepts()
    import itertools

    nfa = make_ab_nfa()
    expected = set()
    for n in range(5):
        for w in itertools.product(sorted(nfa.alphabet), repeat=n):
            if nfa.accepts(w):
                expected.add(w)
    assert nfa.enumerate_bounded(4) == expected


def test_nfa_eps_moves():
    nfa = Nfa({"0", "1"}, {"a"}, {("0", None, "1"), ("1", "a", "1")}, "0", {"1"})
    assert nfa.accepts(())
    assert nfa.accepts(("a", "a"))
    assert nfa.enumerate_bounded(2) == {(), ("a",), ("a", "a")}
