"""The benchmark's references agree with jumpfa, so a failed op means a wrong verdict.

Membership references are checked on every word up to length 7 (four-letter
alphabets) or 8 against jump_accepts, and up to length 7 against
generate_accepts, whose non-member searches at length 8 on equal_counts_jfa
alone take 15 s. The text writers and structural conversions are checked
against the library on every corpus automaton.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import refs  # noqa: E402
from jumpfa import constructions, formats, insertion_systems as ins  # noqa: E402
from jumpfa.corpus import corpus_get  # noqa: E402
from jumpfa.semantics import generate_accepts, jump_accepts  # noqa: E402

NAMES = list(refs.REFERENCE)


def _sweep(m, cap=8):
    alphabet = tuple(sorted(m.alphabet))
    return refs.sigma_upto(alphabet, min(cap, 7 if len(alphabet) >= 4 else 8))


@pytest.mark.parametrize("name", NAMES)
def test_reference_matches_jump_semantics(name):
    m = corpus_get(name).value
    pred = refs.REFERENCE[name]
    assert [w for w in _sweep(m) if jump_accepts(m, w) != pred(w)] == []


@pytest.mark.parametrize("name", NAMES)
def test_reference_matches_generate_semantics(name):
    m = corpus_get(name).value
    pred = refs.REFERENCE[name]
    assert [w for w in _sweep(m, cap=7) if generate_accepts(m, w) != pred(w)] == []


@pytest.mark.parametrize("name", NAMES)
def test_text_and_conversion_references_match_library(name):
    m = corpus_get(name).value
    a = refs.plain(m)
    g = refs.to_gcis(a)
    r = refs.gcis_to_rcg(g)
    lib_g = ins.gcis_from_gjfa(m)
    lib_r = ins.rcg_from_gcis(lib_g)
    assert formats.serialize_gjfa(m) == refs.gjfa_text(a)
    assert formats.serialize_gjfa(constructions.reverse_gjfa(m)) == refs.gjfa_text(refs.reverse(a))
    assert formats.serialize_gcis(lib_g) == refs.gcis_text(g)
    assert formats.serialize_rcg(lib_r) == refs.rcg_text(r)
    assert formats.serialize_gcis(ins.gcis_from_rcg(lib_r)) == refs.gcis_text(refs.rcg_to_gcis(r))
    assert formats.serialize_gjfa(ins.gjfa_from_gcis(lib_g)) == refs.gjfa_text(refs.from_gcis(g))
    other = corpus_get("thm1_m").value
    assert formats.serialize_gjfa(constructions.union_gjfa(m, other)) == refs.gjfa_text(
        refs.union(a, refs.plain(other))
    )
