import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jumpfa.cli import main
from jumpfa.corpus import corpus_get
from jumpfa.core import validate
from jumpfa.formats import parse_gjfa, serialize_gjfa
from jumpfa.langops import LangSet


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_leaves_dataclasses_unloaded():
    # every command pays this import; dataclasses alone (with inspect and ast) adds about 10 ms.
    # The probe also lists each module the import loads that is neither in the standard library
    # nor jumpfa: the runtime has no third-party dependencies. Modules that site hooks load at
    # interpreter start-up, before the import, are not the import's
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys; before = set(sys.modules); import jumpfa.cli; print('dataclasses' in sys.modules); "
        "print(sorted(n for n in sys.modules.keys() - before if n.partition('.')[0] "
        "not in {*sys.stdlib_module_names, 'jumpfa'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "False\n[]\n"


def test_member_accept(capsys):
    code, out, _ = run(capsys, "member", "equal_counts_jfa", "a.b.c")
    assert code == 0
    assert "True" in out


def test_member_reject(capsys):
    code, _, _ = run(capsys, "member", "equal_counts_jfa", "a.b")
    assert code == 1


def test_member_eps_rejected_by_thm1(capsys):
    code, _, _ = run(capsys, "member", "thm1_m", "eps", "--semantics", "both")
    assert code == 1


def test_member_alphabet_mismatch(capsys):
    code, _, err = run(capsys, "member", "thm1_m", "x.y")
    assert code == 2
    assert "error" in err


def test_member_both_reports_disagreement(capsys, monkeypatch):
    monkeypatch.setattr("jumpfa.semantics.generate_accepts", lambda m, w: False)
    code, out, err = run(capsys, "member", "thm1_m", "a.abar", "--semantics", "both")
    assert code == 3
    assert out.splitlines() == ["word: a.abar", "jump: True", "generate: False"]
    assert err == "semantics disagree\n"


def test_member_rejects_a_builder_entry(capsys):
    code, out, err = run(capsys, "member", "sigma_star_gjfa", "a")
    assert (code, out) == (2, "")
    assert err == "error: corpus entry sigma_star_gjfa is a builder, not an automaton\n"


def test_member_echoes_parsed_empty_word(capsys):
    code, out, _ = run(capsys, "member", "dyck_gjfa", "")
    assert code == 0
    assert out.splitlines() == ["word: eps", "jump: True"]
    code, out, _ = run(capsys, "member", "dyck_gjfa", "", "--json")
    assert json.loads(out) == {"word": "eps", "jump": True}


def test_member_json(capsys):
    code, out, _ = run(capsys, "member", "thm1_m", "a.abar", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["jump"] is True


def test_enum_thm1(capsys):
    code, out, _ = run(capsys, "enum", "thm1_m", "--max-len", "4")
    assert code == 0
    assert out.splitlines() == [
        "a.abar",
        "a.abar.a.abar",
        "a.abar.abar.a",
        "abar.a.a.abar",
    ]


def test_enum_dyck(capsys):
    code, out, _ = run(capsys, "enum", "dyck_gjfa", "--max-len", "2")
    assert out.splitlines() == ["eps", "a.abar"]


def test_enum_empty_language(capsys, tmp_path):
    path = tmp_path / "empty.gjfa"
    path.write_text("alphabet: a\nstates: q r\ninitial: q\nfinal: r\n")
    code, out, _ = run(capsys, "enum", str(path))
    assert code == 0 and out == ""


def test_transform_reverse_is_involution(capsys, tmp_path):
    code, once, _ = run(capsys, "transform", "reverse", "thm1_m")
    assert code == 0
    path = tmp_path / "rev.gjfa"
    path.write_text(once)
    code, twice, _ = run(capsys, "transform", "reverse", str(path))
    assert twice == serialize_gjfa(corpus_get("thm1_m").value)


def test_transform_insert_star_builds_dyck(capsys, tmp_path):
    code, base, _ = run(capsys, "transform", "finite", "eps", "--alphabet", "a.abar")
    assert code == 0
    base_path = tmp_path / "base.gjfa"
    base_path.write_text(base)
    code, out, _ = run(capsys, "transform", "insert-star", str(base_path), "a.abar")
    assert code == 0
    star_path = tmp_path / "star.gjfa"
    star_path.write_text(out)
    code, words, _ = run(capsys, "enum", str(star_path), "--max-len", "4")
    assert words.splitlines() == ["eps", "a.abar", "a.a.abar.abar", "a.abar.a.abar"]


@pytest.mark.parametrize("op", ["insert", "insert-star"])
def test_transform_insert_adds_k_symbols_to_alphabet(capsys, tmp_path, op):
    # b is outside dyck_gjfa's alphabet; the output must still be valid
    code, out, _ = run(capsys, "transform", op, "dyck_gjfa", "a.b")
    assert code == 0
    m = parse_gjfa(out)
    assert validate(m) == []
    assert m.alphabet == {"a", "abar", "b"}
    path = tmp_path / "ins.gjfa"
    path.write_text(out)
    code, _, err = run(capsys, "member", str(path), "a.b.a.abar")
    assert (code, err) == (0, "")


def test_transform_union(capsys, tmp_path):
    code, a, _ = run(capsys, "transform", "finite", "a", "--alphabet", "a")
    code, b, _ = run(capsys, "transform", "finite", "b", "--alphabet", "b")
    pa, pb = tmp_path / "a.gjfa", tmp_path / "b.gjfa"
    pa.write_text(a)
    pb.write_text(b)
    code, u, _ = run(capsys, "transform", "union", str(pa), str(pb))
    assert code == 0
    pu = tmp_path / "u.gjfa"
    pu.write_text(u)
    code, words, _ = run(capsys, "enum", str(pu), "--max-len", "1")
    assert words.splitlines() == ["a", "b"]


def test_convert_round_trip_equals_source(capsys, tmp_path):
    code, gcis_text, _ = run(capsys, "convert", "to-gcis", "thm1_m")
    assert code == 0
    gp = tmp_path / "m.gcis"
    gp.write_text(gcis_text)
    code, gjfa_text, _ = run(capsys, "convert", "from-gcis", str(gp))
    assert code == 0
    mp = tmp_path / "back.gjfa"
    mp.write_text(gjfa_text)
    code, _, _ = run(capsys, "check", "equiv", str(mp), "thm1_m", "--max-len", "8")
    assert code == 0


def test_convert_rejects_contextual_rule(capsys, tmp_path):
    gp = tmp_path / "bad.gcis"
    gp.write_text(
        "alphabet: a b\ncomponent: c\ninitial: c\nfinal: c\n"
        "axiom: eps\nedge: c (a|b|eps) c\n"
    )
    code, _, err = run(capsys, "convert", "from-gcis", str(gp))
    assert code == 2
    assert "(a|b|eps)" in err


def test_convert_from_gcis_missing_file(capsys, tmp_path):
    missing = tmp_path / "absent.gcis"
    code, out, err = run(capsys, "convert", "from-gcis", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: no such file: {missing}\n"


def test_convert_component_count(capsys):
    _, out, _ = run(capsys, "convert", "to-gcis", "thm1_m")
    components = [l for l in out.splitlines() if l.startswith("component:")][0]
    assert len(components.split()) - 1 == 3  # two states plus entry


def test_check_uc_falsify(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "uc-falsify",
        "--oracle",
        "ab_star",
        "--word",
        "a.b.a.b.a.b",
        "--degree",
        "2",
        "--json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "falsified"
    assert payload["violations"]


def test_check_uc_falsify_rejects_degree_zero(capsys):
    argv = ["check", "uc-falsify", "--oracle", "ab_star", "--word", "a.b", "--degree", "0"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: degree must be >= 1\n"


def test_check_uc_soundness(capsys):
    code, _, _ = run(capsys, "check", "uc-soundness", "thm1_m", "--max-len", "8")
    assert code == 0


def test_check_uc_soundness_false(capsys, monkeypatch):
    # a language that is not a union of degree-1 compositions: b a is missing
    monkeypatch.setattr("jumpfa.analysis.enumerate_language", lambda m, n: LangSet([("a", "b")], n))
    code, out, _ = run(capsys, "check", "uc-soundness", "equal_counts_jfa", "--max-len", "2")
    assert code == 1
    assert out.splitlines() == ["sound: False", "bound: 2"]


def test_check_jfa_parikh(capsys):
    code, _, _ = run(capsys, "check", "jfa-parikh", "equal_counts_jfa", "--max-len", "6")
    assert code == 0
    code, _, err = run(capsys, "check", "jfa-parikh", "thm1_m")
    assert code == 2


def test_check_inclusion(capsys):
    code, _, _ = run(capsys, "check", "inclusion", "dyck_gjfa", "thm1_m", "--max-len", "4")
    assert code == 1


def test_corpus_prefix_beats_file(capsys, tmp_path, monkeypatch):
    # a file named like a corpus entry: corpus wins unless the path exists only
    monkeypatch.chdir(tmp_path)
    (tmp_path / "thm1_m").write_text("alphabet: a\nstates: q\ninitial: q\nfinal: q\n")
    code, out, _ = run(capsys, "enum", "thm1_m", "--max-len", "2")
    assert out.splitlines() == ["a.abar"]  # corpus entry, not the file
    code, out, _ = run(capsys, "enum", "corpus:thm1_m", "--max-len", "2")
    assert out.splitlines() == ["a.abar"]


def test_corpus_list(capsys):
    code, out, _ = run(capsys, "corpus", "list")
    assert code == 0
    assert any(line.startswith("thm1_m\tgjfa") for line in out.splitlines())


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "enum", "semidyck2_gjfa", "--max-len", "4")
    _, second, _ = run(capsys, "enum", "semidyck2_gjfa", "--max-len", "4")
    assert first == second


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "alphabet: a\ncomponent: yy\ninitial: zz\nfinal: yy\nfinal: zz\naxiom: eps\n",
            "error: duplicate final directive",
        ),
        (
            "alphabet: a\ncomponent: yy\ninitial: yy\ninitial: yy\nfinal: yy\n",
            "error: duplicate initial directive",
        ),
        (
            "alphabet: a\ncomponent: yy\ninitial: zz\nfinal: yy\naxiom: eps\n",
            "error: initial component 'zz' is not declared",
        ),
        (
            "alphabet: a\ncomponent: yy\ninitial: yy\nfinal: zz\naxiom: eps\n",
            "error: final component 'zz' is not declared",
        ),
        (
            "alphabet: a\ncomponent: yy\ninitial: yy\nfinal: yy\naxiom: eps\n"
            "edge: yy (eps|a|eps) zz\n",
            "error: edge component 'zz' is not declared",
        ),
        # found by tests/test_cli_fuzz.py: these converted with exit 0 to an invalid automaton
        ("alphabet: | a\ncomponent: yy\ninitial: yy\nfinal: yy\naxiom: a\n", "error: invalid token '|'"),
        ("alphabet: a\ncomponent: yy -1\ninitial: yy\nfinal: yy\n", "error: invalid token '-1'"),
    ],
    ids=[
        "duplicate-final",
        "duplicate-initial",
        "undeclared-initial",
        "undeclared-final",
        "undeclared-edge-endpoint",
        "invalid-alphabet-symbol",
        "invalid-component",
    ],
)
def test_convert_from_gcis_rejects_bad_initial_or_final(capsys, tmp_path, text, message):
    gp = tmp_path / "bad.gcis"
    gp.write_text(text)
    code, out, err = run(capsys, "convert", "from-gcis", str(gp))
    assert code == 2 and out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "control, message",
    [
        (
            "control-state: s t\ncontrol-initial: s\ncontrol-initial: t\ncontrol-final: t\n",
            "error: duplicate control-initial directive",
        ),
        (
            "control-state: s t\ncontrol-initial: zz\ncontrol-final: t\n",
            "error: control-initial state 'zz' is not declared",
        ),
        (
            "control-state: s t\ncontrol-initial: s\ncontrol-final: t zz\n",
            "error: control-final state 'zz' is not declared",
        ),
        (
            "control-state: s t\ncontrol-initial: s\ncontrol-final: t\ncontrol-edge: s 0 zz\n",
            "error: control-edge state 'zz' is not declared",
        ),
        # found by tests/test_cli_fuzz.py: rcg-to-gcis passed this state through with exit 0
        ("control-state: s t -1\ncontrol-initial: s\ncontrol-final: t\n", "error: invalid token '-1'"),
    ],
    ids=[
        "duplicate-initial",
        "undeclared-initial",
        "undeclared-final",
        "undeclared-edge-endpoint",
        "invalid-state",
    ],
)
def test_convert_rcg_rejects_bad_control_initial_or_final(capsys, tmp_path, control, message):
    rp = tmp_path / "bad.rcg"
    rp.write_text("alphabet: a\naxiom: eps\nrule: 0 (eps|a|eps)\ncontrol-edge: s 0 t\n" + control)
    code, out, err = run(capsys, "convert", "rcg-to-gcis", str(rp))
    assert code == 2 and out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("label", ["5", "1", "x"])
def test_convert_rcg_rejects_out_of_range_label(capsys, tmp_path, label):
    rp = tmp_path / "bad.rcg"
    rp.write_text(
        "alphabet: a\naxiom: eps\nrule: 0 (eps|a|eps)\ncontrol-state: s t\n"
        f"control-initial: s\ncontrol-final: t\ncontrol-edge: s {label} t\n"
    )
    code, out, err = run(capsys, "convert", "rcg-to-gcis", str(rp))
    assert code == 2 and out == ""
    assert f"error: control-edge label '{label}' is neither eps nor a rule index < 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("enum", "dyck_gjfa", "--max-len", "-3"),
        ("check", "uc-soundness", "thm1_m", "--max-len", "-1"),
    ],
    ids=["enum", "check"],
)
def test_negative_max_len_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument --max-len: must be >= 0, got {argv[-1]}" in captured.err
    assert "Traceback" not in captured.err


def test_convert_rcg_rejects_non_ascii_rule_index(capsys, tmp_path):
    rp = tmp_path / "bad.rcg"
    rp.write_text(
        "alphabet: a\naxiom: eps\nrule: \u00b2 (eps|a|eps)\ncontrol-state: s\n"
        "control-initial: s\ncontrol-final: s\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "convert", "rcg-to-gcis", str(rp))
    assert code == 2 and out == ""
    assert err == "error: rule needs '<index> (<l>|<i>|<r>)', got '\u00b2 (eps|a|eps)'\n"


# For every check kind and transform operation: a missing argument, an extra
# positional and an option the kind does not take (kinds that take any number
# of words cannot have an extra positional).
USAGE_ERRORS = {
    "equiv-missing": ("check", "equiv", "thm1_m"),
    "equiv-extra": ("check", "equiv", "thm1_m", "dyck_gjfa", "extra"),
    "equiv-option": ("check", "equiv", "thm1_m", "dyck_gjfa", "--degree", "2"),
    "inclusion-missing": ("check", "inclusion"),
    "inclusion-extra": ("check", "inclusion", "thm1_m", "dyck_gjfa", "extra"),
    "inclusion-option": ("check", "inclusion", "thm1_m", "dyck_gjfa", "--word", "a"),
    "uc-falsify-missing": ("check", "uc-falsify", "--oracle", "ab_star"),
    "uc-falsify-extra": ("check", "uc-falsify", "--oracle", "ab_star", "--word", "a.b", "x"),
    "uc-falsify-option": ("check", "uc-falsify", "--oracle", "ab_star", "--word", "a.b",
                          "--max-len", "3"),
    "uc-soundness-missing": ("check", "uc-soundness"),
    "uc-soundness-extra": ("check", "uc-soundness", "dyck_gjfa", "extra"),
    "uc-soundness-option": ("check", "uc-soundness", "dyck_gjfa", "--oracle", "ab_star"),
    "jfa-parikh-missing": ("check", "jfa-parikh"),
    "jfa-parikh-extra": ("check", "jfa-parikh", "sigma_star_ab", "extra"),
    "jfa-parikh-option": ("check", "jfa-parikh", "sigma_star_ab", "--degree", "1"),
    "reverse-missing": ("transform", "reverse"),
    "reverse-extra": ("transform", "reverse", "thm1_m", "extra"),
    "reverse-option": ("transform", "reverse", "thm1_m", "--alphabet", "a"),
    "union-missing": ("transform", "union", "thm1_m"),
    "union-extra": ("transform", "union", "thm1_m", "dyck_gjfa", "extra"),
    "union-option": ("transform", "union", "thm1_m", "dyck_gjfa", "--json"),
    "insert-missing": ("transform", "insert"),
    "insert-option": ("transform", "insert", "thm1_m", "a", "--alphabet", "a"),
    "insert-star-missing": ("transform", "insert-star"),
    "insert-star-option": ("transform", "insert-star", "thm1_m", "a", "--max-len", "2"),
    "finite-missing": ("transform", "finite", "a"),
    "finite-option": ("transform", "finite", "a", "--alphabet", "a", "--json"),
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_bad_argument_list_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "usage: jumpfa" in captured.err
    assert "Traceback" not in captured.err and "index out of range" not in captured.err


def test_unknown_corpus_name_is_unquoted(capsys):
    code, out, err = run(capsys, "member", "corpus:nosuch", "a")
    assert code == 2 and out == ""
    assert err == "error: unknown corpus name: nosuch\n"


def test_directory_input_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "enum", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_non_utf8_input_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin.gjfa"
    path.write_bytes(b"alphabet: a\xff\nstates: q\ninitial: q\nfinal: q\n")
    code, out, err = run(capsys, "enum", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path} is not UTF-8: invalid start byte at offset 11\n"


@pytest.mark.parametrize("alphabet", ["b", ""], ids=["other-symbol", "empty"])
def test_transform_finite_rejects_word_outside_alphabet(capsys, alphabet):
    code, out, err = run(capsys, "transform", "finite", "b.a", "--alphabet", alphabet)
    assert code == 2 and out == ""
    assert err == "error: word b.a uses symbol a outside the alphabet\n"


@pytest.mark.parametrize(
    "direction, suffix, text, message",
    [
        (
            "from-gcis",
            "gcis",
            "alphabet: a\ncomponent: c\ninitial: c\nfinal: c\naxiom: b\n",
            "error: axiom b uses symbol 'b' outside the alphabet",
        ),
        (
            "gcis-to-rcg",
            "gcis",
            "alphabet: a\ncomponent: c\ninitial: c\nfinal: c\naxiom: a\nedge: c (eps|a.b|eps) c\n",
            "error: rule (eps|a.b|eps) uses symbol 'b' outside the alphabet",
        ),
        (
            "rcg-to-gcis",
            "rcg",
            "alphabet: a\naxiom: eps\nrule: 0 (c|a|eps)\ncontrol-state: s\n"
            "control-initial: s\ncontrol-final: s\ncontrol-edge: s 0 s\n",
            "error: rule (c|a|eps) uses symbol 'c' outside the alphabet",
        ),
    ],
    ids=["gcis-axiom", "gcis-inserted-word", "rcg-context-word"],
)
def test_convert_rejects_word_outside_alphabet(capsys, tmp_path, direction, suffix, text, message):
    path = tmp_path / f"bad.{suffix}"
    path.write_text(text)
    code, out, err = run(capsys, "convert", direction, str(path))
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("direction", ["gcis-to-rcg", "from-gcis"])
def test_convert_names_the_same_context_rule_under_every_hash_seed(tmp_path, direction):
    # edges are a frozenset, so an unsorted walk would name a rule by hash order
    path = tmp_path / "ctx.gcis"
    path.write_text(
        "alphabet: a b\ncomponent: p q\ninitial: p\nfinal: q\naxiom: eps\n"
        "edge: p (a|b|eps) q\nedge: q (b|a|eps) p\nedge: p (eps|a|b) p\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    errors = set()
    for seed in "0123":
        done = subprocess.run(
            [sys.executable, "-m", "jumpfa.cli", "convert", direction, str(path)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2 and done.stdout == ""
        errors.add(done.stderr)
    assert errors == {"error: rule (eps|a|b) has a non-empty context\n"}
