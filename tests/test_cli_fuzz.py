"""Seeded fuzzing of the CLI and the parsers.

Serialized corpus files get one line dropped, duplicated or garbled, or one
token replaced or added, and run through ``cli.main`` in process (``member`` and
``convert``); ``.ins`` text, which no command reads, goes to ``parse_ins``
and must parse, and read back from its serialization, or raise ``ParseError``.
Valid argument lists get one argument dropped, duplicated, swapped, replaced
or inserted. Every input must be processed or rejected: a return code
0, 1 or 2, or argparse's ``SystemExit(2)``, never another exception or a
traceback, and an exit 0 from ``convert`` prints a file its parser reads back.
"""

import contextlib
import io
import random

import pytest

from jumpfa import cli
from jumpfa.core import validate, word_str
from jumpfa.corpus import corpus_automata
from jumpfa.formats import (
    ParseError,
    parse_gcis,
    parse_gjfa,
    parse_ins,
    parse_rcg,
    serialize_gcis,
    serialize_gjfa,
    serialize_ins,
    serialize_rcg,
)
from jumpfa.insertion_systems import InsRule, InsSystem, gcis_from_gjfa, rcg_from_gcis
from jumpfa.langops import langset

SEEDS = range(3)
CASES_PER_SEED = 50

# Characters and whole tokens the garbling draws from: directive and rule
# punctuation, the empty word, reserved and non-ASCII text, digits.
JUNK_CHARS = "ab_0eps.:|()#- é"
JUNK_TOKENS = ["", "eps", "x", "#", ":", "(", "|", ")", "(eps|eps)", "(a|b)", "a..b", "é", "0",
               "-1", "3", "_g0", "q q", "rule:", "eps.a"]


def _corpus_texts() -> dict[str, list[str]]:
    """Serialized corpus automata and the systems converted from them, by format."""
    texts: dict[str, list[str]] = {"gjfa": [], "gcis": [], "rcg": [], "ins": []}
    for _, m in corpus_automata():
        g = gcis_from_gjfa(m)
        texts["gjfa"].append(serialize_gjfa(m))
        texts["gcis"].append(serialize_gcis(g))
        texts["rcg"].append(serialize_rcg(rcg_from_gcis(g)))
        texts["ins"].append(serialize_ins(InsSystem(g.alphabet, g.axioms, (r for _, r, _ in g.edges))))
    contexts = InsSystem({"a", "b"}, langset("a", "eps"), {InsRule(("a",), ("b",), ("a",))})
    texts["ins"].append(serialize_ins(contexts))
    return texts


TEXTS = _corpus_texts()


def _junk(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(JUNK_TOKENS)
    return "".join(rng.choice(JUNK_CHARS) for _ in range(rng.randrange(1, 7)))


def _mutate_text(rng: random.Random, text: str) -> str:
    """Drop, duplicate or garble one line, or replace or add one token of a line."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    how = rng.choice(["drop", "duplicate", "garble-line", "garble-token"])
    if how == "drop":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "garble-line":
        chars = list(lines[i])
        for _ in range(rng.randrange(1, 4)):
            chars.insert(rng.randrange(len(chars) + 1), _junk(rng))
        lines[i] = "".join(chars)
    else:
        tokens = lines[i].split(" ")
        j = rng.randrange(len(tokens))
        tokens[j : j + rng.randrange(2)] = [_junk(rng)]  # replace a token or add one
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    """Drop, duplicate, swap, replace or insert one argument."""
    argv = list(argv)
    i = rng.randrange(len(argv))
    how = rng.choice(["drop", "duplicate", "swap", "replace", "insert"])
    option = rng.choice(["--max-len", "--json", "--degree", "--word", "--oracle", "--semantics",
                         "--alphabet", "-1", "2", "x.y", ""])
    if how == "drop":
        del argv[i]
    elif how == "duplicate":
        argv.insert(i, argv[i])
    elif how == "swap":
        j = min(i + 1, len(argv) - 1)
        argv[i], argv[j] = argv[j], argv[i]
    elif how == "replace":
        argv[i] = rng.choice([option, _junk(rng)])
    else:
        argv.insert(i, rng.choice([option, _junk(rng)]))
    return argv


def _run(argv: list[str]):
    """cli.main(argv) in process: (code, stdout, stderr), with code "usage" for SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = "usage" if exc.code == 2 else exc
    return code, out.getvalue(), err.getvalue()


def _check_outcome(argv, code, out, err, context):
    """Assert the one-input contract; context names the input in a failure."""
    assert code in (0, 1, 2, "usage"), context
    assert "Traceback" not in err, context
    if code == "usage":
        assert out == "" and err.startswith("usage: jumpfa"), context
    elif code == 2:
        assert out == "" and err.startswith("error: "), context
    elif argv[0] == "convert":
        assert code == 0, context
        target = {"to-gcis": parse_gcis, "from-gcis": parse_gjfa, "gcis-to-rcg": parse_rcg,
                  "rcg-to-gcis": parse_gcis}[argv[1]]
        parsed = target(out)
        if target is parse_gjfa:
            assert validate(parsed) == [], context


def _file_commands(fmt: str, path: str, rng: random.Random) -> list[list[str]]:
    if fmt == "gjfa":
        w = word_str(tuple(rng.choice("abc") for _ in range(rng.randrange(5))))
        return [["member", path, w, "--semantics", "both"], ["convert", "to-gcis", path]]
    if fmt == "gcis":
        return [["convert", "from-gcis", path], ["convert", "gcis-to-rcg", path]]
    return [["convert", "rcg-to-gcis", path]]


@pytest.mark.parametrize("fmt", ["gjfa", "gcis", "rcg"])
@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_files_are_processed_or_rejected(tmp_path, fmt, seed):
    rng = random.Random(f"{fmt}-{seed}")
    path = tmp_path / f"fuzz.{fmt}"
    for case in range(CASES_PER_SEED):
        text = _mutate_text(rng, rng.choice(TEXTS[fmt]))
        path.write_text(text, encoding="utf-8")
        for argv in _file_commands(fmt, str(path), rng):
            code, out, err = _run(argv)
            _check_outcome(argv, code, out, err, f"seed {seed} case {case} {argv}:\n{text}{err}")


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_ins_text_parses_or_raises_parse_error(seed):
    rng = random.Random(f"ins-{seed}")
    for case in range(CASES_PER_SEED):
        text = _mutate_text(rng, rng.choice(TEXTS["ins"]))
        try:
            system = parse_ins(text)
        except ParseError:
            continue
        assert parse_ins(serialize_ins(system)) == system, f"seed {seed} case {case}:\n{text}"


def _valid_argvs(tmp_path) -> list[list[str]]:
    gjfa = tmp_path / "m.gjfa"
    gjfa.write_text(TEXTS["gjfa"][1], encoding="utf-8")
    gcis = tmp_path / "m.gcis"
    gcis.write_text(TEXTS["gcis"][1], encoding="utf-8")
    rcg = tmp_path / "m.rcg"
    rcg.write_text(TEXTS["rcg"][1], encoding="utf-8")
    return [
        ["member", "thm1_m", "a.abar", "--semantics", "both", "--json"],
        ["member", str(gjfa), "abar.a"],
        ["enum", "thm1_m", "--max-len", "4"],
        ["transform", "reverse", str(gjfa)],
        ["transform", "union", "thm1_m", "dyck_gjfa"],
        ["transform", "insert-star", "thm1_m", "a.abar"],
        ["transform", "finite", "a", "b.a", "--alphabet", "a.b"],
        ["convert", "to-gcis", "dyck_gjfa"],
        ["convert", "from-gcis", str(gcis)],
        ["convert", "gcis-to-rcg", str(gcis)],
        ["convert", "rcg-to-gcis", str(rcg)],
        ["check", "equiv", "thm1_m", "dyck_gjfa", "--max-len", "4", "--json"],
        ["check", "inclusion", "thm1_m", str(gjfa), "--max-len", "4"],
        ["check", "uc-falsify", "--oracle", "ab_star", "--word", "a.b.a.b", "--degree", "2"],
        ["check", "uc-soundness", "thm1_m", "--max-len", "4"],
        ["check", "jfa-parikh", "sigma_star_ab", "--max-len", "3"],
        ["corpus", "list"],
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_argument_lists_are_processed_or_rejected(tmp_path, seed):
    rng = random.Random(f"argv-{seed}")
    valid = _valid_argvs(tmp_path)
    for case in range(CASES_PER_SEED):
        argv = _mutate_argv(rng, rng.choice(valid))
        code, out, err = _run(argv)
        _check_outcome(argv, code, out, err, f"seed {seed} case {case} {argv}:\n{err}")
