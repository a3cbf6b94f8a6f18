"""Command-line front end.

Exit codes: 0 accept/equal/pass, 1 reject/unequal/falsified, 2 usage or
input error, 3 disagreement between the two semantics (implementation bug).
Reports go to stdout, diagnostics to stderr. Words on the command line are
``.``-separated tokens with ``eps`` for the empty word.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from jumpfa import analysis, constructions, corpus, formats, insertion_systems, semantics
from jumpfa.core import Gjfa, validate, word, word_str
from jumpfa.langops import LangSet


class CliError(Exception):
    pass


def _corpus_value(name: str, kind: str, noun: str):
    """The value of a corpus entry, which must be of the given kind."""
    try:
        entry = corpus.corpus_get(name)
    except KeyError:
        raise CliError(f"unknown corpus name: {name}") from None
    if entry.kind != kind:
        raise CliError(f"corpus entry {name} is a {entry.kind}, not {noun}")
    return entry.value


def _load_gjfa(name: str) -> Gjfa:
    """Resolve a corpus name (corpus names win over files; prefix to force)."""
    if name.startswith("corpus:") or name in {n for n, _, _ in corpus.corpus_list()}:
        return _corpus_value(name.removeprefix("corpus:"), "gjfa", "an automaton")
    if not os.path.exists(name):
        raise CliError(f"no such file or corpus entry: {name}")
    m = formats.parse_gjfa(_read(name))
    diags = validate(m)
    if diags:
        raise CliError("; ".join(diags))
    return m


def _read(path: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8: {exc.reason} at offset {exc.start}") from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None


def non_negative_int(text: str) -> int:
    """argparse type for length bounds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _cmd_member(args) -> int:
    m = _load_gjfa(args.automaton)
    w = word(args.word)
    if any(sym not in m.alphabet for sym in w):
        raise CliError(f"word {args.word} uses symbols outside the alphabet")
    results = {}
    if args.semantics in ("jump", "both"):
        results["jump"] = semantics.jump_accepts(m, w)
    if args.semantics in ("generate", "both"):
        results["generate"] = semantics.generate_accepts(m, w)
    _emit({"word": word_str(w), **results}, args.json)
    values = list(results.values())
    if args.semantics == "both" and values[0] != values[1]:
        print("semantics disagree", file=sys.stderr)
        return 3
    return 0 if values[0] else 1


def _cmd_enum(args) -> int:
    m = _load_gjfa(args.automaton)
    for w in semantics.enumerate_language(m, args.max_len):
        print(word_str(w))
    return 0


def _print_gjfa(m: Gjfa) -> int:
    sys.stdout.write(formats.serialize_gjfa(m))
    return 0


def _cmd_reverse(args) -> int:
    return _print_gjfa(constructions.reverse_gjfa(_load_gjfa(args.automaton)))


def _cmd_union(args) -> int:
    return _print_gjfa(constructions.union_gjfa(_load_gjfa(args.a), _load_gjfa(args.b)))


def _cmd_insert(args) -> int:
    m = _load_gjfa(args.automaton)
    return _print_gjfa(args.build(m, LangSet(map(word, args.words))))


def _cmd_finite(args) -> int:
    alphabet = word(args.alphabet)
    return _print_gjfa(constructions.finite_gjfa(LangSet(map(word, args.words)), alphabet))


def _cmd_convert(args) -> int:
    if args.direction == "to-gcis":
        g = insertion_systems.gcis_from_gjfa(_load_gjfa(args.input))
        sys.stdout.write(formats.serialize_gcis(g))
    elif args.direction == "from-gcis":
        m = insertion_systems.gjfa_from_gcis(formats.parse_gcis(_read(args.input)))
        sys.stdout.write(formats.serialize_gjfa(m))
    elif args.direction == "gcis-to-rcg":
        r = insertion_systems.rcg_from_gcis(formats.parse_gcis(_read(args.input)))
        sys.stdout.write(formats.serialize_rcg(r))
    elif args.direction == "rcg-to-gcis":
        g = insertion_systems.gcis_from_rcg(formats.parse_rcg(_read(args.input)))
        sys.stdout.write(formats.serialize_gcis(g))
    return 0


def _cmd_bounded(args) -> int:
    report = args.check(_load_gjfa(args.a), _load_gjfa(args.b), args.max_len)
    counterexamples = [word_str(w) for w in report.counterexamples]
    payload = {"result": args.result, "holds": report.equal, "bound": report.bound}
    _emit({**payload, "counterexamples": counterexamples}, args.json)
    return 0 if report.equal else 1


def _cmd_uc_falsify(args) -> int:
    oracle = _corpus_value(args.oracle, "predicate", "a predicate")
    report = analysis.uc_condition(oracle, word(args.word), args.degree)
    payload = {
        "verdict": report.verdict,
        "word": word_str(report.word),
        "degree": report.degree,
        "trivial": report.trivial,
    }
    if report.witness:
        payload["witness"] = [word_str(part) for part in report.witness]
    else:
        payload["violations"] = [
            {"factorization": [word_str(p) for p in fact], "split": [word_str(p) for p in split]}
            for fact, split in report.violations
        ]
    _emit(payload, args.json)
    return 0 if report.passes else 1


def _cmd_uc_soundness(args) -> int:
    ok = analysis.uc_soundness_check(_load_gjfa(args.automaton), args.max_len)
    _emit({"sound": ok, "bound": args.max_len}, args.json)
    return 0 if ok else 1


def _cmd_jfa_parikh(args) -> int:
    ok = analysis.jfa_permutation_check(_load_gjfa(args.automaton), args.max_len)
    _emit({"permutation_closure": ok, "bound": args.max_len}, args.json)
    return 0 if ok else 1


def _cmd_corpus(args) -> int:
    for name, kind, citation in corpus.corpus_list():
        print(f"{name}\t{kind}\t{citation}")
    return 0


def _add(sub, name, fn, *positionals, help, max_len=False, as_json=False, **defaults):
    """Add subcommand name with the given positionals and options; it runs fn(args)."""
    p = sub.add_parser(name, help=help)
    for positional in positionals:
        p.add_argument(positional)
    if max_len:
        p.add_argument("--max-len", type=non_negative_int, default=8)
    if as_json:
        p.add_argument("--json", action="store_true")
    p.set_defaults(fn=fn, **defaults)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(prog="jumpfa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add(sub, "member", _cmd_member, "automaton", "word", help="test word membership")
    p.add_argument("--semantics", choices=["jump", "generate", "both"], default="jump")
    p.add_argument("--json", action="store_true")
    _add(sub, "enum", _cmd_enum, "automaton", help="enumerate the bounded language", max_len=True)

    ops = sub.add_parser("transform", help="build a derived automaton")
    ops = ops.add_subparsers(dest="operation", required=True)
    _add(ops, "reverse", _cmd_reverse, "automaton", help="reversal L^R")
    _add(ops, "union", _cmd_union, "a", "b", help="union L(a) | L(b)")
    for name, build, text in (
        ("insert", constructions.insert_gjfa, "L <- K: insert one of the words"),
        ("insert-star", constructions.insert_star_gjfa, "L <-* K: insert the words repeatedly"),
    ):
        p = _add(ops, name, _cmd_insert, "automaton", help=text, build=build)
        p.add_argument("words", nargs="*", default=())
    p = _add(ops, "finite", _cmd_finite, help="the finite language of the words")
    p.add_argument("words", nargs="*", default=())
    p.add_argument("--alphabet", required=True, help="dot-separated symbols")

    p = sub.add_parser("convert", help="convert between automata and systems")
    p.add_argument("direction", choices=["to-gcis", "from-gcis", "gcis-to-rcg", "rcg-to-gcis"])
    p.add_argument("input")
    p.set_defaults(fn=_cmd_convert)

    kinds = sub.add_parser("check", help="run an analysis check")
    kinds = kinds.add_subparsers(dest="kind", required=True)
    for name, check, result, text in (
        ("equiv", analysis.bounded_equiv, "equal", "L(a) = L(b) up to --max-len"),
        ("inclusion", analysis.bounded_inclusion, "included", "L(a) <= L(b) up to --max-len"),
    ):
        _add(kinds, name, _cmd_bounded, "a", "b", help=text, max_len=True, as_json=True,
             check=check, result=result)
    text = "union-of-compositions condition on --word"
    p = _add(kinds, "uc-falsify", _cmd_uc_falsify, help=text, as_json=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--degree", type=int, default=1)
    for name, fn, text in (
        ("uc-soundness", _cmd_uc_soundness, "every accepted word passes uc-falsify"),
        ("jfa-parikh", _cmd_jfa_parikh, "degree-1 language is its permutation closure"),
    ):
        _add(kinds, name, fn, "automaton", help=text, max_len=True, as_json=True)

    p = sub.add_parser("corpus", help="list built-in corpus entries")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
