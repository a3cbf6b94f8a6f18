"""Command-line front end.

Exit codes: 0 accept/equal/pass, 1 reject/unequal/falsified, 2 usage or
input error, 3 disagreement between the two semantics (implementation bug).
Reports go to stdout, diagnostics to stderr. Words on the command line are
``.``-separated tokens with ``eps`` for the empty word.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from jumpfa import analysis, constructions, corpus, formats, semantics
from jumpfa.core import Gjfa, degree, validate, word, word_str
from jumpfa.langops import LangSet


class CliError(Exception):
    pass


def _load_gjfa(name: str) -> Gjfa:
    """Resolve a corpus name (corpus names win over files; prefix to force)."""
    if name.startswith("corpus:"):
        entry = corpus.corpus_get(name[len("corpus:") :])
    else:
        try:
            entry = corpus.corpus_get(name)
        except KeyError:
            entry = None
    if entry is not None:
        if entry.kind != "gjfa":
            raise CliError(f"corpus entry {entry.name} is a {entry.kind}, not an automaton")
        return entry.value
    if not os.path.exists(name):
        raise CliError(f"no such file or corpus entry: {name}")
    with open(name, encoding="utf-8") as fh:
        m = formats.parse_gjfa(fh.read())
    diags = validate(m)
    if diags:
        raise CliError("; ".join(diags))
    return m


def _read(path: str) -> str:
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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
    _emit({"word": args.word, **results}, args.json)
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


def _cmd_transform(args) -> int:
    if args.operation == "reverse":
        out = constructions.reverse_gjfa(_load_gjfa(args.inputs[0]))
    elif args.operation == "union":
        if len(args.inputs) != 2:
            raise CliError("union takes two automata")
        out = constructions.union_gjfa(_load_gjfa(args.inputs[0]), _load_gjfa(args.inputs[1]))
    elif args.operation in ("insert", "insert-star"):
        m = _load_gjfa(args.inputs[0])
        k = LangSet(word(t) for t in args.inputs[1:])
        build = (
            constructions.insert_gjfa
            if args.operation == "insert"
            else constructions.insert_star_gjfa
        )
        out = build(m, k)
    elif args.operation == "finite":
        if not args.alphabet:
            raise CliError("finite requires --alphabet")
        alphabet = word(args.alphabet)
        k = LangSet(word(t) for t in args.inputs)
        out = constructions.finite_gjfa(k, alphabet)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown transform {args.operation}")
    sys.stdout.write(formats.serialize_gjfa(out))
    return 0


def _cmd_convert(args) -> int:
    from jumpfa import insertion_systems as ins

    if args.direction == "to-gcis":
        g = ins.gcis_from_gjfa(_load_gjfa(args.input))
        sys.stdout.write(formats.serialize_gcis(g))
    elif args.direction == "from-gcis":
        m = ins.gjfa_from_gcis(formats.parse_gcis(_read(args.input)))
        sys.stdout.write(formats.serialize_gjfa(m))
    elif args.direction == "gcis-to-rcg":
        r = ins.rcg_from_gcis(formats.parse_gcis(_read(args.input)))
        sys.stdout.write(formats.serialize_rcg(r))
    elif args.direction == "rcg-to-gcis":
        g = ins.gcis_from_rcg(formats.parse_rcg(_read(args.input)))
        sys.stdout.write(formats.serialize_gcis(g))
    return 0


def _oracle(name: str):
    entry = corpus.corpus_get(name)
    if entry.kind != "predicate":
        raise CliError(f"corpus entry {name} is a {entry.kind}, not a predicate")
    return entry.value


def _cmd_check(args) -> int:
    if args.kind in ("equiv", "inclusion"):
        a = _load_gjfa(args.args[0])
        b = _load_gjfa(args.args[1])
        fn = analysis.bounded_equiv if args.kind == "equiv" else analysis.bounded_inclusion
        report = fn(a, b, args.max_len)
        _emit(
            {
                "result": "equal" if args.kind == "equiv" else "included",
                "holds": report.equal,
                "bound": report.bound,
                "counterexamples": [word_str(w) for w in report.counterexamples],
            },
            args.json,
        )
        return 0 if report.equal else 1
    if args.kind == "uc-falsify":
        if not args.oracle or not args.word:
            raise CliError("uc-falsify requires --oracle and --word")
        report = analysis.uc_condition(_oracle(args.oracle), word(args.word), args.degree)
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
                {
                    "factorization": [word_str(p) for p in fact],
                    "split": [word_str(p) for p in split],
                }
                for fact, split in report.violations
            ]
        _emit(payload, args.json)
        return 0 if report.passes else 1
    if args.kind == "uc-soundness":
        m = _load_gjfa(args.args[0])
        ok = analysis.uc_soundness_check(m, args.max_len)
        _emit({"sound": ok, "bound": args.max_len}, args.json)
        return 0 if ok else 1
    if args.kind == "jfa-parikh":
        m = _load_gjfa(args.args[0])
        if degree(m) > 1:
            raise CliError(f"degree {degree(m)} > 1: not a jumping finite automaton")
        ok = analysis.jfa_permutation_check(m, args.max_len)
        _emit({"permutation_closure": ok, "bound": args.max_len}, args.json)
        return 0 if ok else 1
    raise CliError(f"unknown check {args.kind}")  # pragma: no cover


def _cmd_corpus(args) -> int:
    for name, kind, citation in corpus.corpus_list():
        print(f"{name}\t{kind}\t{citation}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jumpfa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="test word membership")
    p.add_argument("automaton")
    p.add_argument("word")
    p.add_argument("--semantics", choices=["jump", "generate", "both"], default="jump")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_member)

    p = sub.add_parser("enum", help="enumerate the bounded language")
    p.add_argument("automaton")
    p.add_argument("--max-len", type=non_negative_int, default=8)
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("transform", help="build a derived automaton")
    p.add_argument(
        "operation", choices=["reverse", "union", "insert", "insert-star", "finite"]
    )
    p.add_argument("inputs", nargs="*")
    p.add_argument("--alphabet", help="dot-separated symbols (finite only)")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("convert", help="convert between automata and systems")
    p.add_argument(
        "direction", choices=["to-gcis", "from-gcis", "gcis-to-rcg", "rcg-to-gcis"]
    )
    p.add_argument("input")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("check", help="run an analysis check")
    p.add_argument(
        "kind", choices=["equiv", "inclusion", "uc-falsify", "uc-soundness", "jfa-parikh"]
    )
    p.add_argument("args", nargs="*")
    p.add_argument("--max-len", type=non_negative_int, default=8)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--word")
    p.add_argument("--oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("corpus", help="list built-in corpus entries")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, formats.ParseError, KeyError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
