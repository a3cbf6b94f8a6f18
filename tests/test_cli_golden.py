"""Golden CLI output: exit code, stdout and stderr of a fixed list of valid commands.

``cli_golden.json`` holds what each command in COMMANDS printed when it was
recorded. An argument ``@NAME`` is the file NAME in a scratch directory,
written from the stdout of the earlier command saved as NAME. After an
intended change of output, re-record with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from jumpfa import cli
from jumpfa.corpus import corpus_automata

GOLDEN = Path(__file__).with_name("cli_golden.json")
AUTOMATA = [name for name, _ in corpus_automata()]

# (argv, name to save stdout as or None)
COMMANDS = [
    (["corpus", "list"], None),
    (["member", "equal_counts_jfa", "a.b.c"], None),
    (["member", "equal_counts_jfa", "c.a.b.b", "--semantics", "both"], None),
    (["member", "thm1_m", "eps", "--semantics", "both"], None),
    (["member", "thm1_m", "a.abar", "--json"], None),
    (["member", "corpus:thm1_m", "abar.a.a.abar", "--semantics", "generate", "--json"], None),
    (["member", "invhom_m", "a2.a1bar.a1.a2bar", "--semantics", "both"], None),
    (["member", "dyck_gjfa", "a.a.abar.abar", "--semantics", "both", "--json"], None),
    (["member", "semidyck2_gjfa", "a1.a2.a2bar.a1bar", "--semantics", "jump"], None),
    (["member", "sigma_star_ab", "b.a.b"], None),
    *((["enum", name, "--max-len", "4"], None) for name in AUTOMATA),
    (["enum", "dyck_gjfa"], None),
    (["transform", "reverse", "thm1_m"], "thm1_r.gjfa"),
    (["transform", "reverse", "@thm1_r.gjfa"], "thm1_rr.gjfa"),
    (["transform", "reverse", "dyck_gjfa"], "dyck_r.gjfa"),
    (["transform", "reverse", "invhom_m"], None),
    (["transform", "union", "thm1_m", "dyck_gjfa"], None),
    (["transform", "insert", "thm1_m", "a.abar", "abar"], None),
    (["transform", "finite", "eps", "--alphabet", "a.abar"], "eps.gjfa"),
    (["transform", "finite", "a", "b.a", "--alphabet", "a.b"], None),
    (["transform", "insert-star", "@eps.gjfa", "a.abar"], None),
    (["check", "equiv", "@thm1_rr.gjfa", "thm1_m", "--max-len", "6"], None),
    (["check", "equiv", "@dyck_r.gjfa", "dyck_gjfa", "--max-len", "6"], None),
    (["check", "equiv", "thm1_m", "dyck_gjfa", "--max-len", "4", "--json"], None),
    (["check", "inclusion", "dyck_gjfa", "thm1_m", "--max-len", "4"], None),
    (["check", "inclusion", "thm1_m", "dyck_gjfa", "--max-len", "6", "--json"], None),
    (["check", "uc-falsify", "--oracle", "ab_star", "--word", "a.b.a.b.a.b", "--degree", "2",
      "--json"], None),
    (["check", "uc-falsify", "--oracle", "ab_star", "--word", "a.b.a.b", "--degree", "2"], None),
    (["check", "uc-falsify", "--word", "a.abar.a.abar", "--oracle", "dyck_balance", "--degree",
      "2"], None),
    (["check", "uc-falsify", "--oracle", "equal_counts", "--word", "a.b.c", "--json"], None),
    (["check", "uc-soundness", "thm1_m", "--max-len", "6"], None),
    (["check", "uc-soundness", "dyck_gjfa", "--max-len", "6", "--json"], None),
    (["check", "uc-soundness", "semidyck2_gjfa", "--max-len", "4"], None),
    (["check", "jfa-parikh", "equal_counts_jfa", "--max-len", "6"], None),
    (["check", "jfa-parikh", "sigma_star_ab", "--max-len", "4", "--json"], None),
    (["check", "jfa-parikh", "thm1_m"], None),
    *(
        cmd
        for name in AUTOMATA
        for cmd in (
            (["convert", "to-gcis", name], f"{name}.gcis"),
            (["convert", "from-gcis", f"@{name}.gcis"], None),
            (["convert", "gcis-to-rcg", f"@{name}.gcis"], f"{name}.rcg"),
            (["convert", "rcg-to-gcis", f"@{name}.rcg"], None),
        )
    ),
    (["check", "equiv", "sigma_star_ab", "equal_counts_jfa", "--max-len", "3"], None),
    (["check", "inclusion", "sigma_star_ab", "equal_counts_jfa", "--max-len", "4", "--json"], None),
    (["check", "inclusion", "equal_counts_jfa", "sigma_star_ab", "--max-len", "3"], None),
    (["check", "equiv", "sigma_star_ab", "sigma_star_ab", "--max-len", "16"], None),
]


def run_all(workdir: Path) -> list[dict]:
    """Run COMMANDS in order through cli.main and record what each printed."""
    results = []
    for argv, save in COMMANDS:
        real = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(real)
        if save:
            (workdir / save).write_text(out.getvalue(), encoding="utf-8")
        results.append(
            {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        )
    return results


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == [argv for argv, _ in COMMANDS]
    for got, want in zip(run_all(tmp_path), golden):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_all(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(recorded)} commands in {GOLDEN}", file=sys.stderr)
