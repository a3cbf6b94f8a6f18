"""Mutation check for the fast paths: each listed mutant must fail its tests.

A mutant is one exact text replacement in one file of ``src/jumpfa``, and
the test files (or single tests, as pytest node ids) that must catch it.
The script copies ``src/`` (with ``tests/`` and ``bench/``, which the tests
read) to a temporary directory, checks that the unmutated copy passes every
named test file, then applies each mutant in turn and runs its test files
against the copy.

It exits 1 when a mutant survives or when an ``old`` text does not occur
exactly once (a refactor must update its mutants), and 0 when every mutant
is killed. pytest does not collect this file. Run it from the repository
root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/jumpfa
    old: str
    new: str
    tests: tuple[str, ...]  # relative to the repository root


MUTANTS = [
    Mutant(
        "early length test reads length n + 1",
        "semantics.py",
        "if n not in lengths.get(m.initial, ()):",
        "if n + 1 not in lengths.get(m.initial, ()):",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "goal set built from the states, not the finals",
        "core.py",
        'self.goals = frozenset((f, "") for f in m.finals)',
        'self.goals = frozenset((f, "") for f in m.states)',
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "Parikh check compares vector sets only",
        "analysis.py",
        "count == _multinomial(vector) for vector, count in jumping.items()",
        "count > 0 for vector, count in jumping.items()",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "multinomial coefficient off by one",
        "analysis.py",
        "count *= comb(total, k)",
        "count *= comb(total + 1, k)",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "context match skips the last start position",
        "core.py",
        "for pos in range(len(w) - k + 1):",
        "for pos in range(len(w) - k):",
        ("tests/test_insertion_systems.py",),
    ),
    Mutant(
        "context rule inserts before left",
        "core.py",
        "i = pos + cut",
        "i = pos",
        ("tests/test_insertion_systems.py",),
    ),
    Mutant(
        "eps-rules counted as length 1 in the length sets",
        "core.py",
        "self._rule_graph(True, len)",
        "self._rule_graph(True, lambda v: max(len(v), 1))",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "length sets not regrown",
        "core.py",
        "if n > bound:",
        "if bound < 0:",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "Parikh vector counts every symbol as the first",
        "core.py",
        "self.units = {sym: 1 << FIELD * i for",
        "self.units = {sym: 1 << 0 * i for",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "vector ignores a symbol outside the code",
        "core.py",
        "sum(map(self.units.__getitem__, w))",
        "sum(self.units.get(s, 0) for s in w)",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "per-step length test reads the source state's set",
        "semantics.py",
        "len(w) - len(v) not in lengths.get(rule.dst, ())",
        "len(w) - len(v) not in lengths.get(rule.src, ())",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "new label sums not passed on",
        "core.py",
        "work.setdefault(nxt, set()).update(new)",
        "pass",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "eps-rules dropped from the label-sum fixpoint",
        "core.py",
        "for nxt, weight in edges.get(q, ()):",
        "for nxt, weight in [e for e in edges.get(q, ()) if e[1]]:",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "generation asks the deletion side's vector test",
        "semantics.py",
        "if vector is None or not m.initial_feasible(vector):",
        "if vector is None or not m.final_feasible(vector):",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        # a count that goes negative wraps round, so an infeasible vector's
        # search runs for hours: only the node-count test is named
        "vector search keeps negative counts",
        "core.py",
        "if y & guards == guards:",
        "if True:",
        ("tests/test_semantics.py::test_parikh_search_is_sized_to_the_query",),
    ),
    Mutant(
        "one vector verdict memo for both sides",
        "core.py",
        'self._feasible("_initial_verdicts", False, vector)',
        'self._feasible("_final_verdicts", False, vector)',
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "generation side's vector search walks forward from the initial state",
        "core.py",
        'self._feasible("_initial_verdicts", False, vector)',
        'self._feasible("_initial_verdicts", True, vector)',
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "vector search edges in hash order",
        "core.py",
        "rules = sorted(self.rules)",
        "rules = self.rules",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "JFA shortcut taken on a GJFA (deletion side)",
        "semantics.py",
        "return m.coded.jfa or _accepting_search",
        "return True or _accepting_search",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "JFA shortcut taken on a GJFA (generation side)",
        "semantics.py",
        "if coded.jfa:\n        return True\n",
        "if True:\n        return True\n",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "run skip applied to every label",
        "core.py",
        "    if v.count(v[0]) < len(v):\n        return range(len(w) + 1)\n",
        "",
        ("tests/test_core.py",),
    ),
    Mutant(
        "run skip dropped",
        "core.py",
        "return [i for i in range(len(w) + 1) if not i or w[i - 1] != v[0]]",
        "return range(len(w) + 1)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "subsequence window hi[i] - 1",
        "semantics.py",
        "_embeds(v, target, lo[i], hi[i])",
        "_embeds(v, target, lo[i], hi[i] - 1)",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "certified set with a reversed factor",
        "analysis.py",
        "passed.update(rest[:cut] + v + rest[cut:] for",
        "passed.update(rest[:cut] + v[::-1] + rest[cut:] for",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "uc_condition dedup dropped",
        "analysis.py",
        "ok = answers.get(u)",
        "ok = None",
        ("tests/test_analysis.py",),
    ),
    Mutant(
        "witness rebuild ignoring rule.dst",
        "semantics.py",
        "for rule, v in coded.by_src[q] if rule.dst == r for",
        "for rule, v in coded.by_src[q] for",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "rules tried in hash order",
        "core.py",
        "for r in sorted(m.rules)]",
        "for r in m.rules]",
        ("tests/test_semantics.py",),
    ),
    Mutant(
        "ends filter replaced by True",
        "core.py",
        "if node in ends]",
        "if True]",
        ("tests/test_insertion_systems.py",),
    ),
    Mutant(
        "JFA vector search weighs labels by length",
        "analysis.py",
        "m._rule_graph(False, lambda label: sum(map(units.__getitem__, label)))",
        "m._rule_graph(False, len)",
        ("tests/test_analysis.py::test_jfa_comparison_matches_enumeration",),
    ),
    Mutant(
        "JFA vector search drops eps-rules",
        "analysis.py",
        "if y & _TOTAL <= max_len:",
        "if weight and y & _TOTAL <= max_len:",
        ("tests/test_analysis.py::test_jfa_comparison_matches_enumeration",),
    ),
    Mutant(
        "inclusion takes the symmetric difference",
        "analysis.py",
        "return _compare(a, b, max_len, operator.sub)",
        "return _compare(a, b, max_len, operator.xor)",
        ("tests/test_analysis.py::test_jfa_comparison_matches_enumeration",),
    ),
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code for the test files, run against the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def main(names: list[str]) -> int:
    mutants = [mu for mu in MUTANTS if not names or mu.name in names]
    unknown = set(names) - {mu.name for mu in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="jumpfa-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        missing = []
        for mu in mutants:
            count = (copy / "src" / "jumpfa" / mu.path).read_text().count(mu.old)
            if count != 1:
                missing.append(f"{mu.name}: {mu.path} holds its old text {count} times, not once")
        if missing:
            print("\n".join(missing), file=sys.stderr)
            return 1
        tests = tuple(sorted({t for mu in mutants for t in mu.tests}))
        if run_tests(copy, tests) != 0:
            print(f"the unmutated copy fails {' '.join(tests)}", file=sys.stderr)
            return 1
        not_killed = []
        for mu in mutants:
            target = copy / "src" / "jumpfa" / mu.path
            original = target.read_text()
            target.write_text(original.replace(mu.old, mu.new))
            try:
                code = run_tests(copy, mu.tests)
            finally:
                target.write_text(original)
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{status}: {mu.name}")
            if code != 1:
                not_killed.append(mu.name)
    print(f"{len(mutants) - len(not_killed)} of {len(mutants)} mutants killed")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
