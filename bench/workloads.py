"""The three workloads, each a fixed list of operations built from a seed.

An operation is one call into jumpfa that yields one verdict, together with
the check that decides whether the verdict is right. Every check compares
against refs, never against another jumpfa call. Builders take the imported
jumpfa modules, a seeded random.Random and a scratch directory for CLI input
files; they resolve the functions they call when they build, so a list built
after the tracer is installed calls the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import refs

# The checkout the benchmark runs in: bench/ sits at its root.
ROOT = Path(__file__).resolve().parent.parent


class Op:
    """One timed call: fn(*args), judged by check(result) -> bool.

    ``automaton`` and ``word`` describe the query for the workload's
    property shares; either may be None.
    """

    __slots__ = ("fn", "args", "check", "automaton", "word")

    def __init__(self, fn, args, check, automaton=None, word=None):
        self.fn = fn
        self.args = args
        self.check = check
        self.automaton = automaton
        self.word = word


class Workload:
    """Operations of one pass, plus what the traced run needs besides them.

    ``inproc_ops`` (cli only) run the same argv through cli.main inside the
    process, so the traced run can see the layers under the CLI.
    ``oracles`` count membership queries and are reset at each pass.
    """

    def __init__(self, ops, inproc_ops=None, oracles=()):
        self.ops = ops
        self.inproc_ops = inproc_ops
        self.oracles = list(oracles)


def equals(expected):
    return lambda result: result == expected


def words_equal(expected):
    return lambda result: result.words == expected


class CountingOracle:
    """Membership oracle for analysis calls: jump_accepts on one automaton."""

    def __init__(self, jump_accepts, m):
        self.jump_accepts = jump_accepts
        self.m = m
        self.reset()

    def reset(self):
        self.calls = 0
        self.seen = set()

    def __call__(self, w):
        self.calls += 1
        self.seen.add(w)
        return self.jump_accepts(self.m, w)


# Seeded members of each reference language. ``size`` counts inserted blocks.

def _insert_blocks(rng, base, blocks, size):
    w = tuple(base)
    for _ in range(size):
        block = rng.choice(blocks)
        i = rng.randint(0, len(w))
        w = w[:i] + block + w[i:]
    return w


def member(rng, name, size):
    if name == "semidyck2_gjfa":
        return _insert_blocks(rng, (), [("a1", "a1bar"), ("a2", "a2bar")], size)
    if name == "invhom_m":
        return _insert_blocks(rng, ("a1bar", "a1"), [("a1", "a1bar"), ("a2", "a2bar")], size)
    if name == "thm1_m":
        return _insert_blocks(rng, ("a", "abar"), [("abar", "a")], size)
    if name == "dyck_gjfa":
        return _insert_blocks(rng, (), [("a", "abar")], size)
    if name == "equal_counts_jfa":
        w = ["a", "b", "c"] * size
        rng.shuffle(w)
        return tuple(w)
    if name == "sigma_star_ab":
        return tuple(rng.choice("ab") for _ in range(2 * size))
    raise KeyError(name)


def non_member(rng, name, alphabet, length):
    pred = refs.REFERENCE[name]
    while True:
        w = tuple(rng.choice(alphabet) for _ in range(length))
        if not pred(w):
            return w


def _corpus(jf):
    return {name: jf["corpus"].corpus_get(name).value for name in refs.REFERENCE}


def build_sweep(jf, rng, workdir):
    """jump_accepts on all of Sigma^<=n per automaton, and test_01's generate sample.

    The operations of all automata are shuffled together, so that each kind
    of query is spread over the whole pass and meets the same mix of machine
    speed; run one automaton after another, and the p50, which rests on the
    two four-letter sweeps, would follow the speed of one second of the pass.
    """
    sem = jf["semantics"]
    ops = []
    for name, m in _corpus(jf).items():
        pred = refs.REFERENCE[name]
        alphabet = tuple(sorted(m.alphabet))
        words = refs.sigma_upto(alphabet, 7 if len(alphabet) >= 4 else 8)
        verdict = {w: pred(w) for w in words}
        ops += [Op(sem.jump_accepts, (m, w), equals(verdict[w]), name, w) for w in words]
        # All members plus 150 non-members, stratified by length so that the
        # sample's cost does not depend on the seed.
        members = [w for w in words if verdict[w]]
        by_len = {}
        for w in words:
            if not verdict[w]:
                by_len.setdefault(len(w), []).append(w)
        total = sum(len(g) for g in by_len.values())
        sample = []
        for length in sorted(by_len):
            group = sorted(by_len[length])
            sample += rng.sample(group, round(min(150, total) * len(group) / total))
        ops += [Op(sem.generate_accepts, (m, w), equals(verdict[w]), name, w) for w in members + sample]
    rng.shuffle(ops)
    return Workload(ops)


def build_analysis(jf, rng, workdir):
    """Analyses, language operators and insertion systems over the corpus."""
    sem, an, lo = jf["semantics"], jf["analysis"], jf["langops"]
    cons, ins, fmt = jf["constructions"], jf["insertion_systems"], jf["formats"]
    c = _corpus(jf)
    oracles = {name: CountingOracle(sem.jump_accepts, m) for name, m in c.items()}
    ops = []

    for name, m in c.items():
        pred = refs.REFERENCE[name]
        n = max(jf["core"].degree(m), 1)
        # Many mid-sized words, so the seed's choice moves the pass cost
        # little. Larger members of equal_counts_jfa vary from 11 to 22 ms
        # with the seed and would sit at the p90 rank.
        for size in (2,) + (3,) * 9:
            w = member(rng, name, size)

            def check(report, w=w, n=n, pred=pred):
                return report.verdict == "passes" and refs.uc_witness_ok(pred, w, n, *report.witness)

            ops.append(Op(an.uc_condition, (oracles[name], w, n), check, name, w))

    soundness_bound = {"semidyck2_gjfa": 10, "invhom_m": 8, "equal_counts_jfa": 8,
                       "thm1_m": 10, "dyck_gjfa": 10, "sigma_star_ab": 7}
    for name, bound in soundness_bound.items():
        ops.append(Op(an.uc_soundness_check, (c[name], bound), equals(True), name))

    phi = jf["corpus"].corpus_get("phi_thm4").value
    ab_reps = frozenset(("a", "b") * k for k in range(1, 5))
    ops.append(Op(lo.hom_preimage_bounded, (phi, oracles["invhom_m"], 8), words_equal(ab_reps), "invhom_m"))

    def no_diff(report):
        return report.equal and report.counterexamples == ()

    for name, m in c.items():
        ops.append(Op(an.bounded_equiv, (cons.reverse_gjfa(cons.reverse_gjfa(m)), m, 8), no_diff, name))
    for a, b in (("thm1_m", "dyck_gjfa"), ("semidyck2_gjfa", "invhom_m")):
        ops.append(Op(an.bounded_equiv, (cons.union_gjfa(c[a], c[b]), cons.union_gjfa(c[b], c[a]), 8), no_diff))
        ops.append(Op(an.bounded_inclusion, (c[a], cons.union_gjfa(c[a], c[b]), 8), no_diff, a))
    d1 = cons.insert_star_gjfa(
        cons.finite_gjfa(lo.LangSet([()]), {"a", "abar"}), lo.LangSet([("a", "abar")])
    )
    ops.append(Op(an.bounded_equiv, (d1, c["dyck_gjfa"], 10), no_diff, "dyck_gjfa"))
    dyck_not_thm1 = tuple(
        sorted(refs.filtered(lambda w: refs.dyck(w) and not refs.thm1(w), {"a", "abar"}, 8), key=refs.shortlex)
    )
    ops.append(Op(an.bounded_inclusion, (c["dyck_gjfa"], c["thm1_m"], 8),
                  lambda r: not r.equal and r.counterexamples == dyck_not_thm1, "dyck_gjfa"))

    for name in ("equal_counts_jfa", "sigma_star_ab"):
        ops.append(Op(an.jfa_permutation_check, (c[name], 6), equals(True), name))

    for name, m in c.items():
        bound = 7 if len(m.alphabet) >= 4 else 8
        expected = refs.filtered(refs.REFERENCE[name], m.alphabet, bound)
        g = ins.gcis_from_gjfa(m)
        ops.append(Op(ins.gcis_enumerate, (g, bound), words_equal(expected), name))
        ops.append(Op(ins.rcg_enumerate, (ins.rcg_from_gcis(g), bound), words_equal(expected), name))

    # Plain insertion systems read off the star state of the two Dyck
    # automata: enumerated, and round-tripped through their text format.
    for name, bound in (("dyck_gjfa", 12), ("semidyck2_gjfa", 7)):
        m = c[name]
        loops = {((), r.label, ()) for r in m.rules if r.src == r.dst == m.initial}
        system = ins.InsSystem(m.alphabet, lo.LangSet([()]), [ins.InsRule(*rule) for rule in loops])
        expected = refs.filtered(refs.REFERENCE[name], m.alphabet, bound)
        ops.append(Op(ins.ins_enumerate, (system, bound), words_equal(expected), name))
        text = refs.ins_text(m.alphabet, {()}, loops)
        ops.append(Op(lambda t: fmt.serialize_ins(fmt.parse_ins(t)), (text,), equals(text), name))

    ops.append(Op(lo.insert_star_bounded, (lo.LangSet([()]), lo.LangSet([("a", "abar")]), 12),
                  words_equal(refs.filtered(refs.dyck, {"a", "abar"}, 12))))
    ops.append(Op(lo.semi_dyck_bounded, (2, 7),
                  words_equal(refs.filtered(refs.semidyck2, {"a1", "a1bar", "a2", "a2bar"}, 7))))
    da = refs.filtered(refs.dyck, {"a", "abar"}, 7)
    db = frozenset(tuple("b" if s == "a" else "bbar" for s in w) for w in da)
    ops.append(Op(lo.shuffle_sets, (lo.LangSet(da), lo.LangSet(db), 7),
                  words_equal(refs.filtered(refs.shuffle_of_dycks, {"a", "abar", "b", "bbar"}, 7))))
    ops.append(Op(lo.sigma_star_bounded, ({"a", "b", "c"}, 8),
                  words_equal(frozenset(refs.sigma_upto(("a", "b", "c"), 8)))))

    # Text round trips on reference-written files: serialize(parse(text)) == text.
    for name in ("invhom_m", "equal_counts_jfa"):
        a = refs.plain(c[name])
        g = refs.to_gcis(a)
        for parse, serialize, text in (
            (fmt.parse_gjfa, fmt.serialize_gjfa, refs.gjfa_text(a)),
            (fmt.parse_gcis, fmt.serialize_gcis, refs.gcis_text(g)),
            (fmt.parse_rcg, fmt.serialize_rcg, refs.rcg_text(refs.gcis_to_rcg(g))),
        ):
            ops.append(Op(lambda t, p=parse, s=serialize: s(p(t)), (text,), equals(text), name))
    return Workload(ops, oracles=oracles.values())


# -- cli --------------------------------------------------------------------


def _child_runner(env):
    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "jumpfa.cli", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        return proc.returncode, proc.stdout

    return run


def _inproc_runner(cli):
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # what the child's exit status would be
                code = exc.code
        return code, buf.getvalue()

    return run


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_commands(jf, rng, workdir):
    """[(argv, check, automaton, word)] with CLI input files written to workdir."""
    c = _corpus(jf)
    plain = {name: refs.plain(m) for name, m in c.items()}
    cmds = []

    def expect(code, out):
        return lambda r: r == (code, out)

    for name, pred in refs.REFERENCE.items():
        alphabet = sorted(c[name].alphabet)
        w1 = member(rng, name, 3)
        w2 = member(rng, name, 3) if name == "sigma_star_ab" else non_member(rng, name, alphabet, len(w1))
        for w in (w1, w2):
            ok = pred(w)
            out = f"word: {refs.word_str(w)}\njump: {ok}\ngenerate: {ok}\n"
            cmds.append((["member", name, refs.word_str(w), "--semantics", "both"], expect(0 if ok else 1, out), name, w))

    for name, bound in (("thm1_m", 8), ("dyck_gjfa", 8), ("equal_counts_jfa", 6)):
        words = sorted(refs.filtered(refs.REFERENCE[name], c[name].alphabet, bound), key=refs.shortlex)
        out = "".join(refs.word_str(w) + "\n" for w in words)
        cmds.append((["enum", name, "--max-len", str(bound)], expect(0, out), name, None))

    def write(filename, text):
        path = workdir / filename
        path.write_text(text, encoding="utf-8")
        return str(path)

    thm1_file = write("thm1.gjfa", refs.gjfa_text(refs.reverse(refs.reverse(plain["thm1_m"]))))
    cmds.append((["check", "equiv", thm1_file, "thm1_m", "--max-len", "8"],
                 expect(0, "result: equal\nholds: True\nbound: 8\ncounterexamples: []\n"), "thm1_m", None))
    rdyck_file = write("rdyck.gjfa", refs.gjfa_text(refs.reverse(plain["dyck_gjfa"])))
    diff = sorted(refs.filtered(lambda w: refs.dyck(w) != refs.dyck(w[::-1]), {"a", "abar"}, 6), key=refs.shortlex)
    cmds.append((["check", "equiv", rdyck_file, "dyck_gjfa", "--max-len", "6"],
                 expect(1, f"result: equal\nholds: False\nbound: 6\ncounterexamples: {[refs.word_str(w) for w in diff]}\n"),
                 "dyck_gjfa", None))

    # The four heaviest commands (0.2 to 0.5 s of checking on top of the
    # process): the p90 rank falls among them, not on the start-up jitter
    # of the 140 ms commands.
    for name, bound in (("semidyck2_gjfa", 10), ("equal_counts_jfa", 9), ("dyck_gjfa", 14), ("sigma_star_ab", 8)):
        cmds.append((["check", "uc-soundness", name, "--max-len", str(bound)],
                     expect(0, f"sound: True\nbound: {bound}\n"), name, None))

    for oracle, pred, w, n in (
        ("ab_star", refs.ab_star, ("a", "b") * rng.randint(2, 3), 2),
        ("dyck_balance", refs.dyck, member(rng, "dyck_gjfa", 3), 2),
    ):
        cmds.append((["check", "uc-falsify", "--oracle", oracle, "--word", refs.word_str(w),
                      "--degree", str(n), "--json"], _uc_json_check(pred, w, n), None, w))

    cmds.append((["transform", "reverse", "invhom_m"], expect(0, refs.gjfa_text(refs.reverse(plain["invhom_m"]))), "invhom_m", None))
    cmds.append((["transform", "union", "thm1_m", "dyck_gjfa"],
                 expect(0, refs.gjfa_text(refs.union(plain["thm1_m"], plain["dyck_gjfa"]))), None, None))

    g = refs.to_gcis(plain["invhom_m"])
    r = refs.gcis_to_rcg(g)
    gcis_file = write("invhom.gcis", refs.gcis_text(g))
    rcg_file = write("invhom.rcg", refs.rcg_text(r))
    cmds.append((["convert", "to-gcis", "invhom_m"], expect(0, refs.gcis_text(g)), "invhom_m", None))
    cmds.append((["convert", "gcis-to-rcg", gcis_file], expect(0, refs.rcg_text(r)), "invhom_m", None))
    cmds.append((["convert", "rcg-to-gcis", rcg_file], expect(0, refs.gcis_text(refs.rcg_to_gcis(r))), "invhom_m", None))
    cmds.append((["convert", "from-gcis", gcis_file], expect(0, refs.gjfa_text(refs.from_gcis(g))), "invhom_m", None))
    return cmds


def _uc_json_check(pred, w, n):
    """Verify the verdict from its certificate, so the expected verdict need not be known."""

    def check(result):
        code, out = result
        report = json.loads(out)
        parse = lambda s: () if s == "eps" else tuple(s.split("."))
        if report["verdict"] == "passes":
            return code == 0 and refs.uc_witness_ok(pred, w, n, *map(parse, report["witness"]))
        violations = [
            (tuple(map(parse, v["factorization"])), tuple(map(parse, v["split"])))
            for v in report["violations"]
        ]
        return code == 1 and report["verdict"] == "falsified" and refs.uc_violations_ok(pred, w, n, violations)

    return check


def build_cli(jf, rng, workdir):
    """`python -m jumpfa.cli` children, one at a time, on seeded words and files."""
    workdir.mkdir(parents=True, exist_ok=True)
    child = _child_runner(child_env())
    inproc = _inproc_runner(jf["cli"])
    cmds = cli_commands(jf, rng, workdir)
    ops = [Op(child, (argv,), check, a, w) for argv, check, a, w in cmds]
    inproc_ops = [Op(inproc, (argv,), check, a, w) for argv, check, a, w in cmds]
    return Workload(ops, inproc_ops=inproc_ops)


BUILDERS = {
    "sweep": build_sweep,
    "analysis": build_analysis,
    "cli": build_cli,
}
