"""Verdict references for the benchmark, written without calling jumpfa.

Each corpus automaton with a reference has a predicate here that decides
membership by a counter or stack pass. The canonical text writers and the
structural conversions restate the documented file formats and
constructions on plain tuples, so CLI output can be checked byte for byte
against text that the code under test did not produce.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def _reduce(w, pairs):
    """Normal form of w under cancelling adjacent (x, y) in pairs.

    Both rule sets used below are semi-Dyck reductions, which are confluent,
    so one stack pass gives the unique irreducible word.
    """
    stack = []
    for sym in w:
        if stack and (stack[-1], sym) in pairs:
            stack.pop()
        else:
            stack.append(sym)
    return tuple(stack)


_D2 = {("a1", "a1bar"), ("a2", "a2bar")}


def dyck(w):
    """Balanced over a/abar: prefixes never dip below zero, total zero."""
    depth = 0
    for sym in w:
        depth += 1 if sym == "a" else -1
        if depth < 0:
            return False
    return depth == 0


def semidyck2(w):
    return _reduce(w, _D2) == ()


def equal_counts(w):
    return w.count("a") == w.count("b") == w.count("c")


def thm1(w):
    """thm1_m deletes abar.a factors in q, then a.abar into the final state."""
    return _reduce(w, {("abar", "a")}) == ("a", "abar")


def invhom(w):
    """invhom_m deletes Dyck pairs in q, then a1bar.a1 into the final state."""
    return _reduce(w, _D2) == ("a1bar", "a1")


def always(w):
    return True


def ab_star(w):
    return len(w) % 2 == 0 and w == ("a", "b") * (len(w) // 2)


def shuffle_of_dycks(w):
    """Member of D(a, abar) shuffled with D(b, bbar): both projections balanced."""
    a_part = tuple(s for s in w if s in ("a", "abar"))
    b_part = tuple("a" if s == "b" else "abar" for s in w if s in ("b", "bbar"))
    return dyck(a_part) and dyck(b_part)


# Corpus automata with a reference, in the order the workloads visit them.
REFERENCE = {
    "semidyck2_gjfa": semidyck2,
    "invhom_m": invhom,
    "equal_counts_jfa": equal_counts,
    "thm1_m": thm1,
    "dyck_gjfa": dyck,
    "sigma_star_ab": always,
}


def shortlex(w):
    return (len(w), w)


@lru_cache(maxsize=None)
def sigma_upto(alphabet, n):
    """All words of length <= n over the sorted alphabet tuple, in shortlex order."""
    return tuple(w for k in range(n + 1) for w in itertools.product(alphabet, repeat=k))


def filtered(pred, alphabet, n):
    """Reference-filtered Sigma^<=n as a frozenset."""
    return _filtered(pred, tuple(sorted(alphabet)), n)


@lru_cache(maxsize=None)
def _filtered(pred, alphabet, n):
    return frozenset(w for w in sigma_upto(alphabet, n) if pred(w))


def clear_caches():
    """Drop the cached word sets, so that every set-up builds its own."""
    sigma_upto.cache_clear()
    _filtered.cache_clear()


def word_str(w):
    return ".".join(w) if w else "eps"


# Automata as plain tuples: (states, alphabet, rules, initial, finals) with
# rules a frozenset of (src, label, dst).


def plain(m):
    """Read a jumpfa Gjfa into the plain tuple form."""
    rules = frozenset((r.src, tuple(r.label), r.dst) for r in m.rules)
    return (frozenset(m.states), frozenset(m.alphabet), rules, m.initial, frozenset(m.finals))


def fresh(existing):
    i = 0
    while f"_g{i}" in existing:
        i += 1
    return f"_g{i}"


def reverse(a):
    states, alphabet, rules, initial, finals = a
    return (states, alphabet, frozenset((s, l[::-1], d) for s, l, d in rules), initial, finals)


def union(a, b):
    def renamed(m, suffix):
        states, alphabet, rules, initial, finals = m
        return (
            {q + suffix for q in states},
            {(s + suffix, l, d + suffix) for s, l, d in rules},
            initial + suffix,
            {f + suffix for f in finals},
        )

    sa, ra, ia, fa = renamed(a, "_1")
    sb, rb, ib, fb = renamed(b, "_2")
    s = fresh(sa | sb)
    finals = fa | fb
    if a[3] in a[4] or b[3] in b[4]:
        finals |= {s}
    rules = ra | rb | {(s, (), ia), (s, (), ib)}
    return (frozenset(sa | sb | {s}), a[1] | b[1], frozenset(rules), s, frozenset(finals))


_NOOP = ((), (), ())


def to_gcis(a):
    """(components, edges, axioms, alphabet, initial, final); rules are (left, ins, right)."""
    states, alphabet, rules, initial, finals = a
    entry = fresh(states)
    edges = {(d, ((), l, ()), s) for s, l, d in rules} | {(entry, _NOOP, f) for f in finals}
    return (states | {entry}, frozenset(edges), frozenset({()}), alphabet, entry, initial)


def gcis_to_rcg(g):
    """(alphabet, axioms, rules, control) with control (states, transitions, initial, finals)."""
    components, edges, axioms, alphabet, initial, final = g
    rules = tuple(sorted({rule for _, rule, _ in edges}))
    index = {rule: i for i, rule in enumerate(rules)}
    transitions = frozenset((s, str(index[rule]), d) for s, rule, d in edges)
    return (alphabet, axioms, rules, (components, transitions, initial, frozenset({final})))


def rcg_to_gcis(r):
    alphabet, axioms, rules, (states, transitions, initial, finals) = r
    edges = {(s, _NOOP if l is None else rules[int(l)], d) for s, l, d in transitions}
    components = set(states)
    if len(finals) == 1:
        (final,) = finals
    else:
        final = fresh(components)
        components.add(final)
        edges |= {(f, _NOOP, final) for f in finals}
    return (frozenset(components), frozenset(edges), axioms, alphabet, initial, final)


def from_gcis(g):
    components, edges, axioms, alphabet, initial, final = g
    sink = fresh(components)
    rules = {(d, rule[1], s) for s, rule, d in edges} | {(initial, ax, sink) for ax in axioms}
    return (components | {sink}, alphabet, frozenset(rules), final, frozenset({sink}))


def _rule_str(rule):
    return "(" + "|".join(word_str(part) for part in rule) + ")"


def gjfa_text(a):
    states, alphabet, rules, initial, finals = a
    lines = [
        "alphabet: " + " ".join(sorted(alphabet)),
        "states: " + " ".join(sorted(states)),
        f"initial: {initial}",
        "final: " + " ".join(sorted(finals)),
    ]
    for s, l, d in sorted(rules, key=lambda r: (r[0], shortlex(r[1]), r[2])):
        lines.append(f"rule: {s} {word_str(l)} {d}")
    return "\n".join(lines) + "\n"


def gcis_text(g):
    components, edges, axioms, alphabet, initial, final = g
    lines = [
        "alphabet: " + " ".join(sorted(alphabet)),
        "component: " + " ".join(sorted(components)),
        f"initial: {initial}",
        f"final: {final}",
    ]
    lines += [f"axiom: {word_str(ax)}" for ax in sorted(axioms, key=shortlex)]
    lines += [f"edge: {s} {_rule_str(rule)} {d}" for s, rule, d in sorted(edges)]
    return "\n".join(lines) + "\n"


def rcg_text(r):
    alphabet, axioms, rules, (states, transitions, initial, finals) = r
    lines = ["alphabet: " + " ".join(sorted(alphabet))]
    lines += [f"axiom: {word_str(ax)}" for ax in sorted(axioms, key=shortlex)]
    lines += [f"rule: {i} {_rule_str(rule)}" for i, rule in enumerate(rules)]
    lines.append("control-state: " + " ".join(sorted(states)))
    lines.append(f"control-initial: {initial}")
    lines.append("control-final: " + " ".join(sorted(finals)))
    for s, l, d in sorted(transitions, key=lambda t: (t[0], t[1] or "", t[2])):
        lines.append(f"control-edge: {s} {l if l is not None else 'eps'} {d}")
    return "\n".join(lines) + "\n"


def ins_text(alphabet, axioms, rules):
    lines = ["alphabet: " + " ".join(sorted(alphabet))]
    lines += [f"axiom: {word_str(ax)}" for ax in sorted(axioms, key=shortlex)]
    lines += [f"rule: {_rule_str(rule)}" for rule in sorted(rules)]
    return "\n".join(lines) + "\n"


def uc_witness_ok(member, w, n, u1, v, u2):
    """A 'passes' witness holds: w = u1 v u2, 1 <= |v| <= n, v re-inserts anywhere."""
    if u1 + v + u2 != w or not 1 <= len(v) <= n:
        return False
    rest = u1 + u2
    return all(member(rest[:cut] + v + rest[cut:]) for cut in range(len(rest) + 1))


def uc_violations_ok(member, w, n, violations):
    """A 'falsified' certificate holds: every factor occurrence has a failing split."""
    expected = {
        (w[:i], w[i:j], w[j:]) for i in range(len(w)) for j in range(i + 1, min(i + n, len(w)) + 1)
    }
    covered = set()
    for (u1, v, u2), (x, y) in violations:
        if u1 + v + u2 != w or x + y != u1 + u2 or member(x + v + y):
            return False
        covered.add((u1, v, u2))
    return covered == expected
