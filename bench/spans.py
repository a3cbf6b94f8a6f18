"""Span recording at the public boundaries of the jumpfa modules.

Only the traced run installs it. Each wrapped function records one span
(id, parent id, name, start, end) in memory; nesting follows the call stack,
so a span's self time is its duration minus the durations of its direct
children. Wrapping rebinds the function in every jumpfa module that imported
it, so calls between modules are seen too.
"""

from __future__ import annotations

import functools
import itertools
import time

# Public boundaries that have per-layer metrics, and the metrics each
# reports. words_out is len(result); bytes is the text read by parse_* or
# written by serialize_*.
FULL = ("calls", "busy_s", "self_s")
WORDS = FULL + ("words_out",)
BRIEF = ("calls", "busy_s")
TEXT = ("calls", "busy_s", "bytes")
WRAPPED = {
    "semantics": {"jump_accepts": FULL, "generate_accepts": FULL, "enumerate_language": WORDS},
    "langops": {
        "insert_star_bounded": WORDS,
        "shuffle_sets": WORDS,
        "hom_preimage_bounded": WORDS,
        "perm_closure": WORDS,
        "sigma_star_bounded": WORDS,
    },
    "analysis": {
        "uc_condition": FULL,
        "uc_soundness_check": FULL,
        "bounded_equiv": FULL,
        "bounded_inclusion": FULL,
        "jfa_permutation_check": FULL,
    },
    "insertion_systems": {
        "ins_enumerate": WORDS,
        "gcis_enumerate": WORDS,
        "rcg_enumerate": WORDS,
        "gcis_from_gjfa": BRIEF,
        "gjfa_from_gcis": BRIEF,
        "rcg_from_gcis": BRIEF,
        "gcis_from_rcg": BRIEF,
    },
    "constructions": {
        "finite_gjfa": BRIEF,
        "insert_gjfa": BRIEF,
        "insert_star_gjfa": BRIEF,
        "reverse_gjfa": BRIEF,
        "union_gjfa": BRIEF,
    },
    "formats": {f"{op}_{k}": TEXT for op in ("parse", "serialize") for k in ("gjfa", "ins", "gcis", "rcg")},
    "cli": {"main": ("busy_s",)},
}
# Methods of core.Nfa, reported as core.nfa_<method>.
NFA_METHODS = ("step", "eps_closure", "enumerate_bounded")


def span_metric_names():
    """(span name, metric field) for every metric the spans yield."""
    out = [(f"{mod}.{fn}", field) for mod, fns in WRAPPED.items() for fn, fields in fns.items() for field in fields]
    out += [(f"core.nfa_{meth}", field) for meth in NFA_METHODS for field in FULL]
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.sizes = {}  # name -> summed size
        self._stack = [0]
        self._ids = itertools.count(1)
        self._bindings = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name, fn, fields):
        spans, sizes, stack, ids = self.spans, self.sizes, self._stack, self._ids
        clock = time.perf_counter
        sizes.setdefault(name, 0)
        counts_input = "bytes" in fields and ".parse_" in name
        counts_output = "words_out" in fields or ("bytes" in fields and not counts_input)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if counts_input:
                sizes[name] += len(args[0])
            elif counts_output:
                sizes[name] += len(result)
            return result

        return wrapper

    def install(self, modules):
        """Wrap WRAPPED and NFA_METHODS in the given {short name: module} map."""
        for short, fns in WRAPPED.items():
            for fn_name, fields in fns.items():
                original = getattr(modules[short], fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original, fields)
                for mod in modules.values():
                    if getattr(mod, fn_name, None) is original:
                        self._bindings.append((mod, fn_name, original, wrapper))
        nfa = modules["core"].Nfa
        for meth in NFA_METHODS:
            original = nfa.__dict__[meth]
            self._bindings.append((nfa, meth, original, self._wrap(f"core.nfa_{meth}", original, FULL)))
        self.resume()

    def resume(self):
        """Bind the wrappers (again)."""
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def pause(self):
        """Bind the original functions; operations built while tracing still record their own span."""
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def reset(self):
        self.spans.clear()
        for name in self.sizes:
            self.sizes[name] = 0

    def summary(self):
        """{name: (calls, busy_s, self_s, size)} over the recorded spans.

        Spans close child-first, so by the time a span is read in recording
        order all of its children have added their durations to it.
        """
        child_time = {}
        stats = {name: [0, 0.0, 0.0] for name in self.sizes}
        for sid, parent, name, start, end in self.spans:
            dur = end - start
            st = stats[name]
            st[0] += 1
            st[1] += dur
            st[2] += dur - child_time.pop(sid, 0.0)
            child_time[parent] = child_time.get(parent, 0.0) + dur
        return {name: (c, busy, own, self.sizes[name]) for name, (c, busy, own) in stats.items()}

    def write(self, path):
        """Write the spans as tab-separated lines: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
