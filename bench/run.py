"""Benchmark for jumpfa: end-to-end and per-layer metrics on three workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, in turn
    python3 bench/run.py --compare before.txt after.txt  # report only

A run builds its workload from --seed, then times a closed loop: one caller,
no threads, at most one CLI child at a time. It repeats whole passes over
the workload's fixed operation list until --seconds have passed, and checks
every verdict against bench/refs.py. The last line of stdout is the result
object; the line before it is a record that --compare reads.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports the per-layer metrics: passes with spans around every public jumpfa
boundary (bench/spans.py), alternating with untraced passes.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import refs
import spans
import workloads
from workloads import ROOT

MODULES = ("core", "semantics", "langops", "constructions", "analysis",
           "insertion_systems", "corpus", "formats", "cli")
# An untraced run sets up at least SETUPS times and for SETUP_SECONDS before
# timing, and again after it, so that setup_s, their median, spans the run.
SETUPS = 3
SETUP_SECONDS = 1.0
MIN_SAMPLES = 100
# Latencies of the last max(KEEP_PASSES, KEEP_SAMPLES / ops) passes are kept,
# in a buffer allocated before timing, so its size does not grow with speed.
KEEP_PASSES = 8
KEEP_SAMPLES = 4096
OUT_DIR = ROOT / ".bench_out"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_jumpfa():
    """Import every jumpfa module afresh, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "jumpfa" or n.startswith("jumpfa.")]:
        del sys.modules[name]
    return {short: importlib.import_module(f"jumpfa.{short}") for short in MODULES}


def samples(n):
    return array.array("d", bytes(8 * n))


def run_pass(ops, lat, failures, oracles=(), clock=time.process_time, offset=0):
    """Run every op once, storing latencies at lat[offset:]; return busy seconds.

    In-process operations are timed in process CPU time: for this
    single-threaded loop without I/O it equals wall time, less the time the
    machine gave to other work. CLI children are timed with the wall clock.
    """
    for o in oracles:
        o.reset()
    for i, op in enumerate(ops, offset):
        t0 = clock()
        try:
            result = op.fn(*op.args)
        except Exception as exc:  # a crash in the code under test is a failed op
            result = exc
        lat[i] = clock() - t0
        try:
            ok = not isinstance(result, Exception) and op.check(result)
        except Exception as exc:  # a malformed result is a failed op too
            ok, result = False, exc
        if not ok:
            failures.append((op, result))
    return math.fsum(lat[offset:offset + len(ops)])


def measure(ops, seconds, oracles=(), clock=time.process_time):
    """One untimed warm-up pass, then whole passes for `seconds`.

    Returns (latencies of the kept passes, per-pass ops/s, attempted,
    failures). Objects built so far are frozen out of the cyclic collector
    first, so collection pauses depend on the program's garbage, not on the
    size of the inputs.
    """
    n = len(ops)
    kept = max(KEEP_PASSES, -(-KEEP_SAMPLES // n))
    lat = samples(n * kept)
    gc.collect()
    gc.freeze()
    failures = []
    run_pass(ops, lat, failures, oracles, clock)
    attempted = n
    rates = []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline or len(rates) * n < MIN_SAMPLES:
        busy = run_pass(ops, lat, failures, oracles, clock, offset=len(rates) % kept * n)
        attempted += n
        rates.append(n / busy)
    return lat[:min(len(rates), kept) * n], rates, attempted, failures


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup(name, seed, workdir):
    """Import jumpfa (which builds the corpus) and build the workload's inputs."""
    refs.clear_caches()
    gc.collect()
    t0 = time.perf_counter()
    jf = import_jumpfa()
    wl = workloads.BUILDERS[name](jf, random.Random(seed), workdir)
    dt = time.perf_counter() - t0
    refs.clear_caches()
    return dt, jf, wl


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def automaton_props(jf):
    """{corpus name: (degree <= 1, has an eps rule)} for the referenced automata."""
    out = {}
    for name in refs.REFERENCE:
        m = jf["corpus"].corpus_get(name).value
        out[name] = (jf["core"].is_jfa(m), any(not r.label for r in m.rules))
    return out


def shares(ops, props):
    """Property shares of one pass; they depend only on the op list."""
    degree1 = eps = long_ = repeat = 0
    seen = set()
    for op in ops:
        if op.automaton is not None:
            d1, e = props[op.automaton]
            degree1 += d1
            eps += e
        if op.word is not None:
            long_ += len(op.word) >= 14
            key = (op.automaton, op.word)
            repeat += key in seen
            seen.add(key)
    n = len(ops)
    return {
        "share.degree1_queries": degree1 / n,
        "share.eps_rule_queries": eps / n,
        "share.long_queries": long_ / n,
        "share.repeat_queries": repeat / n,
    }


def repeat_setup(name, seed, workdir, times):
    """Set up SETUPS times or more, for SETUP_SECONDS; append the times; return the last."""
    start = len(times)
    while len(times) - start < SETUPS or sum(times[start:]) < SETUP_SECONDS:
        wl = None  # free the previous set-up before the next is built
        dt, _, wl = setup(name, seed, workdir)
        times.append(dt)
    return wl


def run_untraced(name, seed, seconds, workdir):
    setup_times = []
    wl = repeat_setup(name, seed, workdir, setup_times)
    before = peak_rss_mb(name)
    clock = time.perf_counter if wl.inproc_ops else time.process_time
    lat, rates, attempted, failures = measure(wl.ops, seconds, wl.oracles, clock=clock)
    peak = peak_rss_mb(name)  # before the set-ups below and before sorting the samples
    n_ops, wl = len(wl.ops), None
    repeat_setup(name, seed, workdir, setup_times)
    ordered = sorted(lat)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": percentile(ordered, 0.5) * 1e3,
        "latency_p90_ms": percentile(ordered, 0.9) * 1e3,
        "peak_rss_mb": peak,
    }
    notes = {"samples": len(lat), "passes": len(rates), "ops_per_pass": n_ops,
             "setups": len(setup_times), "peak_rss_mb_before_timing": before}
    return values, attempted, failures, notes


def layer_values(tracer, oracles):
    summary = tracer.summary()
    values = {}
    for span, field in spans.span_metric_names():
        calls, busy, own, size = summary[span]
        values[f"{span}.{field}"] = {
            "calls": calls, "busy_s": busy, "self_s": own, "words_out": size, "bytes": size,
        }[field]
    calls = sum(o.calls for o in oracles)
    distinct = sum(len(o.seen) for o in oracles)
    values["analysis.oracle.calls"] = calls
    values["analysis.oracle.distinct_ratio"] = distinct / calls if calls else 0.0
    return values


def cli_costs(wl, inproc_lat, failures):
    """Interpreter start-up and per-process cost of the CLI, from children."""
    env = workloads.child_env()

    def wall(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=60)
        return time.perf_counter() - t0

    bare, imported = [], []
    for _ in range(5):
        bare.append(wall("pass"))
        imported.append(wall("import jumpfa.cli"))
    child_lat = samples(len(wl.ops))
    run_pass(wl.ops, child_lat, failures, clock=time.perf_counter)
    return len(wl.ops), {
        "cli.startup_ms": (statistics.median(imported) - statistics.median(bare)) * 1e3,
        "cli.process_overhead_ms": (statistics.median(child_lat) - statistics.median(inproc_lat)) * 1e3,
    }


def run_traced(name, seed, seconds, workdir):
    """Untraced and traced passes in turn, after a traced set-up.

    Alternating keeps both sides in the same stretch of machine speed, so
    traced over untraced median ops/s measures the tracing overhead. The
    per-layer values cover the traced set-up and the first traced pass.
    """
    _, jf, wl = setup(name, seed, workdir)
    values = shares(wl.ops, automaton_props(jf))
    values.update({"cli.startup_ms": 0.0, "cli.process_overhead_ms": 0.0})
    plain_ops = wl.inproc_ops or wl.ops
    lat = samples(len(plain_ops))
    failures = []
    run_pass(plain_ops, lat, failures, wl.oracles)  # warm-up
    attempted = len(plain_ops)
    if wl.inproc_ops:
        run_pass(plain_ops, lat, failures)
        attempted += len(plain_ops)
        n, costs = cli_costs(wl, lat, failures)
        attempted += n
        values.update(costs)

    tracer = spans.Tracer()
    tracer.install(jf)
    traced = workloads.BUILDERS[name](jf, random.Random(seed), workdir)
    traced_ops = traced.inproc_ops or traced.ops
    gc.collect()
    gc.freeze()
    rates, traced_rates = [], []
    deadline = time.perf_counter() + seconds
    while not rates or time.perf_counter() < deadline:
        tracer.resume()
        busy = run_pass(traced_ops, lat, failures, traced.oracles)
        tracer.pause()
        if not traced_rates:
            values.update(layer_values(tracer, traced.oracles))
            tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.tsv")
        tracer.reset()
        traced_rates.append(len(traced_ops) / busy)
        busy = run_pass(plain_ops, lat, failures, wl.oracles)
        rates.append(len(plain_ops) / busy)
        attempted += len(traced_ops) + len(plain_ops)
    values["trace.ops_per_s_ratio"] = statistics.median(traced_rates) / statistics.median(rates)
    notes = {"untraced_passes": len(rates), "traced_passes": len(traced_rates), "ops_per_pass": len(plain_ops)}
    return values, attempted, failures, notes


def describe(op, result):
    args = ", ".join(_short(a) for a in op.args)
    return f"{getattr(op.fn, '__qualname__', op.fn)}({args}) -> {_short(result)}"


def _short(x):
    text = repr(x)
    return text if len(text) <= 200 else text[:197] + "..."


def emit(args, values, attempted, failures, notes):
    spec = load_spec()
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = len(failures)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": args.seed}
    print(f"workload {args.workload}  seconds {args.seconds:g}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  seed {args.seed}")
    note = {
        "setup_s": f"median of {notes.get('setups')} set-ups",
        "peak_rss_mb": f"{notes.get('peak_rss_mb_before_timing', 0):.6g} MB before timing",
        "ops_per_s": f"median of {notes.get('passes')} passes of {notes.get('ops_per_pass')} ops",
        "latency_p50_ms": f"{notes.get('samples')} samples",
        "latency_p90_ms": f"{notes.get('samples')} samples",
    }
    for key, m in metrics.items():
        print(f"  {key:<48} {m['value']:>14.6g} {m['unit']:<6} {note.get(key, '') if not args.trace else ''}")
    if not args.trace:
        print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} {'ratio':<6} {failed} of {attempted} ops")
    for op, result in failures[:5]:
        print(f"FAILED {describe(op, result)}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "notes": notes, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "metrics": {k: m["value"] for k, m in metrics.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own process, so peak_rss_mb is that workload's alone."""
    code = 0
    for name in workloads.BUILDERS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def _read_records(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith('{"record"'):
                rec = json.loads(line)["record"]
                if not rec["trace"]:
                    records.append(rec)
    return records


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a, path_b):
    """Print each end-to-end metric per workload for two result files (report only)."""
    spec = load_spec()
    a, b = _read_records(path_a), _read_records(path_b)
    print(f"A = {path_a}  B = {path_b}  (median [q1, q3] over runs; worse = change against A)")
    for name in workloads.BUILDERS:
        ra = [r for r in a if r["workload"] == name]
        rb = [r for r in b if r["workload"] == name]
        if not ra or not rb:
            continue
        print(f"{name}: {len(ra)} runs in A, {len(rb)} runs in B")
        for m in spec["end_to_end"] + [{"name": "fail_ratio", "unit": "ratio", "better": "lower"}]:
            key = m["name"]
            get = (lambda r: r["fail_ratio"]) if key == "fail_ratio" else (lambda r: r["metrics"][key])
            qa, qb = _quartiles([get(r) for r in ra]), _quartiles([get(r) for r in rb])
            if qa[1] == 0:
                verdict = "same" if qb[1] == 0 else "worse"
                ratio = "-"
            else:
                ratio = f"{qb[1] / qa[1]:.3f}"
                worse = (qb[1] - qa[1]) / qa[1] * (1 if m["better"] == "lower" else -1)
                if "bound" not in m:
                    verdict = ""
                else:
                    verdict = "within bound" if worse <= m["bound"] else f"worse by more than {m['bound']:.0%}"
            print(f"  {key:<16} {m['unit']:<6} A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  B/A {ratio}  {verdict}")
    return 0


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two files of run output")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (ROOT / "src" / "jumpfa" / "__init__.py").is_file():
        print(f"error: no jumpfa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict order steer which branch a search expands first, so
        # string hashing is fixed for the run and for its CLI children.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        values, attempted, failures, notes = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(args, values, attempted, failures, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
