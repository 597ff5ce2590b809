"""Benchmark of the regcov CLI on three seeded workloads.

    python3 perfbench/run.py --workload decide|synth|plain --seed N \
        --seconds S --trace 0|1

One single-threaded closed-loop client calls `regcov.cli.main(argv)` in
process with the argv a user would type, captures stdout and parses the
verdict.  Every decided verdict is checked against independent oracles after
the timed loop (perfbench/gate.py).  Untraced runs print the end-to-end
metrics; traced runs wrap the layer boundaries (perfbench/spans.py), run
each query untraced and traced, and print the per-layer metrics with the
tracing overhead.  The last line of stdout is one JSON object.  Exit status
is 0 when every check passed, 1 when a verdict, a re-check or one of
regcov's own checks failed, and 2 when the program could not be loaded.
"""

from __future__ import annotations

import os
import sys

# Python salts string hashes per process, and regcov's outputs and the
# order of its work follow set iteration order; a fixed salt makes runs
# repeat.  exec replaces this process, so no process is left behind.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import time

T_START = time.perf_counter()  # set-up is timed from here to the first query

import argparse
import collections
import contextlib
import ctypes
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import re
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile

import workloads
from gate import Gate
from spans import LAYERS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7

# A query that outgrows this address space raises MemoryError in this
# process and is counted as not decided, instead of the process being killed.
ADDRESS_SPACE_BYTES = 384 << 20
# A query that uses more CPU than this at the reference speed (see
# REFERENCE_S) is stopped and counted as not decided ("deadline"), so that
# one blow-up cannot take a whole run.  At the reference speed the slowest
# query that finishes took up to 5.0 s and the fastest one stopped here
# would need 11.6 s; 7.5 s lies 1.5x from both.  Scaled, the deadline
# moves with the machine's speed, so that no query crosses it when the
# machine slows down.
QUERY_CPU_S = 7.5
# Outcomes set by the two limits above; the digest does not tell them apart,
# since which limit a blow-up meets first depends on the machine.
LIMITS = ("deadline", "MemoryError")
# The live memory blocks are counted while a query runs (PeakBlocks), at least
# BLOCK_SAMPLE_CPU_S of CPU time apart, and further apart on a large heap, so
# that counting takes at most BLOCK_SAMPLE_SHARE of the query's time.
BLOCK_SAMPLE_CPU_S = 0.001
BLOCK_SAMPLE_SHARE = 0.02
# setup_s is the median of the run's own set-up and this many set-ups in
# fresh processes, each as cold as the run's.
SETUP_CHILDREN = 2
# Timings are scaled to a machine on which the reference loop (reference_s)
# takes REFERENCE_S.  The loop runs between queries; a query's time is
# scaled by REFERENCE_S over the mean of the loops just before and after it.
REFERENCE_S = 0.005
# The deadline is scaled by the median of this many latest reference loops.
DEADLINE_REFERENCES = 5
# The set-up is scaled by the median of this many reference loops after it.
SETUP_REFERENCES = 5
SELF_SUM_BOUND = 0.05      # layer self times vs traced query time

CAP_RE = re.compile(r"cap '([^']+)'")


class Deadline(BaseException):
    """Raised in the query by the CPU-time timer."""


def _on_deadline(signum, frame):
    raise Deadline()


class PeakBlocks:
    """The most memory blocks one query held at once.

    A block is one allocation of the interpreter: an object or an object's
    buffer.  The count is sampled on a CPU-time timer while the query runs,
    and the count at its start is taken off.  Unlike the resident set size,
    it does not count memory that the allocators keep after an earlier query
    freed it: every pass has a blow-up that ends at the address-space limit,
    and the process's peak RSS stays there.
    """

    def __init__(self):
        self.base = self.peak = 0
        self.running = False

    def count(self):
        self.peak = max(self.peak, sys.getallocatedblocks())

    def on_timer(self, signum, frame):
        t0 = time.perf_counter()
        self.count()
        if self.running:
            # A count walks every pool of the allocator, so it costs more as
            # the heap grows; the next one waits long enough to keep the
            # cost of counting under BLOCK_SAMPLE_SHARE of the query's time.
            cost = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_VIRTUAL,
                             max(BLOCK_SAMPLE_CPU_S, cost / BLOCK_SAMPLE_SHARE))

    def start(self):
        self.base = self.peak = sys.getallocatedblocks()
        self.running = True
        signal.setitimer(signal.ITIMER_VIRTUAL, BLOCK_SAMPLE_CPU_S)

    def stop(self) -> int:
        self.running = False
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.count()
        return self.peak - self.base


def reference_s() -> float:
    """Time of a fixed piece of work like regcov's inner loops (tuples in
    sets and dicts, frozensets, integer bit operations).  The machine's speed
    changes by up to 2x within seconds and stays changed for seconds to
    minutes; timings scaled by this loop's time vary a third to a tenth as
    much between runs as the wall times do."""
    gc.disable()  # the loop makes no cycles; a collection would be noise
    t0 = time.perf_counter()
    table, seen = {}, set()
    for k in range(6000):
        table[(k, k & 7)] = k * 3
        seen.add(frozenset((k & 15, k & 31)))
        _ = (k << 5) | (k >> 2)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def scaled_s(res) -> float:
    """A query's time at the reference speed."""
    return res["wall_s"] * REFERENCE_S / res["reference_s"]


def _limit_memory():
    """Limit the address space; returns libc when it offers malloc_trim."""
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_BYTES
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    # glibc keeps freed blocks mapped unless they were mmapped, and mapped
    # space counts against the limit; mmap every block of 64 KiB or more so
    # that memory a failed query freed is given back.
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.malloc_trim.argtypes, libc.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
        libc.mallopt(-3, 64 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        return None
    return libc


# -- set-up ---------------------------------------------------------------------------

def _import_regcov():
    sys.path.insert(0, SRC)
    cli = importlib.import_module("regcov.cli")
    regcov = sys.modules["regcov"]
    if not os.path.abspath(regcov.__file__).startswith(SRC + os.sep):
        raise ImportError(f"regcov was loaded from {regcov.__file__}, not from {SRC}")
    return regcov, cli


def _load_oracles():
    path = os.path.join(ROOT, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Client:
    """The closed-loop client: regcov's CLI, its inputs, the limits and the
    block counter."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.libc = _limit_memory()
        self.blocks = PeakBlocks()
        regcov, self.cli = _import_regcov()
        self.corpus = workloads.corpus(workload, seed, workdir)
        self.gate = Gate(regcov, _load_oracles())
        signal.signal(signal.SIGPROF, _on_deadline)
        signal.signal(signal.SIGVTALRM, self.blocks.on_timer)
        self.references = collections.deque(maxlen=DEADLINE_REFERENCES)

    def reference(self) -> float:
        """Run the reference loop; its time scales the next deadlines."""
        elapsed = reference_s()
        self.references.append(elapsed)
        return elapsed

    def execute(self, q) -> dict:
        cpu_s = QUERY_CPU_S * statistics.median(self.references) / REFERENCE_S
        return execute(self.cli, q, self.libc, self.blocks, cpu_s)


def cold_setups(args) -> list:
    """Set-up times of SETUP_CHILDREN fresh processes, one after the other."""
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


# -- one query --------------------------------------------------------------------------

def execute(cli, q, libc, blocks, cpu_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, kind, held, error = None, None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        blocks.start()
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_PROF, cpu_s)
                code = cli.main(list(q.argv))  # looked up now: traced runs patch it
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
        except Deadline as exc:
            kind, held = ("deadline" if code is None else None), exc
        except MemoryError as exc:
            kind, held = "MemoryError", exc
        except SystemExit as exc:
            code = exc.code
        except AssertionError as exc:  # regcov's own checks: a wrong result
            kind, error = "AssertionError", str(exc)
        except Exception as exc:  # the client keeps going; the kind is counted
            kind, held = type(exc).__name__, exc
        t_end = time.perf_counter()
        peak_blocks = blocks.stop()
    # A stopped query's data is freed here, outside its time, as a killed
    # process would not pay for it either.
    held = None
    res = {"wall_s": t_end - t0, "t_end": t_end, "verdict": None,
           "peak_blocks": peak_blocks, "error": error}
    if kind is None:
        if code == 0:
            try:
                res["verdict"] = parse_verdict(out.getvalue(), q.json_out)
                kind = "decided"
            except ValueError:
                kind = "unparsed"
        elif code == 3:
            m = CAP_RE.search(err.getvalue())
            kind = f"cap:{m.group(1) if m else '?'}"
        else:
            kind = f"exit{code}"
    else:
        gc.collect()
        if libc is not None:
            libc.malloc_trim(0)
    res["kind"] = kind
    return res


def parse_verdict(text: str, as_json: bool) -> dict:
    if as_json:
        doc = json.loads(text)
    else:
        doc = {}
        for line in text.splitlines():
            key, sep, value = line.partition(": ")
            if not sep:
                continue
            if value in ("True", "False"):
                doc[key] = value == "True"
            elif key in ("imprint", "noncoverable_subsets", "stats", "cover", "verified"):
                doc[key] = json.loads(value)
            else:
                doc[key] = value
    if not isinstance(doc.get("coverable"), bool):
        raise ValueError("no verdict")
    return doc


# -- the closed loop ------------------------------------------------------------------------

def closed_loop(client, seconds: float, tracer=None):
    """Pose the corpus in passes until `seconds` passed at the end of a pass.

    Whole passes keep the mix of every run the same, whatever its speed.
    Every query starts on a collected heap, as in a fresh process, and the
    reference loop runs between queries (see scaled_s).  Traced runs make
    one pass and pose every query twice, untraced and traced, alternating
    which goes first; `results` holds the untraced executions.  A query
    stopped by a limit (LIMITS) is not compared: the limit set its time.
    When its traced execution went first, it is not posed again and
    `results` holds the traced one.
    """
    results, pairs = [], []
    start = time.perf_counter()
    ref_before = client.reference()
    while not results or (tracer is None and time.perf_counter() - start < seconds):
        for q in client.corpus:
            if tracer is None:
                gc.collect()
                res = client.execute(q)
                ref_after = client.reference()
                res["reference_s"] = (ref_before + ref_after) / 2
                ref_before = ref_after
                results.append((q, res))
                continue
            traced_first = len(results) % 2 == 1
            if traced_first:
                traced = _traced(tracer, client, q)
                if traced["kind"] in LIMITS:
                    client.reference()
                    results.append((q, traced))
                    continue
            gc.collect()
            plain = client.execute(q)
            if not traced_first:
                traced = _traced(tracer, client, q)
            client.reference()
            results.append((q, plain))
            if plain["kind"] not in LIMITS and traced["kind"] not in LIMITS:
                pairs.append((plain["wall_s"], traced["wall_s"]))
    return results, pairs, time.perf_counter() - start


def _traced(tracer, client, q):
    gc.collect()
    tracer.begin(q.qid)
    tracer.install()
    try:
        res = client.execute(q)
    finally:
        tracer.uninstall()
    tracer.end(res["wall_s"], res["t_end"])
    return res


# -- accounting -----------------------------------------------------------------------------

def canonical(verdict: dict) -> dict:
    """The verdict without its timing stats."""
    return {k: v for k, v in verdict.items() if k != "stats"}


def account(results, gate, first_pass: int) -> dict:
    kinds: dict = {}
    entries = []  # digested in sorted order, so that the seed's shuffle does not count
    exact: dict = {}
    covers_asked = covers_ok = 0
    underreported = skipped = 0
    groups: dict = {}
    for i, (q, res) in enumerate(results):
        kind = res["kind"]
        kinds[kind] = kinds.get(kind, 0) + 1
        verdict = res["verdict"]
        if kind == "AssertionError":
            gate.fail(q, f"regcov's own check failed: {res['error']}")
        if verdict is not None:
            checked = gate.check(q, verdict)
            if q.emit_cover and verdict["coverable"]:
                covers_asked += 1
                covers_ok += checked["cover_ok"] is True
            skipped += checked["separator_skipped"]
            wall_ms = verdict.get("stats", {}).get("wall_ms")
            if wall_ms is not None and wall_ms < 0.5 * res["wall_s"] * 1000.0:
                underreported += 1
            if q.command == "cover" and not q.emit_cover:
                groups.setdefault(q.group, []).append((q, verdict["coverable"]))
        if i < first_pass:
            stable = "limit" if kind in LIMITS else kind
            entries.append(json.dumps([q.qid, stable, canonical(verdict) if verdict else None],
                                      sort_keys=True))
            exact[f"outcome.{stable}"] = exact.get(f"outcome.{stable}", 0) + 1
            if verdict is not None:
                stats = verdict.get("stats", {})
                exact["stats.elements"] = exact.get("stats.elements", 0) + stats.get("elements", 0)
                exact["stats.sweeps"] = exact.get("stats.sweeps", 0) + stats.get("sweeps", 0)
                exact["coverable"] = exact.get("coverable", 0) + bool(verdict["coverable"])
                pieces = len((verdict.get("cover") or {}).get("pieces", []))
                exact["cover.pieces"] = exact.get("cover.pieces", 0) + pieces
    for group in groups.values():
        gate.check_lattice(group)
    digest = hashlib.sha256("\n".join(sorted(entries)).encode()).hexdigest()[:16]
    return {"kinds": kinds, "digest": digest,
            "digest_queries": min(first_pass, len(results)), "exact": exact,
            "covers_asked": covers_asked, "covers_ok": covers_ok,
            "wall_ms_underreported": underreported, "separator_skipped": skipped}


def harrell_davis(values, p: float) -> float:
    """The p-quantile as the Harrell-Davis estimator gives it: a weighted mean
    of the order statistics, with the weights a Beta(p(n+1), (1-p)(n+1))
    distribution puts on each 1/n of [0, 1].  Unlike one order statistic, it
    does not jump when the noise of single queries swaps their ranks."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32  # midpoint rule within each 1/n

    def density(x):
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- main -----------------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set up as a run does, print the set-up time and exit (see cold_setups).
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(os.path.abspath(__file__)))
    try:
        try:
            client = Client(args.workload, args.seed, workdir)
        except (ImportError, OSError) as exc:
            print(f"perfbench: cannot load regcov or its oracles: {exc}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - T_START
        # At the reference speed, as the queries' times are (see scaled_s).
        setup_s *= REFERENCE_S / statistics.median(client.reference()
                                                   for _ in range(SETUP_REFERENCES))
        if args.setup_only:
            print(f"setup_s {setup_s!r}")
            return 0
        return _run(args, client, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, client, setup_s: float) -> int:
    tracer = Tracer() if args.trace else None
    gc.collect()
    results, pairs, loop_s = closed_loop(client, args.seconds, tracer)
    gate = client.gate
    acc = account(results, gate, len(client.corpus))

    n = len(results)
    decided = acc["kinds"].get("decided", 0)
    print(f"workload {args.workload}, seed {args.seed}, {n} queries in {loop_s:.2f} s, "
          f"trace {args.trace}")
    failures = {k: v for k, v in sorted(acc["kinds"].items()) if k != "decided"}
    print(f"not decided by kind: {json.dumps(failures, sort_keys=True)}")
    print(f"digest of the {acc['digest_queries']} verdicts of the first pass: {acc['digest']}")
    print(f"exact counters of the first pass: "
          f"{json.dumps(acc['exact'], sort_keys=True)}")

    if tracer is None:
        walls = sorted(scaled_s(res) * 1000.0 for _, res in results)
        raw = [res["wall_s"] * 1000.0 for _, res in results]
        print(f"reference loop: median "
              f"{statistics.median(res['reference_s'] for _, res in results) * 1000.0:.3f} ms "
              f"(scaled to {REFERENCE_S * 1000.0:g} ms); unscaled query p50 "
              f"{harrell_davis(raw, 0.5):.3f} ms, p90 {harrell_davis(raw, 0.9):.1f} ms")
        cover_ratio = acc["covers_ok"] / acc["covers_asked"] if acc["covers_asked"] else 1.0
        # Queries stopped by the benchmark's limits count only in decided_ratio.
        finished = sorted(res["peak_blocks"] for _, res in results
                          if res["kind"] == "decided" or res["kind"].startswith("cap:"))
        heaviest = finished[len(finished) * 3 // 4:] or [0]
        setups = [setup_s] + cold_setups(args)
        metrics = {
            "queries_per_s": (n * 1000.0 / sum(walls), "1/s", n),
            "query_p50_ms": (harrell_davis(walls, 0.5), "ms", n),
            "query_p90_ms": (harrell_davis(walls, 0.9), "ms", n),
            "decided_ratio": (decided / n, "ratio", n),
            "cover_ratio": (cover_ratio, "ratio", acc["covers_asked"]),
            "heavy_query_blocks": (statistics.median(heaviest), "count", len(heaviest)),
            "setup_s": (statistics.median(setups), "s", len(setups)),
        }
    else:
        t = tracer.metrics()
        plain_s = sum(p for p, _ in pairs)
        traced_s = sum(tr for _, tr in pairs)
        overhead = (traced_s / plain_s - 1.0) * 100.0 if plain_s else 0.0
        unaccounted = ((t["trace.query_s"] - t["trace.self_sum_s"] - t["trace.probe_s"])
                       / t["trace.query_s"] if t["trace.query_s"] else 0.0)
        q = t["trace.queries"]
        metrics = {name: (value, _unit(name), q) for name, value in t.items()
                   if not name.startswith("trace.")}
        metrics["cli.separator_skipped"] = (acc["separator_skipped"], "count", n)
        metrics["cli.wall_ms_underreported"] = (acc["wall_ms_underreported"], "count", n)
        metrics["trace.overhead_pct"] = (overhead, "%", len(pairs))
        metrics["trace.unaccounted_pct"] = (unaccounted * 100.0, "%", q)
        for layer in LAYERS:
            share = t[f"{layer}.self_s"] / t["trace.self_sum_s"] if t["trace.self_sum_s"] else 0.0
            print(f"layer {layer:<10} self {t[f'{layer}.self_s']:9.3f} s  "
                  f"{share * 100.0:5.1f} %  calls {t[f'{layer}.calls']}")
        if abs(unaccounted) > SELF_SUM_BOUND:
            gate.failures.append({"qid": "-", "argv": [], "reason":
                                  f"layer self times miss {unaccounted * 100:.1f} % "
                                  f"of the traced query time"})

    for name, (value, unit, count) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={count})")
    for f in gate.failures:
        print(f"WRONG {f['qid']}: {f['reason']}; argv {json.dumps(f['argv'])}; "
              f"target {json.dumps(f.get('target'))}; against {json.dumps(f.get('against'))}")
    correct = not gate.failures
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": n - decided,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    return "s" if name.endswith("_s") else ("ratio" if name.endswith("per_maximum") else "count")


if __name__ == "__main__":
    sys.exit(main())
