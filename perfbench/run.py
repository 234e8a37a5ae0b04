#!/usr/bin/env python3
"""End-to-end benchmark of lazyxml_server.

    python3 perfbench/run.py --workload {ingest,query} --seed N --seconds S
                             --trace {0,1}

Run from the root of a checkout. Builds lazyxml_server and the in-process
tracer in Release under $CARGO_TARGET_DIR (default .bench_build), makes
the workload's inputs from the seed, starts the real server on a unix
socket, drives it from this one process, checks every answer against
oracle.py, and prints one JSON object as the last line of standard
output. --trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics (see README.md for what each one should move).
"""

import argparse
import ctypes
import gc
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing beside the sources

import inputs  # noqa: E402
import oracle  # noqa: E402
import wire  # noqa: E402

WORKLOADS = ("ingest", "query")

# The query mix: the paper's Fig. 14 Q1-Q5, one twig, three XPaths (with a
# predicate, a wildcard, and one the path summary proves empty).
MIX = (("PATH", "person//phone"), ("PATH", "profile//interest"),
       ("PATH", "watches//watch"), ("PATH", "person//watch"),
       ("PATH", "person//interest"), ("TWIG", "person[profile]//watch"),
       ("XPATH", "//person[watches//watch]/name"), ("XPATH", "//person/*"),
       ("XPATH", "//interest//person"))
# Tags whose counts and listed offsets are compared after the updates.
CHECK_TAGS = ("person", "item", "watch", "phone", "interest", "watches")


class CheckFailed(Exception):
    """The program gave an answer that the oracle disagrees with."""


# ---------------------------------------------------------------------------
# Child processes: every one is registered, killed and waited for on every
# exit path; PR_SET_PDEATHSIG covers this process dying without cleanup.

_CHILDREN = []
_LIBC = ctypes.CDLL(None, use_errno=True)


def _die_with_parent():
    _LIBC.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def spawn(argv, log_path):
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log,
                                stderr=log, preexec_fn=_die_with_parent)
    _CHILDREN.append(proc)
    return proc


def reap(proc, sig=signal.SIGTERM, timeout=10.0):
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc in _CHILDREN:
        _CHILDREN.remove(proc)


def reap_all():
    for proc in list(_CHILDREN):
        reap(proc, signal.SIGKILL)


def remove_stale_work(build_dir):
    """Removes the work directories of runs that were killed outright."""
    for name in os.listdir(build_dir):
        if name[:1] == "w" and name[1:].isdigit():
            try:
                os.kill(int(name[1:]), 0)
            except ProcessLookupError:
                shutil.rmtree(os.path.join(build_dir, name), ignore_errors=True)


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


# ---------------------------------------------------------------------------
# Build.

def build(root, build_dir):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        raise SystemExit("perfbench: run from the root of a lazyxml checkout")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "lazyxml_server", "perfbench_tracer"])
    for argv in steps:
        with open(log, "ab") as out:
            rc = subprocess.call(argv, stdout=out, stderr=out,
                                 stdin=subprocess.DEVNULL)
        if rc != 0:
            with open(log, "rb") as f:
                sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
            raise SystemExit(f"perfbench: build failed ({' '.join(argv)})")
    return (os.path.join(build_dir, "lazyxml", "src", "server", "lazyxml_server"),
            os.path.join(build_dir, "perfbench_tracer"))


# ---------------------------------------------------------------------------
# Operations: one client operation is a kind plus its pre-encoded frames.

class Op:
    __slots__ = ("kind", "payloads", "frames", "expr")

    def __init__(self, kind, payloads, expr=None):
        self.kind = kind
        self.payloads = payloads
        self.frames = [wire.frame(p) for p in payloads]
        self.expr = expr


def update_op(t):
    if t[0] == "insert":
        return Op("insert", [b"INSERT %d\n" % t[1] + t[2]])
    if t[0] == "remove":
        return Op("remove", [b"REMOVE %d %d" % (t[1], t[2])])
    return Op("batch", [b"BATCH BEGIN"] + [b"INSERT %d\n" % i[1] + i[2] for i in t[1]]
              + [b"BATCH COMMIT"])


def query_op(verb, expr):
    return Op(verb.lower(), [f"{verb} {expr}".encode()], expr)


def load_ops(base, chops):
    return [Op("insert", [b"INSERT 0\n" + base])] + [
        Op("insert", [b"INSERT %d\n" % gp + text]) for gp, text in chops]


class Sample:
    """What one client operation saw: kind, round-trip latency, the BATCH
    COMMIT round trip, and the last response."""
    __slots__ = ("op", "index", "lat", "commit", "resp", "ok")


class Spans:
    """Client-side spans of the traced replays, kept in memory and written
    at the end."""

    def __init__(self):
        self.rows = []
        self.replay = 0

    def add(self, name, start, end, parent, op):
        self.rows.append((self.replay, name, start, end, parent, op))
        return len(self.rows) - 1

    def close(self, row, end):
        self.rows[row] = self.rows[row][:3] + (end,) + self.rows[row][4:]

    def write(self, path):
        with open(path, "w") as f:
            f.write("id\treplay\tname\tstart_ns\tend_ns\tparent\top\n")
            for i, row in enumerate(self.rows):
                f.write("\t".join(map(str, (i,) + row)) + "\n")


def execute(conn, op, index, spans=None):
    s = Sample()
    s.op, s.index, s.commit, s.ok = op, index, 0.0, True
    sent = time.perf_counter_ns()
    root = spans.add("client.op", sent, 0, -1, index) if spans is not None else -1
    for n, f in enumerate(op.frames):
        t = time.perf_counter_ns()
        s.resp = conn.call(f)
        end = time.perf_counter_ns()
        if spans is not None:
            spans.add("client.request", t, end, root, index)
        if n == len(op.frames) - 1 and op.kind == "batch":
            s.commit = (end - t) / 1e3
        if not s.resp.startswith(b"OK"):
            s.ok = False
    if spans is not None:
        spans.close(root, end)
    s.lat = (end - sent) / 1e3
    return s


# ---------------------------------------------------------------------------
# The server.

class Server:
    def __init__(self, binary, work):
        self.binary, self.work = binary, work
        self.sock = os.path.join(work, "s.sock")
        self.proc = None

    def start(self, timeout=60.0):
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.proc = spawn([self.binary, "--socket", self.sock],
                          os.path.join(self.work, "server.log"))
        deadline = time.monotonic() + timeout
        while True:
            try:
                return wire.Conn(self.sock)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    with open(os.path.join(self.work, "server.log"), "rb") as f:
                        sys.stderr.write(f.read()[-2000:].decode(errors="replace"))
                    raise SystemExit("perfbench: lazyxml_server did not start")
                time.sleep(0.0005)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise SystemExit("perfbench: no VmHWM for the server")

    def stop(self):
        reap(self.proc)


# ---------------------------------------------------------------------------
# Checks against the oracle.

def check_query(tree, verb, expr, resp):
    """Raises CheckFailed unless `resp` answers `verb expr` over `tree`."""
    ok, detail, body = wire.status(resp)
    if expr not in tree.answers:
        tree.answers[expr] = oracle.evaluate(tree, expr)
    want = tree.answers[expr]
    if not ok:
        raise CheckFailed(f"{verb} {expr}: {detail['ERR']}")
    if int(detail["COUNT"]) != len(want):
        raise CheckFailed(f"{verb} {expr}: COUNT {detail['COUNT']}, oracle {len(want)}")
    if verb == "XPATH":
        got = [tuple(map(int, line.split())) for line in body.decode().splitlines()]
        if got != tree.rows(want)[:int(detail["LISTED"])]:
            raise CheckFailed(f"{verb} {expr}: listed rows differ from the oracle's offsets")


def check_store(conn, tree):
    """Every CHECK_TAGS element against the model, then the server's own
    consistency check."""
    for tag in CHECK_TAGS:
        check_query(tree, "XPATH", "//" + tag, conn.call(wire.frame(f"XPATH //{tag}".encode())))
    ok, detail, body = wire.status(conn.call(wire.frame(b"CHECK")))
    if not ok or detail.get("ERRORS") != "0":
        raise CheckFailed(f"CHECK: {detail} {body[:400]!r}")
    conn.verify()


# ---------------------------------------------------------------------------
# Workloads: one client in a closed loop over a fresh in-memory server.

def run_setup(binary, work, setup):
    server = Server(binary, work)
    t0 = time.perf_counter()
    conn = server.start()
    for op in setup:
        for f in op.frames:
            if not conn.call(f).startswith(b"OK"):
                raise CheckFailed("set-up insert rejected")
    return server, conn, time.perf_counter() - t0


# Plans: `seconds` is one replay's share of --seconds; the work in it is
# fixed by that number, never by how fast the program runs.

def plan_ingest(seed, seconds):
    doc = inputs.xmark(seed, 1000)
    base, chops = inputs.chop(doc, 250)
    head = [query_op(v, e) for _ in range(round(5 * seconds)) for v, e in MIX]
    model = inputs.Model(doc)
    stream = [update_op(t) for t in inputs.update_stream(seed, model, int(3240 * seconds))]
    return dict(setup=load_ops(base, chops), timed=head + stream, read_tree=oracle.Tree(doc),
                final_tree=oracle.Tree(bytes(model.doc)))


def plan_query(seed, seconds):
    doc = inputs.xmark(seed, 4000)
    base, chops = inputs.chop(doc, 1000)
    rounds = [query_op(v, e) for _ in range(int(10 * seconds)) for v, e in MIX]
    model = inputs.Model(doc)
    tail = [update_op(t) for t in inputs.update_stream(seed, model, int(100 * seconds), batch_every=25)]
    return dict(setup=load_ops(base, chops), timed=rounds + tail, read_tree=oracle.Tree(doc),
                final_tree=oracle.Tree(bytes(model.doc)))


def run_closed(binary, work, p, spans):
    server, conn, setup_s = run_setup(binary, work, p["setup"])
    try:
        samples = [execute(conn, op, i, spans=spans) for i, op in enumerate(p["timed"])]
        rss = server.peak_rss_mb()
        metrics = json.loads(wire.status(conn.call(wire.frame(b"METRICS JSON")))[2])
        conn.verify()
        # Reads are checked against the document they ran on.
        seen = {}
        for s in samples:
            if s.op.expr is not None and seen.get(s.op.expr) != s.resp:
                check_query(p["read_tree"], s.op.kind.upper(), s.op.expr, s.resp)
                seen[s.op.expr] = s.resp  # identical answers need one check
        check_store(conn, p["final_tree"])
        conn.call(wire.frame(b"QUIT"))
    finally:
        conn.close()
        server.stop()
    return dict(setup_s=setup_s, samples=samples, peak_rss_mb=rss, metrics=metrics)


# Each run replays its timed script on several fresh servers, one after
# the other, and keeps for every operation its fastest replay; the work of
# one replay is its share of --seconds. On the shared host this was tuned
# on, memory-bound work ran 20-65% slower for seconds to minutes at a time
# (README.md). `query` uses eight short replays: with four, one run in
# five still came out 20-40% slower on its queries. `ingest` needs about
# 16 000 updates in each replay to grow past 10 000 segments, so it keeps
# four.
PLANS = {"ingest": (plan_ingest, 4), "query": (plan_query, 8)}
# A traced run alternates TRACE_PAIRS untraced and traced replays, so the
# tracing overhead compares the fastest of each over the same minutes.
TRACE_PAIRS = 2


def replay(binary, work, p, spans_per_replay):
    """Runs the timed script once per entry, each on a fresh server;
    an entry is the Spans to record into, or None."""
    results = []
    for r, spans in enumerate(spans_per_replay):
        d = os.path.join(work, f"r{r}")
        os.makedirs(d)
        if spans is not None:
            spans.replay = r
        results.append(run_closed(binary, d, p, spans))
        shutil.rmtree(d)
    return results


def fastest(results):
    """Merges replays of one script: each operation's fastest latency,
    the fastest set-up (every replay starts a fresh server, so each set-up
    is a cold one), and the first replay's RSS and server metrics."""
    samples = []
    for group in zip(*(r["samples"] for r in results)):
        s = Sample()
        s.op, s.index, s.resp = group[0].op, group[0].index, group[0].resp
        s.lat = min(g.lat for g in group)
        s.commit = min(g.commit for g in group)
        samples.append(s)
    return dict(results[0], samples=samples, setup_s=min(r["setup_s"] for r in results))



# ---------------------------------------------------------------------------
# Metrics.

def fastest_query(samples):
    """Each distinct query's fastest execution.

    A query runs on a store that does not change between its executions,
    so all of them do the same work and the fastest is the least disturbed
    by the host."""
    fast = {}
    for s in samples:
        fast[s.op.expr] = min(s.lat, fast.get(s.op.expr, s.lat))
    return fast


def query_p50(samples, fast):
    """Median over the distinct queries of each one's fastest execution.
    The five PATH queries cost 2.4 to 3.5 ms in two tiers; the median of
    all their requests sat at the upper tail of the cheaper tier and moved
    by 20% between runs, while each query's own figure did not."""
    return statistics.median(fast[e] for e in {s.op.expr for s in samples})


def end_to_end(res):
    by = {}
    for s in res["samples"]:
        by.setdefault(s.op.kind, []).append(s)
    lat = {k: [s.lat for s in v] for k, v in by.items()}
    updates = by.get("insert", []) + by.get("remove", []) + by.get("batch", [])
    update_count = sum(len(s.op.frames) - 2 if s.op.kind == "batch" else 1 for s in updates)
    reads = by.get("path", []) + by.get("twig", []) + by.get("xpath", [])
    fast = fastest_query(reads)
    return {
        "setup_s": (res["setup_s"], "s"),
        # Operations per second of client time spent waiting for them: the
        # throughput of a closed loop, the capacity a paced client sees.
        "update_ops_per_s": (update_count / (sum(s.lat for s in updates) / 1e6), "ops/s"),
        "insert_p50_us": (statistics.median(lat["insert"]), "us"),
        "remove_p50_us": (statistics.median(lat["remove"]), "us"),
        "batch_op_us": (statistics.median(
            s.commit / (len(s.op.frames) - 2) for s in by["batch"]), "us"),
        "queries_per_s": (len(reads) / (sum(fast[s.op.expr] for s in reads) / 1e6), "queries/s"),
        "path_p50_us": (query_p50(by["path"], fast), "us"),
        "twig_p50_us": (query_p50(by["twig"], fast), "us"),
        "xpath_p50_us": (query_p50(by["xpath"], fast), "us"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }


def _hist_mean(metrics, name):
    h = metrics.get("histograms", {}).get(name)
    return h["sum"] / h["count"] if h and h["count"] else 0.0


def write_replay(path, setup, timed):
    with open(path, "wb") as f:
        for phase, ops, base in ((0, setup, 1 << 31), (1, timed, 0)):
            for i, op in enumerate(ops):
                for payload in op.payloads:
                    f.write(struct.pack("<BII", phase, base + i, len(payload)) + payload)


def per_layer(res, traced, tracer):
    exec_us = dict(tracer["exec_us"])
    samples = res["samples"]
    storage = tracer["metrics"]
    counters = storage.get("counters", {})
    return {
        "server.rtt_minus_exec_us": (statistics.median(s.lat - exec_us[s.index] for s in samples), "us"),
        "server.format_us": (tracer["server.format_us"], "us"),
        "server.response_bytes": (tracer["server.response_bytes"], "bytes"),
        "xml.parse_us": (tracer["xml.parse_us"], "us"),
        "xml.parse_mb_per_s": (tracer["xml.parse_mb_per_s"], "MB/s"),
        "core.insert_us.first_decile": (tracer["core.insert_us.first_decile"], "us"),
        "core.insert_us.last_decile": (tracer["core.insert_us.last_decile"], "us"),
        "core.segments": (tracer["core.segments"], "count"),
        "core.remove_us": (tracer["core.remove_us"], "us"),
        "core.batch_us_per_op": (tracer["core.batch_us_per_op"], "us"),
        "summary.update_us": (_hist_mean(res["metrics"], "summary.update_us"), "us"),
        "core.join_us": (tracer["core.join_us"], "us"),
        "core.join.elements_fetched": (tracer["core.join.elements_fetched"], "count"),
        "core.join.segments_skipped": (tracer["core.join.segments_skipped"], "count"),
        "core.join.useful_ratio": (tracer["core.join.useful_ratio"], "ratio"),
        "core.twig_us": (tracer["core.twig_us"], "us"),
        "query.xpath_parse_us": (tracer["query.xpath_parse_us"], "us"),
        "query.xpath_us": (tracer["query.xpath_us"], "us"),
        "query.xpath.joins": (tracer["query.xpath.joins"], "count"),
        "query.xpath.segments_pruned": (tracer["query.xpath.segments_pruned"], "count"),
        "query.xpath.elements_skipped": (tracer["query.xpath.elements_skipped"], "count"),
        "core.update_log_bytes": (tracer["core.update_log_bytes"], "bytes"),
        "core.element_index_bytes": (tracer["core.element_index_bytes"], "bytes"),
        "storage.wal_fsync_us": (_hist_mean(storage, "wal.fsync_us"), "us"),
        "storage.commits_per_fsync": (counters.get("wal.records_appended", 0)
                                      / max(1, counters.get("wal.fsyncs", 0)), "ratio"),
        "storage.wal_bytes_per_op": (tracer["storage.wal_bytes_per_op"], "bytes"),
        "storage.recovery_s": (tracer["storage.recovery_s"], "s"),
        "client.retries": (0, "count"),  # this client never retries
        "trace.overhead_pct": (100.0 * (sum(s.lat for s in traced["samples"])
                                        / sum(s.lat for s in samples) - 1), "%"),
    }


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _on_signal)
    root = os.getcwd()
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", root)
    work = None
    try:
        server_bin, tracer_bin = build(root, build_dir)
        remove_stale_work(build_dir)
        # One CPU for this process and every child: a closed loop then
        # hands the CPU between client and server threads instead of waking
        # idle CPUs, whose wake-up time on a shared host varies the most.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        work = os.path.join(build_dir, f"w{os.getpid()}")
        os.makedirs(work)
        make_plan, replicas = PLANS[args.workload]
        p = make_plan(args.seed, args.seconds / replicas)
        # The client's own garbage collection would otherwise scan the
        # plan's objects inside timed round trips.
        gc.collect()
        gc.freeze()
        gc.disable()
        spans = Spans()
        plan = [spans, None] * TRACE_PAIRS if args.trace else [None] * replicas
        attempted = len(plan) * len(p["timed"])
        try:
            results = replay(server_bin, work, p, plan)
            res = fastest([r for r, sp in zip(results, plan) if sp is None])
            if not args.trace:
                metrics = end_to_end(res)
            else:
                trace_dir = os.path.join(build_dir, "trace")
                os.makedirs(trace_dir, exist_ok=True)
                traced = fastest([r for r, sp in zip(results, plan) if sp is not None])
                spans.write(os.path.join(trace_dir, f"{args.workload}.client.tsv"))
                replay_file = os.path.join(work, "replay.bin")
                write_replay(replay_file, p["setup"], p["timed"])
                out = subprocess.run(
                    [tracer_bin, replay_file, os.path.join(work, "tracer-data"),
                     os.path.join(trace_dir, f"{args.workload}.layers.tsv")],
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    preexec_fn=_die_with_parent, timeout=170)
                if out.returncode != 0:
                    raise CheckFailed("tracer: " + out.stderr.decode(errors="replace")[-2000:])
                tracer = json.loads(out.stdout.decode().strip().splitlines()[-1])
                metrics = per_layer(res, traced, tracer)
            failed = sum(not s.ok for r in results for s in r["samples"])
            correct = True
        except CheckFailed as e:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
            metrics, failed, correct = {}, 0, False
        print(json.dumps({
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
        return 0 if correct else 1
    finally:
        reap_all()
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
