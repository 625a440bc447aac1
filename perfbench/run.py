#!/usr/bin/env python3
"""Benchmark of the gp toolchain's serving runtime and simulated cluster.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm --seed 1 --seconds 30 --trace 0

It builds `bin/gp.exe` with dune, generates the workload's request stream
from --seed (see gen.py), and drives the built CLI:

  warm       `gp serve` on a Zipf-skewed stream over a small key space;
             the content-keyed caches answer most requests.
  cold_tail  `gp serve` on a stream whose keys come from a long cold
             tail; most requests miss the caches and evict from them.
  cluster    `gp cluster run --audit`: the stream through a simulated
             8-replica cluster, then the single-node consistency audit.

A session is one process serving the whole stream. Before timing, one
untimed session is checked answer by answer: every response is status
"ok" and has the request's kind, equal requests get equal answers, and
the first answers equal those of a `--no-cache` server (serve workloads);
or every request completes and the audit finds no divergence (cluster).
Then, for --seconds, each step launches gp a few times on a single request
(the set-up time) and runs one timed session, which must reproduce the
checked output byte for byte. Every launch and session is bracketed by
host-speed probes: a launch by the start of a bare Python process, a
session by two fixed pure-Python tasks.

The last line of stdout is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer ones (see README.md).
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from statistics import median

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402

WORK = ".perfbench_work"
GP = os.path.join("_build", "default", "bin", "gp.exe")
MIN_STEPS = 5
TRACE_REQUESTS = 12_000  # keeps a traced session inside gp's 65536-span ring
REFERENCE_REQUESTS = 3_000  # prefix re-served by a --no-cache server
# The speed of a shared host swings by up to 2x within seconds. Each step
# therefore also times probe(), and the run's times and rates are scaled
# to a host on which probe() takes this long ...
PROBE_REFERENCE_S = 0.100
# ... and set-up launches, whose process start reacts to the host in its
# own way, to a host on which spawn_probe() takes this long.
SPAWN_REFERENCE_S = 0.010
SETUPS_PER_STEP = 5

# Library-core layers: the span-name prefix each one records under.
CORE_LAYERS = [
    ("concepts_us", "concepts."),
    ("stllint_us", "stllint."),
    ("rewrite_us", "simplicissimus."),
    ("structla_us", "structla."),
]
SPAN_LAYERS = ["wire_parse_us", "dispatch_us",
               *(name for name, _ in CORE_LAYERS), "render_us", "other_us"]
# Server-measured mean latency per request kind: the request kinds each
# metric averages over.
KIND_LAYERS = {
    "check_us": ("check",),
    "closure_us": ("closure",),
    "lint_us": ("lint",),
    "optimize_us": ("optimize",),
    "prove_us": ("prove",),
    "parse_us": ("parse",),
    "numeric_us": ("matvec", "matmul", "solve"),
}

END_TO_END = {"throughput_rps": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{name: "us" for name in SPAN_LAYERS},
    **{name: "us" for name in KIND_LAYERS},
    "prove_uncached_us": "us",
    "cache_hit_ratio": "ratio",
    "minor_words_per_req": "words",
    "major_words_per_req": "words",
    "traced_rps": "1/s",
    "sim_us_per_req": "us",
    "audit_us_per_req": "us",
    "events_per_req": "count",
    "msgs_per_req": "count",
}


class Wrong(Exception):
    """The program gave a wrong, missing or failed answer."""


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for f in ("dune-project", os.path.join("bin", "gp.ml")):
        if not os.path.isfile(f):
            die(f"{f} not found; run from the root of a gp checkout")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd + ["build", "--root", ".", "./bin/gp.exe"],
                           env=env, capture_output=True, text=True)
    except OSError as e:
        die(f"cannot run dune: {e}")
    if r.returncode != 0:
        die("build failed:\n" + r.stderr[-4000:])


class Run:
    """One finished gp process."""

    def __init__(self, wall, code, out, err, maxrss_kb):
        self.wall = wall
        self.code = code
        self.out = out
        self.err = err
        self.maxrss_kb = maxrss_kb

    def text(self):
        with open(self.out) as f:
            return f.read()

    def digest(self):
        with open(self.out, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    def gc(self, field):
        """A counter of the GC report OCAMLRUNPARAM=v=0x400 prints at exit."""
        with open(self.err) as f:
            m = re.search(rf"^{field}: (\d+)$", f.read(), re.M)
        if m is None:
            raise Wrong(f"no {field} in the GC report of {self.err}")
        return int(m.group(1))


def launch(args, tag):
    """Run gp to completion; stdout and stderr go to files in WORK."""
    out = os.path.join(WORK, f"{tag}.out")
    err = os.path.join(WORK, f"{tag}.err")
    env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen([GP] + args, stdin=subprocess.DEVNULL,
                             stdout=fo, stderr=fe, env=env)
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, p.returncode, out, err, usage.ru_maxrss)


def write_lines(name, lines):
    path = os.path.join(WORK, name)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def gc_per_req(r, setup, field, n):
    """Words allocated per request, net of what start-up allocates."""
    return (r.gc(field) - setup.gc(field)) / n


# ------------------------------------------------------------------ #
# Serving: gp serve                                                  #
# ------------------------------------------------------------------ #


def canonical(rsp):
    """What a client observes: the answer without id, cache flag and steps."""
    return json.dumps({k: v for k, v in rsp.items()
                       if k not in ("id", "cached", "steps")}, sort_keys=True)


def check_serve_output(lines, text):
    """Count failed answers; raise Wrong on any answer that is not right."""
    rsps = [json.loads(l) for l in text.splitlines() if l.strip()]
    if len(rsps) != len(lines):
        raise Wrong(f"{len(rsps)} responses to {len(lines)} requests")
    failed = 0
    seen = {}
    for i, (line, rsp) in enumerate(zip(lines, rsps)):
        if rsp.get("id") != i + 1 or rsp.get("kind") != json.loads(line)["kind"]:
            raise Wrong(f"response {i + 1} answers the wrong request: {rsp}")
        if rsp.get("status") != "ok":
            failed += 1
        c = canonical(rsp)
        if seen.setdefault(line, c) != c:
            raise Wrong(f"request {i + 1}: a repeated request got another answer")
    return failed, rsps


def span_layers(path):
    """Mean self time per request (µs) of each layer in a Chrome trace."""
    with open(path) as f:
        trace = json.load(f)
    if trace.get("droppedSpans", 0):
        # the ring overflowed: the oldest spans are gone
        raise Wrong(f"{path} dropped {trace['droppedSpans']} spans")
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    covered = {}
    for e in events:
        parent = e["args"].get("parent_id")
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + e["dur"]
    acc = dict.fromkeys(SPAN_LAYERS, 0.0)
    requests = 0
    for e in events:
        name = e["name"]
        if name == "service.request":
            requests += 1
        if name == "wire.parse":
            layer = "wire_parse_us"
        elif name == "wire.render":
            layer = "render_us"
        elif name.startswith("service."):
            layer = "dispatch_us"
        else:
            layer = next((layer for layer, prefix in CORE_LAYERS
                          if name.startswith(prefix)), "other_us")
        acc[layer] += e["dur"] - covered.get(e["args"]["span_id"], 0.0)
    if requests == 0:
        raise Wrong(f"no service.request spans in {path}")
    return {k: v / requests for k, v in acc.items()}


def kind_latency_us(path):
    """Mean server-measured latency (µs) per KIND_LAYERS entry, from
    --stats-json; 0 for kinds the stream does not hold."""
    with open(path) as f:
        stats = json.load(f)
    series = {}
    for m in stats["registry"]["metrics"]:
        if m["name"] == "gp_request_latency_ns":
            for s in m["series"]:
                series[s["labels"].get("kind")] = (s["count"], s["sum"])
    out = {}
    for name, kinds in KIND_LAYERS.items():
        count = sum(series.get(k, (0, 0))[0] for k in kinds)
        total = sum(series.get(k, (0, 0))[1] for k in kinds)
        out[name] = total / count / 1000.0 if count else 0.0
    return out


class Workload:
    """A request stream of n lines, and the program that serves it."""

    def __init__(self, mix, zipf, keyspace, n, defs_every=gen.DEFS_EVERY):
        self.mix, self.zipf, self.keyspace, self.n = mix, zipf, keyspace, n
        self.defs_every = defs_every

    def prepare(self, seed):
        self.lines = gen.stream(random.Random(seed), self.mix, self.zipf,
                                self.keyspace, self.n, self.defs_every)
        self.reqs = write_lines("requests.jsonl", self.lines)
        # the set-up request is the same under every seed, so set-up time
        # does not depend on which request the stream opens with
        kind = self.mix[0][0]
        self.one = write_lines("one.jsonl", [json.dumps(
            gen.request(kind, 0), separators=(",", ":"))])


class Serve(Workload):
    """`gp serve --file` over the whole stream, once per session."""

    def prepare(self, seed):
        super().prepare(seed)
        self.head = write_lines("head.jsonl", self.lines[:TRACE_REQUESTS])
        self.prefix = write_lines("prefix.jsonl",
                                  self.lines[:REFERENCE_REQUESTS])

    def setup_once(self):
        r = launch(["serve", "--file", self.one], "setup")
        if r.code != 0 or '"status":"ok"' not in r.text():
            raise Wrong("the one-request start-up run failed")
        return r

    def verify(self):
        """The checked, untimed session; returns the number of failed answers."""
        self.stats = os.path.join(WORK, "stats.json")
        r = launch(["serve", "--file", self.reqs, "--stats-json", self.stats],
                   "verify")
        if r.code != 0:
            raise Wrong(f"gp serve exited {r.code}")
        failed, rsps = check_serve_output(self.lines, r.text())
        ref_stats = os.path.join(WORK, "ref-stats.json")
        ref = launch(["serve", "--no-cache", "--file", self.prefix,
                      "--stats-json", ref_stats], "ref")
        _, ref_rsps = check_serve_output(self.lines[:REFERENCE_REQUESTS],
                                         ref.text())
        for i, (a, b) in enumerate(zip(rsps, ref_rsps)):
            if canonical(a) != canonical(b):
                raise Wrong(f"request {i + 1}: cached answer differs from "
                            "the uncached server's")
        self.prove_uncached_us = kind_latency_us(ref_stats)["prove_us"]
        self.checked, self.expect = r, r.digest()
        # tracing must not change an answer: traced sessions of the head
        # are held to this untraced run's output
        self.head_digest = launch(["serve", "--file", self.head],
                                  "head").digest()
        return failed

    def same(self, r, digest):
        if r.code != 0 or r.digest() != digest:
            raise Wrong(f"session {r.out} did not reproduce the checked output")

    def session(self):
        r = launch(["serve", "--file", self.reqs], "session")
        self.same(r, self.expect)
        return r

    def traced_step(self):
        """A traced session of the stream's head: (wall, layers, kinds)."""
        tr = os.path.join(WORK, "trace.json")
        st = os.path.join(WORK, "trace-stats.json")
        r = launch(["serve", "--file", self.head, "--trace", tr,
                    "--stats-json", st], "traced")
        self.same(r, self.head_digest)
        return r.wall, span_layers(tr), kind_latency_us(st)

    def layers(self, setup, steps):
        n = self.n
        with open(self.stats) as f:
            caches = json.load(f)["caches"]
        hits = sum(c["hits"] for c in caches)
        lookups = hits + sum(c["misses"] for c in caches)
        m = dict.fromkeys(PER_LAYER, 0.0)
        for name in SPAN_LAYERS:
            m[name] = median(layers[name] for _, layers, _ in steps)
        for name in KIND_LAYERS:
            m[name] = median(kinds[name] for _, _, kinds in steps)
        m["prove_uncached_us"] = self.prove_uncached_us
        m["cache_hit_ratio"] = hits / lookups
        m["minor_words_per_req"] = gc_per_req(self.checked, setup,
                                              "minor_words", n)
        m["major_words_per_req"] = gc_per_req(self.checked, setup,
                                              "major_words", n)
        head = min(n, TRACE_REQUESTS)
        m["traced_rps"] = median(head / (w - setup.wall) for w, _, _ in steps)
        return m


# ------------------------------------------------------------------ #
# The audited cluster: gp cluster run --audit                        #
# ------------------------------------------------------------------ #

REPLICAS = 8
MAX_DELAY = 3.0  # asynchronous timing: message delays drawn from (0, 3]

SUMMARY = {
    "completed": r"completed (\d+)/(\d+)",
    "audit": r"audit: (\d+)/(\d+) compared, (\d+) missing, (\d+) divergent",
    "msgs": r"([\d.]+) msgs/request",
    "hits": r"\((\d+) hits / (\d+) lookups\)",
    "events": r"sim: (\d+) events",
}


def summary(text, key):
    m = re.search(SUMMARY[key], text)
    if m is None:
        raise Wrong(f"no {key} line in the cluster summary")
    return m.groups()


class Cluster(Workload):
    """`gp cluster run --audit` over the whole stream, once per session."""

    def prepare(self, seed):
        super().prepare(seed)
        self.sim_seed = str(seed)

    def args(self, path, *extra):
        return ["cluster", "run", "--file", path, "--replicas",
                str(REPLICAS), "--async", str(MAX_DELAY), "--sim-seed",
                self.sim_seed, *extra]

    def audited(self, r, n):
        """Requests the run left unanswered; Wrong unless the audit passed."""
        if r.code not in (0, 1):
            raise Wrong(f"gp cluster run exited {r.code}")
        text = r.text()
        done, total = map(int, summary(text, "completed"))
        compared, _, missing, divergent = map(int, summary(text, "audit"))
        if total != n or divergent or "audit PASS" not in text:
            raise Wrong(f"audit failed: {compared} compared, {missing} "
                        f"missing, {divergent} divergent")
        return n - done

    def setup_once(self):
        r = launch(self.args(self.one, "--audit"), "setup")
        if self.audited(r, 1):
            raise Wrong("the one-request start-up run failed")
        return r

    def verify(self):
        """The checked, untimed session; returns the number of failed answers."""
        dump = os.path.join(WORK, "dump.jsonl")
        r = launch(self.args(self.reqs, "--audit", "--out", dump), "verify")
        self.audited(r, self.n)
        with open(dump) as f:
            records = [json.loads(l) for l in f.read().splitlines()[1:]]
        answered = set()
        for rec in records:
            rid = rec["rid"]
            if rec["kind"] != json.loads(self.lines[rid])["kind"]:
                raise Wrong(f"request {rid} answered as a {rec['kind']}")
            if rec["ok"] and not rec.get("shed"):
                answered.add(rid)
        self.checked, self.expect = r, r.digest()
        return self.n - len(answered)

    def session(self, *extra):
        # the simulation is deterministic: every session repeats the
        # checked run's report
        r = launch(self.args(self.reqs, "--audit", *extra), "session")
        self.audited(r, self.n)
        if r.digest() != self.expect:
            raise Wrong(f"session {r.out} did not reproduce the checked run")
        return r

    def traced_step(self):
        """Plain, audited and traced runs: (plain, audited, traced) walls."""
        plain = launch(self.args(self.reqs), "plain")
        if plain.code != 0:
            raise Wrong(f"gp cluster run exited {plain.code}")
        audited = self.session()
        traced = self.session("--trace", os.path.join(WORK, "trace.jsonl"))
        return plain.wall, audited.wall, traced.wall

    def layers(self, setup, steps):
        n = self.n
        text = self.checked.text()
        hits, lookups = map(int, summary(text, "hits"))
        m = dict.fromkeys(PER_LAYER, 0.0)
        m["cache_hit_ratio"] = hits / lookups
        m["events_per_req"] = int(summary(text, "events")[0]) / n
        m["msgs_per_req"] = float(summary(text, "msgs")[0])
        m["minor_words_per_req"] = gc_per_req(self.checked, setup,
                                              "minor_words", n)
        m["major_words_per_req"] = gc_per_req(self.checked, setup,
                                              "major_words", n)
        m["sim_us_per_req"] = median(
            (p - setup.wall) / n * 1e6 for p, _, _ in steps)
        m["audit_us_per_req"] = median((a - p) / n * 1e6 for p, a, _ in steps)
        m["traced_rps"] = median(n / (t - setup.wall) for _, _, t in steps)
        return m


# ------------------------------------------------------------------ #
# Workloads and the measurement loop                                 #
# ------------------------------------------------------------------ #

# `Workload.default_mix` plus the numeric kinds at the weights bench s7
# adds to it (bench/main.ml), at `Workload.generate`'s default Zipf(1.1)
# over 40 keys.
SERVING_MIX = [("closure", 25), ("lint", 20), ("check", 15), ("optimize", 15),
               ("prove", 15), ("parse", 10), ("matvec", 8), ("matmul", 4),
               ("solve", 4)]
# A constructed cache-bypass case, no workload of the repository: only
# kinds whose payloads are distinct per key (every check carries its own
# defs; closure and prove draw from fixed pools and are left out), over a
# key space far larger than the 256-entry caches.
TAIL_MIX = [("lint", 25), ("optimize", 25), ("parse", 20), ("check", 10),
            ("matvec", 10), ("solve", 5), ("matmul", 5)]

WORKLOADS = {
    "warm": Serve(SERVING_MIX, zipf=1.1, keyspace=40, n=30_000),
    "cold_tail": Serve(TAIL_MIX, zipf=0.9, keyspace=200_000, n=15_000,
                       defs_every=1),
    "cluster": Cluster(SERVING_MIX, zipf=1.1, keyspace=40, n=8_000),
}


def probe():
    """Time fixed pure-Python tasks, as a reading of the host's speed.

    The first churns small objects through a hot table, the second sorts
    a few megabytes of floats; together they track gp's sessions better
    than either alone.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(200_000):
        table[i & 8191] = (i, str(i))
    rng = random.Random(5)
    sorted(rng.random() for _ in range(150_000))
    return time.perf_counter() - t0


def spawn_probe():
    """Time the start and exit of a bare Python process, as a reading of
    how fast the host starts a program."""
    t0 = time.perf_counter()
    p = subprocess.Popen([sys.executable, "-I", "-S", "-c", "pass"],
                         stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    os.wait4(p.pid, 0)
    return time.perf_counter() - t0


def to_reference_host(metrics, units, slow):
    """Scale times and rates to a host `slow` times as fast as this one."""
    scale = {"s": 1 / slow, "us": 1 / slow, "1/s": slow}
    return {k: v * scale.get(units[k], 1.0) for k, v in metrics.items()}


def measure(wl, seconds, trace):
    """Alternate set-up launches, timed steps and probes for `seconds`.

    Each launch and step is scaled by the mean of the probes just before
    and just after it.
    """
    failed = wl.verify()
    step = wl.traced_step if trace else wl.session
    setups, steps, setup_slow, step_slow = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(steps) < MIN_STEPS or time.perf_counter() < deadline:
        before = spawn_probe()
        for _ in range(SETUPS_PER_STEP):
            setups.append(wl.setup_once())
            after = spawn_probe()
            setup_slow.append((before + after) / 2 / SPAWN_REFERENCE_S)
            before = after
        before = probe()
        steps.append(step())
        after = probe()
        step_slow.append((before + after) / 2 / PROBE_REFERENCE_S)
    if trace:
        # per-layer figures are scaled by the run's median factor
        setup = sorted(setups, key=lambda r: r.wall)[len(setups) // 2]
        return failed, to_reference_host(wl.layers(setup, steps), PER_LAYER,
                                          median(step_slow))
    setup_wall = median(r.wall for r in setups)
    return failed, {
        "throughput_rps": median(wl.n * f / (r.wall - setup_wall)
                                 for r, f in zip(steps, step_slow)),
        "setup_s": median(r.wall / f for r, f in zip(setups, setup_slow)),
        "peak_rss_mb": median(r.maxrss_kb / 1024.0 for r in steps),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    # one vCPU for gp and the probe alike: the vCPUs of a shared host
    # slow down independently, so a probe on another one would not track
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[a.workload]
    os.makedirs(WORK, exist_ok=True)
    try:
        wl.prepare(a.seed)
        failed, metrics = measure(wl, a.seconds, a.trace)
    except Wrong as e:
        print(f"perfbench: wrong answer: {e}", file=sys.stderr)
        failed, metrics = wl.n, {}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = PER_LAYER if a.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": wl.n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
