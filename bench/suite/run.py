#!/usr/bin/env python3
"""The repository benchmark: four end-to-end workloads and a traced run.

Run from the repository root (README.md in this directory explains the
workloads, the metrics and their bounds):

  python3 bench/suite/run.py --seed 42                # every workload
  python3 bench/suite/run.py --workload github-mmap --seed 7 --seconds 15
  python3 bench/suite/run.py --workload wikidata-mmap --trace   # per layer
  python3 bench/suite/run.py --quick                  # smoke test

The first run builds `jsi`, the per-layer probe and the HTTP client into
.bench_build/ from the sources next to this file. Corpora come from
`jsi gen` with the given seed and are cached per seed (untimed set-up). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every checked
operation succeeded.
"""

import argparse
import http.client
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent

# Why each workload exists is in README.md. `records` is the corpus size;
# `quick` the size used by --quick.
WORKLOADS = {
    "github-mmap": {"profile": "github", "records": 200_000, "quick": 2_000},
    "wikidata-mmap": {"profile": "wikidata", "records": 60_000, "quick": 1_000},
    "nytimes-stdin-ckpt": {"profile": "nytimes", "records": 100_000,
                           "quick": 1_000},
    "twitter-serve": {"profile": "twitter", "records": 50_000, "quick": 400},
}
THREADS = 4  # jsi --threads, serve pool size and client connections


class Config:
    """Load shape of a full run, or of the --quick smoke run."""

    def __init__(self, quick):
        self.quick = quick
        self.min_reps = 1 if quick else 3
        self.setup_reps_cli = 3 if quick else 20
        self.setup_reps_serve = 2 if quick else 5
        self.checkpoint_every = 200 if quick else 20_000
        self.sessions = THREADS
        self.batches = 20 if quick else 250
        self.batch_records = 20 if quick else 200
        self.schema_every = 4
        # The traced run of a CLI workload drives a short serve loop over the
        # head of its corpus, for the server.* per-layer metrics.
        self.trace_batches = 4 if quick else 24
        self.rounds = 1 if quick else 3  # of the probe's single-thread passes


class BenchError(Exception):
    pass


# --- processes ---------------------------------------------------------------

LIVE = set()  # pids started and not yet reaped
TIMEOUT_S = 150


def spawn(cmd, stdin=None, stdout=None, stderr=None, stdout_fd=None):
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, str(stdin or os.devnull),
                os.O_RDONLY, 0)]
    if stdout_fd is not None:
        actions.append((os.POSIX_SPAWN_DUP2, stdout_fd, 1))
    else:
        actions.append((os.POSIX_SPAWN_OPEN, 1, str(stdout or os.devnull),
                        wr, 0o644))
    actions.append((os.POSIX_SPAWN_OPEN, 2, str(stderr or os.devnull), wr,
                    0o644))
    argv = [str(c) for c in cmd]
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    LIVE.add(pid)
    return pid


def reap(pid, timeout=TIMEOUT_S):
    """Waits for `pid`, killing it after `timeout` s: (exit code, rusage)."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(fd)
    _, status, usage = os.wait4(pid, 0)
    LIVE.discard(pid)
    if not ready:
        raise BenchError(f"process {pid} ran longer than {timeout} s")
    return os.waitstatus_to_exitcode(status), usage


def run_timed(cmd, **io):
    """Runs cmd to completion: (exit code, wall s, peak RSS MB, cpu s)."""
    start = time.perf_counter()
    code, usage = reap(spawn(cmd, **io))
    wall = time.perf_counter() - start
    return code, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def stop_all():
    for pid in list(LIVE):
        try:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        LIVE.discard(pid)


def run_tool(cmd, log, timeout):
    """Runs a build tool in its own process group, logging its output."""
    with open(log, "a") as out:
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out,
                                stderr=subprocess.STDOUT, cwd=ROOT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{cmd[0]} timed out; see {log}")
    if code != 0:
        tail = Path(log).read_text().splitlines()[-20:]
        raise BenchError(f"{' '.join(map(str, cmd))} failed:\n" +
                         "\n".join(tail))


# --- build -------------------------------------------------------------------

def build(build_dir):
    for f in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/jsi.cc"):
        if not (ROOT / f).is_file():
            raise BenchError(f"{f} is missing: the benchmark builds jsi from "
                             "a full checkout of the repository")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    log.write_text("")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_tool(["cmake", "-S", SUITE, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300)
    run_tool(["cmake", "--build", build_dir, "-j", str(THREADS), "--target",
              "jsi", "bench_suite_layers", "bench_suite_serve_client"],
             log, 880)
    return {"jsi": build_dir / "jsonsi" / "tools" / "jsi",
            "layers": build_dir / "bench_suite_layers",
            "client": build_dir / "bench_suite_serve_client"}


def build_info(jsi):
    """CMake cache entries of the build tree that holds `jsi`."""
    for d in Path(jsi).resolve().parents:
        cache = d / "CMakeCache.txt"
        if cache.is_file():
            entries = {}
            for line in cache.read_text(errors="replace").splitlines():
                m = re.match(r"([A-Za-z_][\w-]*):\w+=(.*)$", line)
                if m:
                    entries[m.group(1)] = m.group(2)
            return entries
    return {}


def refuse_instrumented(info):
    """Timings from coverage, sanitizer or unoptimized builds mean nothing."""
    build_type = info.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    if info.get("JSONSI_COVERAGE", "OFF").upper() in ("ON", "1", "TRUE", "YES"):
        raise BenchError("refusing a full run on a coverage build")
    if info.get("JSONSI_SANITIZE"):
        raise BenchError("refusing a full run on a sanitizer build")
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing a full run on a {build_type} build")


def fingerprint(jsi, one_record):
    info = build_info(jsi)
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    proc = subprocess.run([str(jsi), "infer", str(one_record), "--stats"],
                          capture_output=True, text=True, timeout=60)
    m = re.search(r"^simd:\s+(\S+)", proc.stderr, re.M)
    compiler = info.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=60).stdout.splitlines()
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "simd": m.group(1) if m else "unknown",
            "compiler": version[0] if version else compiler,
            "build_type": info.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"}


# --- inputs ------------------------------------------------------------------

def atomic_output(cmd, dest, stdin=None):
    tmp = dest.with_name(dest.name + ".tmp")
    code, *_ = run_timed(cmd, stdin=stdin, stdout=tmp)
    if code != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {code}")
    tmp.rename(dest)


def prepare(bins, work, name, seed, cfg):
    """Generates (or reuses) the seeded corpus and its reference schema."""
    w = WORKLOADS[name]
    records = w["quick"] if cfg.quick else w["records"]
    d = work / "data" / name
    jsi = bins["jsi"]
    st = jsi.stat()
    key = f"{w['profile']} {records} {seed} {st.st_size} {st.st_mtime_ns}\n"
    inputs = {"corpus": d / "corpus.jsonl", "reference": d / "reference.txt",
              "one": d / "one.jsonl", "dir": d}
    keyfile = d / "key"
    if not (keyfile.is_file() and keyfile.read_text() == key):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        atomic_output([jsi, "gen", w["profile"], records, "--seed", seed],
                      inputs["corpus"])
        # The reference takes the other pipeline: serial, pread, pumped.
        atomic_output([jsi, "infer", inputs["corpus"], "--threads", "1",
                       "--io", "read"], inputs["reference"])
        with open(inputs["corpus"], "rb") as f:
            inputs["one"].write_bytes(f.readline())
        keyfile.write_text(key)
    inputs["bytes"] = inputs["corpus"].stat().st_size
    return inputs


def head_inputs(bins, inputs, need):
    """The first `need` corpus lines and their reference schema."""
    d = inputs["dir"]
    corpus, reference = d / "head.jsonl", d / "head_reference.txt"
    if not reference.is_file():
        with open(inputs["corpus"], "rb") as f:
            lines = [f.readline() for _ in range(need)]
        if not lines[-1]:
            raise BenchError(f"corpus has fewer than {need} records")
        corpus.write_bytes(b"".join(lines))
        atomic_output([bins["jsi"], "infer", corpus, "--threads", "1",
                       "--io", "read"], reference)
    return corpus, reference


# --- measurement -------------------------------------------------------------

def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Tally:
    """Operations checked against the correctness gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)
        return ok


def timed_reps(seconds, min_reps, rep):
    """Calls rep() until `seconds` would be exceeded (at least min_reps)."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(rep())
        elapsed = time.perf_counter() - start
        n = len(results)
        if n >= min_reps and elapsed * (n + 1) / n > seconds:
            return results


def cli_command(bins, name, inputs, cfg, source):
    """`jsi infer` as the workload runs it; `source` is the input file."""
    if name == "nytimes-stdin-ckpt":
        return ([bins["jsi"], "infer", "-", "--threads", THREADS,
                 "--checkpoint", inputs["dir"] / "run.ckpt",
                 "--checkpoint-every", cfg.checkpoint_every, "--stats"],
                source)
    return [bins["jsi"], "infer", source, "--threads", THREADS], None


def cli_rep(bins, name, inputs, cfg, tally, source, reference):
    cmd, stdin = cli_command(bins, name, inputs, cfg, source)
    out, err = inputs["dir"] / "stdout", inputs["dir"] / "stderr"
    code, wall, rss, cpu = run_timed(cmd, stdin=stdin, stdout=out, stderr=err)
    ok = tally.check(code == 0, f"jsi exited {code}")
    if ok and reference is not None:
        ok = tally.check(out.read_bytes() == reference,
                         "schema differs from the reference")
        if ok and stdin is not None:
            m = re.search(r"^consumed:\s+([\d,]+) bytes", err.read_text(), re.M)
            consumed = int(m.group(1).replace(",", "")) if m else -1
            tally.check(consumed == Path(source).stat().st_size,
                        f"consumed {consumed} bytes")
    return {"wall": wall, "rss": rss, "cpu": cpu}


def cli_metrics(bins, name, inputs, cfg, seconds, tally):
    setup = [cli_rep(bins, name, inputs, cfg, tally, inputs["one"],
                     None)["wall"] for _ in range(cfg.setup_reps_cli)]
    reference = inputs["reference"].read_bytes()
    corpus = inputs["corpus"]
    cli_rep(bins, name, inputs, cfg, tally, corpus, reference)  # warm-up
    reps = timed_reps(seconds, cfg.min_reps, lambda: cli_rep(
        bins, name, inputs, cfg, tally, corpus, reference))
    wall = statistics.median(r["wall"] for r in reps)
    # One invocation is both the write and the read, and a run has too few
    # invocations for a tail percentile, so every latency is the median.
    latency_ms = wall * 1e3
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "throughput_mb_s": inputs["bytes"] / 1e6 / wall,
        "peak_rss_mb": statistics.median(r["rss"] for r in reps),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "ingest_p50_ms": latency_ms, "ingest_p99_ms": latency_ms,
        "schema_p50_ms": latency_ms, "schema_p95_ms": latency_ms,
    }, len(reps)


class Server:
    """`jsi serve --threads 4` on an ephemeral loopback port."""

    def __init__(self, jsi, log):
        rd, wr = os.pipe()
        try:
            self.pid = spawn([jsi, "serve", "--threads", THREADS],
                             stdout_fd=wr, stderr=log)
        finally:
            os.close(wr)
        self.stdout = rd
        line = b""
        deadline = time.monotonic() + 30
        m = None
        while not m:
            left = max(0, deadline - time.monotonic())
            ready, _, _ = select.select([rd], [], [], left)
            chunk = os.read(rd, 256) if ready else b""
            line += chunk
            m = re.search(rb":(\d+)\s*\n", line)
            if not chunk and not m:
                self.stop()
                raise BenchError("jsi serve did not report its port")
        self.port = int(m.group(1))

    def call(self, method, target, body=""):
        """(status, body); status 0 when the request could not be made."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, target, body)
            resp = conn.getresponse()
            return resp.status, resp.read().decode()
        except (OSError, http.client.HTTPException):
            return 0, ""
        finally:
            conn.close()

    def cpu_s(self):
        with open(f"/proc/{self.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM (graceful drain); returns (exit code, rusage)."""
        os.kill(self.pid, signal.SIGTERM)
        try:
            return reap(self.pid, 60)
        finally:
            os.close(self.stdout)


def client_rep(bins, srv, corpus, reference, cfg, tally, out, batches):
    # Session c starts at batch c * batches / sessions (62 c in full runs).
    cmd = [bins["client"], "--port", srv.port, "--corpus", corpus,
           "--reference", reference, "--sessions", cfg.sessions,
           "--batches", batches, "--batch-records", cfg.batch_records,
           "--schema-every", cfg.schema_every,
           "--rotate", batches // cfg.sessions]
    cpu0 = srv.cpu_s()
    code, *_ = run_timed(cmd, stdout=out, stderr=out.with_suffix(".err"))
    cpu = srv.cpu_s() - cpu0
    if not tally.check(code == 0, f"serve client exited {code}"):
        return None
    r = json.loads(out.read_text())
    tally.attempted += r["ops"] - 1
    tally.failed += r["failed"] + r["mismatched"]
    if r["failed"] or r["mismatched"]:
        tally.notes.append(f"{r['failed']} failed requests, "
                           f"{r['mismatched']} sessions with a wrong schema")
    r["cpu_s"] = cpu
    return r


def serve_setup(bins, inputs, cfg, tally):
    """Spawn to listening line to the first 201 session, several times."""
    samples = []
    for _ in range(cfg.setup_reps_serve):
        start = time.perf_counter()
        srv = Server(bins["jsi"], inputs["dir"] / "serve.log")
        try:
            status, _ = srv.call("POST", "/v1/sessions", "{}")
            samples.append(time.perf_counter() - start)
        finally:
            code, _ = srv.stop()
        tally.check(status == 201, f"session create answered {status}")
        tally.check(code == 0, f"jsi serve exited {code}")
    return statistics.median(samples)


def serve_metrics(bins, inputs, cfg, seconds, tally):
    setup = serve_setup(bins, inputs, cfg, tally)
    out = inputs["dir"] / "client.json"
    srv = Server(bins["jsi"], inputs["dir"] / "serve.log")
    try:
        client_rep(bins, srv, inputs["corpus"], inputs["reference"], cfg,
                   tally, out, cfg.batches)  # warm-up
        reps = timed_reps(seconds, cfg.min_reps, lambda: client_rep(
            bins, srv, inputs["corpus"], inputs["reference"], cfg, tally, out,
            cfg.batches))
    finally:
        code, usage = srv.stop()
    tally.check(code == 0, f"jsi serve exited {code}")
    reps = [r for r in reps if r]
    if not reps:
        raise BenchError("no serve repetition completed")
    wall = statistics.median(r["wall_s"] for r in reps)
    ingest = [v for r in reps for v in r["ingest_ms"]]
    schema = [v for r in reps for v in r["schema_ms"]]
    return {
        "setup_s": setup,
        "wall_s": wall,
        "throughput_mb_s": reps[0]["bytes"] / 1e6 / wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "ingest_p50_ms": statistics.median(ingest),
        "ingest_p99_ms": percentile(ingest, 99),
        "schema_p50_ms": statistics.median(schema),
        "schema_p95_ms": percentile(schema, 95),
    }, len(reps)


def traced_metrics(bins, name, inputs, cfg, work, tally):
    """Per-layer metrics: the probe, plus what only the binaries show."""
    corpus = inputs["corpus"]
    serve = name == "twitter-serve"
    batches = cfg.batches if serve else cfg.trace_batches
    s_corpus, s_reference = ((corpus, inputs["reference"]) if serve else
                             head_inputs(bins, inputs,
                                         batches * cfg.batch_records))
    srv = Server(bins["jsi"], inputs["dir"] / "serve.log")
    try:
        r = client_rep(bins, srv, s_corpus, s_reference, cfg, tally,
                       inputs["dir"] / "client.json", batches)
        status, text = srv.call("GET", "/metrics")
    finally:
        code, _ = srv.stop()
    if not tally.check(code == 0 and status == 200 and r is not None,
                       "serve loop failed"):
        raise BenchError("serve loop failed")
    m = re.search(r"^\S*server_http_errors\S*\s+(\S+)$", text, re.M)
    http_errors = float(m.group(1)) if m else 0.0
    if serve:
        e2e_wall = r["wall_s"]
    else:
        reference = inputs["reference"].read_bytes()
        walls = [cli_rep(bins, name, inputs, cfg, tally, corpus,
                         reference)["wall"] for _ in range(3)]
        e2e_wall = statistics.median(walls[1:])  # the first warms up

    traces = work / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace = traces / f"{name}.json"
    out = inputs["dir"] / "layers.json"
    code, *_ = run_timed([bins["layers"], "--corpus", corpus, "--trace-out",
                          trace, "--work-dir", inputs["dir"], "--threads",
                          THREADS, "--batch-records", cfg.batch_records,
                          "--rounds", cfg.rounds],
                         stdout=out, stderr=out.with_suffix(".err"))
    if not tally.check(code == 0, "per-layer probe failed"):
        raise BenchError("per-layer probe failed: " +
                         out.with_suffix(".err").read_text().strip())
    layers = json.loads(out.read_text())
    # Time the binary spends outside the library call that does the same
    # work: the stdin workload runs the pump, the others the mmap path.
    inside = layers["core.pump_s" if name == "nytimes-stdin-ckpt"
                    else "core.t4_wall_s"]
    layers["core.residual_s"] = e2e_wall - inside
    layers["server.ingest_overhead_ms"] = (statistics.median(r["ingest_ms"]) -
                                           layers["server.ingest_inproc_ms"])
    layers["server.http_errors"] = http_errors
    self_sum = sum(v for k, v in layers.items() if k.endswith("_self_s"))
    print(f"  trace: {trace}\n  L0..L5 self times sum to {self_sum:.3f} s = "
          f"{100 * self_sum / layers['core.t1_wall_s']:.1f}% of core.t1_wall_s",
          file=sys.stderr)
    return layers


# --- driver ------------------------------------------------------------------

def run_workload(bins, name, seed, seconds, trace, cfg, work, spec):
    tally = Tally()
    t0 = time.perf_counter()
    inputs = prepare(bins, work, name, seed, cfg)
    print(f"{name}: seed {seed}, {inputs['bytes'] / 1e6:.1f} MB corpus "
          f"(set-up {time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    try:
        if trace:
            metrics = traced_metrics(bins, name, inputs, cfg, work, tally)
            reps, wanted = 1, spec["per_layer"]
        elif name == "twitter-serve":
            metrics, reps = serve_metrics(bins, inputs, cfg, seconds, tally)
            wanted = spec["end_to_end"]
        else:
            metrics, reps = cli_metrics(bins, name, inputs, cfg, seconds,
                                        tally)
            wanted = spec["end_to_end"]
    finally:
        (inputs["dir"] / "run.ckpt").unlink(missing_ok=True)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{name}: no value for {', '.join(missing)}")
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in wanted}
    print(f"{name}: {reps} timed repetition(s), {tally.failed} of "
          f"{tally.attempted} operations failed")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    width = max(len(k) for k in result)
    for k, v in result.items():
        print(f"  {k:<{width}}  {v['value']:>14.6g} {v['unit']}")
    if not trace:
        rate = tally.failed / tally.attempted
        print(f"  {'error_rate':<{width}}  {rate:>14.6g} ratio")
    return tally, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measurement window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="per-layer run instead")
    parser.add_argument("--quick", action="store_true",
                        help="tiny corpora and windows plus one traced pass; "
                             "never compare its numbers")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".bench_build",
                        help="build tree, corpus cache and traces")
    parser.add_argument("--jsi", type=Path, help="use these binaries instead "
                        "of building them (all three together)")
    parser.add_argument("--layers", type=Path)
    parser.add_argument("--serve-client", type=Path)
    args = parser.parse_args()

    cfg = Config(args.quick)
    work = args.work_dir.resolve()
    if args.jsi or args.layers or args.serve_client:
        if not (args.jsi and args.layers and args.serve_client):
            parser.error("--jsi, --layers and --serve-client go together")
        bins = {"jsi": args.jsi.resolve(), "layers": args.layers.resolve(),
                "client": args.serve_client.resolve()}
    else:
        bins = build(work)
    if not args.quick:
        refuse_instrumented(build_info(bins["jsi"]))

    names = [args.workload] if args.workload else list(WORKLOADS)
    plan = [(n, bool(args.trace)) for n in names]
    seconds = args.seconds
    if args.quick:
        seconds = 0.2
        plan = [(n, False) for n in names] + [(names[0], True)]

    tally, metrics = Tally(), {}
    for name, trace in plan:
        t, result = run_workload(bins, name, args.seed, seconds, trace, cfg,
                                 work, spec)
        tally.attempted += t.attempted
        tally.failed += t.failed
        if len(plan) == 1:
            metrics = result
        else:
            tag = f"{name}.trace" if trace and args.quick else name
            metrics.update({f"{tag}.{k}": v for k, v in result.items()})
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    # A SIGTERM unwinds through stop_all(), so no jsi process outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
    finally:
        stop_all()
