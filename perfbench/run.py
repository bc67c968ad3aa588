#!/usr/bin/env python3
"""levislice benchmark: closed-loop requests through `levislice.cli.main`.

    python3 perfbench/run.py --workload check-generic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, each in its own process
    python3 perfbench/run.py --scaling --seed 1            # classify scaling table

One client sends the next request only when the previous one has returned;
stdout is captured and every report is checked.  The request list runs once
in full and then on around until `--seconds` are up; it is interleaved, so
every stretch of it holds the workload's mix in proportion.  Set-up is timed in fresh
interpreters, so first-call costs show in `setup_s`.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones and the tracing overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
Details, the environment record and the span trace go to `.perfbench_out/`.
Only `src/` of the checkout is imported; nothing under it is modified.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_BEYOND_TAIL = 10
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _clamp_blas_threads() -> int:
    """Set every BLAS thread variable to at most nproc (default 1) and return
    the largest, the most threads any BLAS build will use.  The tiny matrices
    here never profit from BLAS threads; one thread keeps the runs steady on a
    shared machine.  Must run before numpy is imported; child processes
    inherit the setting."""
    for var in BLAS_ENV:
        try:
            threads = int(os.environ.get(var, "1"))
        except ValueError:
            threads = 1
        os.environ[var] = str(min(max(threads, 1), NPROC))
    return max(int(os.environ[var]) for var in BLAS_ENV)


BLAS_THREADS = _clamp_blas_threads()


def _import_package():
    """Import levislice from this checkout's src/, or exit without a result."""
    if not (SRC / "levislice" / "cli.py").is_file():
        sys.exit(f"error: {SRC}/levislice not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import levislice.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "levislice").resolve():
        sys.exit(f"error: imported levislice from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": NPROC, "cpu": cpu, "blas_threads": BLAS_THREADS, "commit": commit}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

class Client:
    """Sends requests to `cli.main` one at a time and checks every output."""

    def __init__(self, cli, workloads):
        self.cli = cli
        self.workloads = workloads
        self.failures: list[str] = []

    def call(self, request) -> tuple[float, bool, str]:
        """Run one request; return (latency s, ok, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(request.argv))
        except (Exception, SystemExit):  # escaping cli.main fails the request
            latency = time.perf_counter() - started
            self._fail(request, "exception: " + traceback.format_exc(limit=3))
            return latency, False, ""
        latency = time.perf_counter() - started
        problem = self.workloads.check_output(request, code, out.getvalue())
        if problem:
            self._fail(request, f"{problem}; stderr: {err.getvalue().strip()}")
        return latency, problem is None, out.getvalue()

    def _fail(self, request, why: str):
        self.failures.append(f"{request.label} {' '.join(request.argv)}: {why}")

    def run_pass(self, requests, latencies: list[tuple[int, float]],
                 tracer=None, until: float | None = None) -> tuple[int, int]:
        """One pass over the request list, or with `until`, one pass and then
        on around the list until that `perf_counter` time.  Appends (index in
        the list, latency) of each request that succeeded; returns (attempted,
        failed).
        With a tracer, the spans of each request carry that request's number."""
        attempted = failed = 0
        while attempted < len(requests) or (
                until is not None and time.perf_counter() < until):
            index = attempted % len(requests)
            request = requests[index]
            attempted += 1
            if tracer is not None:
                tracer.request += 1
            latency, ok, _ = self.call(request)
            if ok:
                latencies.append((index, latency))
            else:
                failed += 1
        return attempted, failed


def _inputs_dir(name: str, seed: int) -> Path:
    return OUT / "inputs" / f"{name}-seed{seed}"


def setup_probe(name: str, seed: int) -> dict:
    """One set-up, run in a fresh interpreter: import levislice.cli, generate
    the inputs and run the first request.  Returns the seconds it took, the
    warm-up report and why the warm-up failed, if it did."""
    started = time.perf_counter()
    cli = _import_package()
    import workloads
    requests = workloads.build_requests(name, seed, _inputs_dir(name, seed))
    client = Client(cli, workloads)
    _, ok, stdout = client.call(requests[0])
    return {"setup_s": time.perf_counter() - started, "ok": ok,
            "stdout": stdout, "failures": client.failures}


def setup(client, name: str, seed: int) -> tuple[float, str | None]:
    """`setup_probe` in SETUP_REPEATS fresh interpreters, so that every
    repetition pays the first-call costs; returns (median seconds, the first
    warm-up report, or None when a warm-up request failed)."""
    times, warm = [], None
    for repetition in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        try:
            probe = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            client.failures.append(f"set-up probe exited {proc.returncode}: "
                                   + proc.stderr.strip()[-500:])
            return statistics.median(times) if times else 0.0, None
        times.append(probe["setup_s"])
        client.failures += probe["failures"]
        if not probe["ok"]:
            return statistics.median(times), None
        if repetition == 0:
            warm = probe["stdout"]
    return statistics.median(times), warm


def request_medians(samples: list[tuple[int, float]]) -> list[float]:
    """Each request's median latency over the passes of a run.  A shared
    host's speed can swing by 2x within seconds; a request's median over
    passes that lie seconds apart keeps those swings out of the spread of
    request costs that the percentiles below are taken from."""
    by_request: dict[int, list[float]] = {}
    for index, latency in samples:
        by_request.setdefault(index, []).append(latency)
    return [statistics.median(v) for v in by_request.values()]


def tail_latency(medians: list[float], per_pass: int) -> tuple[float, float, int]:
    """The highest percentile with at least ten of the pass's P requests
    beyond it, 100*(P-10)/P, taken as nearest rank over the requests'
    medians.  Fixed by the pass, it stays at the same place in the workload's
    cost mix however many passes fit in a run.  Returns (percentile, value
    in s, requests beyond)."""
    ordered = sorted(medians)
    at_or_below = max(per_pass - MIN_BEYOND_TAIL, 1)
    k = min(max(-(-len(ordered) * at_or_below // per_pass), 1), len(ordered))
    return 100.0 * at_or_below / per_pass, ordered[k - 1], len(ordered) - k


def run_workload(cli, workloads, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    from tracer import Tracer

    client = Client(cli, workloads)
    setup_s, warm = setup(client, name, seed)
    requests = workloads.build_requests(name, seed, _inputs_dir(name, seed))

    # determinism: the first request again, in this process, byte-identical
    # to the fresh interpreter's report once timing is removed
    _, ok, again = client.call(requests[0])
    deterministic = warm is not None and ok and (
        workloads.without_timing(warm) == workloads.without_timing(again))
    if not deterministic:
        client.failures.append(f"determinism: {requests[0].label} reports differ")

    samples: list[tuple[int, float]] = []
    tracer = Tracer() if trace else None
    walls = {"untraced": 0.0, "traced": 0.0}
    started = time.perf_counter()
    if tracer is None:
        # the list is interleaved, so the part pass at the end keeps the
        # workload's mix in proportion
        attempted, failed = client.run_pass(requests, samples,
                                            until=started + seconds)
    else:
        attempted = failed = passes = 0
        while True:
            t0 = time.perf_counter()
            a, f = client.run_pass(requests, samples)
            walls["untraced"] += time.perf_counter() - t0
            tracer.install()
            try:
                t0 = time.perf_counter()
                a2, f2 = client.run_pass(requests, [], tracer)
                walls["traced"] += time.perf_counter() - t0
            finally:
                tracer.uninstall()
            attempted, failed = attempted + a + a2, failed + f + f2
            # stop at the whole-pass boundary nearest to `seconds`
            elapsed = time.perf_counter() - started
            passes += 1
            if elapsed + 0.5 * elapsed / passes >= seconds:
                break
    wall = time.perf_counter() - started

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "requests_per_pass": len(requests),
        "attempted": attempted, "failed": failed,
        "deterministic": deterministic,
        "failures": client.failures[:20],
    }
    if tracer is None:
        by_label: dict[str, list[float]] = {}
        for index, latency in samples:
            by_label.setdefault(requests[index].label, []).append(latency * 1e3)
        result["median_ms_by_label"] = {k: statistics.median(v) for k, v in by_label.items()}
        medians = request_medians(samples)
        pct, tail, beyond = tail_latency(medians, len(requests))
        result["tail"] = {"percentile": pct, "requests": len(medians),
                          "samples": len(samples), "beyond": beyond}
        result["metrics"] = {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (len(samples) / wall, "1/s"),
            "latency_p50_ms": (statistics.median(medians) * 1e3, "ms"),
            "latency_tail_ms": (tail * 1e3, "ms"),
            "failed_frac": (failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_requests = tracer.request + 1
        result["metrics"] = tracer.layer_metrics(traced_requests)
        result["absent"] = tracer.absent
        result["tracing_overhead"] = {
            "untraced_s": walls["untraced"], "traced_s": walls["traced"],
            "fraction": walls["traced"] / walls["untraced"] - 1.0}
        result["functions"] = tracer.function_table()
        result["self_time_ranking"] = self_time_ranking(tracer, traced_requests)
        result["forward_sweep_share"] = (
            result["metrics"]["cli.forward_sweep_s"][0]
            / max(tracer.total(["cli.main"])[0] / traced_requests, 1e-12))
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.json")
    return result


def self_time_ranking(tracer, requests: int) -> list[tuple[str, float]]:
    """Self seconds per request by function, the eigensolver entry points
    counted together as linalg.eig."""
    from tracer import EIG_FUNCTIONS

    grouped: dict[str, float] = {}
    for fn, value in tracer.self_times().items():
        key = "linalg.eig" if fn in EIG_FUNCTIONS else fn
        grouped[key] = grouped.get(key, 0.0) + value / max(requests, 1)
    return sorted(grouped.items(), key=lambda kv: -kv[1])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_report(result: dict):
    env = result["environment"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}"
          f"  ({result['requests_per_pass']} requests per pass, closed loop, 1 client)")
    print("   env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:30s} {value:14.6g} {unit}")
    if "tail" in result:
        t = result["tail"]
        print(f"   latency_p50_ms and latency_tail_ms (p{t['percentile']:.1f}, "
              f"{t['beyond']} beyond) are taken over the medians of "
              f"{t['requests']} requests, {t['samples']} samples")
    else:
        o = result["tracing_overhead"]
        print(f"   tracing overhead: {o['fraction']:+.2%} "
              f"(traced {o['traced_s']:.3f} s vs untraced {o['untraced_s']:.3f} s)")
        print(f"   forward sweep share of request time: {result['forward_sweep_share']:.1%}")
        top = ", ".join(f"{k} {v * 1e3:.2f} ms" for k, v in result["self_time_ranking"][:5])
        print(f"   largest self times per request: {top}")
        if result["absent"]:
            print(f"   absent (reported as 0): {', '.join(result['absent'])}")
    print(f"   failed {result['failed']}/{result['attempted']}, "
          f"deterministic {result['deterministic']}")
    for line in result["failures"]:
        print(f"   FAILED {line}")


def summary_line(result: dict) -> dict:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()
               # failed_frac is carried by attempted and failed
               if name != "failed_frac"}
    return {"correct": result["failed"] == 0 and result["deterministic"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def run_all(names: list[str], args) -> int:
    """Each workload in its own interpreter, so that its peak memory and
    caches are its own; prints each report and one combined result line,
    every metric prefixed by its workload."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=10 * args.seconds + 900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"   FAILED {name}: no result line (exit {proc.returncode})")
            line["correct"] = False
            continue
        line["correct"] = line["correct"] and result["correct"]
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            line["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def scaling(seed: int):
    """Per-layer microseconds per probe of levi.classify against n and B."""
    import numpy as np
    import workloads
    from tracer import EIG_FUNCTIONS, Tracer
    from levislice import catalog, levi

    cases = []
    rng = np.random.default_rng([seed, 99])
    inputs = OUT / "inputs" / f"scaling-seed{seed}"
    inputs.mkdir(parents=True, exist_ok=True)
    for n in (2, 3, 4, 6, 8):
        path = inputs / f"ellipsoid{n}.dom"
        path.write_text(workloads.domain_text("ellipsoid", n, rng, path.stem))
        cases.append((f"ellipsoid n={n}", str(path), 500))
    for count in (100, 1000, 10000):
        cases.append(("ball", "ball", count))

    columns = [("classify", ["levi.classify"]), ("probe_self", None),
               ("eig", EIG_FUNCTIONS),
               ("tangent", ["linalg.tangent_null_basis"]),
               ("jet_batch", ["expr.eval_jet_batch"]),
               ("boundary", ["levi.sample_boundary"]),
               ("box_sample", ["levi.sample_box_points"])]
    rows = []
    print(f"{'domain':16s} {'B':>6s} {'probes':>6s} "
          + " ".join(f"{c:>10s}" for c, _ in columns) + "   (us per probe)")
    for label, domain_ref, count in cases:
        domain = catalog.load_domain_spec(domain_ref).domain()
        tracer = Tracer()
        tracer.install()
        try:
            report = levi.classify(domain, count, seed)
        finally:
            tracer.uninstall()
        probes = max(len(report.probes), 1)
        row = {"domain": label, "B": count, "probes": len(report.probes)}
        for column, names in columns:
            seconds = (tracer.self_times().get("levi.classify", 0.0) if names is None
                       else tracer.total(names)[0])
            row[column] = seconds / probes * 1e6
        rows.append(row)
        print(f"{label:16s} {count:6d} {row['probes']:6d} "
              + " ".join(f"{row[c]:10.2f}" for c, _ in columns))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"scaling-seed{seed}.json").write_text(
        json.dumps({"environment": environment(), "unit": "us/probe", "rows": rows},
                   indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="print the classify scaling table and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    cli = _import_package()
    import workloads
    if args.scaling:
        scaling(args.seed)
        return 0
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(workloads.WORKLOADS)}")
    if args.workload == "all":
        return run_all(names, args)

    result = run_workload(cli, workloads, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_report(result)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, default=str))
    line = summary_line(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
