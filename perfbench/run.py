"""Closed-loop benchmark of the bvkit command-line driver.

    python3 perfbench/run.py --workload glue --seed 1 --seconds 30 --trace 0

One client in one process sends jobs through the public entry point,
`cli.run(cli.build_parser().parse_args(argv))` followed by `cli.render`,
each job only after the previous one has returned. A workload is a round
of jobs drawn from the seed (see workloads.py); rounds repeat, at least
MIN_ROUNDS times, then while the next one is predicted to end within
--seconds. Every report is checked
against its oracle, against the golden digest of the default seed, and
against its own bytes in earlier rounds.

Times are reported at a reference machine speed. The host's speed swings
by up to a factor of two over seconds (other tenants), which no amount of
work per run averages out. A probe, a fixed pure-Python Fraction loop,
runs between jobs at least every PROBE_EVERY_S; each job's wall time is
multiplied by REF_PROBE_S over the median probe time around the job. The
raw wall times are printed on the details line as well.

With --trace 0 the last line of output carries the end-to-end metrics;
with --trace 1 the run does one untraced round, then the same round
traced, and reports the per-layer metrics and the tracing overhead. The
line before it records the environment, sizes and per-class timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from figures import nearest_rank, tail_share
from spans import LAYER_MAP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
JOB_BUDGET_S = {"bv-package": 40.0, "glue": 40.0, "small-jobs": 10.0}
RUN_CAP_S = 150.0        # no job starts after this; the run must end in 180 s
SETUP_REPEATS = 3
PROBE_ITERS = 1500
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 1.0     # probes this close to a job set its speed
REF_PROBE_S = 0.004      # the probe on a quiet 2-vCPU x86_64 VM, CPython 3.11
MIN_ROUNDS = 2           # each job's time is its best over at least two rounds


class OverBudget(BaseException):
    """Raised by SIGALRM inside a job that ran past its budget. A
    BaseException, so no handler in the code under test can swallow it."""


def _alarm(signum, frame):
    raise OverBudget()


def probe() -> float:
    """Wall time of a fixed Fraction loop: the machine's current speed."""
    t = time.perf_counter()
    s = Fraction(0)
    for k in range(1, PROBE_ITERS):
        s += Fraction(1, k % 97 + 1)
    return time.perf_counter() - t


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_seconds() -> float:
    """Wall time of `import bvkit.cli` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import bvkit.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout)


class Bench:
    def __init__(self, workload: str, seed: int):
        # imported here: bvkit resolves only once main() has put src/ on
        # the path, after checking that this checkout has it
        import oracles
        import workloads
        from bvkit import cli

        self.cli = cli
        self.oracles = oracles
        self.workload = workload
        self.seed = seed
        self.budget = JOB_BUDGET_S[workload]
        self.make_jobs = workloads.WORKLOADS[workload]
        self.dir = WORK / f"{workload}-{seed}"
        self.jobs = []
        self.argv = {}
        self.tracer = None
        self.seen: dict[str, str] = {}
        self.probes: list[tuple[float, float]] = []   # (start, seconds)
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.golden = golden.get(workload, {}) if seed == DEFAULT_SEED else None

    # --- set-up ---------------------------------------------------------

    def prepare(self):
        """Generate the round, write its input files, run the warm-up."""
        self.jobs = self.make_jobs(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        for job in self.jobs:
            argv = [job.command, *job.flags]
            if job.input is not None:
                path = self.dir / f"{job.id}.json"
                path.write_text(json.dumps(job.input))
                argv += ["--input", str(path)]
            self.argv[job.id] = argv
        for job in self.warmup_jobs():
            self.run_job(job)

    def warmup_jobs(self):
        """The smallest job of each command in the round."""
        smallest = {}
        for job in self.jobs:
            best = smallest.get(job.command)
            if best is None or job.size < best.size:
                smallest[job.command] = job
        return list(smallest.values())

    def setup(self) -> dict:
        """Import and prepare SETUP_REPEATS times each, at reference speed."""
        imports, preps = [], []
        for _ in range(SETUP_REPEATS):
            before = probe()
            seconds = import_seconds()
            imports.append(seconds * REF_PROBE_S / statistics.mean(
                (before, probe())))
        for _ in range(SETUP_REPEATS):
            before = probe()
            t = time.perf_counter()
            self.prepare()
            seconds = time.perf_counter() - t
            preps.append(seconds * REF_PROBE_S / statistics.mean(
                (before, probe())))
        return {"import_s": imports, "prepare_s": preps,
                "setup_s": statistics.median(imports)
                + statistics.median(preps)}

    # --- jobs -----------------------------------------------------------

    def run_job(self, job) -> dict:
        """One timed job: parse, run, render. The check is not timed."""
        argv = self.argv[job.id]
        cli, tr = self.cli, self.tracer
        out = {"id": job.id, "report": None, "text": None, "error": None}
        signal.setitimer(signal.ITIMER_REAL, self.budget)
        t = out["start"] = time.perf_counter()
        try:
            try:
                if tr is None:
                    report = cli.run(cli.build_parser().parse_args(argv))
                    text = cli.render(report)
                else:
                    tr.job = job.id
                    report, text = tr.span("bench.job", self._traced_job, argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OverBudget:
            out["error"] = "over_budget"
        except Exception as e:  # a job that crashes is a failed job
            out["error"] = f"exception {type(e).__name__}: {e}"
        else:
            out["report"], out["text"] = report, text
        out["wall"] = time.perf_counter() - t
        if out["error"] is None and out["wall"] > self.budget:
            out["error"] = "over_budget"
        return out

    def _traced_job(self, argv):
        cli, tr = self.cli, self.tracer
        cfg = tr.span("cli.parse", lambda: cli.build_parser().parse_args(argv))
        report = cli.run(cfg)
        return report, cli.render(report)

    def run_round(self, deadline: float) -> list[dict]:
        results = []
        for job in self.jobs:
            if time.monotonic() > deadline:
                results.append({"id": job.id, "wall": None,
                                "error": "not started: run cap reached"})
                continue
            self.maybe_probe()
            results.append(self.run_job(job))
        self.maybe_probe(force=True)
        for r in results:
            if r["wall"] is not None:
                r["scaled"] = r["wall"] * REF_PROBE_S / self.speed(
                    r["start"], r["start"] + r["wall"])
        return results

    def maybe_probe(self, force: bool = False):
        t = time.perf_counter()
        if force or not self.probes or t - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((t, probe()))

    def speed(self, start: float, end: float) -> float:
        """Median probe time within PROBE_WINDOW_S of [start, end]."""
        near = [s for t, s in self.probes
                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return statistics.median(near or [s for _, s in self.probes])

    def check_round(self, results) -> list[dict]:
        """Set each result's error to why its report is wrong, if it is."""
        reports = {r["id"]: r["report"] for r in results if r.get("report")}
        for job, r in zip(self.jobs, results):
            if r["error"] is not None:
                continue
            d = r["digest"] = digest(r["text"])
            if self.seen.setdefault(job.id, d) != d:
                r["error"] = "report bytes differ from an earlier round"
            elif self.golden is not None and self.golden.get(job.id) != d:
                r["error"] = "report digest differs from the golden digest"
            else:
                r["error"] = self.oracles.check(job, r["report"], reports)
        return results


def environment(bench: Bench) -> dict:
    groups: dict[str, dict] = {}
    for job in bench.jobs:
        g = groups.setdefault(job.group,
                              {"jobs": 0, "size_min": job.size,
                               "size_max": job.size})
        g["jobs"] += 1
        g["size_min"] = min(g["size_min"], job.size)
        g["size_max"] = max(g["size_max"], job.size)
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": bench.workload,
        "seed": bench.seed,
        "jobs_per_round": len(bench.jobs),
        "job_budget_s": bench.budget,
        "classes": groups,
    }


def class_walls(bench: Bench, best: dict[str, float]) -> dict:
    walls: dict[str, list] = {}
    for job in bench.jobs:
        if job.id in best:
            walls.setdefault(job.group, []).append(best[job.id])
    return {g: statistics.median(w) for g, w in sorted(walls.items())}


def failures(results) -> list[str]:
    return [f"{r['id']}: {r['error']}" for r in results if r["error"]][:20]


def measure(bench: Bench, seconds: float, deadline: float):
    """Run rounds: at least MIN_ROUNDS, then while the next one is
    predicted to end within `seconds`. Reports are dropped once checked."""
    results, rounds = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for r in bench.check_round(bench.run_round(deadline)):
            r.pop("report", None)
            r.pop("text", None)
            results.append(r)
        rounds.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if time.monotonic() > deadline or (
                len(rounds) >= MIN_ROUNDS
                and elapsed + statistics.mean(rounds) > seconds):
            return results, len(rounds)


def best_times(results, key: str) -> dict[str, float]:
    """Each job's best time (`wall` or `scaled`) over its rounds.

    Speed dips of the machine that the probes miss hit one round of a job
    more than another; the best of rounds run seconds apart is far less
    sensitive to them than any single run."""
    best: dict[str, float] = {}
    for r in results:
        if r["wall"] is not None:
            best[r["id"]] = min(r[key], best.get(r["id"], math.inf))
    return best


def time_figures(bench: Bench, best: dict[str, float], correct) -> dict:
    walls = list(best.values())
    return {
        "job_p50_s": statistics.median(walls),
        "job_tail_s": nearest_rank(walls, tail_share(len(bench.jobs))),
        "jobs_per_s": sum(1 for j in best if j in correct) / sum(walls),
    }


def end_to_end(bench: Bench, args, deadline: float):
    setup = bench.setup()
    results, n_rounds = measure(bench, args.seconds, deadline)
    failed_ids = {r["id"] for r in results if r["error"] is not None}
    correct = {job.id for job in bench.jobs} - failed_ids
    best = best_times(results, "scaled")
    figures = time_figures(bench, best, correct)
    share = tail_share(len(bench.jobs))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "job_p50_s": (figures["job_p50_s"], "s"),
        "job_tail_s": (figures["job_tail_s"], "s"),
        "jobs_per_s": (figures["jobs_per_s"], "1/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "ok_ratio": (sum(r["error"] is None for r in results) / len(results),
                     "1"),
    }
    details = environment(bench)
    details.update({
        "rounds": n_rounds,
        "jobs": len(results),
        "tail": {"percentile": round(100 * share, 3), "samples": len(best),
                 "beyond": len(best) - round(share * len(best))},
        "setup": setup,
        "class_median_s": class_walls(bench, best),
        "raw_wall": time_figures(bench, best_times(results, "wall"), correct),
        "probe_s": {"median": statistics.median(s for _, s in bench.probes),
                    "min": min(s for _, s in bench.probes),
                    "max": max(s for _, s in bench.probes),
                    "count": len(bench.probes)},
        "failures": failures(results),
    })
    return results, metrics, details


def traced(bench: Bench, args, deadline: float):
    bench.prepare()
    plain = bench.run_round(deadline)
    bench.check_round(plain)
    bench.tracer = tr = Tracer()
    tr.install()
    try:
        spanned = bench.run_round(deadline)
    finally:
        tr.uninstall()
    bench.check_round(spanned)
    plain_s = sum(r.get("scaled", 0.0) for r in plain)
    traced_s = sum(r.get("scaled", 0.0) for r in spanned)
    # span times are raw; put them at reference speed like every other time
    scale = traced_s / sum(r["wall"] or 0.0 for r in spanned)
    values = {k: v * scale if k.endswith("self_s") else v
              for k, v in tr.metrics().items()}
    values.update({"trace.untraced_s": plain_s, "trace.traced_s": traced_s,
                   "trace.overhead_s": traced_s - plain_s})
    spec = json.loads(BENCHMARK.read_text())["per_layer"]
    metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec}
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{bench.workload}-{bench.seed}.json"
    out.write_text(json.dumps({
        "workload": bench.workload, "seed": bench.seed,
        "span_fields": ["name", "start", "end", "parent", "job",
                        "counted_s"],
        "reference_speed_factor": scale,
        "spans": tr.spans,
        "functions": tr.functions(),
        "metrics": values,
        "layer_map": LAYER_MAP,
    }))
    details = environment(bench)
    details.update({"jobs": len(plain) + len(spanned),
                    "trace_file": str(out.relative_to(ROOT)),
                    "overhead": {"untraced_s": plain_s, "traced_s": traced_s},
                    "layer_map": [{"metrics": m, "moves": e, "workloads": w}
                                  for m, e, w in LAYER_MAP],
                    "failures": failures(plain + spanned)})
    return plain + spanned, metrics, details


def write_golden(bench: Bench, results):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[bench.workload] = {r["id"]: r["digest"]
                              for r in results[:len(bench.jobs)]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(JOB_BUDGET_S))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's report digests as the golden "
                         "ones (default seed only)")
    args = ap.parse_args(argv)
    if not (SRC / "bvkit" / "__init__.py").is_file():
        print(f"perfbench: no bvkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden and (args.seed != DEFAULT_SEED or args.trace):
        print("perfbench: --write-golden needs the default seed and --trace 0",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    bench = Bench(args.workload, args.seed)
    if args.write_golden:
        bench.golden = None
    deadline = started + RUN_CAP_S
    run = traced if args.trace else end_to_end
    results, metrics, details = run(bench, args, deadline)
    failed = sum(1 for r in results if r["error"] is not None)
    if args.write_golden:
        if failed:
            print("perfbench: not writing golden digests of a failing run",
                  file=sys.stderr)
            return 1
        write_golden(bench, results)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
