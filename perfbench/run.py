"""Benchmark of the corefeval command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, untraced

Run from any directory; the package under test is the `src/` next to this
directory.  Inputs are generated from the seed into a scratch directory
inside the checkout, which is removed at the end.

`--trace 0` runs the workload's CLI command(s) in fresh processes until
`--seconds` have passed (at least three times) and reports medians of
wall time, CPU time and peak memory per run, and of the start-up time of
`corefeval --version`.  `--trace 1` replays the same commands in this
process with a span around each library call (see `tracing.py`) and reports
per-layer times and counts.  Both modes check the outputs; the last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Details (environment, input digests, per-run
values, failures) go to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = Path(__file__).with_name("expected.json")

DEFAULT_SEED = 1  # its input and output digests are frozen in expected.json
MIN_REPS = 3
PARALLEL_REPS = 2
COMMAND_TIMEOUT_S = 120
CORPUS_DOCS = 60           # 85 x 24 words each: ~0.12M words per file
STRESS_DOCS, STRESS_NEST = 3, 10
REWRITE_DOCS, REWRITE_SENTS = 60, 80

# Why each workload exists, and what it should and should not move, is in
# README.md and BENCHMARK.json.
WORKLOADS = ("score_corpus", "score_parallel", "score_stress", "rewrite_corpus")


def _pin_package():
    """Import corefeval from this checkout's src/, never an installed copy."""
    if not (SRC / "corefeval" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'corefeval'}")
    sys.path.insert(0, str(SRC))
    import corefeval
    if Path(corefeval.__file__).resolve().parent != (SRC / "corefeval").resolve():
        raise SystemExit(f"perfbench: corefeval imported from {corefeval.__file__}")


# ---------------------------------------------------------------------------
# workload inputs and commands

def _write(work: Path, **texts: str) -> dict[str, str]:
    paths = {}
    for name, text in texts.items():
        path = work / f"{name}.conllu"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def workload_commands(name: str, seed: int, work: Path) -> tuple[dict[str, str], list[list[str]]]:
    """Generate the workload's inputs; return them and its CLI commands."""
    rng = random.Random(seed)
    if name in ("score_corpus", "score_parallel"):
        key, resp = gen.corpus(rng, CORPUS_DOCS)
        files = _write(work, key=key, response=resp)
        jobs = "1" if name == "score_corpus" else "2"
        return files, [["score", files["key"], files["response"], "--jobs", jobs]]
    if name == "score_stress":
        key, resp = gen.stress(rng, STRESS_DOCS, STRESS_NEST)
        files = _write(work, key=key, response=resp)
        base = ["score", files["key"], files["response"], "--jobs", "1"]
        return files, [base, base + ["--match", "head"]]
    if name == "rewrite_corpus":
        files = _write(work, corpus=gen.rewrite(rng, REWRITE_DOCS, REWRITE_SENTS))
        return files, [
            ["transform", files["corpus"], "--ops", "conservative-head-reduce,merge-same-span",
             "-o", str(work / "transformed.conllu")],
            ["baseline", files["corpus"], "--pipeline", "simple-rule-based", "--strip",
             "-o", str(work / "baseline.conllu")],
        ]
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def _with_jobs(argv: list[str], jobs: str) -> list[str]:
    out = list(argv)
    out[out.index("--jobs") + 1] = jobs
    return out


def _output(argv: list[str], stdout: bytes) -> bytes:
    """A command's product: the file it writes with -o, else its stdout."""
    if "-o" in argv:
        return Path(argv[argv.index("-o") + 1]).read_bytes()
    return stdout


# ---------------------------------------------------------------------------
# running the CLI

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    output: bytes


def run_cli(argv: list[str], work: Path) -> Run:
    """One CLI process.  CPU time and peak RSS come from `wait4` on this
    child, so they cover its own process tree (pool workers included) and
    nothing else the harness ran.  The RSS is that of the largest process."""
    with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "corefeval.cli", *argv],
                                stdout=out, stderr=err, env=ENV, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stdout = (work / "stdout").read_bytes()
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               code, _output(argv, stdout) if code == 0 else b"")


def run_in_process(argv: list[str]) -> tuple[int, bytes, float]:
    """`main(argv)` in this process: exit code, product, seconds."""
    from corefeval.cli import main

    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    seconds = perf_counter() - start
    return code, _output(argv, buf.getvalue().encode("utf-8")) if code == 0 else b"", seconds


# ---------------------------------------------------------------------------
# correctness

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_inputs(checks: Checks, name: str, files: dict[str, str],
                 commands: list[list[str]], refs: list[bytes], seed: int) -> dict:
    """Checks that do not depend on a timed run; returns the digests."""
    from corefeval.cli import validate_path
    from corefeval.conllu import docs_to_text, parse_text

    digests = {"inputs": {k: _sha256(Path(p).read_bytes()) for k, p in sorted(files.items())},
               "outputs": [_sha256(r) for r in refs]}
    if name.startswith("score"):
        for argv in commands:
            key = argv[1]
            code, out, _ = run_in_process(["score", key, key, "--format", "json",
                                           *_with_jobs(argv, "1")[3:]])
            perfect = code == 0 and all(
                v == {"r": 100.0, "p": 100.0, "f1": 100.0}
                for d in json.loads(out)["datasets"].values() for v in d.values())
            checks.check(perfect, f"key vs key is not 100.00 everywhere: {argv[3:]}")
    else:
        for path in files.values():
            text = Path(path).read_text(encoding="utf-8")
            checks.check(docs_to_text(parse_text(text, path=path)) == text,
                         f"round trip changes {Path(path).name}")
        for argv in commands:
            out = argv[argv.index("-o") + 1]
            problems = validate_path(out)
            checks.check(not problems, f"{argv[0]} output fails validate: {problems[:3]}")
    if seed == DEFAULT_SEED:
        frozen = json.loads(EXPECTED.read_text()).get(name)
        checks.check(frozen == digests,
                     f"default-seed digests differ from {EXPECTED.name}: {digests}")
    return digests


def references(checks: Checks, commands: list[list[str]]) -> list[bytes]:
    """Each command's product from an in-process run at --jobs 1; every
    timed run must reproduce it byte for byte (the report is the same for
    any job count)."""
    refs = []
    for argv in commands:
        code, out, _ = run_in_process(_with_jobs(argv, "1") if "--jobs" in argv else argv)
        checks.check(code == 0, f"in-process {argv[0]} exited {code}")
        refs.append(out)
    return refs


# ---------------------------------------------------------------------------
# the two modes

def measure(commands: list[list[str]], refs: list[bytes], seconds: float,
            work: Path, checks: Checks) -> tuple[dict, dict]:
    setup, walls, cpus, rss, probes = [], [], [], [], []
    start = perf_counter()
    while len(walls) < MIN_REPS or perf_counter() - start < seconds:
        probes.append(host_probe())
        if len(walls) % 2 == 0:  # set-up samples spread over the whole run
            version = run_cli(["--version"], work)
            checks.check(version.code == 0, f"--version exited {version.code}")
            setup.append(version.wall)
        runs = [run_cli(argv, work) for argv in commands]
        for argv, ref, run in zip(commands, refs, runs):
            checks.check(run.code == 0 and run.output == ref,
                         f"{' '.join(argv[:1] + argv[3:])}: exit {run.code}, "
                         f"output {'matches' if run.output == ref else 'differs'}")
        walls.append(sum(r.wall for r in runs))
        cpus.append(sum(r.cpu for r in runs))
        rss.append(max(r.rss_mb for r in runs))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return metrics, {"wall_s": walls, "cpu_s": cpus, "setup_s": setup,
                     "peak_rss_mb": rss, "host_probe_s": probes}


def trace(commands: list[list[str]], refs: list[bytes], seconds: float,
          work: Path, checks: Checks) -> tuple[dict, dict]:
    from tracing import Tracer, instrument, layer_metrics, replay, score_drift

    serial = [_with_jobs(a, "1") if "--jobs" in a else a for a in commands]

    def untraced() -> float:
        total = 0.0
        for argv, ref in zip(serial, refs):
            code, out, secs = run_in_process(argv)
            checks.check(code == 0 and out == ref, f"in-process {argv[0]} differs")
            total += secs
        return total

    reps: list[dict] = []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start < seconds:
        # alternate which pass runs first, so that neither always gets the
        # heap the other one grew
        traced_first = len(reps) % 2 == 1
        if not traced_first:
            main_s = untraced()
        tracer = Tracer()
        t0 = perf_counter()
        with instrument(tracer):
            products = [replay(tracer, argv) for argv in serial]
        total_s = perf_counter() - t0
        if traced_first:
            main_s = untraced()
        reps.append(layer_metrics(tracer, total_s, main_s))

    # drift guard, outside every span: the traced calls must rebuild what
    # the CLI computes
    for argv, ref, product in zip(serial, refs, products):
        if argv[0] == "score":
            drifted = score_drift(argv, product)
            checks.check(drifted == 0, f"traced counts differ on {drifted} documents")
        else:
            checks.check(product.encode("utf-8") == ref, f"traced {argv[0]} output differs")

    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics["cli.parallel_speedup"] = metrics["cli.parallel_cpu_overhead"] = 0.0
    if all("--jobs" in a for a in commands):  # rewrites have no parallel path
        metrics.update(_parallel(commands, refs, work, checks))
    return {k: (v, _unit(k)) for k, v in metrics.items()}, {"reps": len(reps)}


def _parallel(commands, refs, work, checks) -> dict[str, float]:
    """The workload's commands at --jobs 1 and --jobs 2 in fresh processes,
    alternating: wall-time ratio and CPU-time difference of the medians."""
    walls: dict[str, list[float]] = {"1": [], "2": []}
    cpus: dict[str, list[float]] = {"1": [], "2": []}
    for _ in range(PARALLEL_REPS):
        for jobs in ("1", "2"):
            runs = [run_cli(_with_jobs(argv, jobs), work) for argv in commands]
            for ref, run in zip(refs, runs):
                checks.check(run.code == 0 and run.output == ref,
                             f"score --jobs {jobs} differs")
            walls[jobs].append(sum(r.wall for r in runs))
            cpus[jobs].append(sum(r.cpu for r in runs))
    return {
        "cli.parallel_speedup": statistics.median(walls["1"]) / statistics.median(walls["2"]),
        "cli.parallel_cpu_overhead": statistics.median(cpus["2"]) - statistics.median(cpus["1"]),
    }


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s") or metric == "cli.parallel_cpu_overhead":
        return "s"
    if metric == "cli.parallel_speedup":
        return "x"
    if metric == "align.pairs_per_lsa_call":
        return "pairs/call"
    return "count"


# ---------------------------------------------------------------------------
# environment

def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a record of how fast the host
    ran at that moment, to tell host phases from program changes."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return perf_counter() - start


def _steal_s() -> float:
    """Stolen CPU time of the whole host so far (read-only)."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    steal0 = _steal_s()
    env = environment()
    try:
        files, commands = workload_commands(name, seed, work)
        checks = Checks()
        refs = references(checks, commands)
        digests = check_inputs(checks, name, files, commands, refs, seed)
        mode = trace if traced else measure
        metrics, detail = mode(commands, refs, seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    env["loadavg_after"] = os.getloadavg()
    env["steal_s"] = _steal_s() - steal0
    failed = len(checks.failures)
    record = {"workload": name, "seed": seed, "trace": int(traced),
              "environment": env, "digests": digests, "runs": detail,
              "failed_share": failed / checks.attempted,
              "failures": checks.failures}
    print(json.dumps(record), file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{name:15s} {metric:28s} {value:12.4f} {unit}", file=sys.stderr)
    print(f"{name:15s} {'failed_share':28s} {record['failed_share']:12.4f} share",
          file=sys.stderr)
    return {"correct": failed == 0, "attempted": checks.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_package()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
