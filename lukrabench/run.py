"""The lukra benchmark: seeded, closed-loop batches of lukra CLI jobs.

    python3 lukrabench/run.py --workload {free,algebra,logic} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it tests the checkout's own src/lukra.
One client runs each job of the workload's batch as a fresh
`python -m lukra.cli` process and starts the next job only after the previous
one has exited. Batches repeat while another one fits in --seconds (at least
one always runs). Every report is checked against its golden digest and, where
one exists, an independent oracle; a job that fails either, exits with another
code than its golden, or times out counts as failed.

Times are speed-corrected: a probe process (probe.py) times a fixed loop 20
times a second, and each job's wall and CPU time is divided by the probe's
slowdown factor around that job. The raw figures go in the context line.
With --trace 0 the last line of stdout holds the end-to-end metrics:

  batch_s      time of one whole batch (median over batches)
  job_p50_s    median time of one job, spawn to exit
  job_tail_s   job time at the highest percentile with >= 10 samples beyond
               it (the percentile and sample count go in the context line)
  cpu_s        user + system CPU of all jobs of one batch (per-job rusage from
               wait4, the figures RUSAGE_CHILDREN sums; median over batches)
  peak_rss_mb  largest max-RSS of a single job
  setup_s      time to make the inputs from the seed and start one
               `import lukra.cli` process (median of SETUP_REPEATS)

failed_share (failed / attempted) is printed in the summary line; it is 0 when
the run is correct, so it is kept out of the JSON metrics, whose spread is
taken relative to their median. With --trace 1 one untraced batch runs, then
one batch through shim.py, and the last line holds the per-layer metrics of the
traced batch (times as the shim's clock read them, not speed-corrected) plus
trace.overhead_s (traced minus untraced batch time, both corrected).

The line before the last is a JSON context: run facts (seed, commit, Python,
nproc, load average), input properties, raw times, the tail percentile and
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import spans
import workloads
from probe import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".lukrabench"
GOLDENS = HERE / "goldens.json"

SETUP_REPEATS = 5
JOB_TIMEOUT_S = 45.0
# No job starts after this many seconds of a run, so a run ends within 180 s.
RUN_DEADLINE_S = 110.0


@dataclass
class Result:
    job: workloads.Job
    start: float = 0.0      # time.monotonic() at spawn
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    rc: int | None = None   # None: the job never ran
    digest: str = ""
    bytes_in: int = 0
    bytes_out: int = 0
    error: str | None = None


@dataclass
class Pass:
    """One run of a whole batch."""
    start: float
    end: float = 0.0
    results: list[Result] = field(default_factory=list)
    reports: list[bytes] = field(default_factory=list)

    def ran(self) -> list[Result]:
        return [r for r in self.results if r.rc is not None]


def job_env() -> dict[str, str]:
    """The caller's environment without LUKRA_* and PYTHON* variables, so a
    developer's shell cannot change the workload; the working tree's src is
    the only import path added."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LUKRA_", "PYTHON"))}
    env["PYTHONPATH"] = str(SRC)
    return env


def _resolve(arg: str, directory: Path) -> str:
    return str(directory / arg[1:]) if arg[:1] in ("@", "%") else arg


def run_job(job: workloads.Job, prefix: list[str], directory: Path, env: dict,
            stem: str) -> Result:
    """Spawn one job, wait for it, and keep its stdout in STEM.stdout.
    "{spawn_ns}" in prefix becomes time.monotonic_ns() at the spawn."""
    res = Result(job)
    argv = [_resolve(a, directory) for a in job.argv]
    if job.out:
        (directory / job.out).unlink(missing_ok=True)
    killed = []
    with open(directory / f"{stem}.stdout", "wb") as out, \
            open(directory / f"{stem}.stderr", "wb") as err:
        spawn_ns = time.monotonic_ns()
        cmd = [a.replace("{spawn_ns}", str(spawn_ns)) for a in prefix]
        proc = subprocess.Popen(cmd + argv, stdout=out, stderr=err, env=env, cwd=directory)
        timer = threading.Timer(JOB_TIMEOUT_S, lambda: (killed.append(1), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        res.wall = time.monotonic() - spawn_ns / 1e9
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    res.start = spawn_ns / 1e9
    res.rc = proc.returncode
    res.cpu = usage.ru_utime + usage.ru_stime
    res.rss_kb = usage.ru_maxrss
    if killed:
        res.error = f"timed out after {JOB_TIMEOUT_S} s"
    return res


def digest_outputs(res: Result, directory: Path, stem: str) -> bytes:
    """Digest of stdout and the --out file; returns the report bytes."""
    stdout = (directory / f"{stem}.stdout").read_bytes()
    out = b""
    if res.job.out and (directory / res.job.out).exists():
        out = (directory / res.job.out).read_bytes()
    res.digest = hashlib.sha256(stdout + b"\0--out\0" + out).hexdigest()
    res.bytes_in = sum((directory / name).stat().st_size for name in res.job.inputs())
    res.bytes_out = len(stdout) + len(out)
    return out if res.job.out else stdout


def run_batch(batch: workloads.Batch, directory: Path, env: dict, traced: bool,
              deadline: float) -> Pass:
    """Run every job once, in order, then digest the outputs."""
    p = Pass(time.monotonic())
    for i, job in enumerate(batch.jobs):
        if time.monotonic() > deadline:
            p.results.append(Result(job, error="not started: run deadline passed"))
            continue
        if traced:
            prefix = [sys.executable, str(HERE / "shim.py"), str(directory / f"{i}.spans"),
                      str(i), "{spawn_ns}"]
        else:
            prefix = [sys.executable, "-m", "lukra.cli"]
        p.results.append(run_job(job, prefix, directory, env, str(i)))
    p.end = time.monotonic()
    p.reports = [digest_outputs(r, directory, str(i)) if r.rc is not None else b""
                 for i, r in enumerate(p.results)]
    return p


def verify(p: Pass, batch: workloads.Batch, goldens: dict[str, str], cache: dict) -> None:
    """Set each result's error when its exit code or digest differs from the
    golden, or an oracle rejects its report. A report equal to its golden
    gets the same oracle verdict, so `cache` keeps verdicts by job."""
    algebras = {name: json.loads(data) for name, data in batch.files.items()
                if name.endswith(".json")}
    for res, report in zip(p.results, p.reports):
        if res.error:
            continue
        key = res.job.key(batch.files)
        golden = goldens.get(key)
        if golden is None:
            res.error = "no golden digest for this job"
            continue
        if golden != f"{res.rc}:{res.digest}":
            res.error = f"exit {res.rc} digest {res.digest[:12]}, golden {golden[:15]}"
            continue
        if res.job.check:
            if key not in cache:
                cache[key] = oracles.check(res.job.check, json.loads(report), algebras)
            res.error = cache[key]


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with >= 10 samples above it;
    the maximum when there are fewer than 11 samples."""
    ordered = sorted(walls)
    i = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def corrected(p: Pass, speed: Speed) -> tuple[float, list[float], list[float]]:
    """(batch time, job times, job CPU times), each job's divided by the
    probe's factor around it; the client's time between jobs by the batch's."""
    ran = p.ran()
    factors = [speed.factor(r.start, r.start + r.wall) for r in ran]
    walls = [r.wall / f for r, f in zip(ran, factors)]
    cpus = [r.cpu / f for r, f in zip(ran, factors)]
    between = (p.end - p.start) - sum(r.wall for r in ran)
    return sum(walls) + between / speed.factor(p.start, p.end), walls, cpus


def end_to_end(passes: list[Pass], speed: Speed,
               setup_s: float) -> tuple[dict[str, tuple[float, str]], dict]:
    """Figures of each batch, then their median over batches; returns the
    metrics and a context with the raw figures and the tail's rank."""
    rows, raw = [], []
    for p in passes:
        batch_s, walls, cpus = corrected(p, speed)
        value, percentile = tail(walls)
        rows.append((batch_s, statistics.median(walls), value, sum(cpus)))
        ran = p.ran()
        raw.append({"batch_s": p.end - p.start,
                    "job_p50_s": statistics.median(r.wall for r in ran),
                    "cpu_s": sum(r.cpu for r in ran),
                    "speed_factor": speed.factor(p.start, p.end)})
    batch_s, p50, tail_s, cpu_s = (statistics.median(col) for col in zip(*rows))
    rss_mb = max(r.rss_kb for p in passes for r in p.ran()) / 1024
    metrics = {"batch_s": (batch_s, "s"), "job_p50_s": (p50, "s"), "job_tail_s": (tail_s, "s"),
               "cpu_s": (cpu_s, "s"), "peak_rss_mb": (rss_mb, "MB"), "setup_s": (setup_s, "s")}
    return metrics, {"tail": {"percentile": percentile, "samples": len(walls)}, "raw": raw}


def layer_metrics(p: Pass, directory: Path) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span dumps of the jobs that passed."""
    dumps = []
    for i, r in enumerate(p.results):
        path = directory / f"{i}.spans"
        if r.error or not path.exists():
            continue
        d = json.loads(path.read_text())
        d["bytes_in"], d["bytes_out"] = r.bytes_in, r.bytes_out
        dumps.append(d)
    return spans.layer_metrics(dumps)


def setup(workload: str, seed: int, directory: Path,
          env: dict) -> tuple[workloads.Batch, list[tuple[float, float]]]:
    """Make the inputs from the seed and start one `import lukra.cli`
    process, SETUP_REPEATS times; returns the batch and each repeat's
    (start, end) on time.monotonic()."""
    intervals = []
    for i in range(SETUP_REPEATS):
        start = time.monotonic()
        batch = workloads.BATCHES[workload](seed)
        target = directory / f"setup{i}"
        batch.write(target)
        subprocess.run([sys.executable, "-c", "import lukra.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        intervals.append((start, time.monotonic()))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    target.rename(directory / "run")
    return batch, intervals


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.exists():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lukra").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_context(seed: int, load: tuple) -> dict:
    return {
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load),
    }


def measure(args, directory: Path) -> int:
    load = os.getloadavg()
    goldens = json.loads(GOLDENS.read_text())
    env = job_env()
    probe_path = directory / "probe.txt"
    probe = subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(probe_path)],
                             env=env, stdout=subprocess.DEVNULL)
    try:
        try:
            batch, setup_intervals = setup(args.workload, args.seed, directory, env)
        except subprocess.CalledProcessError as exc:
            print(f"error: `import lukra.cli` failed in set-up: {exc}", file=sys.stderr)
            return 2
        rundir = directory / "run"
        start = time.monotonic()
        deadline = start + RUN_DEADLINE_S
        passes, cache = [], {}
        while True:
            p = run_batch(batch, rundir, env, False, deadline)
            verify(p, batch, goldens, cache)
            passes.append(p)
            elapsed = time.monotonic() - start
            if args.trace or elapsed + (p.end - p.start) > args.seconds or elapsed > RUN_DEADLINE_S:
                break
        traced = run_batch(batch, rundir, env, True, deadline) if args.trace else None
    finally:
        probe.kill()
        probe.wait()
    speed = Speed.read(probe_path)
    setup_s = statistics.median((b - a) / speed.factor(a, b) for a, b in setup_intervals)
    results = [r for p in passes for r in p.results]
    e2e, context = end_to_end(passes, speed, setup_s)
    context.update(workload=args.workload, trace=args.trace, batches=len(passes),
                   jobs_per_batch=len(batch.jobs))
    if traced:
        verify(traced, batch, goldens, cache)
        results += traced.results
        metrics = layer_metrics(traced, rundir)
        traced_s = corrected(traced, speed)[0]
        metrics["trace.overhead_s"] = (traced_s - corrected(passes[0], speed)[0], "s")
        context.update(traced_batch_s=traced_s, end_to_end={k: v for k, (v, _) in e2e.items()})
    else:
        metrics = e2e
    failed = [r for r in results if r.error]
    failed_share = len(failed) / len(results)
    context.update(
        failed_share=failed_share,
        failures=[{"argv": list(r.job.argv), "error": r.error} for r in failed[:20]],
        run=run_context(args.seed, load),
        inputs=batch.props,
    )
    summary = " ".join(f"{k}={v:.6g}{u}" for k, (v, u) in metrics.items())
    print(f"lukrabench {args.workload} seed={args.seed}: {summary} "
          f"failed_share={failed_share:.6g}ratio")
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BATCHES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lukra" / "cli.py").is_file():
        print(f"error: no lukra sources under {SRC}", file=sys.stderr)
        return 2
    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        return measure(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
