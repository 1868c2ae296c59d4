"""Record goldens.json: exit code and report digest of every job any seed
can produce, from the working tree's lukra.

    python3 lukrabench/record_goldens.py

Run it only at a commit whose reports are known good: the benchmark counts
every later difference as a failed job. Each recorded report must also pass
its oracle, and every slot meant to be valid must be valid.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import oracles
import run
import workloads


def record(workload: str, goldens: dict[str, str]) -> int:
    env = run.job_env()
    problems = 0
    for c, batch in enumerate(workloads.universe(workload)):
        directory = run.WORK / f"goldens-{workload}-{c}"
        shutil.rmtree(directory, ignore_errors=True)
        batch.write(directory)
        prefix = [sys.executable, "-m", "lukra.cli"]
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(lambda ij: run.run_job(ij[1], prefix, directory, env, str(ij[0])),
                                    enumerate(batch.jobs)))
        algebras = {n: json.loads(d) for n, d in batch.files.items() if n.endswith(".json")}
        for i, res in enumerate(results):
            report = run.digest_outputs(res, directory, str(i))
            why = res.error or (oracles.check(res.job.check, json.loads(report), algebras)
                                if res.job.check else None)
            if why:
                problems += 1
                print(f"{workload}: {' '.join(res.job.argv)}: {why}", file=sys.stderr)
                continue
            goldens[res.job.key(batch.files)] = f"{res.rc}:{res.digest}"
        shutil.rmtree(directory)
        print(f"{workload} candidate set {c}: {len(batch.jobs)} jobs", file=sys.stderr)
    return problems


def check_valid_slots() -> int:
    problems = 0
    for slot, (verb, valid, _, n) in enumerate(workloads.LOGIC_SLOTS):
        if not valid:
            continue
        for c in range(workloads.CANDIDATES):
            hyps, f = workloads.logic_candidate(slot, c)
            if oracles.least_counterexample(hyps, f, n) is not None:
                problems += 1
                print(f"logic slot {slot} candidate {c} is not valid: {workloads.text(f)}",
                      file=sys.stderr)
    return problems


def main() -> int:
    goldens: dict[str, str] = {}
    problems = check_valid_slots()
    for name in sorted(workloads.BATCHES):
        problems += record(name, goldens)
    run.GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    print(f"{len(goldens)} goldens, {problems} problems", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
