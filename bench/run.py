"""Benchmark of the popfock CLI verification workloads.

    python3 bench/run.py --workload brackets|basis|identities \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh interpreter
(bench/child.py) that makes one `popfock verify` call, so the module-global
root-action cache starts cold as it does for a user's CLI call; samples run
one at a time until S seconds have passed; set-up alone is timed in one
more interpreter before each of them.  Every report stream is checked
against the independent oracles in bench/oracles.py.

--trace 0 prints the end-to-end metrics, each the median over the samples.
--trace 1 runs (untraced, traced) pairs instead and prints the per-layer
metrics of the traced sample, medians over the pairs, with the tracing
overhead; the traced report stream must match the untraced one byte for
byte.  The workloads are fixed configurations: --seed is recorded but no
input depends on it.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the samples go to bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import oracles

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
RESULTS = os.path.join(BENCH, "results")
# a run must end within 180 s; a sample still running at this point is killed
DEADLINE_S = 170


class BenchError(Exception):
    pass


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_child(mode, workload, deadline):
    """One CLI call in a fresh interpreter; returns the child's record."""
    cmd = [sys.executable, CHILD, mode] + oracles.WORKLOADS[workload]
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError("out of time before a %s sample" % mode)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s sample exceeded the time limit" % mode)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("child exited %d: %s"
                         % (proc.returncode, proc.stderr.strip()[-2000:]))
    try:
        rec = json.loads(proc.stdout)
    except ValueError:
        raise BenchError("child printed no record: %r" % proc.stdout[:200])
    rec["mode"] = mode
    rec["setup_s"] = rec.pop("setup_end") - start
    if mode != "setup":
        rec["stream"] = "\n".join(rec.pop("lines")) + "\n"
    return rec


def line_passed(line):
    try:
        return json.loads(line).get("status") == "pass"
    except (ValueError, AttributeError):
        return False


def check_samples(workload, samples):
    """(attempted, failed, problems) over all samples of one run."""
    attempted = failed = 0
    problems = []
    runs = [rec for rec in samples if rec["mode"] != "setup"]
    first = runs[0]["stream"]
    for n, rec in enumerate(runs):
        lines = rec["stream"].splitlines()
        attempted += len(lines)
        failed += sum(1 for line in lines if not line_passed(line))
        if rec["status"] != 0:
            problems.append("sample %d: exit status %d" % (n, rec["status"]))
        if rec["stream"] != first:
            problems.append("sample %d: report stream differs from sample 0" % n)
        problems += ["sample %d: %s" % (n, p)
                     for p in oracles.check_stream(workload, rec["stream"])]
    return attempted, failed, problems


def end_to_end(workload, seconds, deadline):
    samples = []
    begin = time.monotonic()
    while not samples or time.monotonic() - begin < seconds:
        # set-up is timed in every sample and, being short, once more in an
        # interpreter that stops after parse_config
        samples.append(run_child("setup", workload, deadline))
        samples.append(run_child("plain", workload, deadline))
    runs = [rec for rec in samples if rec["mode"] == "plain"]

    def median(key, recs=runs):
        return statistics.median(rec[key] for rec in recs)

    metrics = {"setup_s": median("setup_s", samples),
               "run_s": median("run_s"), "cpu_s": median("cpu_s"),
               "peak_rss_mib": median("rss_kib") / 1024}
    return samples, metrics, []


def traced(workload, seconds, deadline):
    samples = []
    layers = []
    problems = []
    begin = time.monotonic()
    while not layers or time.monotonic() - begin < seconds:
        plain = run_child("plain", workload, deadline)
        rec = run_child("trace", workload, deadline)
        if rec["stream"] != plain["stream"]:
            problems.append("traced report stream differs from the untraced one")
        vectors = rec.pop("basis_vectors")
        if workload == "basis":
            problems += ["traced basis vectors: %s" % p
                         for p in oracles.check_basis_vectors(vectors)]
        rec["layers"]["trace.untraced_run_s"] = plain["run_s"]
        rec["layers"]["trace.overhead"] = rec["run_s"] / plain["run_s"]
        samples += [plain, rec]
        layers.append(rec["layers"])
    metrics = {name: statistics.median(lay[name] for lay in layers)
               for name in layers[0]}
    return samples, metrics, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(oracles.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "popfock", "cli.py")):
        raise BenchError("no popfock sources under %s" % ROOT)
    e2e_units, layer_units = declared_metrics()
    compileall.compile_dir(os.path.join(ROOT, "src", "popfock"), quiet=1)
    measure = traced if args.trace else end_to_end
    samples, metrics, problems = measure(args.workload, args.seconds, deadline)
    attempted, failed, found = check_samples(args.workload, samples)
    problems += found
    units = layer_units if args.trace else e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError("metrics not measured: %s" % ", ".join(missing))
    os.makedirs(RESULTS, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "argv": oracles.WORKLOADS[args.workload],
              "report_sha256": hashlib.sha256(
                  samples[-1]["stream"].encode()).hexdigest(),
              "problems": problems, "metrics": metrics,
              "samples": [{k: v for k, v in rec.items() if k != "stream"}
                          for rec in samples]}
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for p in problems:
        print("problem: %s" % p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        sys.exit(2)
