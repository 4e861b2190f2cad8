#!/usr/bin/env python3
"""Build and run the DeDiSys benchmark from the root of a checkout.

One run (the last line of its output is the JSON result):

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0

Steadiness mode: repeat one workload with seeds 1..N and print, for every
metric, the median, the quartiles and the quartile spread as a share of the
median, next to the bound BENCHMARK.json gives it:

    python3 perfbench/run.py --steady 10 --workload write-hot --seconds 10

The Go program is built into .bench_build with its build cache there too,
so the benchmark reads and writes nothing outside the checkout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    os.makedirs(BUILD, exist_ok=True)
    # The build's own output goes to stderr: the result must stay the last
    # line of standard output.
    done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns its exit code and its last output line."""
    proc = subprocess.Popen(
        [BINARY, "-workload", workload, "-seed", str(seed),
         "-seconds", str(seconds), "-trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
            if line.strip():
                last = line.strip()
        return proc.wait(), last
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(args):
    values = {}
    units = {}
    incorrect = []
    for seed in range(1, args.steady + 1):
        code, last = run_once(args.workload, seed, args.seconds, args.trace, echo=False)
        if code != 0:
            sys.exit(f"perfbench: seed {seed} exited with {code}: {last}")
        result = json.loads(last)
        if not result["correct"]:
            incorrect.append(seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in sorted(result["metrics"])), flush=True)
    if incorrect:
        print(f"INCORRECT output on seeds {incorrect}; rerun one with --seed to see the failed checks")
    limit = bounds()
    print(f"{'metric':44} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in sorted(values):
        xs = values[name]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = limit.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:44} {units[name]:6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="repeat the workload with seeds 1..N and print each metric's quartiles")
    args = p.parse_args()
    # Turn a termination request into an exit that stops the child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    if args.steady:
        steady(args)
        return
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
