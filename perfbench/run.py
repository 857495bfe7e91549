#!/usr/bin/env python3
"""Build and run the overlapsim benchmark harness.

    python3 perfbench/run.py --workload core-scale --seed 1 --seconds 20 --trace 0

builds the Go harness in perfbench/ into .bench_build/ (with the Go build
cache, temporary files and the go command's configuration there too, so
nothing outside the checkout is written) and runs it from the repository
root with the given arguments.

    python3 perfbench/run.py --steadiness

runs every workload in BENCHMARK.json untraced as two sets of ten runs of
run_seconds each, every run with its own seed, and prints per workload and
end-to-end metric both sets' medians, each set's quartile spread as a
share of its median, the metric's bound, and whether the spreads stay
under a third of the bound and the second median within the bound of the
first. It takes no options: the protocol is fixed.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
RUNS_PER_SET = 10


def build():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),  # the go command's telemetry
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run_once(workload, seed, seconds):
    out = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"perfbench: {workload} seed {seed} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"perfbench: {workload} seed {seed} failed verification")
    print("  " + "\n  ".join(lines[:-1]), file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = RUNS_PER_SET
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sets = [{w: [] for w in names}, {w: [] for w in names}]
    for s, runs_of in enumerate(sets):
        for r in range(runs):
            seed = 1 + s * runs + r
            for w in names:
                runs_of[w].append(run_once(w, seed, seconds))
                values = " ".join(f"{k}={v:.5g}" for k, v in sorted(runs_of[w][-1].items()))
                print(f"set {s + 1} run {r + 1}/{runs} {w} seed {seed}: {values}", file=sys.stderr)
    ok = True
    print(f"{'workload':<12} {'metric':<16} {'median1':>12} {'median2':>12} "
          f"{'spread1':>8} {'spread2':>8} {'shift':>8} {'bound':>6}  verdict")
    for w in names:
        for m in metrics:
            a = [r[m["name"]] for r in sets[0][w]]
            b = [r[m["name"]] for r in sets[1][w]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            steady = m["name"] == "setup_s" or max(sa, sb) < m["bound"] / 3
            verdict = "ok" if steady and worse <= m["bound"] else "UNRESOLVED"
            ok = ok and verdict == "ok"
            print(f"{w:<12} {m['name']:<16} {ma:>12.5g} {mb:>12.5g} {sa:>8.2%} {sb:>8.2%} "
                  f"{worse:>+8.2%} {m['bound']:>6.2f}  {verdict}")
    sys.exit(0 if ok else 1)


def main():
    args = sys.argv[1:]
    build()
    if args[:1] == ["--steadiness"]:
        if len(args) > 1:
            sys.exit("perfbench: --steadiness takes no options")
        steadiness()
    sys.exit(subprocess.run([BINARY] + args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
