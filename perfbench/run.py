"""mfglab benchmark: one workload, its end-to-end metrics or its per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/mfglab`. Every workload run is
a fresh child process (`child.py`) with the BLAS/OpenMP thread variables set
before numpy is imported. Runs repeat until another one would overrun
`--seconds` (at least one is made), and each metric is the median over them.

- `--trace 0` reports `wall_s`, `setup_s` and `peak_rss_mb`. Two further
  processes only set up, so `setup_s` is a median of several samples.
- `--trace 1` alternates untraced and traced runs and reports the per-layer
  metrics of the traced ones plus `trace.overhead_frac`.

Human-readable lines come first; a record with the machine, versions, git SHA,
seed, checks and every metric is written to `perfbench/out/`; the last line of
standard output is the JSON result. A missing `src/mfglab` or a crashed child
ends the run with a non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("decoupled_sweep", "coupled_sweep", "lq_grid", "cli_session")
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, mode, k, env, deadline) -> dict:
    tag = f"{args.workload}_seed{args.seed}_{mode}{k}_{os.getpid()}"
    result_path = os.path.join(OUT, tag + ".result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--work", os.path.join(OUT, tag), "--result", result_path,
    ]
    if mode == "trace":
        cmd += ["--spans", os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}_{k}.json")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next child could start")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{mode} child timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{mode} child exited with code {proc.returncode}\n{tail}")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    return result


def measure(args, env):
    """Run children until one more would overrun --seconds; returns (setup, untraced, traced)."""
    deadline = time.monotonic() + DEADLINE_S
    setup_only = []
    if not args.trace:
        setup_only = [run_child(args, "setup", k, env, deadline) for k in range(SETUP_ONLY_RUNS)]
    runs, traced = [], []
    start = time.monotonic()
    while True:
        k = len(runs)
        runs.append(run_child(args, "run", k, env, deadline))
        if args.trace:
            traced.append(run_child(args, "trace", k, env, deadline))
        elapsed = time.monotonic() - start
        if elapsed * (k + 2) / (k + 1) > args.seconds:
            return setup_only, runs, traced


def summary(values):
    """Median, quartiles and sample count of one metric over the runs."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(threads):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "threads": {var: str(threads) for var in THREAD_VARS},
    }


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mfglab", "__init__.py")):
        print(f"perfbench: no mfglab sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    spec, units = contract()
    threads = min(2, nproc())
    os.makedirs(OUT, exist_ok=True)
    try:
        setup_only, runs, traced = measure(args, child_env(threads))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    every = runs + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    failures = sorted({msg for r in every for msg in r["failures"]})
    problems = sorted({p for r in traced for p in r["trace_problems"]})
    wall = summary([r["wall_s"] for r in runs])
    stats = {
        "wall_s": wall,
        "setup_s": summary([r["setup_s"] for r in setup_only + runs]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in runs]),
    }
    oracle = [r["info"]["oracle_rel_err"] for r in every if "oracle_rel_err" in r["info"]]
    values = {name: s["median"] for name, s in stats.items()}
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_frac"] = (traced_wall - wall["median"]) / wall["median"]
        values.update(layers)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if n not in values]
    if missing:
        print(f"perfbench: metrics {missing} named in BENCHMARK.json were not measured",
              file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "machine": machine(threads),
        "versions": runs[0]["versions"],
        "why_gaussian": runs[0]["why_gaussian"],
        "end_to_end": stats,
        "fail_frac": failed / attempted,
        "oracle_rel_err": statistics.median(oracle) if oracle else None,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "trace_problems": problems,
        "info": [r["info"] for r in runs],
        "per_layer": {n: values[n] for n in names} if args.trace else None,
        "breakdown": [r["breakdown"] for r in traced],
    }
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2)

    m = record["machine"]
    v = record["versions"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  machine: {m['platform']}; {m['cpu']}; nproc={m['nproc']}; threads={threads}")
    print("  versions: " + ", ".join(f"{k} {val}" for k, val in v.items())
          + f"; git {record['git_sha'] or 'unknown (not a git checkout)'}")
    for name, s in stats.items():
        print(f"  {name:<15} {s['median']:.4f} {units[name]}  (median; quartiles "
              f"{s['q1']:.4f}..{s['q3']:.4f}; n={s['n']})")
    print(f"  {'fail_frac':<15} {record['fail_frac']:.4f} ratio  ({failed} failed of {attempted} operations)")
    if record["oracle_rel_err"] is None:
        print(f"  {'oracle_rel_err':<15} n/a  (lq_grid only)")
    else:
        print(f"  {'oracle_rel_err':<15} {record['oracle_rel_err']:.6f} ratio  "
              "(max over the phase and limit probes; checked < 0.02)")
    if args.trace:
        for name in names:
            print(f"  {name:<30} {values[name]:.6g} {units[name]}")
        print("  self time by module in the first traced run:")
        for span, by_module in traced[0]["breakdown"].items():
            total = sum(by_module.values())
            shares = sorted(by_module.items(), key=lambda kv: -kv[1])
            print(f"    {span} {total:.3f} s: "
                  + ", ".join(f"{mod} {sec / total:.0%}" for mod, sec in shares if sec / total >= 0.01))
    for msg in failures + problems:
        print(f"  FAIL: {msg}")
    print(f"  record: {os.path.relpath(path, ROOT)}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
