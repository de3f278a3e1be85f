"""One fresh process: set up one workload, run it once, check it, write a result file.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|run|trace \
        --work DIR --result FILE [--spans FILE]

Set-up time runs from the first line of this file, before numpy or mfglab is
imported, to the end of input building. `--mode setup` stops there. `run`
then runs the workload once and reads the peak RSS right after it, before the
checks allocate anything. `trace` does the same with every mfglab layer
wrapped in spans, and adds the per-layer metrics and the span-coverage check.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    os.makedirs(args.work, exist_ok=True)
    try:
        import workloads  # imports mfglab and mfglab.cli: part of set-up

        wl = workloads.WORKLOADS[args.workload]
        inputs = wl.setup(args.seed, args.work)
        result = {"setup_s": time.perf_counter() - T0}
        result.update(versions=workloads.versions(), why_gaussian=wl.why_gaussian)
        if args.mode != "setup":
            result.update(run_once(wl, inputs, args))
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    with open(args.result, "w") as f:
        json.dump(result, f)


def run_once(wl, inputs, args):
    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.span
    t = time.perf_counter()
    with span("workload"):
        outputs = wl.run(inputs, span)
    wall = time.perf_counter() - t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failed, failures, info = wl.check(inputs, outputs)
    out = {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "attempted": wl.ops,
        "failed": failed,
        "failures": failures,
        "info": info,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["breakdown"] = tracer.breakdown()
        out["trace_problems"] = tracer.problems + tracer.coverage_problems(
            args.workload, tracing.load_predictions()
        )
        if args.spans:
            tracer.dump(args.spans)
    return out


if __name__ == "__main__":
    main()
