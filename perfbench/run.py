#!/usr/bin/env python3
"""Wall-clock benchmark of the multi-window aggregate rewriter: baseline (BL)
vs Algorithm 1 (WCG) vs Algorithm 2 with factor windows (WCG-FW), in batch
and in Structured Streaming.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hopping-min --seed 1 --seconds 18 --trace 0

The first run builds the benchmark (`perfbench/build.py`). One JVM runs one
workload on `local[<cpus>]` with the repository's session settings (64
shuffle partitions, broadcast joins off). Human-readable figures go to
standard output, followed by one JSON line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json; with `--trace 1` a
separate traced run gives the per-layer ones, writes its spans to
`.bench_build/perfbench/spans-<workload>-<seed>.json` and prints the
tracing overhead. A layer that a workload does not run reads 0.

Workloads (see BatchBench.scala / StreamBench.scala for why each exists):
  hopping-min     {W(40,10), W(80,20), W(120,40)}, MIN, 1M events, 4 keys
  random12-avg    12 random tumbling windows, AVG, 100k events, 16 keys
  stream-ex7-min  {W(20,20), W(30,30), W(40,40)}, MIN, 50k-event micro-batches

End-to-end metrics on each workload:
  bl_ms / wcg_ms / wcgfw_ms  median latency of one query (batch: planning
      through collect(), plus unpersistAll for the rewritten plans) or of
      one closed-loop micro-batch (stream)
  wcgfw_events_per_s  events in timed WCG-FW queries or batches / their time
  heap_live_mb        largest heap occupancy after a full GC between rounds
  setup_s             session start + input generation (median of repeats)
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("hopping-min", "random12-avg", "stream-ex7-min")
PLANS = ("bl", "wcg", "wcgfw")
JVM_TIMEOUT_S = 170
HEAP = "2g"

# Names the README gives these figures on each kind of workload, for the
# human-readable report.
ALIASES = {
    "batch": {"bl_ms": "bl_s", "wcg_ms": "wcg_s", "wcgfw_ms": "wcgfw_s"},
    "stream": {"bl_ms": "stream_bl_batch_ms", "wcg_ms": "stream_wcg_batch_ms",
               "wcgfw_ms": "stream_batch_ms", "wcgfw_events_per_s": "stream_events_per_s"},
}


def run_jvm(args, out, spans, work):
    cpus = len(os.sched_getaffinity(0))
    cmd = (build.java(HEAP, work) + ["repro.perfbench.Bench",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--master", f"local[{cpus}]", "--work", work, "--out", out, "--spans", spans])
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: JVM exceeded {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 1


def end_to_end(raw):
    s = raw["samples_ms"]
    wcgfw = s.get("wcgfw", [])
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "bl_ms": stats.median(s.get("bl", [])),
        "wcg_ms": stats.median(s.get("wcg", [])),
        "wcgfw_ms": stats.median(wcgfw),
        "wcgfw_events_per_s": raw["events_per_sample"] * len(wcgfw) / (sum(wcgfw) / 1e3),
        "heap_live_mb": max(raw["heap_mb"]),
    }


def per_layer(raw, spans):
    """Per-layer values: those measured in the JVM, plus the ones derived
    here from samples and spans. Self times come from the traced WCG-FW
    query's spans."""
    layer = dict(raw["layer"])
    s = raw["samples_ms"]
    layer["input.gen_s"] = stats.median(raw["input_gen_s"])
    layer["input.cache_hit_ratio"] = (raw["cache_hits"] / raw["cache_checks"]
                                      if raw["cache_checks"] else 0.0)
    for p in ("wcg", "wcgfw"):
        measured = stats.median(s[p]) / stats.median(s["bl"])
        modelled = layer[f"core.model_cost_{p}"] / layer["core.model_cost_bl"]
        layer[f"exec.model_gap_{p}"] = measured / modelled
    self_ns = stats.self_times(spans)
    fw = [x for x in spans if x["attrs"].get("plan") == "wcgfw"]
    for kind in ("root", "edge"):
        nodes = [x for x in fw if x["name"] == "exec.node" and x["attrs"]["kind"] == kind]
        layer[f"exec.{kind}_ms"] = sum(self_ns[x["id"]] for x in nodes) / 1e6
        layer[f"exec.{kind}_rows_in"] = float(sum(x["attrs"]["rows_in"] for x in nodes))
    finish = [x for x in fw if x["name"] == "exec.finish"]
    layer["exec.finish_ms"] = sum(self_ns[x["id"]] for x in finish) / 1e6
    layer["exec.rows_out"] = float(sum(x["attrs"]["rows_out"] for x in finish))
    return layer


def report(raw, metrics, extra, bench, spans):
    kind = "stream" if raw["workload"] == "stream-ex7-min" else "batch"
    print(f"== {raw['workload']}  seed={raw['seed']}  trace={int(raw['trace'])} ==")
    if not raw["trace"]:
        for p in PLANS:
            xs = raw["samples_ms"].get(p, [])
            print(f"  {p} samples (ms, in order): " + " ".join(f"{x:.0f}" for x in xs))
        for m in bench["end_to_end"]:
            name, unit, v = m["name"], m["unit"], metrics[m["name"]]
            alias = ALIASES[kind].get(name)
            line = f"  {name:<20} {v:14.4f} {unit}"
            plan = name[:-3] if name.endswith("_ms") else None
            if plan in PLANS:
                xs = raw["samples_ms"].get(plan, [])
                tail = stats.tail_percentile(xs)
                line += f"   n={len(xs)} " + (f"p{tail[0]}={tail[1]:.1f} ms" if tail
                                              else "p(>=10 beyond)=n/a")
                if alias:
                    line += f"   [{alias} = {v / 1e3:.4f} s]" if alias.endswith("_s") \
                        else f"   [{alias}]"
            elif alias:
                line += f"   [{alias}]"
            print(line)
    else:
        for m in bench["per_layer"]:
            print(f"  {m['name']:<28} {metrics[m['name']]:16.4f} {m['unit']}")
        for name, v in extra.items():
            print(f"  {name:<28} {v:16.4f}   (printed only: not measured on every workload)")
        for p, traced in raw["traced_ms"].items():
            untraced = stats.median(raw["samples_ms"].get(p, []))
            print(f"  tracing overhead {p:<6} traced {stats.median(traced):10.1f} ms"
                  f" - untraced {untraced:10.1f} ms = {stats.median(traced) - untraced:+.1f} ms")
        roots = [x for x in spans if x["parent"] == 0]
        print(f"  spans: {len(spans)} in {len(roots)} traces")
    error_rate = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    print(f"  error_rate {error_rate:.4f} ({raw['failed']}/{raw['attempted']})"
          f"  input cache hits {raw['cache_hits']}/{raw['cache_checks']}")
    for e in raw["errors"]:
        print(f"  error: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    try:
        build.build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    work = os.path.abspath(os.path.join(build.OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}"))
    out = os.path.join(work, "raw.json")
    spans_file = os.path.abspath(os.path.join(build.OUT, f"spans-{args.workload}-{args.seed}.json"))
    os.makedirs(work, exist_ok=True)
    try:
        code = run_jvm(args, out, spans_file, work)
        if code != 0 or not os.path.exists(out):
            sys.exit(f"perfbench: benchmark JVM failed with exit code {code}")
        with open(out) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spans = []
    if args.trace:
        with open(spans_file) as f:
            spans = json.load(f)
        values = per_layer(raw, spans)
        wanted = bench["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    extra = {k: v for k, v in values.items() if k not in metrics}
    report(raw, {k: v["value"] for k, v in metrics.items()}, extra, bench, spans)
    print(json.dumps({"correct": raw["failed"] == 0 and raw["attempted"] > 0,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
