#!/usr/bin/env python3
"""Sets of runs and their comparison, for benchmark/run.sh.

sweep OUT.json
    Runs every workload once per seed 1..10 (untraced), then once traced
    with seed 1, for BENCHMARK.json's run_seconds each, and writes every
    run's metrics to OUT.json. Prints, per end-to-end metric, the spread
    the acceptance rule looks at: the distance between the first and third
    quartile as a share of the median.

compare A.json B.json
    Per (workload, end-to-end metric): both medians and quartiles, the
    ratio B/A with its base, the bound, and a verdict:
    same | improved | regressed | unresolved (a spread wider than the bound).
    Work counts of the traced runs must be identical. The end-to-end
    timings are shown the same way, against 10 %, but not judged: they are
    on BENCHMARK.json's per-layer list, which has no bounds (see README.md).
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
# The bound the end-to-end timings are shown against; BENCHMARK.json,
# which lists them per layer, gives them none.
TIMING_BOUND = 0.10


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(spec, workload, seed, trace):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {done.returncode}\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in line["metrics"].items()}
    if reported != listed:
        sys.exit(f"{' '.join(cmd)} reports other metrics than BENCHMARK.json lists: "
                 f"{sorted(set(reported.items()) ^ set(listed.items()))}")
    kind = "traced" if trace else "untraced"
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-{kind}.json")) as f:
        line["result"] = json.load(f)
    return line


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def sweep(out):
    spec = benchmark_json()
    doc = {"seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            r = run(spec, w, seed, 0)
            runs.append(r)
            print(f"{w} seed {seed}: attempted {r['attempted']} failed {r['failed']} "
                  f"in {r['result']['notes']['wall_s']} s", flush=True)
        traced = run(spec, w, SEEDS[0], 1)
        doc["workloads"][w] = {
            "env": runs[0]["result"]["env"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [float(r["result"]["notes"]["wall_s"]) for r in runs],
            "host_steal_share": [float(r["result"]["notes"]["host_steal_share"]) for r in runs],
            "end_to_end": {m: [r["metrics"][m]["value"] for r in runs] for m in runs[0]["metrics"]},
            "extra": {m: [r["result"]["extra"][m]["value"] for r in runs]
                      for m in runs[0]["result"]["extra"]},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "self_time_s": traced["result"]["self_time_s"],
        }
        with open(out, "w") as f:
            json.dump(doc, f, indent=1)
    print_spreads(doc, spec)


def print_spreads(doc, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'workload':<11} {'metric':<24} {'median':>14} {'IQR/median':>10} {'bound':>6}")
    for w, data in doc["workloads"].items():
        steal = data["host_steal_share"]
        print(f"{w}: host withheld {statistics.median(steal):.1%} of CPU time (median), {max(steal):.1%} at most")
        for m, values in list(data["end_to_end"].items()) + list(data["extra"].items()):
            s = spread(values)
            bound = bounds.get(m, TIMING_BOUND)
            flag = "" if s <= bound / 3 else (" >bound/3" if s <= bound else " >BOUND")
            if m == "setup_s":
                flag += " (one sample per run: the contract bounds its drift only)"
            print(f"{w:<11} {m:<24} {statistics.median(values):>14.4f} {s:>10.4f} {bound:>6.2f}{flag}")


def verdict(a, b, better, bound, one_sample_per_run=False):
    ma, mb = statistics.median(a), statistics.median(b)
    ratio = mb / ma
    # BENCHMARK.json's contract holds set-up time, which a run measures
    # once, to the drift of its median only, not to a spread.
    if not one_sample_per_run and max(spread(a), spread(b)) > bound:
        return ratio, "unresolved"
    worse = ratio - 1 if better == "lower" else 1 - ratio
    if worse > bound:
        return ratio, "regressed"
    if -worse > bound:
        return ratio, "improved"
    return ratio, "same"


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    if (a["seconds"], a["seeds"]) != (b["seconds"], b["seeds"]):
        sys.exit(f"not comparable: {path_a} ran {a['seconds']} s on seeds {a['seeds']}, "
                 f"{path_b} {b['seconds']} s on seeds {b['seeds']}")
    spec = benchmark_json()
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    better_timing = {m["name"]: m["better"] for m in spec["per_layer"]}
    bad = 0
    print(f"{'workload':<11} {'metric':<24} {'A median [q1, q3]':>40} {'B median [q1, q3]':>40} "
          f"{'B/A':>7} {'bound':>6} verdict")
    for w in a["workloads"]:
        if w not in b["workloads"]:
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        for kind in ("end_to_end", "extra"):
            for m, va in wa[kind].items():
                vb = wb[kind][m]
                better, bound = rules.get(m, (better_timing.get(m, "lower"), TIMING_BOUND))
                ratio, v = verdict(va, vb, better, bound, one_sample_per_run=m == "setup_s")
                if m in rules:
                    bad += v in ("regressed", "unresolved")
                else:
                    v += ", not judged"
                cell = lambda x: f"{statistics.median(x):.4f} [{quartiles(x)[0]:.4f}, {quartiles(x)[1]:.4f}]"
                print(f"{w:<11} {m:<24} {cell(va):>40} {cell(vb):>40} {ratio:>7.3f} {bound:>6.2f} {v}"
                      f" (base {statistics.median(va):.4f})")
        for m in ("store.probes_per_query", "store.triples_scanned_per_row"):
            ca, cb = wa["per_layer"][m], wb["per_layer"][m]
            same = ca == cb or w == "live_serve"
            bad += not same
            note = "identical" if ca == cb else ("differs (two threads: expected)" if same else "DIFFERS")
            print(f"{w:<11} {m:<24} {ca:>40.6f} {cb:>40.6f} {'':>7} {'':>6} {note}")
    print("every metric same or improved" if bad == 0 else f"{bad} metrics regressed, unresolved or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "sweep":
        sys.exit(sweep(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    sys.exit(__doc__)
