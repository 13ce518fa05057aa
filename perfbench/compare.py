#!/usr/bin/env python3
"""Spreads and comparisons of benchmark records (`perfbench/out/*.json`).

    python3 perfbench/compare.py DIR             # spread of each metric, per workload
    python3 perfbench/compare.py BASE_DIR NEW_DIR  # NEW against BASE

A record is the provenance and result line of one run. Records are pooled
per (workload, trace) over their seeds. Two pools are compared only when
their fingerprints agree: the whole provenance except the program source
id and the seed, plus the hash of the benchmark's own sources. A mismatch
(another host size, build, thread count, serve config, run length or
benchmark version) is refused.

Spread is (Q3 - Q1) / median with `statistics.quantiles(n=4)`. A metric
regresses when NEW's median is worse than BASE's by more than its bound in
`BENCHMARK.json`; metrics without a bound (per-layer, and the record's
`extra` figures) are listed only.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def fingerprint(prov):
    fp = {k: v for k, v in prov.items() if k not in ("source", "seed")}
    fp["bench"] = next((t for t in prov["source"].split() if t.startswith("bench.")), "?")
    return json.dumps(fp, sort_keys=True)


def pools(directory):
    out = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        rec = json.loads(path.read_text())
        prov = rec["provenance"]
        key = (prov["workload"], prov["trace"])
        pool = out.setdefault(key, {"fingerprints": set(), "runs": []})
        pool["fingerprints"].add(fingerprint(prov))
        # The record's `extra` figures (serving latency and goodput, the
        # serve stage times) are compared like the result's, without a bound.
        run = dict(rec["result"])
        run["metrics"] = {**rec["result"]["metrics"], **rec.get("extra", {}).get("metrics", {})}
        pool["runs"].append(run)
    for key, pool in out.items():
        if len(pool["fingerprints"]) != 1:
            sys.exit(f"refusing: records of {key} in {directory} have different fingerprints")
    return out


def summary(runs, name):
    values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
    med = statistics.median(values)
    spread = None
    if len(values) >= 2 and med:
        q = statistics.quantiles(values, n=4)
        spread = (q[2] - q[0]) / abs(med)
    return med, spread, len(values)


def main(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    if len(argv) == 1:
        for (workload, trace), pool in sorted(pools(argv[0]).items()):
            runs = pool["runs"]
            failed = sum(r["failed"] for r in runs)
            print(f"{workload} trace={int(trace)}: {len(runs)} runs, failed {failed}, "
                  f"all correct {all(r['correct'] for r in runs)}")
            for name, m in runs[0]["metrics"].items():
                med, spread, n = summary(runs, name)
                bound = bounds.get(name, {}).get("bound")
                flag = "" if bound is None or spread is None else (
                    "  OVER BOUND" if spread > bound else
                    "  over a third of bound" if spread > bound / 3 else "")
                shown = "-" if spread is None else f"{spread:.3f}"
                print(f"  {name:32} median {med:14.6g} {m['unit']:8} spread {shown:>6}"
                      f"{'' if bound is None else f' (bound {bound})'}{flag}")
        return 0
    base, new = pools(argv[0]), pools(argv[1])
    regressions = 0
    for key in sorted(set(base) & set(new)):
        if base[key]["fingerprints"] != new[key]["fingerprints"]:
            sys.exit(f"refusing: {key} was measured under different fingerprints:\n"
                     f"  {base[key]['fingerprints']}\n  {new[key]['fingerprints']}")
        print(f"{key[0]} trace={int(key[1])}")
        for name, m in base[key]["runs"][0]["metrics"].items():
            b, bs, _ = summary(base[key]["runs"], name)
            n, _, _ = summary(new[key]["runs"], name)
            change = (n - b) / abs(b) if b else 0.0
            spec = bounds.get(name)
            verdict = ""
            if spec:
                worse = change if spec["better"] == "lower" else -change
                verdict = "REGRESSION" if worse > spec["bound"] else "ok"
                regressions += verdict == "REGRESSION"
            print(f"  {name:32} {b:12.6g} -> {n:12.6g} {m['unit']:8} {100 * change:+7.2f}%"
                  f" (base spread {'-' if bs is None else f'{bs:.3f}'}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
