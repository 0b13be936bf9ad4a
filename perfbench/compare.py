#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

Each directory holds the run records run.py writes (--record-dir); only
untraced runs carry end-to-end metrics. Metrics, units, directions and
bounds come from BENCHMARK.json at the repository root.

With one directory: one row per workload x end-to-end metric with the
median, the quartiles, and the spread (interquartile distance as a share
of the median) against the metric's bound; a spread above a third of
the bound is flagged as not steady.

With two directories: one row per workload x end-to-end metric with
each side's median and quartiles and a verdict:

  improved    the change wins at least 9 of 10 pairs (runs paired by
              seed, else by order; ties count for neither side) and the
              medians differ by more than the base's interquartile
              distance;
  unresolved  either side's spread exceeds the bound and not every
              change run beats every base run;
  worse       the change's median is worse than the base's by more than
              the bound;
  unchanged   otherwise.

Exit status: 0, or 1 when any row is worse or unresolved (or, with one
directory, when any spread other than setup_s exceeds its bound).
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_runs(d):
    """workload -> list of (seed, {metric: value}) for untraced runs."""
    runs = {}
    for p in sorted(pathlib.Path(d).glob("*.json")):
        rec = json.loads(p.read_text())
        env, res = rec["env"], rec["result"]
        if env["trace"] != 0:
            continue
        if not res["correct"]:
            print(f"warning: {p.name} is an incorrect run", file=sys.stderr)
        vals = {k: v["value"] for k, v in res["metrics"].items()}
        runs.setdefault(env["workload"], []).append((env["seed"], vals))
    return runs


def quartiles(v):
    if len(v) < 2:
        return (v[0], v[0], v[0]) if v else (0.0, 0.0, 0.0)
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / med if med else float("inf")


def verdict(a, b, bound, lower):
    """a and b are aligned: a[i] and b[i] form pair i."""
    sign = -1.0 if lower else 1.0  # positive = better for the change
    (qa1, ma, qa3), (_, mb, _) = quartiles(a), quartiles(b)
    ps = list(zip(a, b))
    wins = sum(1 for x, y in ps if sign * (y - x) > 0)
    if ps and wins >= 0.9 * len(ps) and sign * (mb - ma) > qa3 - qa1:
        return "improved"
    every_better = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not every_better:
        return "unresolved"
    if ma and sign * (ma - mb) / ma > bound:
        return "worse"
    return "unchanged"


def fmt(v):
    q1, med, q3 = quartiles(v)
    return f"{med:11.4f} [{q1:.4f}, {q3:.4f}]"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    base = load_runs(sys.argv[1])
    change = load_runs(sys.argv[2]) if len(sys.argv) == 3 else None
    bad = False
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in base:
            print(f"{w}: no untraced runs in {sys.argv[1]}")
            bad = True
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [v[name] for _, v in base[w] if name in v]
            if change is None:
                s = spread(a)
                flag = "steady" if s < bound / 3 else (
                    "within bound" if s <= bound else "WIDE")
                if s > bound and name != "setup_s":
                    bad = True
                print(f"{w:12s} {name:18s} n={len(a):2d} {fmt(a)} "
                      f"spread {s:6.2%} bound {bound:.0%}  {flag}")
                continue
            runs_b = change.get(w, [])
            b = [v[name] for _, v in runs_b if name in v]
            if not a or not b:
                print(f"{w:12s} {name:18s} missing on one side")
                bad = True
                continue
            # Pair by seed when both sides ran the same seeds.
            sa = {s: v[name] for s, v in base[w] if name in v}
            sb = {s: v[name] for s, v in runs_b if name in v}
            common = sorted(set(sa) & set(sb))
            if common:
                a_p, b_p = [sa[s] for s in common], [sb[s] for s in common]
            else:
                a_p, b_p = a, b
            v = verdict(a_p, b_p, bound, m["better"] == "lower")
            if v in ("worse", "unresolved"):
                bad = True
            delta = (statistics.median(b) - statistics.median(a)) / \
                statistics.median(a) if statistics.median(a) else 0.0
            print(f"{w:12s} {name:18s} base {fmt(a)}  change {fmt(b)}  "
                  f"{delta:+7.2%}  {v}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
