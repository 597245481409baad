"""Record perfbench/reference.json: the exact outputs the checks compare with.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run once, at the commit that introduced the benchmark; later commits
must reproduce these digests. It classifies a box of K-types per pair
for `ds induct` (regular, singular, unequal rank, refused), which the
classify workload draws from, and stores the digest of the stdout of
every exact request any seed can generate. For `group wedderburn` only
the exact fields (order, blocks, classes) are digested, and they must
agree across program seeds.
"""

import json
import os
import sys

from checks import digest, wedderburn_exact
from worker import invoke
import workloads

from dirac_atlas import cli

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def run(argv):
    rc, out, err, tb = invoke(cli.main, argv)
    if tb:
        raise SystemExit(f"{' '.join(argv)} raised:\n{err}")
    return rc, out, err


def classify_inducts() -> dict:
    pools = {}
    pairs = sorted({pair for pair, _, _ in workloads.INDUCT_PLAN})
    for pair in pairs:
        cats = {"regular": [], "singular": [], "unequal": [], "refused": []}
        for hw in workloads.induct_box(pair):
            rc, out, err = run(["ds", "induct", "--pair", pair, *workloads.hw_args(hw)])
            if rc == 2:
                if not err.startswith("error: K-type") or err.count("\n") != 1:
                    raise SystemExit(f"{pair} {hw}: refused for another reason: {err}")
                cats["refused"].append(hw)
                continue
            res = json.loads(out)
            if res["ok"]:
                cats["regular"].append(hw)
            elif res["exclusion"] == "singular":
                cats["singular"].append(hw)
            else:
                cats["unequal"].append(hw)
        pools[pair] = {k: v for k, v in cats.items() if v}
    return pools


def main() -> None:
    induct = classify_inducts()
    for pair, cat, count in workloads.INDUCT_PLAN:
        have = len(induct.get(pair, {}).get(cat, []))
        if have < count:
            raise SystemExit(f"{pair} has {have} {cat} K-types, the plan draws {count}")
    outputs = {}
    for argv in workloads.reference_argvs(induct):
        key = workloads.ref_key(argv)
        if argv[:2] == ["group", "wedderburn"]:
            seen = {wedderburn_exact(json.loads(run(argv + ["--seed", str(s)])[1])) for s in range(4)}
            if len(seen) != 1:
                raise SystemExit(f"{key}: exact fields depend on the seed")
            outputs[key] = seen.pop()
            continue
        rc, out, _ = run(argv)
        if rc != 0:
            raise SystemExit(f"{key}: exit {rc}")
        outputs[key] = digest(out)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"induct": induct, "outputs": outputs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(outputs)} outputs and {sum(map(len, induct.values()))} K-type classes", file=sys.stderr)


if __name__ == "__main__":
    main()
