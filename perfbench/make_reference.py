"""Rebuild perfbench/reference/*.json from the program in this checkout.

Usage, from the repository root:

    python3 perfbench/make_reference.py [--seeds 0-9] [--workload NAME ...]

For a campaign workload the file holds each pair's strip verdict and roots
(12 significant digits) at the first seed, and the SHA-256 of report.csv and
roots.csv at every seed.  For bounds_contour it holds every instance's
results.  Rebuild only when the expected outputs change on purpose: the
benchmark's correctness gate compares every run against these files.
"""

import argparse
import json
import tempfile
from pathlib import Path

import reference
from workloads import WORKLOADS, BoundsWorkload, clear_program_caches, read_roots

from hsroots import run_campaign  # importable once workloads has put src/ on the path

OUT_DIR = Path(__file__).resolve().parent / "out"


def _short(x: float) -> float:
    return float(f"{x:.12g}")


def campaign_reference(workload, seeds) -> dict:
    data = {"workload": workload.name, "roots_seed": seeds[0], "pairs": {}, "csv_sha256": {}}
    for seed in seeds:
        clear_program_caches()
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            report = run_campaign(workload.config(seed, Path(tmp)))
            if report.errors or len(report.rows) != len(workload.instances()):
                raise SystemExit(f"{workload.name} seed {seed}: {report.errors}")
            data["csv_sha256"][str(seed)] = reference.csv_digests(Path(tmp))
            if seed == seeds[0]:
                roots = read_roots(Path(tmp) / "roots.csv")
                for row in report.rows:
                    key = f"{row.d},{row.n}"
                    data["pairs"][key] = {
                        "certified": row.certified,
                        "roots": [[_short(z.real), _short(z.imag)] for z in roots[key]],
                    }
        print(f"{workload.name} seed {seed} done", flush=True)
    return data


def bounds_reference(workload) -> dict:
    instances = {}
    for key in workload.instances():
        d, n = map(int, key.split(","))
        instances[key] = workload.evaluate(d, n)
    return {"workload": workload.name, "instances": instances}


def write_json(path: Path, data: dict, per_line: str):
    """JSON with one line per entry of data[per_line], so diffs stay readable."""
    head = json.dumps({k: v for k, v in data.items() if k != per_line}, indent=1, sort_keys=True)
    body = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in data[per_line].items()
    )
    path.write_text(head[:-2] + f',\n "{per_line}": {{\n{body}\n }}\n}}\n')


def _seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-9"))
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        path = reference.REFERENCE_DIR / f"{name}.json"
        if isinstance(workload, BoundsWorkload):
            write_json(path, bounds_reference(workload), "instances")
        else:
            write_json(path, campaign_reference(workload, args.seeds), "pairs")
        print(f"wrote {path}", flush=True)


if __name__ == "__main__":
    main()
