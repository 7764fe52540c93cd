"""Self-test of the benchmark on tiny job lists.

    python3 perfbench/selftest.py

From the root of a checkout.  For every workload it runs the tiny job list
twice with tracing and checks that:
  * every metric name matches [A-Za-z0-9_.-]+ and carries a unit;
  * the end-to-end and per-layer names and units are exactly those
    BENCHMARK.json declares, and every per-layer metric has a prediction;
  * counts (job outcomes, cut values, per-layer counts) repeat exactly;
  * per-layer self times cover the traced wall time;
  * a deliberately corrupted reference value in each part fails its job.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def corrupt(jobs: list[dict]) -> list[str]:
    """Make one reference value wrong in every part; return the jobs hit."""
    victims = {}
    for job in jobs:
        chk = job["check"]
        if job["part"] in victims:
            continue
        if chk["kind"] in ("weight", "columns") and chk.get("value") is not None:
            chk["value"] += 1
        elif chk["kind"] in ("render_layout", "render_matrix"):
            chk["s"] += 1
        elif chk["kind"] == "lowerP":
            chk["k"] += 1
        elif chk["kind"] == "verify":
            chk["claims"] = chk["claims"][1:]
        else:
            continue
        victims[job["part"]] = job["id"]
    return list(victims.values())


def execute(workload: str, root: Path, broken: bool = False):
    r = run.Run(workload, 7, 0.0, True, root, tiny=True)
    try:
        victims = []
        if broken:
            victims = corrupt(r.jobs)
            r.jobs_path.write_text(json.dumps(r.jobs), encoding="utf-8")
        data = r.execute()
        return r.summary(data), r.values, victims, r.failures
    finally:
        shutil.rmtree(r.dir, ignore_errors=True)


def expect(cond: bool, what: str):
    if not cond:
        print(f"FAIL: {what}")
        raise SystemExit(1)


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads of workloads.py")
    for name in layer_units:
        expect(any(name == p or name.startswith(p + ".") for p in layers.PREDICTIONS),
               f"{name} has a prediction")
    for workload in workloads.WORKLOADS:
        first, values, _, failures = execute(workload, root)
        second, values2, _, _ = execute(workload, root)
        for group in ("end_to_end", "extra", "per_layer"):
            for name, (value, unit) in first[group].items():
                expect(bool(NAME.fullmatch(name)), f"{workload}: metric name {name!r}")
                expect(bool(UNIT.fullmatch(unit)), f"{workload}: unit {unit!r} of {name}")
                expect(isinstance(value, (int, float)), f"{workload}: {name} is a number")
        expect({k: u for k, (_, u) in first["end_to_end"].items()} == e2e_units,
               f"{workload}: end-to-end names and units as in BENCHMARK.json")
        expect({k: u for k, (_, u) in first["per_layer"].items()} == layer_units,
               f"{workload}: per-layer names and units as in BENCHMARK.json")
        expect(first["correct"], f"{workload}: no tiny job output is wrong ({failures})")
        expect((first["attempted"], first["failed"], values)
               == (second["attempted"], second["failed"], values2),
               f"{workload}: job outcomes and values repeat")
        counts = {k: v for k, (v, u) in first["per_layer"].items() if u in ("count", "B")}
        counts2 = {k: v for k, (v, u) in second["per_layer"].items() if u in ("count", "B")}
        expect(counts == counts2, f"{workload}: per-layer counts repeat")
        share = first["per_layer"]["trace.self_share"][0]
        expect(0.95 <= share <= 1.0001, f"{workload}: self times cover the traced wall ({share})")
        broken, _, victims, failures = execute(workload, root, broken=True)
        expect(len(victims) == len(workloads.WORKLOADS[workload])
               and broken["failed"] == first["failed"] + len(victims)
               and all(v in failures for v in victims) and not broken["correct"],
               f"{workload}: corrupted references fail jobs {victims}")
        print(f"ok  {workload:<8} attempted={first['attempted']} failed={first['failed']} "
              f"self_share={share:.4f}")
        for v in victims:
            print(f"    corrupted {v}: {failures[v][:70]}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
