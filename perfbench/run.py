"""exmat benchmark: seeded CLI job lists, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload search --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  One run:

  1. writes the workload's seeded inputs and job list (workloads.py);
  2. times the set-up a CLI call pays, a fresh interpreter until
     `import exmat.cli` and `build_parser()` are done, several times;
  3. runs passes over the job list until about --seconds of passes have
     run (at least two), each pass in a fresh interpreter (worker.py), so
     nothing cached inside the process carries over from one pass to the
     next; with --trace 1 it alternates untraced and traced passes;
  4. checks every output of the first pass against its reference
     (checks.py), and every later output whose bytes differ from the
     first pass's;
  5. times a fixed pure-Python loop before and after, to tell host drift
     from a change in the program (reported, not a metric).

It prints a readable report, with the wall time of each part of the
workload (see workloads.py), then one JSON line with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  The full record
(jobs, provenance, per-pass results, kept spans) goes to
perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
PASS_TIMEOUT_S = 150
CUT_UNITS = {"weight": "ones", "columns": "columns"}

SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
import exmat.cli
exmat.cli.build_parser()
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


# Children always use the bytecode cache, as an installed program does, so
# that setup_s does not depend on PYTHONDONTWRITEBYTECODE in the caller's
# environment.  The cache lands in src/exmat/__pycache__ of the checkout.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class BenchError(RuntimeError):
    pass


def calibrate() -> float:
    """Median time of a fixed pure-Python loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += (i * i) & 255
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_once(src: Path) -> float:
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE.format(src=str(src))],
                          stdout=subprocess.PIPE, env=CHILD_ENV) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line != b"ready\n":
            raise BenchError("set-up child failed to import exmat.cli")
    return t1 - t0


def run_pass(jobs_path: Path, out_dir: Path, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_path), str(out_dir),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
                              env=CHILD_ENV)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 tiny: bool = False):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.src = root / "src"
        self.dir = HERE / "out" / f"run-{workload}-{seed}-{os.getpid()}"
        self.jobs = workloads.build(workload, seed, self.dir.relative_to(root) / "inputs", tiny)
        self.jobs_path = self.dir / "jobs.json"
        self.jobs_path.write_text(json.dumps(self.jobs), encoding="utf-8")
        self.failures: dict[str, str] = {}
        self.values: dict[str, int | None] = {}

    def check_pass(self, res: dict, first: dict | None):
        """Check this pass's outputs: all of them on the first pass, later only
        those whose bytes differ from the first pass (verify prints run times)."""
        import checks  # imports exmat, so only after main() has found ./src

        for i, (job, r) in enumerate(zip(self.jobs, res["jobs"])):
            jid = job["id"]
            if first is not None:
                ref = first["jobs"][i]
                if (r["rc"], r["exc"]) != (ref["rc"], ref["exc"]):
                    self.failures.setdefault(jid, "wrong: outcome differs between passes")
                if r["sha256"] == ref["sha256"] or r["exc"]:
                    continue
            if r["exc"]:
                self.failures.setdefault(jid, r["exc"])
                continue
            text = (self.dir / "out" / f"{jid}.out").read_text(encoding="utf-8")
            msg, value = checks.check(job, r["rc"], text)
            self.values.setdefault(jid, value)
            if msg:
                self.failures.setdefault(jid, msg)

    def execute(self) -> dict:
        cal_before = calibrate()
        setup_once(self.src)  # warm the bytecode cache
        setup = [setup_once(self.src) for _ in range(SETUP_REPEATS)]
        plain, traced, spent = [], [], 0.0
        while True:
            for is_traced in ((False, True) if self.trace else (False,)):
                t0 = time.perf_counter()
                res = run_pass(self.jobs_path, self.dir / "out", is_traced)
                spent += time.perf_counter() - t0
                self.check_pass(res, plain[0] if plain else None)
                (traced if is_traced else plain).append(res)
            # Stop where the next pass would end further past --seconds than
            # stopping now falls short of it; untraced runs make at least two
            # passes, so that one pass hit by a host slowdown is not the result.
            rounds = len(plain)
            if rounds >= (1 if self.trace else 2) and spent + spent / rounds / 2 >= self.seconds:
                break
        cal_after = calibrate()
        return {"setup": setup, "plain": plain, "traced": traced,
                "calibration_s": [cal_before, cal_after]}

    def summary(self, data: dict) -> dict:
        ids = [j["id"] for j in self.jobs]
        attempted = len(ids)
        failed = sum(i in self.failures for i in ids)
        wrong = any(m.startswith("wrong:") for m in self.failures.values())
        plain = data["plain"]
        wall = statistics.median(p["wall_s"] for p in plain)
        e2e = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(data["setup"]), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MiB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
        extra = {"error_rate": (failed / attempted, "ratio"),
                 "cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s")}
        for part in workloads.WORKLOADS[self.workload]:
            idx = [i for i, j in enumerate(self.jobs) if j["part"] == part]
            extra[f"wall_s.{part}"] = (
                statistics.median(sum(p["jobs"][i]["secs"] for i in idx) for p in plain), "s")
            part_failed = sum(self.jobs[i]["id"] in self.failures for i in idx)
            extra[f"error_rate.{part}"] = (part_failed / len(idx), "ratio")
            if part in CUT_UNITS:
                cut = sum(self.values.get(self.jobs[i]["id"]) or 0 for i in idx
                          if self.jobs[i]["check"].get("cut"))
                extra[f"cut_lower_bound.{part}"] = (cut, CUT_UNITS[part])
        per_layer = {}
        if data["traced"]:
            per_layer = self.layer_metrics(data["traced"], wall)
        return {"correct": not wrong, "attempted": attempted, "failed": failed,
                "end_to_end": e2e, "extra": extra, "per_layer": per_layer}

    def layer_metrics(self, traced: list[dict], untraced_wall: float) -> dict:
        """Medians over the traced passes; counts repeat from pass to pass."""
        each = [layers.metrics(t["trace"]["layers"], t["wall_s"], len(t["trace"]["absent"]))
                for t in traced]
        out = {name: (statistics.median(m[name][0] for m in each), unit)
               for name, (_, unit) in each[0].items()}
        traced_wall = statistics.median(t["wall_s"] for t in traced)
        out["trace.overhead"] = (traced_wall / untraced_wall - 1, "ratio")
        return out


def report(run: Run, data: dict, summ: dict):
    w = run.workload
    print(f"exmat benchmark  workload={w}  seed={run.seed}  passes={len(data['plain'])}"
          f"  traced_passes={len(data['traced'])}")
    for name, (value, unit) in {**summ["end_to_end"], **summ["extra"]}.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  {'attempted':<28} {summ['attempted']:>14}   failed {summ['failed']}"
          f"   correct {summ['correct']}")
    before, after = data["calibration_s"]
    print(f"  {'calibration_s':<28} before {before:.6f}  after {after:.6f}"
          "  (host drift, not a metric)")
    first = data["plain"][0]["jobs"]
    for job, r in zip(run.jobs, first):
        status = run.failures.get(job["id"], "ok")
        value = run.values.get(job["id"])
        shown = "" if value is None else f" value={value}"
        print(f"  job {job['part']:<8} {job['id']:<28} {r['secs']:8.3f} s  {status}{shown}"
              f"  [{job['provenance']}]")
    if summ["per_layer"]:
        for name, (value, unit) in summ["per_layer"].items():
            print(f"  {name:<32} {value:>14.6g} {unit}")
        absent = data["traced"][0]["trace"]["absent"]
        if absent:
            print(f"  absent layer boundaries: {', '.join(absent)}")


def write_record(run: Run, data: dict, summ: dict):
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": run.trace,
        "jobs": run.jobs, "failures": run.failures, "values": run.values,
        "setup_s": data["setup"], "calibration_s": data["calibration_s"],
        "passes": [{k: v for k, v in p.items() if k != "trace"} for p in data["plain"]],
        "summary": summ,
        "predictions": layers.PREDICTIONS,
    }
    if data["traced"]:
        record["traced_passes"] = [{k: v for k, v in p.items() if k != "trace"}
                                   for p in data["traced"]]
        record["trace"] = data["traced"][0]["trace"]
    path = HERE / "out" / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    path.write_text(json.dumps(record), encoding="utf-8")


def result_line(summ: dict, trace: bool) -> str:
    metrics = summ["per_layer"] if trace else summ["end_to_end"]
    return json.dumps({
        "correct": summ["correct"], "attempted": summ["attempted"], "failed": summ["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "exmat" / "cli.py").is_file():
        print("error: run from the root of an exmat checkout (no src/exmat/cli.py here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    try:
        data = run.execute()
        summ = run.summary(data)
        report(run, data, summ)
        write_record(run, data, summ)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    print(result_line(summ, run.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
