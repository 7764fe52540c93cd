"""One pass of a job list in a fresh interpreter.

    python3 perfbench/worker.py JOBS.json OUT_DIR TRACE(0|1)

Imports `exmat.cli` from ./src, then runs every job through
`exmat.cli.main(argv)` in-process with stdout and stderr captured, one
after another.  Only the calls themselves are timed.  Each job's stdout is
written to OUT_DIR/<id>.out after its timer stops, so the outputs of earlier
jobs are not held in memory while later ones run.  Peak RSS is read right
after the last job.  With TRACE=1 the layer boundaries are wrapped first
(see layers.py).  Prints one JSON line with the pass results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def import_exmat(root: Path):
    """Import exmat.cli from root/src, refusing any other installation."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import exmat.cli

    if Path(exmat.cli.__file__).resolve().parent.parent != src:
        raise ImportError(f"exmat was imported from {exmat.cli.__file__}, not from {src}")
    return exmat.cli


def peak_rss_mib() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def run_jobs(cli, jobs, out_dir: Path, tracer=None) -> dict:
    results = []
    wall = cpu = 0.0
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        if tracer is not None:
            tracer.begin_job(job["id"])
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(job["argv"])
        except SystemExit as e:  # argparse rejects its input this way
            rc = e.code
        except Exception as e:  # a crash is a job failure, not a benchmark failure
            exc = f"{type(e).__name__}: {e}"[:200]
        secs = time.perf_counter() - t0
        cpu += time.process_time() - c0
        wall += secs
        text = out.getvalue()
        (out_dir / f"{job['id']}.out").write_text(text, encoding="utf-8")
        results.append({"id": job["id"], "rc": rc, "exc": exc, "secs": secs,
                        "sha256": hashlib.sha256(text.encode()).hexdigest()})
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mib(), "jobs": results}


def main(argv) -> int:
    jobs_path, out_dir, trace = Path(argv[0]), Path(argv[1]), argv[2] == "1"
    cli = import_exmat(Path.cwd())
    jobs = json.loads(jobs_path.read_text(encoding="utf-8"))
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    result = run_jobs(cli, jobs, out_dir, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
