"""ricguard benchmark: the guarded near-RT control loop and detector training.

Run from the root of a checkout::

    python3 bench/run.py --workload loop-dense --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1            # each workload in its own process

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written under ``.bench_build/``).
Each metric goes on its own line with its unit and sample count; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. README.md in this directory explains the
workloads, the metrics and the run-to-run spread.
"""

from __future__ import annotations

import time

_STARTED_NS = time.perf_counter_ns()

import os  # noqa: E402

# Pin BLAS before numpy loads: training results differ in their last digits
# between one and two BLAS threads, and the loop is single-threaded anyway.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "ricguard-bench"
WORKLOADS = ("loop-dense", "loop-sparse", "train")


def _import_program() -> None:
    """Import ``ricguard`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "ricguard" / "__init__.py").is_file():
        raise ImportError(f"no ricguard sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ricguard

    if Path(ricguard.__file__).resolve().parent != SRC / "ricguard":
        raise ImportError(f"ricguard imported from {ricguard.__file__}, not from {SRC}")


def _blas_info(np) -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    # Ask the loaded OpenBLAS itself how many threads it runs.
    import ctypes
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                return info
    return info


def _run_each(args) -> int:
    """``--workload all``: run each workload in a process of its own, so every
    figure (the peak resident set, set-up from cold caches) is that
    workload's own, and gather their result lines into one."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print(f"bench: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_each(args)

    try:
        _import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import report  # imports the program's modules, so it counts toward set-up

    import_ns = time.perf_counter_ns() - _STARTED_NS
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }
    print(f"environment: {json.dumps(env)}")

    try:
        result = report.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), import_ns, env, WORKDIR)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for leftover in WORKDIR.glob("reference-*.bin"):
            leftover.unlink()

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
