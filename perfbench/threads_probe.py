"""Does ``wavetraffic --threads N`` change the BLAS thread pool?

    python3 perfbench/threads_probe.py

``cli.main`` writes ``OMP/OPENBLAS/MKL_NUM_THREADS`` after numpy, and so
OpenBLAS, is already loaded. This probe settles from outside whether that
takes effect. It starts three fresh interpreters with the BLAS variables
removed from their environment:

* ``default`` -- import numpy and wavetraffic, nothing else;
* ``flag`` -- the same, then ``cli.main(["--threads", "1", ...])`` on a
  subcommand that fails at once on a missing input, so nothing is written;
* ``env`` -- the variables set to 1 before the interpreter starts.

Each child warms BLAS with a matrix product, then reports the OS thread
count from ``/proc/self/status`` and the time of ten 600x600 products.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = r"""
import contextlib, io, json, os, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from wavetraffic import cli
code = None
if sys.argv[2] == "flag":
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--threads", "1", "evaluate", "--forecasts", "missing-input.csv",
                         "--out", "missing-output.csv"])
a = np.random.default_rng(0).standard_normal((600, 600))
(a @ a).sum()
t0 = time.perf_counter()
for _ in range(10):
    (a @ a).sum()
matmul_s = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    threads = next(int(l.split()[1]) for l in fh if l.startswith("Threads:"))
print(json.dumps({"os_threads": threads, "matmul_10x600_s": round(matmul_s, 4),
                  "cli_exit": code, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def probe(mode):
    env = {k: v for k, v in os.environ.items() if k not in VARS}
    if mode == "env":
        env.update({v: "1" for v in VARS})
    out = subprocess.run([sys.executable, "-c", CHILD, str(REPO / "src"), mode],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    results = {mode: probe(mode) for mode in ("default", "flag", "env")}
    results["nproc"] = os.cpu_count()
    results["flag_takes_effect"] = (
        results["flag"]["os_threads"] == results["env"]["os_threads"]
        != results["default"]["os_threads"]
    )
    print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
