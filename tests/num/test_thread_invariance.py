"""Block solves give the same bits at any BLAS thread count.

Bit-identity across direct, resumed and sharded runs only holds if
every process computes the same answer, whatever its
``OPENBLAS_NUM_THREADS``.  Threaded LAPACK (OpenBLAS factorises on
several threads once ``m * n`` reaches 10 000) rounds differently per
thread count, so this runs the oracle in ``_thread_oracle.py`` in three
short-lived processes and requires byte-identical output.
"""

import os
import subprocess
import sys
from pathlib import Path

ORACLE = Path(__file__).with_name("_thread_oracle.py")

THREAD_COUNTS = ("1", "2", "4")


def _start_oracle(threads: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.Popen(
        [sys.executable, str(ORACLE)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_block_solves_do_not_depend_on_the_blas_thread_count():
    processes = {threads: _start_oracle(threads) for threads in THREAD_COUNTS}
    outputs = {}
    try:
        for threads, process in processes.items():
            stdout, stderr = process.communicate(timeout=300)
            assert process.returncode == 0, stderr
            outputs[threads] = stdout
    finally:
        for process in processes.values():
            if process.poll() is None:
                process.kill()
                process.communicate()
    assert '"100@' in outputs["1"] and '"268@' in outputs["1"]
    for threads in THREAD_COUNTS[1:]:
        assert outputs[threads] == outputs["1"], (
            f"answers at OPENBLAS_NUM_THREADS={threads} differ from one "
            "thread's"
        )
