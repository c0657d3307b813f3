"""E15 — the registry layer: wire savings of ``model_ref`` solving.

Publishing a model once and solving it by reference replaces the
inline spec document in every subsequent request with a short
``"name@tag"`` string.  This benchmark quantifies that against a real
``rascad serve`` process seeded with the built-in library:

* **Payload bytes** — the E10000 solve and sweep request bodies,
  inline versus ``model_ref``.  The solve ref body must be at least
  90% smaller (it is a constant ~30 bytes regardless of model size);
  the sweep saves the same absolute bytes on top of its values array.
* **Latency** — closed-loop HTTP solve latency for both request
  shapes, plus the one-time cost of resolving a ref into a spec.
* **Identity** — the ref responses must be byte-identical to the
  inline responses; savings that changed answers would not count.

Results land in ``BENCH_e15_registry.json`` at the repository root.
``python benchmarks/bench_e15_registry.py --quick`` runs a reduced
iteration count for CI.
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from _smoke_common import Fleet  # noqa: E402

from repro.library import e10000_model  # noqa: E402
from repro.service.client import call  # noqa: E402
from repro.spec import model_to_spec  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_e15_registry.json"

REF = "e10000@latest"
BLOCK = "E10000 Server/System Board"
FIELD = "mtbf_hours"
SWEEP_POINTS = 40
ITERATIONS = 60
QUICK_ITERATIONS = 15
REDUCTION_FLOOR = 0.90


def _post(url, body):
    """POST pre-encoded ``body`` bytes; returns (elapsed_s, raw_reply)."""
    start = time.perf_counter()
    reply = call("POST", url, data=body, timeout=120)
    elapsed = time.perf_counter() - start
    assert reply.status == 200, (reply.status, reply.body)
    return elapsed, reply.body


def _latency(url, body, iterations):
    samples = []
    for _ in range(iterations):
        elapsed, _ = _post(url, body)
        samples.append(elapsed * 1000.0)
    return {
        "mean_ms": round(statistics.fmean(samples), 3),
        "median_ms": round(statistics.median(samples), 3),
        "max_ms": round(max(samples), 3),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced iteration count for CI",
    )
    args = parser.parse_args()
    iterations = QUICK_ITERATIONS if args.quick else ITERATIONS

    spec = model_to_spec(e10000_model())
    values = [2e5 + 2e4 * i for i in range(SWEEP_POINTS)]

    solve_inline = json.dumps({"spec": spec}).encode()
    solve_ref = json.dumps({"model_ref": REF}).encode()
    sweep_base = {"field": FIELD, "block": BLOCK, "values": values}
    sweep_inline = json.dumps({**sweep_base, "spec": spec}).encode()
    sweep_ref = json.dumps({**sweep_base, "model_ref": REF}).encode()

    solve_saved = 1 - len(solve_ref) / len(solve_inline)
    sweep_saved = 1 - len(sweep_ref) / len(sweep_inline)
    print(f"solve body: {len(solve_inline)} B inline, "
          f"{len(solve_ref)} B ref ({solve_saved:.1%} smaller)")
    print(f"sweep body: {len(sweep_inline)} B inline, "
          f"{len(sweep_ref)} B ref ({sweep_saved:.1%} smaller)")
    # The floor applies where the spec is the whole payload; the sweep
    # body also carries the (irreducible) values array in both shapes,
    # so its reduction is reported but bounded only below by the spec
    # savings themselves.
    assert solve_saved >= REDUCTION_FLOOR, solve_saved
    assert len(sweep_inline) - len(sweep_ref) == (
        len(solve_inline) - len(solve_ref)
    )

    with tempfile.TemporaryDirectory() as logs, Fleet(Path(logs)) as fleet:
        try:
            url = fleet.spawn_server(
                "server", ["serve", "--no-cache"], timeout=60.0
            )

            # Identity first: savings only count at identical answers.
            _, inline_reply = _post(f"{url}/v1/solve", solve_inline)
            resolve_ms, ref_reply = _post(f"{url}/v1/solve", solve_ref)
            assert inline_reply == ref_reply, "ref solve differs from inline"
            _, inline_sweep = _post(f"{url}/v1/sweep", sweep_inline)
            _, ref_sweep = _post(f"{url}/v1/sweep", sweep_ref)
            assert inline_sweep == ref_sweep, "ref sweep differs from inline"
            print(f"ref and inline byte-identical "
                  f"(solve + {SWEEP_POINTS}-point sweep)")

            inline_latency = _latency(f"{url}/v1/solve", solve_inline,
                                      iterations)
            ref_latency = _latency(f"{url}/v1/solve", solve_ref,
                                   iterations)
            print(f"inline solve: {inline_latency['mean_ms']:8.3f} ms "
                  f"mean over {iterations} calls")
            print(f"ref solve   : {ref_latency['mean_ms']:8.3f} ms "
                  f"mean over {iterations} calls")
        except BaseException:
            fleet.dump_logs()
            raise

    RESULT_PATH.write_text(json.dumps({
        "benchmark": "e15_registry_payload",
        "model_ref": REF,
        "quick": args.quick,
        "iterations": iterations,
        "payload_bytes": {
            "solve_inline": len(solve_inline),
            "solve_ref": len(solve_ref),
            "sweep_inline": len(sweep_inline),
            "sweep_ref": len(sweep_ref),
        },
        "payload_reduction": {
            "solve": round(solve_saved, 4),
            "sweep": round(sweep_saved, 4),
            "floor": REDUCTION_FLOOR,
        },
        "latency": {
            "solve_inline": inline_latency,
            "solve_ref": ref_latency,
            "first_ref_solve_ms": round(resolve_ms * 1000.0, 3),
        },
        "sweep_points": SWEEP_POINTS,
        "byte_identical": True,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULT_PATH}")
    print(f"PASS: model_ref bodies beat the {REDUCTION_FLOOR:.0%} "
          f"reduction floor at byte-identical answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
