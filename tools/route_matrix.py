#!/usr/bin/env python3
"""Compare how two checkouts answer every route template's neighbours.

Run from the repository root::

    python tools/route_matrix.py --before OTHER_CHECKOUT/src

The probes come from this checkout's route table (``App.ROUTES``):
every template x {GET, POST, DELETE} x {valid segment, extra segment,
empty segment, trailing slash}.  Each probe is sent in process, without
sockets, to a fresh ``App`` with no stores and to one with a job store
and a model registry, first under ``--before`` (a ``src`` directory
holding another ``repro``, run in a subprocess) and then here.  The
output is a Markdown table of the probes whose status, error code or
metrics label differs, grouped by how they changed (``--all``: one row
per probe), followed by the count of probes that agree.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src"
METHODS = ("GET", "POST", "DELETE")
#: A valid value for each path parameter.
VALID = {"index": "0", "digest": "abc"}


def probes() -> List[Tuple[str, str]]:
    """``(method, path)`` pairs around every template of the table."""
    sys.path.insert(0, str(SRC))
    from repro.service.app import App

    paths: List[str] = []
    for _method, template, _handler in App.ROUTES.rows:
        parts = template.split("/")
        params = [i for i, part in enumerate(parts) if part.startswith("{")]
        valid = [
            VALID.get(part[1:-1], "x") if i in params else part
            for i, part in enumerate(parts)
        ]
        if params:
            empty = [
                "" if i in params else part for i, part in enumerate(parts)
            ]
        else:
            empty = parts[:-1] + ["", parts[-1]]
        paths += [
            "/".join(valid),
            "/".join(valid + ["extra"]),
            "/".join(empty),
            "/".join(valid + [""]),
        ]
    unique = list(dict.fromkeys(paths))
    return [(method, path) for path in unique for method in METHODS]


def run_probes(pairs: List[Tuple[str, str]]) -> Dict[str, List[list]]:
    """``{stores: [[status, code, label], ...]}`` for ``pairs``."""
    from repro.engine import Engine
    from repro.jobs import JobStore
    from repro.registry import ModelRegistry, RegistryStore
    from repro.service.app import App
    from repro.service.protocol import Request
    from repro.service.queue import SolveQueue

    async def answer(stores) -> List[list]:
        engine = Engine()
        queue = SolveQueue(engine)
        app = App(engine, queue, **stores)
        rows = []
        for method, path in pairs:
            before = dict(engine.stats.snapshot().route_counts)
            response = await app.handle(Request(
                method=method, path=path, query={}, headers={}, body=b"",
            ))
            after = engine.stats.snapshot().route_counts
            (key,) = [k for k in after if after[k] != before.get(k, 0)]
            label = key.rsplit(" ", 1)[0]
            body = json.loads(response.body)
            code = body["error"]["code"] if "error" in body else ""
            rows.append([response.status, code, label])
        await queue.close()
        return rows

    with tempfile.TemporaryDirectory() as scratch:
        jobs = JobStore(Path(scratch) / "jobs.sqlite3")
        registry = ModelRegistry(RegistryStore(":memory:"), engine=Engine())
        try:
            return {
                "none": asyncio.run(answer({})),
                "jobs+registry": asyncio.run(
                    answer({"jobs": jobs, "registry": registry})
                ),
            }
        finally:
            jobs.close()
            registry.close()


def cell(row: list, shape: bool = False) -> str:
    """``status code · label``; ``shape`` hides the method and template."""
    status, code, label = row
    if shape:
        method, _, route = label.partition(" ")
        label = f"M {route if route == '(unmatched)' else '{template}'}"
    return f"{status} {code} · `{label}`".replace("  ", " ")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="src directory to compare with")
    parser.add_argument(
        "--all", action="store_true", help="one row per changed probe"
    )
    parser.add_argument(
        "--answer", action="store_true",
        help="read probes as JSON on stdin, print answers (internal)",
    )
    args = parser.parse_args()
    if args.answer:
        print(json.dumps(run_probes(json.load(sys.stdin))))
        return 0
    pairs = probes()
    if args.before is None:
        parser.error("--before is required")
    env = dict(os.environ, PYTHONPATH=str(Path(args.before).resolve()))
    before = json.loads(subprocess.run(
        [sys.executable, __file__, "--answer"],
        input=json.dumps(pairs), capture_output=True, text=True,
        env=env, check=True,
    ).stdout)
    after = run_probes(pairs)
    # (stores, before, after, request if --all) -> changed requests.
    changes: Dict[Tuple[str, str, str, str], List[str]] = {}
    same = 0
    for stores in after:
        for (method, path), old, new in zip(
            pairs, before[stores], after[stores]
        ):
            if old == new:
                same += 1
                continue
            request = f"`{method} {path}`"
            key = (
                stores, cell(old, not args.all), cell(new, not args.all),
                request if args.all else "",
            )
            changes.setdefault(key, []).append(request)
    print("| stores | before | after | probes | example |")
    print("|---|---|---|---|---|")
    for (stores, old, new, _request), requests in changes.items():
        print(
            f"| {stores} | {old} | {new} | {len(requests)} "
            f"| {requests[0]} |"
        )
    total = len(pairs) * len(after)
    print(f"\n{same} of {total} probes answer the same before and after.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
