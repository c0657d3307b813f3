"""A6 — Ablation: numerical solution methods on stiff RAS chains.

RAScad solves its generated chains "using numerical methods"; this
ablation justifies the repository's choice of production solver.  RAS
chains are *stiff* — FIT-scale failure rates (1e-9/h) against
minute-scale recovery rates (1e+1/h) — so the candidates are compared
on exactly such chains for accuracy (vs. the subtraction-free GTH
reference) and speed across model sizes.
"""

import time

import numpy as np
import pytest

from repro import BlockParameters, GlobalParameters, generate_block_chain
from repro.num import as_operator, power_iteration, solve_steady
from repro.validation.sharpe import sharpe_steady_state

from ._report import emit, emit_table


def stiff_chain(depth: int):
    parameters = BlockParameters(
        name="stiff",
        quantity=depth + 1,
        min_required=1,
        mtbf_hours=5.0e6,          # 200 FIT permanent
        transient_fit=10.0,        # 1e-8/h transient
        p_latent_fault=0.05,
        p_spf=0.01,
        p_correct_diagnosis=0.95,
        ar_time_minutes=5.0,       # 12/h recovery: 9 decades of rates
        recovery="nontransparent",
        repair="nontransparent",
    )
    return generate_block_chain(parameters, GlobalParameters())


def bench_a6_method_comparison(benchmark):
    chains = {depth: stiff_chain(depth) for depth in (1, 4, 16)}

    def run_direct():
        return {
            depth: solve_steady(chain, "direct")
            for depth, chain in chains.items()
        }

    direct = benchmark(run_direct)

    rows = []
    for depth, chain in chains.items():
        reference = solve_steady(chain, "gth")

        timings = {}
        errors = {}
        for label, solver in (
            ("direct", lambda model: solve_steady(model, "direct")),
            ("gth", lambda model: solve_steady(model, "gth")),
            ("power", lambda model: power_iteration(as_operator(model))),
        ):
            start = time.perf_counter()
            pi = solver(chain)
            timings[label] = (time.perf_counter() - start) * 1e3
            errors[label] = float(np.abs(pi - reference).max())
        start = time.perf_counter()
        sharpe = sharpe_steady_state(chain)
        timings["sharpe-path"] = (time.perf_counter() - start) * 1e3
        errors["sharpe-path"] = float(
            np.abs(
                np.array([sharpe[name] for name in chain.state_names])
                - reference
            ).max()
        )

        for label in ("direct", "gth", "power", "sharpe-path"):
            rows.append([
                chain.n_states, label,
                f"{timings[label]:.3f}", f"{errors[label]:.2e}",
            ])

        # Everybody agrees on a 9-decade-stiff chain.
        assert errors["direct"] < 1e-10
        assert errors["power"] < 1e-8
        assert errors["sharpe-path"] < 1e-8
        np.testing.assert_allclose(direct[depth], reference, atol=1e-10)

    emit_table(
        "A6: steady-state solver ablation on 9-decade-stiff chains "
        "(error vs subtraction-free GTH)",
        ["states", "method", "time ms", "max |pi error|"],
        rows,
    )
