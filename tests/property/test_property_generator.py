"""Property-based tests for the MG chain generator (hypothesis).

These encode the invariants every generated availability model must
satisfy, over the whole engineering-parameter space.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import (
    BlockParameters,
    GlobalParameters,
    classify_model_type,
    generate_block_chain,
)
from repro.markov import (
    failure_frequency,
    recovery_frequency,
    steady_state_availability,
)
from repro.num import solve_steady


@st.composite
def block_parameters(draw):
    quantity = draw(st.integers(min_value=1, max_value=6))
    min_required = draw(st.integers(min_value=1, max_value=quantity))
    return BlockParameters(
        name="unit",
        quantity=quantity,
        min_required=min_required,
        mtbf_hours=draw(st.floats(min_value=100.0, max_value=1e7)),
        transient_fit=draw(st.floats(min_value=0.0, max_value=1e6)),
        diagnosis_minutes=draw(st.floats(min_value=1.0, max_value=240.0)),
        corrective_minutes=draw(st.floats(min_value=1.0, max_value=240.0)),
        verification_minutes=draw(st.floats(min_value=0.0, max_value=240.0)),
        service_response_hours=draw(st.floats(min_value=0.0, max_value=72.0)),
        p_correct_diagnosis=draw(st.floats(min_value=0.5, max_value=1.0)),
        p_latent_fault=draw(st.floats(min_value=0.0, max_value=0.5)),
        mttdlf_hours=draw(st.floats(min_value=1.0, max_value=1000.0)),
        recovery=draw(st.sampled_from(["transparent", "nontransparent"])),
        ar_time_minutes=draw(st.floats(min_value=0.5, max_value=120.0)),
        p_spf=draw(st.floats(min_value=0.0, max_value=0.3)),
        spf_recovery_minutes=draw(st.floats(min_value=1.0, max_value=480.0)),
        repair=draw(st.sampled_from(["transparent", "nontransparent"])),
        reintegration_minutes=draw(st.floats(min_value=1.0, max_value=120.0)),
    )


@st.composite
def global_parameters(draw):
    return GlobalParameters(
        reboot_minutes=draw(st.floats(min_value=1.0, max_value=120.0)),
        mttm_hours=draw(st.floats(min_value=0.0, max_value=336.0)),
        mttrfid_hours=draw(st.floats(min_value=0.5, max_value=72.0)),
    )


class TestGeneratedChainInvariants:
    @given(p=block_parameters(), g=global_parameters())
    @settings(max_examples=150, deadline=None)
    def test_chain_is_well_formed(self, p, g):
        chain = generate_block_chain(p, g)
        chain.validate()
        assert "Ok" in chain
        assert chain.state("Ok").is_up

    @given(p=block_parameters(), g=global_parameters())
    @settings(max_examples=150, deadline=None)
    def test_availability_in_unit_interval(self, p, g):
        chain = generate_block_chain(p, g)
        value = steady_state_availability(chain)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(p=block_parameters(), g=global_parameters())
    @settings(max_examples=100, deadline=None)
    def test_flow_balance_across_up_down_cut(self, p, g):
        chain = generate_block_chain(p, g)
        assume(chain.n_states > 1)
        assert failure_frequency(chain) == pytest.approx(
            recovery_frequency(chain), rel=1e-6, abs=1e-18
        )

    @given(p=block_parameters(), g=global_parameters())
    @settings(max_examples=100, deadline=None)
    def test_steady_state_is_distribution(self, p, g):
        chain = generate_block_chain(p, g)
        pi = solve_steady(chain, "direct")
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pi >= -1e-12).all()

    @given(p=block_parameters(), g=global_parameters())
    @settings(max_examples=100, deadline=None)
    def test_model_type_consistent_with_state_inventory(self, p, g):
        chain = generate_block_chain(p, g)
        model_type = classify_model_type(p)
        names = set(chain.state_names)
        if model_type == 0:
            assert not any(name.startswith("PF") for name in names)
        else:
            assert f"PF{p.redundancy_depth + 1}" in names
            has_ar = any(name.startswith("AR") for name in names)
            if model_type in (1, 2):
                assert not has_ar
            has_reint = any(name.startswith("Reint") for name in names)
            assert has_reint == (model_type in (2, 4))

    @given(p=block_parameters(), g=global_parameters())
    @settings(max_examples=60, deadline=None)
    def test_better_mtbf_never_hurts(self, p, g):
        chain = generate_block_chain(p, g)
        improved = generate_block_chain(
            p.with_changes(mtbf_hours=p.mtbf_hours * 10.0), g
        )
        a_base = steady_state_availability(chain)
        a_improved = steady_state_availability(improved)
        assert a_improved >= a_base - 1e-9

    @given(p=block_parameters(), g=global_parameters())
    @settings(max_examples=60, deadline=None)
    def test_state_count_formula(self, p, g):
        # State count is bounded linearly in the redundancy depth:
        # every level adds at most 7 states (Latent/AR/SPF/PF/TF/SE/Reint).
        chain = generate_block_chain(p, g)
        depth = p.redundancy_depth
        assert chain.n_states <= 7 * (depth + 1) + 4
