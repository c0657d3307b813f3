"""Chain templates: one structure per signature, refilled per point."""

from __future__ import annotations

import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockParameters, GlobalParameters, generate_block_chain
from repro.core import generator
from repro.core.generator import ChainTemplates, structure_signature
from repro.errors import ModelError

G = GlobalParameters()


def cpu(**overrides) -> BlockParameters:
    fields = dict(
        name="CPU",
        quantity=6,
        min_required=2,
        mtbf_hours=50_000.0,
        transient_fit=8_000.0,
        p_latent_fault=0.05,
        p_spf=0.02,
        p_correct_diagnosis=0.95,
        recovery="transparent",
        repair="nontransparent",
    )
    fields.update(overrides)
    return BlockParameters(**fields)


def fresh(parameters, globals_=G):
    """A chain from an empty template cache: always a full build."""
    return ChainTemplates().chain(parameters, globals_)


def assert_same_chain(got, want):
    assert got.name == want.name
    assert got.state_names == want.state_names
    assert [(s.reward, dict(s.meta)) for s in got] == [
        (s.reward, dict(s.meta)) for s in want
    ]
    assert list(got._rates) == list(want._rates)
    assert got._labels == want._labels
    got_view, want_view = got.arcs(), want.arcs()
    for key in ("sources", "targets", "rates"):
        assert np.array_equal(getattr(got_view, key), getattr(want_view, key))
    assert np.array_equal(
        np.array(list(got.exit_rates().values())),
        np.array(list(want.exit_rates().values())),
    )


# One structure: model type, K, depth and the zero-pattern flags; then
# two independent value sets that keep it.
probability = st.floats(0.001, 0.999)
hours = st.floats(0.05, 200.0)
minutes = st.floats(0.5, 120.0)


@st.composite
def sibling_parameter_sets(draw):
    model_type = draw(st.integers(0, 4))
    k = draw(st.integers(1, 3))
    n = k if model_type == 0 else k + draw(st.integers(1, 5))
    scenarios = {
        0: ("transparent", "transparent"),
        1: ("transparent", "transparent"),
        2: ("transparent", "nontransparent"),
        3: ("nontransparent", "transparent"),
        4: ("nontransparent", "nontransparent"),
    }[model_type]
    latent, spf, misdiagnosis, transients, permanent, response = (
        draw(st.booleans()) for _ in range(6)
    )

    def values(name):
        return BlockParameters(
            name=name,
            quantity=n,
            min_required=k,
            mtbf_hours=(
                draw(st.floats(1e3, 1e6)) if permanent else math.inf
            ),
            transient_fit=draw(st.floats(1.0, 1e5)) if transients else 0.0,
            diagnosis_minutes=draw(minutes),
            corrective_minutes=draw(minutes),
            verification_minutes=draw(minutes),
            service_response_hours=draw(hours) if response else 0.0,
            p_correct_diagnosis=draw(probability) if misdiagnosis else 1.0,
            p_latent_fault=draw(probability) if latent else 0.0,
            mttdlf_hours=draw(hours),
            recovery=scenarios[0],
            ar_time_minutes=draw(minutes),
            p_spf=draw(probability) if spf else 0.0,
            spf_recovery_minutes=draw(minutes),
            repair=scenarios[1],
            reintegration_minutes=draw(minutes),
        )

    globals_ = GlobalParameters(
        reboot_minutes=draw(minutes),
        mttm_hours=draw(hours),
        mttrfid_hours=draw(hours),
    )
    return values("first"), values("second"), globals_


@settings(max_examples=150, deadline=None)
@given(sibling_parameter_sets())
def test_a_refilled_template_equals_a_fresh_build(sets):
    first, second, globals_ = sets
    assert structure_signature(first) == structure_signature(second)
    templates = ChainTemplates()
    assert_same_chain(templates.chain(first, globals_), fresh(first, globals_))
    assert len(templates) == 1
    filled = templates.chain(second, globals_)
    assert filled._arcs is not None  # came from the template
    assert_same_chain(filled, fresh(second, globals_))


def test_the_name_is_set_per_fill():
    templates = ChainTemplates()
    templates.chain(cpu(name="A"), G)
    chain = templates.chain(cpu(name="B", mtbf_hours=40_000.0), G)
    assert chain.name == "B#type2"
    assert len(templates) == 1


def test_a_zero_rate_goes_down_the_fresh_build():
    templates = ChainTemplates()
    templates.chain(cpu(), G)
    # Pcd = 0 keeps the signature (Pcd < 1) but zeroes every repair arc.
    never_right = cpu(p_correct_diagnosis=0.0)
    assert structure_signature(never_right) == structure_signature(cpu())
    chain = templates.chain(never_right, G)
    assert_same_chain(chain, fresh(never_right))
    assert ("PF1", "Reint1") not in chain._rates
    # The template survives and still serves positive points.
    assert len(templates) == 1
    assert_same_chain(
        templates.chain(cpu(mtbf_hours=70_000.0), G),
        fresh(cpu(mtbf_hours=70_000.0)),
    )


def test_a_nan_rate_is_rejected_with_the_fresh_message():
    templates = ChainTemplates()
    templates.chain(cpu(), G)
    broken = cpu(corrective_minutes=math.nan)
    with pytest.raises(ModelError) as fresh_error:
        fresh(broken)
    with pytest.raises(ModelError) as filled_error:
        templates.chain(broken, G)
    assert str(filled_error.value) == str(fresh_error.value)
    assert "NaN rate" in str(fresh_error.value)


def test_a_point_with_a_zero_rate_never_becomes_the_template():
    templates = ChainTemplates()
    templates.chain(cpu(p_spf=1.0), G)  # every (1 - Pspf) arc is zero
    assert len(templates) == 0
    assert_same_chain(templates.chain(cpu(p_spf=0.5), G), fresh(cpu(p_spf=0.5)))
    assert len(templates) == 1


def test_mutating_a_filled_chain_leaves_template_and_siblings_untouched():
    templates = ChainTemplates()
    built = templates.chain(cpu(), G)
    template = templates._entries.get(structure_signature(cpu()))
    keys, labels = template.keys, dict(template.labels)
    states = dict(template.states)
    metas = {name: dict(state.meta) for name, state in states.items()}
    first = templates.chain(cpu(mtbf_hours=60_000.0), G)
    second = templates.chain(cpu(mtbf_hours=60_000.0), G)
    first.add_state("Extra", reward=0.0)
    first.add_transition("Ok", "Extra", 1.0, label="added")
    first.add_transition("Ok", "PF1", 5.0, label="added")
    # Shared states are read-only down to their annotations.
    for chain in (built, first):
        with pytest.raises(TypeError):
            chain.state("PF1").meta["level"] = 99
        with pytest.raises(TypeError):
            del chain.state("Ok").meta["kind"]
    assert template.keys == keys
    assert template.labels == labels
    assert template.states == states
    assert {
        name: dict(state.meta) for name, state in template.states.items()
    } == metas
    assert "Extra" not in second and "Extra" not in template.states
    assert "added" not in " ".join(second._labels.values())
    assert_same_chain(second, fresh(cpu(mtbf_hours=60_000.0)))
    assert_same_chain(
        templates.chain(cpu(mtbf_hours=60_000.0), G), second
    )


def test_a_filled_chain_round_trips_through_pickle():
    templates = ChainTemplates()
    templates.chain(cpu(), G)
    filled = templates.chain(cpu(mtbf_hours=60_000.0), G)
    restored = pickle.loads(pickle.dumps(filled))
    assert_same_chain(restored, filled)
    with pytest.raises(TypeError):
        restored.state("PF1").meta["level"] = 99


def test_the_cache_stays_within_its_bound():
    templates = ChainTemplates()
    signatures, built = [], 0
    for depth in range(1, 400):
        parameters = cpu(quantity=depth + 2)
        built += templates.chain(parameters, G).n_transitions
        signatures.append(structure_signature(parameters))
        assert templates.weight <= generator.TEMPLATE_CACHE_ARCS
        if built > generator.TEMPLATE_CACHE_ARCS + 2_000:
            break
    assert built > generator.TEMPLATE_CACHE_ARCS
    # The least recently used templates went; the newest stayed.
    assert len(templates) < len(signatures)
    assert templates._entries.get(signatures[0]) is None
    assert templates._entries.get(signatures[-1]) is not None
    assert templates.weight > generator.TEMPLATE_CACHE_ARCS - 2_000


def test_concurrent_fills_match_fresh_builds():
    """Threads sharing one cache never see a half-built template."""
    templates = ChainTemplates()
    points = [
        cpu(quantity=quantity, mtbf_hours=mtbf)
        for quantity in (4, 6, 8)
        for mtbf in (30_000.0, 45_000.0, 60_000.0, 75_000.0)
    ]
    expected = [fresh(point) for point in points]
    failures = []

    def worker(offset):
        try:
            for step in range(3 * len(points)):
                index = (offset + step) % len(points)
                assert_same_chain(
                    templates.chain(points[index], G), expected[index]
                )
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(templates) == 3
