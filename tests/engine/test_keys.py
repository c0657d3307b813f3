"""Canonical digest properties: key-order independence, round-trips."""

import json

import pytest
from hypothesis import given, settings

from repro.core import BlockParameters, GlobalParameters
from repro.engine import (
    Engine,
    block_digest,
    chain_digest,
    model_digest,
    task_seed,
)
from repro.engine.keys import DigestMemo
from repro.gmb import MarkovBuilder
from repro.num import as_options
from repro.library import datacenter_model, e10000_model, workgroup_model
from repro.spec import model_to_spec, parse_spec

from ..property.test_property_spec import random_model


def _reorder(payload):
    """A deep copy of a JSON payload with every mapping key reversed."""
    if isinstance(payload, dict):
        return {
            key: _reorder(payload[key]) for key in reversed(list(payload))
        }
    if isinstance(payload, list):
        return [_reorder(item) for item in payload]
    return payload


class TestModelDigest:
    @given(model=random_model())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_key_reordering(self, model):
        spec = model_to_spec(model)
        reordered = json.loads(json.dumps(_reorder(spec)))
        assert list(reordered) != list(spec) or len(spec) == 1
        assert model_digest(parse_spec(spec)) == model_digest(
            parse_spec(reordered)
        )

    @given(model=random_model())
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_writer_round_trip(self, model):
        restored = parse_spec(model_to_spec(model))
        assert model_digest(restored) == model_digest(model)

    def test_library_models_have_distinct_digests(self):
        digests = {
            model_digest(factory())
            for factory in (datacenter_model, e10000_model, workgroup_model)
        }
        assert len(digests) == 3

    def test_digest_stable_across_equal_builds(self):
        assert model_digest(datacenter_model()) == model_digest(
            datacenter_model()
        )

    def test_method_is_part_of_the_key(self):
        model = workgroup_model()
        assert model_digest(model, "direct") != model_digest(model, "gth")

    def test_parameter_change_changes_digest(self):
        from repro.analysis import with_block_changes

        base = workgroup_model()
        changed = with_block_changes(
            base, "Workgroup Server/Operating System", mtbf_hours=60_000.0
        )
        assert model_digest(changed) != model_digest(base)


class TestBlockDigest:
    def test_annotations_do_not_affect_the_key(self):
        g = GlobalParameters()
        a = BlockParameters(name="disk", mtbf_hours=1e5)
        b = a.with_changes(
            description="a label", part_number="HDD-36G"
        )
        assert block_digest(a, g) == block_digest(b, g)

    def test_solver_inputs_do_affect_the_key(self):
        g = GlobalParameters()
        a = BlockParameters(name="disk", mtbf_hours=1e5)
        assert block_digest(a, g) != block_digest(
            a.with_changes(mtbf_hours=2e5), g
        )
        assert block_digest(a, g) != block_digest(
            a, GlobalParameters(reboot_minutes=5.0)
        )
        assert block_digest(a, g, "direct") != block_digest(a, g, "gth")


class TestDigestMemo:
    """A memo reused across calls gives a fresh memo's digests and never
    aliases equal but distinct values."""

    @settings(max_examples=25, deadline=None)
    @given(random_model())
    def test_model_digest_matches_the_plain_function(self, model):
        memo = DigestMemo()
        for _ in range(2):  # cold, then from memoized payloads
            assert memo.model(model) == model_digest(model)
            assert memo.model(model, "gth") == model_digest(model, "gth")

    def test_library_digests_match_the_plain_functions(self):
        memo = DigestMemo()
        for factory in (datacenter_model, e10000_model, workgroup_model):
            model = factory()
            g = model.global_parameters
            for _ in range(2):
                assert memo.model(model) == model_digest(model)
                for _level, _path, block in model.walk():
                    assert memo.block(block.parameters, g) == block_digest(
                        block.parameters, g
                    )

    @pytest.mark.parametrize(
        "field, values",
        [
            ("p_latent_fault", [0.0, -0.0]),
            ("transient_fit", [0.0, -0.0]),
            ("mtbf_hours", [1, 1.0]),
        ],
    )
    def test_equal_but_distinct_values_keep_distinct_sweep_keys(
        self, field, values
    ):
        model = workgroup_model()
        _level, path, block = next(iter(model.walk()))
        engine = Engine()
        engine.sweep_availabilities(model, path, field, values)
        g = model.global_parameters
        keys = [
            block_digest(
                block.parameters.with_changes(**{field: value}), g,
                as_options("direct"),
            )
            for value in values
        ]
        assert keys[0] != keys[1]
        for key in keys:
            # Memory-only: the decoder is never called.
            assert engine.cache.get_block(key, bytes)[0] is not None
        assert engine.stats_snapshot().block_solves >= 2


    def test_integral_float_quantity_keys_as_the_integer_block(self):
        # N and K are integers: BlockParameters normalises 1.0 to 1, so
        # both spellings are one block, one key and one solve.
        model = workgroup_model()
        _level, path, block = next(iter(model.walk()))
        engine = Engine()
        engine.sweep_availabilities(model, path, "quantity", [1, 1.0])
        g = model.global_parameters
        keys = {
            block_digest(
                block.parameters.with_changes(quantity=value), g,
                as_options("direct"),
            )
            for value in (1, 1.0)
        }
        assert len(keys) == 1
        once = Engine()
        once.sweep_availabilities(model, path, "quantity", [1])
        assert engine.stats_snapshot().block_solves == (
            once.stats_snapshot().block_solves
        )


class TestChainDigest:
    def _chain(self, rate=1e-3):
        return (
            MarkovBuilder("pair")
            .up("Ok")
            .down("Down")
            .arc("Ok", "Down", rate)
            .arc("Down", "Ok", 0.25)
            .build()
        )

    def test_equal_chains_share_a_key(self):
        assert chain_digest(self._chain()) == chain_digest(self._chain())

    def test_rate_change_changes_the_key(self):
        assert chain_digest(self._chain()) != chain_digest(
            self._chain(rate=2e-3)
        )


class TestTaskSeed:
    def test_deterministic_and_index_dependent(self):
        seeds = [task_seed(42, index) for index in range(100)]
        assert seeds == [task_seed(42, index) for index in range(100)]
        assert len(set(seeds)) == 100

    def test_base_dependent(self):
        assert task_seed(1, 0) != task_seed(2, 0)

    def test_none_stays_none(self):
        assert task_seed(None, 7) is None
