"""Tests for the engineering-language parameter dataclasses."""

import pytest

from repro.core import BlockParameters, GlobalParameters, Scenario
from repro.errors import ParameterError


class TestScenario:
    def test_parse_strings(self):
        assert Scenario.parse("transparent") is Scenario.TRANSPARENT
        assert Scenario.parse("NonTransparent ") is Scenario.NONTRANSPARENT

    def test_parse_passthrough(self):
        assert Scenario.parse(Scenario.TRANSPARENT) is Scenario.TRANSPARENT

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParameterError, match="scenario"):
            Scenario.parse("sometimes")


class TestBlockParameterValidation:
    def test_minimal_block(self):
        p = BlockParameters(name="x")
        assert p.quantity == 1 and p.min_required == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ParameterError, match="name"):
            BlockParameters(name="")

    def test_bad_quantity_rejected(self):
        with pytest.raises(ParameterError, match="quantity"):
            BlockParameters(name="x", quantity=0)

    def test_integral_float_n_and_k_become_ints(self):
        p = BlockParameters(name="x", quantity=3.0, min_required=2.0)
        assert (p.quantity, p.min_required) == (3, 2)
        assert type(p.quantity) is int and type(p.min_required) is int

    def test_non_integral_n_and_k_rejected(self):
        with pytest.raises(ParameterError, match="positive integer"):
            BlockParameters(name="x", quantity=2.5)
        with pytest.raises(ParameterError, match="must be an integer"):
            BlockParameters(name="x", quantity=3, min_required=1.5)

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ParameterError, match="1 <= K <= N"):
            BlockParameters(name="x", quantity=2, min_required=3)

    def test_zero_k_rejected(self):
        with pytest.raises(ParameterError, match="1 <= K <= N"):
            BlockParameters(name="x", quantity=2, min_required=0)

    def test_nonpositive_mtbf_rejected(self):
        with pytest.raises(ParameterError, match="MTBF"):
            BlockParameters(name="x", mtbf_hours=0.0)

    def test_negative_fit_rejected(self):
        with pytest.raises(ParameterError, match="FIT"):
            BlockParameters(name="x", transient_fit=-1.0)

    def test_zero_total_mttr_rejected(self):
        with pytest.raises(ParameterError, match="total MTTR"):
            BlockParameters(
                name="x",
                diagnosis_minutes=0.0,
                corrective_minutes=0.0,
                verification_minutes=0.0,
            )

    def test_probability_bounds(self):
        for field in ("p_correct_diagnosis", "p_latent_fault", "p_spf"):
            with pytest.raises(ParameterError):
                BlockParameters(name="x", **{field: 1.5})

    def test_scenario_strings_accepted(self):
        p = BlockParameters(name="x", recovery="nontransparent")
        assert p.recovery is Scenario.NONTRANSPARENT

    def test_negative_service_response_rejected(self):
        with pytest.raises(ParameterError, match="service response"):
            BlockParameters(name="x", service_response_hours=-1.0)


class TestDerivedQuantities:
    def test_mttr_hours(self):
        p = BlockParameters(
            name="x",
            diagnosis_minutes=30.0,
            corrective_minutes=20.0,
            verification_minutes=10.0,
        )
        assert p.mttr_hours == pytest.approx(1.0)

    def test_permanent_rate(self):
        assert BlockParameters(
            name="x", mtbf_hours=10_000.0
        ).permanent_rate == pytest.approx(1e-4)

    def test_infinite_mtbf_never_fails(self):
        p = BlockParameters(name="x", mtbf_hours=float("inf"))
        assert p.permanent_rate == 0.0

    def test_transient_rate_from_fit(self):
        p = BlockParameters(name="x", transient_fit=1000.0)
        assert p.transient_rate == pytest.approx(1e-6)

    def test_redundancy_flags(self):
        assert BlockParameters(name="x", quantity=3, min_required=2).is_redundant
        assert not BlockParameters(name="x", quantity=3, min_required=3).is_redundant

    def test_redundancy_depth(self):
        p = BlockParameters(name="x", quantity=5, min_required=2)
        assert p.redundancy_depth == 3

    def test_minute_fields_convert(self):
        p = BlockParameters(
            name="x", quantity=2, min_required=1,
            ar_time_minutes=30.0, spf_recovery_minutes=90.0,
            reintegration_minutes=6.0,
        )
        assert p.ar_time_hours == pytest.approx(0.5)
        assert p.spf_recovery_hours == pytest.approx(1.5)
        assert p.reintegration_hours == pytest.approx(0.1)

    def test_with_changes(self):
        p = BlockParameters(name="x", mtbf_hours=1e5)
        q = p.with_changes(mtbf_hours=2e5)
        assert q.mtbf_hours == 2e5
        assert p.mtbf_hours == 1e5
        assert q.name == "x"

    def test_with_changes_validates(self):
        p = BlockParameters(name="x")
        with pytest.raises(ParameterError):
            p.with_changes(mtbf_hours=-5.0)


class TestGlobalParameters:
    def test_defaults_are_valid(self):
        g = GlobalParameters()
        assert g.reboot_hours == pytest.approx(g.reboot_minutes / 60.0)

    def test_nonpositive_reboot_rejected(self):
        with pytest.raises(ParameterError, match="reboot"):
            GlobalParameters(reboot_minutes=0.0)

    def test_negative_mttm_rejected(self):
        with pytest.raises(ParameterError, match="MTTM"):
            GlobalParameters(mttm_hours=-1.0)

    def test_zero_mttm_allowed(self):
        assert GlobalParameters(mttm_hours=0.0).mttm_hours == 0.0

    def test_nonpositive_mttrfid_rejected(self):
        with pytest.raises(ParameterError, match="MTTRFID"):
            GlobalParameters(mttrfid_hours=0.0)

    def test_nonpositive_mission_rejected(self):
        with pytest.raises(ParameterError, match="mission"):
            GlobalParameters(mission_time_hours=0.0)

    def test_with_changes(self):
        g = GlobalParameters().with_changes(mttm_hours=1.0)
        assert g.mttm_hours == 1.0
