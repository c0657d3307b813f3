"""Workload shapes: digests, shard calls, extraction, aggregation."""

import pytest

from repro.cluster.workloads import StudyWorkload, SweepWorkload
from repro.errors import SpecError

SPEC = {"name": "m", "diagram": {"name": "m", "blocks": []}}


class TestSweepWorkload:
    def workload(self, values=(1.0, 2.0, 3.0, 4.0)):
        return SweepWorkload(
            SPEC, "mtbf_hours", values, block="m/Disk", model_name="m"
        )

    def test_digest_is_content_addressed(self):
        assert self.workload().digest == self.workload().digest
        assert self.workload().digest != self.workload((9.0,)).digest
        assert self.workload().digest.startswith("wl-")

    def test_shard_call_carries_the_value_slice(self):
        calls = self.workload().calls(1, 3)
        assert len(calls) == 1
        path, payload = calls[0]
        assert path == "/v1/sweep"
        assert payload["values"] == [2.0, 3.0]
        assert payload["block"] == "m/Disk"
        # Shards must never fan out again on a coordinator worker.
        assert payload["cluster"] is False

    def test_extract_validates_point_count(self):
        workload = self.workload()
        points = workload.extract(
            [{"points": [{"value": 2.0}, {"value": 3.0}]}], 1, 3
        )
        assert [p["value"] for p in points] == [2.0, 3.0]
        with pytest.raises(SpecError, match="1 points"):
            workload.extract([{"points": [{"value": 2.0}]}], 1, 3)
        with pytest.raises(SpecError, match="0 points"):
            workload.extract([{"points": None}], 1, 3)

    def test_aggregate_matches_the_jobs_result_shape(self):
        payload = self.workload().aggregate([{"value": 1.0}])
        assert payload == {
            "kind": "sweep", "model": "m", "field": "mtbf_hours",
            "block": "m/Disk", "points": [{"value": 1.0}],
        }

    def test_empty_values_rejected(self):
        with pytest.raises(SpecError):
            SweepWorkload(SPEC, "mtbf_hours", [])


class TestStudyWorkload:
    def test_one_solve_call_per_spec(self):
        specs = [dict(SPEC, name=f"m{i}") for i in range(5)]
        workload = StudyWorkload(
            "study-x", 0, specs, solver={"method": "direct"}
        )
        calls = workload.calls(2, 5)
        assert [path for path, _ in calls] == ["/v1/solve"] * 3
        assert [p["spec"]["name"] for _, p in calls] == ["m2", "m3", "m4"]
        assert all(p["solver"] == {"method": "direct"} for _, p in calls)

    def test_extract_projects_point_fields(self):
        workload = StudyWorkload("study-x", 0, [SPEC, SPEC])
        bodies = [
            {"model": "m", "availability": 0.9,
             "yearly_downtime_minutes": 5.0, "mttf_hours": 1.0,
             "extra": "dropped"},
            {"model": "m", "availability": 0.99,
             "yearly_downtime_minutes": 1.0, "mttf_hours": 2.0},
        ]
        points = workload.extract(bodies, 0, 2)
        assert all("extra" not in point for point in points)
        assert [p["availability"] for p in points] == [0.9, 0.99]
        with pytest.raises(SpecError, match="1 results"):
            workload.extract(bodies[:1], 0, 2)
