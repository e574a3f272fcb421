"""Tests for the deterministic fault-plan parser and dispatcher."""

import pytest

from repro.reliability.faultplan import FaultPlan, FaultSpec


class TestParsing:
    def test_single_spec_defaults_to_step_phase(self):
        plan = FaultPlan.parse("kill:1:40")
        assert len(plan) == 1
        spec = plan.specs[0]
        assert (spec.kind, spec.worker, spec.step, spec.phase) == (
            "kill", 1, 40, "step"
        )

    def test_multiple_specs_with_phases(self):
        plan = FaultPlan.parse("kill:1:40;hang:0:80:rebuild;kill:2:120:checkpoint")
        assert [s.phase for s in plan.specs] == ["step", "rebuild", "checkpoint"]
        assert [s.kind for s in plan.specs] == ["kill", "hang", "kill"]

    def test_whitespace_and_empty_chunks_tolerated(self):
        plan = FaultPlan.parse(" kill:0:5 ; ;hang:1:9 ")
        assert len(plan) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "explode:0:5",        # unknown kind
            "kill:0:5:setup",     # unknown phase
            "kill:0",             # too few fields
            "kill:0:5:step:more", # too many fields
            "kill:x:5",           # non-integer worker
            "kill:-1:5",          # negative worker
            "kill:0:-5",          # negative step
        ],
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError, match="fault"):
            FaultPlan.parse(text)

    def test_spec_string_round_trips(self):
        spec = FaultSpec(kind="hang", worker=3, step=17, phase="rebuild")
        assert FaultPlan.parse(spec.spec_string()).specs[0] == spec


class TestTake:
    def test_fires_at_first_dispatch_at_or_after_step(self):
        plan = FaultPlan.parse("kill:0:10")
        assert plan.take(9, "step") is None
        spec = plan.take(12, "step")  # first dispatch past the step
        assert spec is not None and spec.kind == "kill"

    def test_one_shot_even_after_rollback(self):
        """Replaying earlier steps after recovery must not refire."""
        plan = FaultPlan.parse("kill:0:10")
        assert plan.take(10, "step") is not None
        for step in (5, 10, 50):
            assert plan.take(step, "step") is None
        assert plan.pending() == []

    def test_phase_filtering(self):
        plan = FaultPlan.parse("kill:0:10:rebuild")
        assert plan.take(20, "step") is None
        assert plan.take(20, "checkpoint") is None
        assert plan.take(20, "rebuild") is not None

    def test_specs_fire_in_order(self):
        plan = FaultPlan.parse("kill:0:10;hang:1:10")
        first = plan.take(10, "step")
        second = plan.take(10, "step")
        assert (first.kind, second.kind) == ("kill", "hang")
        assert plan.take(10, "step") is None
