"""Unit tests for the fault-injection harness and the retry/quarantine layer
(:mod:`repro.runtime.faults`, :mod:`repro.runtime.recovery`)."""

import pytest

from repro.runtime import (
    CorruptDataError,
    DeadLetter,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    Quarantined,
    RetryPolicy,
    Telemetry,
    WorkGroupRunner,
)

# --------------------------------------------------------------- FaultSpec


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(stage="gridder", group=0, kind="explode")
    with pytest.raises(ValueError):
        FaultSpec(stage="gridder", group=0, times=0)
    with pytest.raises(ValueError):
        FaultSpec(stage="gridder", group=0, times=-2)
    with pytest.raises(ValueError):
        FaultSpec(stage="gridder", group=0, kind="delay", delay_s=-1.0)
    assert FaultSpec(stage="gridder", group=0, times=-1).times == -1


def test_fault_plan_rejects_duplicate_targets():
    spec = FaultSpec(stage="gridder", group=3)
    with pytest.raises(ValueError):
        FaultPlan([spec, FaultSpec(stage="gridder", group=3, kind="corrupt")])


# --------------------------------------------------------------- FaultPlan


def test_fire_counts_attempts_and_expires():
    plan = FaultPlan.single("gridder", 2, times=2)
    with pytest.raises(InjectedFault):
        plan.fire("gridder", 2)
    with pytest.raises(InjectedFault):
        plan.fire("gridder", 2)
    plan.fire("gridder", 2)  # third attempt succeeds
    assert plan.attempts("gridder", 2) == 3
    # untargeted keys are never counted and never fault
    plan.fire("adder", 2)
    plan.fire("gridder", 0)
    assert plan.attempts("adder", 2) == 0


def test_permanent_fault_never_expires():
    plan = FaultPlan.single("adder", 0, times=-1)
    for _ in range(5):
        with pytest.raises(InjectedFault):
            plan.fire("adder", 0)


def test_corrupt_fault_arms_result_screen():
    plan = FaultPlan.single("subgrid_fft", 1, kind="corrupt", times=1)
    plan.fire("subgrid_fft", 1)  # no raise at entry
    with pytest.raises(CorruptDataError):
        plan.screen("subgrid_fft", 1, "payload")
    # second attempt is clean and the screen passes the result through
    plan.fire("subgrid_fft", 1)
    assert plan.screen("subgrid_fft", 1, "payload") == "payload"


def test_delay_fault_succeeds(monkeypatch):
    naps = []
    import repro.runtime.faults as faults_mod

    monkeypatch.setattr(faults_mod.time, "sleep", naps.append)
    plan = FaultPlan.single("gridder", 0, kind="delay", delay_s=0.25)
    plan.fire("gridder", 0)
    assert naps == [0.25]


def test_crash_fault_is_base_exception():
    plan = FaultPlan.single("gridder", 0, kind="crash")
    with pytest.raises(InjectedCrash):
        plan.fire("gridder", 0)
    assert not issubclass(InjectedCrash, Exception)


def test_random_plan_is_seed_deterministic():
    kwargs = dict(stages=("gridder", "adder"), n_groups=40, rate=0.3,
                  kinds=("raise", "corrupt"))
    a = FaultPlan.random(7, **kwargs)
    b = FaultPlan.random(7, **kwargs)
    assert a.specs == b.specs
    assert len(a.specs) > 0
    assert FaultPlan.random(7, stages=("gridder",), n_groups=50, rate=0.0).specs == ()
    everything = FaultPlan.random(7, stages=("gridder",), n_groups=9, rate=1.0)
    assert len(everything.specs) == 9


# -------------------------------------------------------------- RetryPolicy


def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(max_retries=4, backoff_s=0.1, backoff_factor=2.0,
                         max_backoff_s=0.3)
    assert policy.enabled
    assert policy.backoff(1) == pytest.approx(0.1)
    assert policy.backoff(2) == pytest.approx(0.2)
    assert policy.backoff(3) == pytest.approx(0.3)  # capped
    assert policy.backoff(4) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        policy.backoff(0)


def test_retry_policy_validation():
    assert not RetryPolicy().enabled
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_s=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)


# ---------------------------------------------------------- WorkGroupRunner


def _fast_policy(max_retries):
    return RetryPolicy(max_retries=max_retries, backoff_s=0.0)


def test_runner_recovers_from_transient_fault():
    faults = FaultPlan.single("gridder", 0, times=2)
    telemetry = Telemetry()
    runner = WorkGroupRunner(_fast_policy(3), faults=faults, telemetry=telemetry)
    result = runner.run("gridder", 0, lambda: "ok",
                        start=0, stop=4, n_visibilities=64)
    assert result == "ok"
    assert runner.report.ok
    assert runner.report.n_retries == 2
    assert telemetry.counters["retries"] == 2


def test_runner_quarantines_on_budget_exhaustion():
    faults = FaultPlan.single("gridder", 1, times=-1)
    telemetry = Telemetry()
    runner = WorkGroupRunner(_fast_policy(2), faults=faults, telemetry=telemetry)
    result = runner.run("gridder", 1, lambda: "never",
                        start=4, stop=8, n_visibilities=128)
    assert isinstance(result, Quarantined)
    assert (result.group, result.start, result.stop) == (1, 4, 8)
    report = runner.report
    assert not report.ok
    assert report.n_dead_letters == 1
    letter = report.dead_letters[0]
    assert isinstance(letter, DeadLetter)
    assert letter.stage == "gridder"
    assert letter.attempts == 3  # first try + 2 retries
    assert letter.n_visibilities == 128
    assert "InjectedFault" in letter.error
    assert report.n_visibilities_lost == 128
    assert report.excluded_items() == ((4, 8),)
    assert telemetry.counters["dead_letters"] == 1


def test_runner_quarantines_real_exceptions_too():
    calls = []

    def flaky():
        calls.append(1)
        raise ValueError("genuine bug")

    runner = WorkGroupRunner(_fast_policy(1), telemetry=Telemetry())
    result = runner.run("adder", 0, flaky, start=0, stop=2, n_visibilities=8)
    assert isinstance(result, Quarantined)
    assert len(calls) == 2
    assert "ValueError" in runner.report.dead_letters[0].error


def test_runner_never_swallows_crash():
    faults = FaultPlan.single("gridder", 0, kind="crash")
    runner = WorkGroupRunner(_fast_policy(5), faults=faults, telemetry=Telemetry())
    with pytest.raises(InjectedCrash):
        runner.run("gridder", 0, lambda: "ok", start=0, stop=1,
                   n_visibilities=4)
    assert runner.report.ok  # a crash is not a dead letter


def test_report_weight_adjustment_and_summary():
    faults = FaultPlan.single("degridder", 0, times=-1)
    runner = WorkGroupRunner(_fast_policy(1), faults=faults, telemetry=Telemetry())
    runner.run("degridder", 0, lambda: None, start=0, stop=3, n_visibilities=100)
    report = runner.report
    assert report.adjusted_weight_sum(1000.0) == pytest.approx(900.0)
    assert report.adjusted_weight_sum(50.0) == 0.0  # floored
    text = report.summary()
    assert "1 dead-lettered" in text
    assert "degridder" in text
