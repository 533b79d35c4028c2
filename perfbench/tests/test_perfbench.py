"""Tests of the benchmark itself: seeding, the oracle, tracing neutrality.

Run with: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import signal
import time

import pytest

import oracle
import run
import speed
import tracing
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_argv(name):
    first = [r.argv for r in workloads.build(name, 7)]
    again = [r.argv for r in workloads.build(name, 7)]
    assert first == again
    if name != "paper":
        assert first != [r.argv for r in workloads.build(name, 8)]


@pytest.mark.parametrize("mu", [2, 16, 64])
def test_oracle_fricke_traces(mu):
    assert oracle.trace("ab", mu) == 2 - mu
    assert oracle.trace(oracle.commutator("a", "b"), mu) == 2 + mu * mu


def test_oracle_classes_and_words():
    assert oracle.nested_commutator(2) == "abAB"
    assert [len(oracle.nested_commutator(k)) for k in range(1, 8)] == [
        2 ** k for k in range(1, 8)]
    # (ab)^2 = -I at mu = 2, where tr(ab) = 0
    assert oracle.classify_matrix(oracle.word_matrix("abab", 2)) == oracle.IDENTITY
    assert oracle.classify_trace(-2) == oracle.PARABOLIC
    assert oracle.orbit_key("BA") == "ab"


def test_oracle_rejects_wrong_answers():
    good = {"word": "ab", "mu": 64, "class": "hyperbolic",
            "trace": {"a": "-62", "b": "0", "mu": 64},
            "char_poly": ["1", "-62", "1"]}
    # lambda = 31 + sqrt(960) = 61.98386676965933..., log = 4.12687413779...
    lam = ["61983866769659/1000000000000", "61983866769660/1000000000000"]
    log_lam = ["41268741377/10000000000", "41268741378/10000000000"]
    bits = 30
    assert workloads.dilatation_failures(
        dict(good, **{"lambda": lam, "log_lambda": log_lam}),
        "ab", 64, bits) == []
    shifted = ["61983866769661/1000000000000", "61983866769662/1000000000000"]
    assert workloads.dilatation_failures(
        dict(good, **{"lambda": shifted, "log_lambda": log_lam}), "ab", 64, bits)
    assert workloads.dilatation_failures(
        dict(good, trace={"a": "62", "b": "0", "mu": 64},
             **{"lambda": lam, "log_lambda": log_lam}), "ab", 64, bits)
    # x1^x2^y2 is tau of the bounding pair with (x2, y2); x1^x3^y3 is not
    # in the same coset modulo omega ^ H, but x1^x2^y2 + omega ^ x1 is
    g = 3
    x2y2 = {(0, 2, 3): 1}
    assert oracle.in_omega_wedge_h({}, g)
    assert not oracle.in_omega_wedge_h(x2y2, g)
    assert oracle.in_omega_wedge_h(oracle.omega_wedge(0, g), g)


def test_traced_and_untraced_stdout_identical():
    cli = run.load_cli()
    requests = (workloads.build("cli", 3)[:60]
                + [r for r in workloads.build("certify", 3)
                   if "64" in r.argv[-1:]][:3])
    plain = [run.call(cli, r.argv) for r in requests]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced = [run.call(cli, r.argv, tracer) for r in requests]
    finally:
        restore()
    assert [p[1:3] for p in plain] == [t[1:3] for t in traced]
    assert tracer.spans and not tracer.stack
    names = {s[0] for s in tracer.spans}
    assert {"cli", "rep.evaluate", "intervals.log", "bounds"} <= names
    # the wrappers are gone again
    from multitwist import rep
    assert rep.evaluate.__module__ == "multitwist.rep"
    assert not hasattr(rep.evaluate, "__wrapped__")


def test_layer_metrics_names_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = tracing.layer_metrics(tracing.Tracer(), 1, 0.0)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    for m in spec["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]


def test_speed_factor_from_samples_around_a_call():
    probe = speed.SpeedProbe()
    probe.starts = [-0.5, 0.5, 1.5, 2.5, 3.5]
    probe.times, probe.factors = [0.0, 1.0, 2.0, 3.0, 4.0], [1, 2, 3, 4, 50]
    assert probe.factor_at(2.5) == 3.5  # the two samples on each side
    assert probe.factor_at(-1.0) == 1.5  # only samples after it
    assert probe.factor_at(9.0) == 27  # only samples before it
    # a call from 1.25 to 2.25 runs around the sample taken from 1.5 to 2.0
    assert list(probe.stretches(1.25, 2.25)) == [(0.25, 2.5), (0.25, 3.5)]
    assert list(probe.stretches(4.0, 5.0)) == [(1.0, 27)]
    probe.sample()
    assert probe.factors[-1] > 0 and probe.times[-1] > 4.0


def test_samples_during_a_call():
    probe = speed.SpeedProbe()
    with probe.during_requests():
        end = time.perf_counter() + 3 * speed.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(probe.factors) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("known_defect, status", [("", 1), ("a defect", 0)])
def test_wrong_output_fails_the_run(monkeypatch, capsys, known_defect, status):
    request = dataclasses.replace(
        workloads.build("cli", 1)[0], known_defect=known_defect,
        check=lambda code, out: ["wrong output"])
    monkeypatch.setattr(workloads, "build", lambda name, seed: [request])
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    argv = ["--workload", "cli", "--seed", "1", "--seconds", "0"]
    assert run.main(argv + ["--trace", "0"]) == status
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] == (status == 0)
    assert result["failed"] == 1
