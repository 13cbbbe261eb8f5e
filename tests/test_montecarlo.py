import dataclasses
import tracemalloc

import numpy as np
import pytest

import asvinit
from asvinit import cli, montecarlo, refnet, variance
from asvinit.errors import BudgetExceeded
from conftest import record_streams


def tiny():
    return asvinit.toy_net(3, 4, 4, name="tiny")


def test_reproducible_bit_for_bit():
    toy = tiny()
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    cfg = montecarlo.McConfig(2, 16, seed=5)
    t1 = montecarlo.estimate_both(toy, plan, cfg)
    t2 = montecarlo.estimate_both(toy, plan, cfg)
    assert t1.rows == t2.rows


def test_input_row_is_unit_variance():
    toy = tiny()
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    cfg = montecarlo.McConfig(2, 400, seed=1)
    trace = montecarlo.estimate_forward(toy, plan, cfg)
    row0 = trace.rows_for("forward")[0]
    assert row0.ell == 0
    assert row0.predicted == 1.0
    assert abs(row0.estimate - 1.0) < 0.05


def test_stderr_shrinks_with_draw_count():
    toy = tiny()
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    t_small = montecarlo.estimate_forward(toy, plan, montecarlo.McConfig(4, 32, seed=9))
    t_large = montecarlo.estimate_forward(toy, plan, montecarlo.McConfig(16, 32, seed=9))
    # quadrupling parameter draws should halve the stderr, within 30%
    small = [r.stderr for r in t_small.rows_for("forward")[1:]]
    large = [r.stderr for r in t_large.rows_for("forward")[1:]]
    ratios = [l / s for s, l in zip(small, large) if s > 0]
    mean_ratio = float(np.mean(ratios))
    assert 0.5 * 0.7 < mean_ratio < 0.5 * 1.3


def test_sigma_doubling_scales_downstream_variance_by_four():
    toy = tiny()
    base = variance.init_plan(variance.ASV_FORWARD, toy).sigma_w
    bumped = base.copy()
    bumped[1] *= 2.0
    cfg = montecarlo.McConfig(4, 128, seed=3)
    t_base = montecarlo.estimate_forward(toy, variance.plan_from_sigmas(toy, base), cfg)
    t_bump = montecarlo.estimate_forward(toy, variance.plan_from_sigmas(toy, bumped), cfg)
    for rb, rx in zip(t_base.rows_for("forward"), t_bump.rows_for("forward")):
        if rb.ell >= 2:
            assert rx.estimate / rb.estimate == pytest.approx(4.0, rel=0.15)
        elif rb.ell >= 0:
            assert rx.estimate == pytest.approx(rb.estimate, rel=1e-12)


def test_zero_sigma_kills_backward_signals():
    toy = tiny()
    plan = variance.plan_from_sigmas(toy, [0.0] * 4)
    cfg = montecarlo.McConfig(2, 8, seed=2)
    trace = montecarlo.estimate_backward(toy, plan, cfg)
    for row in trace.rows_for("backward"):
        assert row.estimate == 0.0
        assert row.predicted == 0.0
        assert row.rel_error == 0.0


def test_budget_guard():
    toy = tiny()
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    cfg = montecarlo.McConfig(1000, 2000, seed=0)
    with pytest.raises(BudgetExceeded):
        montecarlo.estimate_forward(toy, plan, cfg)


class FirstDraw(Exception):
    pass


def fc_chain():
    """One FC layer: two forward rows."""
    return asvinit.Architecture(name="fc", input_shape=(4, 1, 1), layers=(
        asvinit.LayerSpec(kind="FullyConnected", out_channels=3, activation="Identity"),
    ))


def test_each_draw_spawns_its_seeds_as_it_starts(monkeypatch):
    """A million one-input draws, as many as the default budget allows,
    reach the first draw's sampling holding little more than the per-draw
    table (16 MB for two rows), not a million spawned seed sequences."""
    def first_draw(*args):
        raise FirstDraw

    a = fc_chain()
    plan = variance.init_plan(variance.ASV_FORWARD, a)
    monkeypatch.setattr(refnet, "sample_parameters", first_draw)
    tracemalloc.start()
    try:
        with pytest.raises(FirstDraw):
            montecarlo.estimate_forward(a, plan, montecarlo.McConfig(10**6, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_inputs_are_numpys_normals_past_one_round(monkeypatch):
    """Each draw's z0 and injected gradient carry the bits of
    default_rng(seed).normal(0.0, 1.0, shape) for that draw's spawned
    seeds, also where z0 (768 x 300 normals) is long enough for its stream
    to draw on two threads."""
    monkeypatch.setattr(refnet, "_cpus", lambda: 2)
    streams = record_streams(monkeypatch)
    seen = []
    moments = refnet.signal_moments

    def record(net, z0, delta_uL=None):
        seen.append((z0, delta_uL))
        return moments(net, z0, delta_uL)

    monkeypatch.setattr(refnet, "signal_moments", record)
    toy = asvinit.toy_net()
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    montecarlo.estimate_both(toy, plan, montecarlo.McConfig(2, 300, seed=9))
    assert len(seen) == 2
    for draw, (z0, delta) in zip(np.random.SeedSequence(9).spawn(2), seen):
        _, input_ss, inject_ss = draw.spawn(3)
        z_ref = np.random.default_rng(input_ss).normal(0.0, 1.0, (toy.geo[0].m_prev, 300))
        d_ref = np.random.default_rng(inject_ss).normal(0.0, 1.0, (toy.geo[-1].m_prime, 300))
        assert np.array_equal(z0.view(np.int64), z_ref.view(np.int64))
        assert np.array_equal(delta.view(np.int64), d_ref.view(np.int64))
    assert any(None not in s.joins and s.joins for s in streams)


def test_memory_preflight_counts_the_per_draw_table(monkeypatch):
    """The need held against the memory limit covers the per-draw table
    too: 10**6 draws of two rows are 16 MB beside one draw's net and
    signals."""
    needs = []

    def record(need, what):
        needs.append(need)
        raise FirstDraw

    a = fc_chain()
    plan = variance.init_plan(variance.ASV_FORWARD, a)
    monkeypatch.setattr(refnet, "check_memory", record)
    with pytest.raises(FirstDraw):
        montecarlo.estimate_forward(a, plan, montecarlo.McConfig(10**6, 1))
    assert needs == [refnet.memory_need(a, 1, False) + 16_000_000]


@pytest.mark.parametrize("name, trials, want_backward", [
    ("toy", (2, 64), False),
    ("toy", (2, 64), True),
    ("arch34-32", (1, 64), True),
    ("arch34-32", (2, 8), False),
])
def test_memory_bound_covers_the_traced_peak(name, trials, want_backward):
    """The preflight bound is at least what one run really allocates,
    two draws included (a draw's trace is freed before the next)."""
    if name == "toy":
        a = asvinit.toy_net()
    else:
        a = dataclasses.replace(asvinit.builtin("arch34"), input_shape=(32, 32, 3))
    plan = variance.init_plan(variance.ASV_FORWARD, a)
    cfg = montecarlo.McConfig(*trials, seed=3)
    estimate = montecarlo.estimate_both if want_backward else montecarlo.estimate_forward
    tracemalloc.start()
    try:
        estimate(a, plan, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert refnet.memory_need(a, trials[1], want_backward) >= peak


def test_memory_bound_counts_live_weights_and_the_draw_block():
    """arch34 at 16x16x3 keeps 3.6M of its 21.1M weights: the bound drops
    below the 176,107,088 bytes it was when every weight was counted, and
    still covers the net's arrays plus one full trace."""
    a = dataclasses.replace(asvinit.builtin("arch34"), input_shape=(16, 16, 3))
    need = refnet.memory_need(a, 8, True)
    assert need < 176_107_088
    net = refnet.sample_parameters(a, variance.init_plan(variance.ASV_BACKWARD, a), 5)
    z0 = np.random.default_rng(6).normal(size=(a.geo[0].m_prev, 8))
    trace = refnet.backward(net, refnet.forward(net, z0))
    held = sum(x.nbytes for x in net.weights)
    held += sum(
        x.nbytes for signals in (trace.u, trace.z, trace.du, trace.dv, trace.dz)
        for x in signals if x is not None
    )
    assert need > held


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("ASV_BUDGET", "10")
    cfg = montecarlo.McConfig(4, 4, seed=0)
    with pytest.raises(BudgetExceeded):
        cfg.check_budget()
    monkeypatch.setenv("ASV_BUDGET", "16")
    cfg.check_budget()


def test_compare_exact_passes():
    row = montecarlo.TraceRow("forward", 1, 1.0, 1.0, 0.0)
    trace = montecarlo.VarianceTrace("x", "m", montecarlo.McConfig(1, 1), (row,))
    report = montecarlo.compare(trace, threshold=0.2)
    assert report.passed
    assert report.max_rel_error == 0.0


def test_compare_names_failing_layer():
    rows = (
        montecarlo.TraceRow("forward", 1, 1.0, 1.05, 0.0),
        montecarlo.TraceRow("forward", 2, 1.0, 1.30, 0.0),
    )
    trace = montecarlo.VarianceTrace("x", "m", montecarlo.McConfig(1, 1), rows)
    report = montecarlo.compare(trace, threshold=0.2)
    assert not report.passed
    assert [r.ell for r in report.failures] == [2]
    assert report.worst.ell == 2


def test_prediction_tracking_small_net():
    """Measured levels track the recursions for non-fixed-point sigmas on a
    net with a single pooling stage (where the independence approximations
    hold well)."""
    net = asvinit.Architecture(
        name="track", input_shape=(16, 16, 3),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=8, kernel=(3, 3),
                              padding=(1, 1),
                              pool=asvinit.Pool(kind="Max", size=(2, 2))),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=32,
                              activation="Identity"),
        ),
    )
    rng = np.random.default_rng(31)
    base = variance.init_plan(variance.KAIMING_FORWARD, net).sigma_w
    sig = base * np.exp(rng.uniform(-0.7, 0.7, size=len(base)))
    plan = variance.plan_from_sigmas(net, sig)
    cfg = montecarlo.McConfig(8, 256, seed=6)
    trace = montecarlo.estimate_both(net, plan, cfg)
    for row in trace.rows:
        assert row.rel_error < 0.25, (row.direction, row.ell, row.rel_error)


def test_kaiming_backward_chain_tracks_prediction():
    """The fan-out rule keeps backward variance flat only in the borderless
    idealization.  On a real padding-free chain each conv interface decays by
    the output/input area ratio and the identity head doubles the level once;
    the recursion predicts exactly that, and measurements track it."""
    net = asvinit.Architecture(
        name="deep", input_shape=(14, 14, 3),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=12, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=12, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=12, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=12, kernel=(3, 3)),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=32,
                              activation="Identity"),
        ),
    )
    geo = asvinit.infer_shapes(net)
    plan = variance.init_plan(variance.KAIMING_BACKWARD, net)
    r_pred = variance.predict_backward(geo, plan.sigma_w)
    assert r_pred[-2] == pytest.approx(2.0, abs=1e-12)  # head: 2/fan_out, no ReLU
    spatial = [(14, 12), (12, 10), (10, 8), (8, 6)]
    for i, (w_in, w_out) in enumerate(spatial):
        assert r_pred[i] / r_pred[i + 1] == pytest.approx(
            (w_out / w_in) ** 2, rel=1e-12
        )
    cfg = montecarlo.McConfig(8, 256, seed=4)
    trace = montecarlo.estimate_backward(net, plan, cfg)
    for row in trace.rows_for("backward"):
        assert row.rel_error < 0.2, (row.ell, row.estimate)


def test_trace_serialization():
    import json
    toy = tiny()
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    trace = montecarlo.estimate_both(toy, plan, montecarlo.McConfig(2, 8, seed=4))
    obj = json.loads(cli.render(trace.table(), "json"))
    assert obj["trials"] == [2, 8]
    assert len(obj["rows"]) == (1 + 4) + 3  # forward 0..4 plus backward 1..3
    csv_text = cli.render(trace.table(), "csv")
    assert csv_text.splitlines()[0] == "direction,layer,predicted,estimate,stderr,rel_error"
    assert len(csv_text.strip().splitlines()) == 1 + 8
