"""Unit tests for named RNG streams."""

from repro.sim.rng import LazyStream, RngRegistry


def test_same_name_returns_same_stream():
    reg = RngRegistry(seed=1)
    assert reg.stream("traffic") is reg.stream("traffic")


def test_different_names_are_independent_objects():
    reg = RngRegistry(seed=1)
    assert reg.stream("a") is not reg.stream("b")


def test_streams_are_deterministic_across_registries():
    values_a = [RngRegistry(seed=5).stream("x").random() for _ in range(3)]
    values_b = [RngRegistry(seed=5).stream("x").random() for _ in range(3)]
    assert values_a == values_b


def test_different_seeds_give_different_sequences():
    a = RngRegistry(seed=1).stream("x")
    b = RngRegistry(seed=2).stream("x")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_different_names_give_different_sequences():
    reg = RngRegistry(seed=1)
    a = reg.stream("alpha")
    b = reg.stream("beta")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_consuming_one_stream_does_not_shift_another():
    reg1 = RngRegistry(seed=9)
    reg1.stream("noise").random()  # consume from an unrelated stream
    value_after_noise = reg1.stream("signal").random()

    reg2 = RngRegistry(seed=9)
    value_clean = reg2.stream("signal").random()
    assert value_after_noise == value_clean


def test_fork_changes_all_streams():
    base = RngRegistry(seed=3)
    forked = base.fork(run_index=1)
    assert base.stream("x").random() != forked.stream("x").random()


def test_fork_is_deterministic():
    a = RngRegistry(seed=3).fork(2).stream("x").random()
    b = RngRegistry(seed=3).fork(2).stream("x").random()
    assert a == b


def test_seed_property():
    assert RngRegistry(seed=17).seed == 17


def test_lazy_stream_draws_like_an_eager_one():
    eager = RngRegistry(seed=11).stream("liteworp:7")
    reg = RngRegistry(seed=11)
    reg.stream("noise").random()  # drawing other streams first changes nothing
    lazy = LazyStream(reg, "liteworp:7")
    assert "liteworp:7" not in reg._streams  # no state before the first draw
    draws = [lazy.random(), lazy.uniform(0.0, 3.0), lazy.expovariate(2.0), lazy.random()]
    assert draws == [
        eager.random(), eager.uniform(0.0, 3.0), eager.expovariate(2.0), eager.random()
    ]
    # From its first draw on, the stand-in is the registry's stream.
    assert reg.stream("liteworp:7").getstate() == eager.getstate()


def test_defense_streams_are_created_on_first_draw():
    from repro.experiments.scenario import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(n_nodes=12, duration=10.0, attack_start=5.0))
    # With oracle neighbour tables LITEWORP never draws from its streams.
    assert not any(name.startswith("liteworp:") for name in scenario.rng._streams)
    assert any(name.startswith("routing:") for name in scenario.rng._streams)
