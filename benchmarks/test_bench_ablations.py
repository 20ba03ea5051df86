"""Ablation benches for the design choices DESIGN.md calls out.

Each bench runs UNIT with one mechanism altered and reports the USM
delta on med-unif — the quantitative backing for the choices the paper
leaves implicit (and for our documented deviations).

Covered:
* victim selection: ticket lottery vs uniform-random victim;
* escalating degradation threshold on vs off;
* the system-USM admission check on vs off (under non-naive weights);
* C_du sensitivity (the tech-report study the paper cites);
* 2PL-HP victim restart vs kill.
"""


from repro.core.unit import UnitConfig, UnitPolicy
from repro.core.usm import TABLE2_PROFILES, PenaltyProfile
from repro.db.server import ServerConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
import repro.experiments.runner as runner_mod

from repro.experiments.report import ascii_table


def run_unit(scale, seed, unit_config=None, profile=None, policy_factory=None,
             server_config=None):
    config = ExperimentConfig(
        policy="unit",
        update_trace="med-unif",
        profile=profile or PenaltyProfile.naive(),
        seed=seed,
        scale=scale,
        unit=unit_config,
    )
    original_make = runner_mod.make_policy
    original_server = None
    if policy_factory is not None:
        runner_mod.make_policy = policy_factory
    try:
        if server_config is not None:
            # Patch the ServerConfig used by the runner.
            original_server = runner_mod.ServerConfig
            runner_mod.ServerConfig = lambda **_kwargs: server_config
        return run_experiment(config)
    finally:
        runner_mod.make_policy = original_make
        if original_server is not None:
            runner_mod.ServerConfig = original_server


class UniformVictimUnit(UnitPolicy):
    """Ablation: degrade victims drawn uniformly instead of by lottery."""

    def bind(self, server):
        super().bind(server)
        rng = self._rng
        items = server.items
        modulator = self.modulator

        def uniform_degrade(rounds=1):
            victims = []
            for _ in range(rounds):
                victim = rng.randrange(len(items))
                item = items[victim]
                if item.current_period < modulator.max_stretch * item.ideal_period:
                    items.degrade(victim, modulator.c_du)
                    victims.append(victim)
            return victims

        modulator.degrade = uniform_degrade


def test_bench_ablation_victim_selection(benchmark, bench_scale, bench_seed, publish):
    """Ticket lottery must beat blind uniform victim selection."""

    def run_pair():
        lottery = run_unit(bench_scale, bench_seed).usm

        def factory(config, streams, recorder=None):
            return UniformVictimUnit(
                config.unit_config(), streams.stream("unit-lottery")
            )

        uniform = run_unit(bench_scale, bench_seed, policy_factory=factory).usm
        return lottery, uniform

    lottery, uniform = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    text = ascii_table(
        ["victim selection", "USM"],
        [["ticket lottery (paper)", lottery], ["uniform random", uniform]],
        title="Ablation — degradation victim selection (med-unif)",
    )
    publish("ablation_victim_selection", text, benchmark)
    assert lottery > uniform - 0.02


def test_bench_ablation_escalation(benchmark, bench_scale, bench_seed, publish):
    def run_pair():
        on = run_unit(
            bench_scale, bench_seed, UnitConfig(escalate_modulation=True)
        ).usm
        off = run_unit(
            bench_scale, bench_seed, UnitConfig(escalate_modulation=False)
        ).usm
        return on, off

    on, off = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    text = ascii_table(
        ["escalating threshold", "USM"],
        [["on (default)", on], ["off (pure zero-clamp)", off]],
        title="Ablation — escalating degradation pressure (med-unif)",
    )
    publish("ablation_escalation", text, benchmark)


def test_bench_ablation_usm_check(benchmark, bench_scale, bench_seed, publish):
    """The system-USM admission check matters under non-naive weights."""
    profile = TABLE2_PROFILES["lt1-high-cfm"]

    def run_pair():
        with_check = run_unit(
            bench_scale,
            bench_seed,
            UnitConfig(profile=profile, use_usm_check=True),
            profile=profile,
        ).usm
        without = run_unit(
            bench_scale,
            bench_seed,
            UnitConfig(profile=profile, use_usm_check=False),
            profile=profile,
        ).usm
        return with_check, without

    with_check, without = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    text = ascii_table(
        ["admission", "USM (high C_fm weights)"],
        [["deadline + USM check (paper)", with_check], ["deadline check only", without]],
        title="Ablation — system-USM admission check (med-unif)",
    )
    publish("ablation_usm_check", text, benchmark)


def test_bench_ablation_cdu_sensitivity(benchmark, bench_scale, bench_seed, publish):
    """The tech-report claim: the exact C_du value has little effect."""

    def sweep():
        return {
            c_du: run_unit(bench_scale, bench_seed, UnitConfig(c_du=c_du)).usm
            for c_du in (0.05, 0.1, 0.2, 0.4)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    values = list(results.values())
    text = ascii_table(
        ["C_du", "USM"],
        [[c_du, usm] for c_du, usm in results.items()],
        title="Ablation — C_du sensitivity (med-unif)",
    )
    publish("ablation_cdu", text, benchmark)
    assert max(values) - min(values) < 0.15, "C_du should not be a cliff"


def test_bench_ablation_selective_vs_elastic(benchmark, bench_scale, bench_seed, publish):
    """UNIT's selective lottery degradation vs Buttazzo-style uniform
    elastic stretching (the related-work alternative Section 5 cites)."""

    def run_pair():
        unit = run_experiment(
            ExperimentConfig(
                policy="unit", update_trace="med-unif", seed=bench_seed, scale=bench_scale
            )
        ).usm
        elastic = run_experiment(
            ExperimentConfig(
                policy="elastic",
                update_trace="med-unif",
                seed=bench_seed,
                scale=bench_scale,
            )
        ).usm
        return unit, elastic

    unit, elastic = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    text = ascii_table(
        ["update shedding", "USM"],
        [["UNIT (selective lottery)", unit], ["elastic (uniform stretch)", elastic]],
        title="Ablation — selective vs uniform period stretching (med-unif)",
    )
    publish("ablation_elastic", text, benchmark)
    assert unit > elastic - 0.02


def test_bench_ablation_restart_policy(benchmark, bench_scale, bench_seed, publish):
    """2PL-HP victims: restart (paper) vs immediate kill."""

    def run_pair():
        restart = run_unit(bench_scale, bench_seed).usm
        kill = run_unit(
            bench_scale,
            bench_seed,
            server_config=ServerConfig(restart_aborted_queries=False),
        ).usm
        return restart, kill

    restart, kill = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    text = ascii_table(
        ["2PL-HP victim handling", "USM"],
        [["restart (paper)", restart], ["kill immediately", kill]],
        title="Ablation — aborted-query handling (med-unif)",
    )
    publish("ablation_restart", text, benchmark)
    assert restart >= kill - 0.02
