"""Regression tests for the control-plane bug fixes.

Three defects rode in one PR:

- ``SlowdownConfig.window_end_h`` was hard-coded to 18.5 and never
  derived from the scenario's ``operating_window_h``, so rationing and
  the consolidation battery budget planned toward the wrong horizon on
  non-default windows;
- :meth:`BAATPolicy._battery_budget_w_fleet` summed usable charge over parked
  (``policy_off``) nodes whose discharge cap is 0 W, inflating the
  supportable-server estimate with unspendable charge;
- the consolidation wake loop's accounting decremented the solar
  headroom against a stale active-count snapshot instead of counting
  woken servers on the active side.
"""

import pytest

from repro.core.policies.baat import BAATPolicy
from repro.core.policies.baat_s import BAATSlowdownPolicy
from repro.core.slowdown import DEFAULT_WINDOW_END_H, SlowdownConfig
from repro.errors import ConfigurationError
from repro.sim.fleet import FleetState
from repro.sim.scenario import Scenario
from repro.units import SECONDS_PER_HOUR


def _bound(policy, scenario=None, n=4, **scenario_kw):
    sc = scenario or Scenario(n_nodes=n, **scenario_kw)
    cluster = sc.build_cluster()
    policy.bind(cluster, scenario=sc)
    return sc, cluster, policy


class TestWindowEndWiring:
    def test_monitor_derives_window_end_from_scenario(self):
        sc = Scenario(n_nodes=3, operating_window_h=(6.0, 20.0))
        _, _, policy = _bound(BAATPolicy(), scenario=sc)
        assert policy.monitor.window_end_h == 20.0

    def test_baat_s_monitor_derives_window_end_from_scenario(self):
        sc = Scenario(n_nodes=3, operating_window_h=(7.0, 21.0))
        _, _, policy = _bound(BAATSlowdownPolicy(), scenario=sc)
        assert policy.monitor.window_end_h == 21.0

    def test_unbound_scenario_keeps_documented_default(self):
        sc = Scenario(n_nodes=3)
        cluster = sc.build_cluster()
        policy = BAATPolicy()
        policy.bind(cluster)  # no scenario handed over
        assert policy.monitor.window_end_h == DEFAULT_WINDOW_END_H == 18.5

    def test_explicit_config_overrides_scenario(self):
        sc = Scenario(n_nodes=3, operating_window_h=(6.0, 20.0))
        policy = BAATPolicy(config=SlowdownConfig(window_end_h=17.0))
        _bound(policy, scenario=sc)
        assert policy.monitor.window_end_h == 17.0

    def test_window_end_changes_ration_horizon(self):
        """A later window end rations over a longer horizon -> lower cap."""
        t = 12.0 * SECONDS_PER_HOUR  # noon
        caps = {}
        for end in (15.0, 22.0):
            sc = Scenario(n_nodes=3, operating_window_h=(6.0, end))
            _, cluster, policy = _bound(BAATPolicy(), scenario=sc)
            caps[end] = policy.monitor._ration_w(cluster.nodes[0], t)
        assert caps[22.0] < caps[15.0]

    def test_config_window_end_validated(self):
        with pytest.raises(ConfigurationError):
            SlowdownConfig(window_end_h=25.0)
        with pytest.raises(ConfigurationError):
            SlowdownConfig(window_end_h=0.0)


class TestBatteryBudgetExcludesParked:
    def test_parked_node_contributes_nothing(self):
        _, cluster, policy = _bound(BAATPolicy(), n=4)
        t = 10.0 * SECONDS_PER_HOUR
        full = policy._battery_budget_w_fleet(t, FleetState(cluster))
        assert full > 0.0

        victim = cluster.nodes[1]
        victim.server.policy_off = True
        victim.discharge_cap_w = 0.0
        without = policy._battery_budget_w_fleet(t, FleetState(cluster))

        # The parked node's term must vanish entirely; reconstruct it
        # from the same formula to pin the exact amount.
        monitor = policy.monitor
        remaining_s = max(
            600.0, (monitor.window_end_h - 10.0) * SECONDS_PER_HOUR
        )
        floor = monitor.protected_floor(victim)
        usable_ah = max(
            0.0,
            (victim.battery.soc - floor) * victim.battery.effective_capacity_ah,
        )
        term = (
            usable_ah
            * victim.battery.terminal_voltage(0.0)
            * SECONDS_PER_HOUR
            / remaining_s
        )
        assert term > 0.0
        assert without == pytest.approx(full - term)

    def test_all_parked_budget_is_zero(self):
        _, cluster, policy = _bound(BAATPolicy(), n=3)
        for node in cluster:
            node.server.policy_off = True
            node.discharge_cap_w = 0.0
        assert policy._battery_budget_w_fleet(0.0, FleetState(cluster)) == 0.0


class TestWakeAccounting:
    def _parked_cluster(self, n=6, parked=3):
        _, cluster, policy = _bound(BAATPolicy(), n=n)
        for node in cluster.nodes[:parked]:
            node.server.policy_off = True
            node.discharge_cap_w = 0.0
        return cluster, policy

    def test_wakes_stop_exactly_at_solar_headroom(self, control_pass):
        cluster, policy = self._parked_cluster(n=6, parked=3)
        per_server = policy._per_server_planning_w()
        # Solar supports 5 servers; 3 are active -> exactly 2 wakes.
        control_pass(policy, 0.0, solar_w=per_server * 5.5)
        parked = [n for n in cluster if n.server.policy_off]
        assert len(parked) == 1
        woken = [n for n in cluster if not n.server.policy_off]
        assert all(n.discharge_cap_w == float("inf") for n in woken)

    def test_headroom_beyond_parked_pool_wakes_everyone(self, control_pass):
        cluster, policy = self._parked_cluster(n=6, parked=2)
        per_server = policy._per_server_planning_w()
        control_pass(policy, 0.0, solar_w=per_server * 20.0)
        assert not any(n.server.policy_off for n in cluster)

    def test_no_wake_without_headroom(self, control_pass):
        cluster, policy = self._parked_cluster(n=6, parked=3)
        per_server = policy._per_server_planning_w()
        # Solar supports only the 3 already-active servers.
        control_pass(policy, 0.0, solar_w=per_server * 3.0)
        assert sum(1 for n in cluster if n.server.policy_off) == 3
