"""The fleet's load-bucket rail index against a linear-scan oracle.

A Hypothesis state machine places and releases jobs and kills and
revives rails through the :class:`RailFleet` API, and after every step
checks that ``pick_rail`` chooses what scanning every rail would, for
all three policies: the least-loaded live rail, lowest index on ties,
and no rail at all once every rail is dead.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.service import POLICIES, RailFleet, pick_rail
from repro.sim.context import Context
from tests.oracles.placement import pick_rail_scan

#: Rails per fleet in every example: 2 hosts x 3 RoCE rails.
_N = 6


class RailIndexMachine(RuleBasedStateMachine):
    @initialize()
    def fresh_fleet(self):
        self.fleet = RailFleet(Context.create(seed=0), n_hosts=2)
        self.rails = self.fleet.rails
        assert len(self.rails) == _N
        self.next_job = 0

    @rule(i=st.integers(0, _N - 1))
    def place(self, i):
        self.next_job += 1
        self.fleet.place(self.rails[i], ("job", self.next_job))

    @rule(i=st.integers(0, _N - 1), pick=st.integers(0, 7))
    def release(self, i, pick):
        jobs = list(self.rails[i].jobs)
        if jobs:
            self.fleet.release(self.rails[i], jobs[pick % len(jobs)])

    @rule(i=st.integers(0, _N - 1))
    def kill(self, i):
        self.fleet.set_alive(self.rails[i], False)

    @rule(i=st.integers(0, _N - 1))
    def revive(self, i):
        self.fleet.set_alive(self.rails[i], True)

    @rule()
    def kill_all(self):
        for rail in self.rails:
            self.fleet.set_alive(rail, False)

    @rule(policy=st.sampled_from(POLICIES), touch=st.integers(0, 1),
          cursor=st.integers(0, _N - 1))
    def pick_agrees_with_scan(self, policy, touch, cursor):
        got = pick_rail(self.fleet, policy, touch, cursor)
        assert got == pick_rail_scan(self.rails, policy, touch, cursor)

    @invariant()
    def least_loaded_agrees(self):
        for policy in POLICIES:
            assert (pick_rail(self.fleet, policy, 0, 0)
                    == pick_rail_scan(self.rails, policy, 0, 0))


TestRailIndex = RailIndexMachine.TestCase
TestRailIndex.settings = settings(max_examples=60, stateful_step_count=40,
                                  deadline=None)


def test_ties_break_to_lowest_index_and_dead_fleet_places_nothing():
    fleet = RailFleet(Context.create(seed=0), n_hosts=2)
    rails = fleet.rails
    assert fleet.least_loaded() is rails[0]
    fleet.place(rails[0], "a")
    fleet.place(rails[2], "b")
    assert fleet.least_loaded() is rails[1]
    fleet.set_alive(rails[1], False)
    assert fleet.least_loaded() is rails[3]
    fleet.release(rails[0], "a")
    assert fleet.least_loaded() is rails[0]
    for rail in rails:
        fleet.set_alive(rail, False)
    for policy in POLICIES:
        assert pick_rail(fleet, policy, 1, 0) == (None, 1, 0)
    fleet.set_alive(rails[2], True)
    assert fleet.least_loaded() is rails[2]  # revived at its load of 1
