"""Linear-scan rail placement: the rule ``pick_rail`` must reproduce.

``fifo`` walks a round-robin cursor over the rails in cabling order;
``numa-blind`` and ``numa-aware`` take the live rail with the fewest
jobs, the lowest index on ties, and ``numa-aware`` binds the buffer to
that rail's node.  No rail alive means no placement.
"""

from __future__ import annotations


def least_loaded_scan(rails):
    """The first live rail of minimum load, in index order (or None)."""
    best = None
    for rail in rails:
        if rail.alive and (best is None or len(rail.jobs) < len(best.jobs)):
            best = rail
    return best


def pick_rail_scan(rails, policy, touch_node, cursor):
    """``(rail, buffer_node, next_cursor)`` by scanning every rail."""
    if policy == "fifo":
        n = len(rails)
        for step in range(n):
            rail = rails[(cursor + step) % n]
            if rail.alive:
                return rail, touch_node, (cursor + step + 1) % n
        return None, touch_node, cursor
    rail = least_loaded_scan(rails)
    if policy == "numa-aware" and rail is not None:
        return rail, rail.node, cursor
    return rail, touch_node, cursor
