"""The fault-injected mission pinned to the series of the loop it replaced.

``repro mission`` used to run its own loop (plan, degrade to the largest
connected remnant, repair with retries).  It now runs the dynamics engine
on the ``mission-small`` preset.  The literals below are that old loop's
served-user change points ``(t_s, served)`` for seeds 1-10 with 0, 1 and 2
link faults (last value per timestamp, kept only where it changes); the
engine must reproduce each one exactly.
"""

import pytest

from repro.dynamics import get_dynamic_preset, run_dynamic

#: Per seed, the series with two crashes and no link fault.
CRASHES = {
    1: [(0.0, 387), (13.41195190759369, 374), (23.03365839178729, 360)],
    2: [(0.0, 369), (47.60692257965699, 353), (49.12631409589422, 326)],
    3: [(0.0, 365), (33.677973653151724, 341), (48.825952210138645, 300)],
    4: [(0.0, 388), (21.033741819177525, 375), (27.305107906579465, 360)],
    5: [(0.0, 363), (34.846418388984716, 338), (63.699937078941765, 294)],
    6: [(0.0, 355), (59.320387718185906, 322), (75.68496696483088, 283)],
    7: [(0.0, 373), (41.85329208669654, 331), (61.956270295498484, 282)],
    8: [(0.0, 371), (20.68379809684456, 350), (46.838089268791286, 306)],
    9: [(0.0, 366), (45.26145906682163, 343), (62.73202085192245, 312)],
    10: [(0.0, 375), (37.95865872300542, 328), (79.00679864557203, 276)],
}

#: The (seed, num_links) missions whose link faults change that series.
#: In the other 16 with link faults, the series is the crash-only one:
#: the degraded pair is not adjacent, or the repair at the same instant
#: re-pairs the UAVs around it.
LINKS = {
    (4, 2): [(0.0, 388), (21.033741819177525, 375), (27.305107906579465, 360),
        (62.99746659154873, 266), (92.99746659154873, 360)],
    (7, 1): [(0.0, 373), (41.85329208669654, 331), (61.956270295498484, 281),
        (67.65388115007731, 282)],
    (7, 2): [(0.0, 373), (41.85329208669654, 331), (61.956270295498484, 281),
        (67.65388115007731, 282)],
    (9, 2): [(0.0, 366), (45.26145906682163, 343), (56.889351587842484, 312)],
}


def change_points(timeline: list) -> list:
    """The last served value per timestamp, kept where it changes."""
    last: dict = {}
    for t, served, _ in timeline:
        last[t] = served
    points: list = []
    for t in sorted(last):
        if not points or points[-1][1] != last[t]:
            points.append((t, last[t]))
    return points


@pytest.mark.parametrize("links", [0, 1, 2])
@pytest.mark.parametrize("seed", sorted(CRASHES))
def test_mission_matches_the_replaced_loop(seed, links):
    spec = get_dynamic_preset("mission-small").with_overrides(
        seed=seed, num_links=links
    )
    expected = LINKS.get((seed, links), CRASHES[seed])
    assert change_points(run_dynamic(spec).timeline) == expected
