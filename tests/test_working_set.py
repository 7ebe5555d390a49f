"""Peak memory of a build and of a verifier, against the ground they leave.

A build holds one working set at a time: the word -> index dict goes once
the tables are filled and the words once they are labelled, so its traced
peak stays within a small factor of the ground it returns.  A verifier's
window pass holds one window's classes at a time and its fixed-point tables
take one byte per object, so what a verifier allocates above the ground
stays below the size of the ground.  parse_deg writes each edge straight
into one partner list per involution index.  Each bound sits between the
ratio of the code that kept two working sets alive (the first figure in the
comments: both builder word sets, two windows, or a dict of pairings per
index) and today's (the second).
"""

import gc
import tracemalloc

import pytest

from dualeq.engine import build_ground, parse_deg, verify_shifted, verify_weak

from test_engine import deg_text


def traced_ratios(desc, verify):
    """(build peak / held ground, (verify peak - held ground) / held ground),
    by tracemalloc, with the ground held through the verify."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_ground(desc)
        held, build_peak = (m - base for m in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        report = verify(g)
        verify_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.passed
    return build_peak / held, (verify_peak - held) / held


@pytest.mark.parametrize(
    "desc, verify, build_bound, verify_bound",
    [
        # build 1.82 -> 1.31, verify 1.13 -> 0.61
        (("signedperm", 5, "phi"), verify_weak, 1.55, 0.85),
        # build 2.38 -> 1.82, verify 0.83 -> 0.64
        (("perm", 7, "b"), verify_shifted, 2.1, 0.73),
    ],
    ids=["signedperm-5-phi-weak", "perm-7-b-shifted"],
)
def test_build_and_verify_hold_one_working_set(desc, verify, build_bound, verify_bound):
    build_ratio, verify_ratio = traced_ratios(desc, verify)
    assert build_ratio < build_bound
    assert verify_ratio < verify_bound


def test_parse_deg_holds_one_partner_list_per_index():
    text = deg_text(build_ground(("perm", 7, "b")))  # 11,762 lines
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = parse_deg(text)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert g.size == 5040
    # peak / held ground: 2.69 -> 2.07
    assert peak / held < 2.4
