"""Peak memory of a build and of a verifier, in traced bytes per object.

A build holds one working set at a time: a signed ground's dict holds its
unsigned words only, the labels' array holds those words alone and a label
is signed and formatted only when it is read, the word list goes before the
tables are filled and the dict once they are.  A verifier's
window pass holds one window's classes at a time and its fixed-point tables
take one byte per object; a ground whose class types repeat drops its
classes and codes before it verifies one class per type.  parse_deg writes
each edge straight into one partner list per involution index.  The held
ground is read after a collection, so it counts no memory the build freed,
and the verify peak is read above it.  The held-ground and build bounds sit
between the code that held one label string per object (the first figure
in the comments) and today's (the last); the verify bounds sit between the
whole-ground verifier's figure (the second) and the by-type one's (the
third).
"""

import gc
import tracemalloc

import pytest

from dualeq.engine import build_ground, parse_deg, verify_shifted, verify_weak

from test_engine import deg_text


def traced_bytes_per_object(desc, verify):
    """(held ground, build peak, verify peak above the held ground), traced
    bytes per object by tracemalloc, with the ground held through the verify."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_ground(desc)
        build_peak = tracemalloc.get_traced_memory()[1] - base
        gc.collect()  # what the build freed is not held
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        report = verify(g)
        verify_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.passed
    return held / g.size, build_peak / g.size, (verify_peak - held) / g.size


@pytest.mark.parametrize(
    "desc, verify, held_bound, build_bound, verify_bound",
    [
        # held 166.8 -> 115.5 -> 73.6 -> 82.2 -> 63.2, build 217.9 -> 192.6
        # -> 138.9 -> 105.5, verify 128.0 -> 127.9 -> 57.6 -> 43.5 -> 44.8
        # (the last figures read after a collection)
        (("signedperm", 5, "phi"), verify_weak, 100, 125, 55),
        # held 170.4 -> 117.5 -> 117.5 -> 78.3, build 309.1 -> 205.5 ->
        # 205.7, verify 118.6 -> 118.6 -> 35.7 -> 28.5 -> 29.6
        (("perm", 7, "b"), verify_shifted, 110, 255, 45),
    ],
    ids=["signedperm-5-phi-weak", "perm-7-b-shifted"],
)
def test_build_and_verify_hold_one_working_set(
    desc, verify, held_bound, build_bound, verify_bound
):
    held, build_peak, verify_above = traced_bytes_per_object(desc, verify)
    assert held < held_bound
    assert build_peak < build_bound
    assert verify_above < verify_bound


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
