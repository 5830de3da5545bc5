"""The benchmark tracer's contract with the library.  bench/spans.py wraps
envlab functions by name and counts the closures that enumerate through
FinMatGroup._elements, so a rename or a deletion in src/ fails here rather
than in a traced benchmark run.  Reads bench/ and changes nothing in it."""

import importlib.util
import os

from corpus import sl2_group, symmetric_group
from envlab.mackey import (all_subgroups, irreducible_modules, mackey_irreducible,
                           subgroup_datum)
from envlab.nori import nori_points, order_ell_elements
from envlab.pipeline import envelope_report

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")
_spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_every_traced_name_resolves():
    # Installed swaps owner.__dict__[attr], so the attribute must be the
    # owner's own, not inherited
    missing = [name for name, owner, attr in spans.TRACED
               if not callable(vars(owner).get(attr))]
    assert missing == []


def test_recorder_counts_cold_closures_on_the_element_stack():
    G = sl2_group(7)
    assert G._elements is None
    rec = spans.Recorder()
    with spans.Installed(rec):
        closed = G.closure()
        G.closure()
    assert len(closed) == G.order == 336
    assert (rec.cold_calls, rec.cold_elements) == (1, 336)


def traced(fn):
    """fn() under the recorder: (per-name calls, cold closures, elements)."""
    rec = spans.Recorder()
    with spans.Installed(rec):
        fn()
    layers, _ = spans.summarize(rec)
    return ({name: v["calls"] for name, v in layers.items()},
            rec.cold_calls, rec.cold_elements)


def test_envelope_closes_the_same_subgroups():
    # SL2(F_11): G (1,320 elements), then G+ and G' each closed from the
    # trivial group through one cyclic step (11, then 5) to all 1,320
    _, cold, elements = traced(lambda: envelope_report(sl2_group(11)))
    assert (cold, elements) == (7, 3978)


def test_nori_points_passes_g_ell_as_a_stack():
    G = sl2_group(11)
    assert len(order_ell_elements(G)) == 120
    calls, _, _ = traced(lambda: nori_points(sl2_group(11)))
    assert calls["nori.order_ell_elements"] == 1
    assert calls["fieldcore.Mat.new"] < 120


def test_mackey_sweep_builds_no_mat():
    # S4 over F_13: every subgroup class, each irreducible W of it.  Module
    # actions, transversals and double-coset representatives are stacks,
    # and a verdict's failing_rep becomes a Mat only when read (432 Mats
    # here when each action matrix was a Mat)
    G = symmetric_group(4, 13)
    subs = all_subgroups(G)
    verdicts = []

    def sweep():
        for H in subs:
            sub = subgroup_datum(G, H.generators)
            verdicts.extend(mackey_irreducible(sub, W)
                            for W in irreducible_modules(H, G.field))

    calls, _, _ = traced(sweep)
    assert calls["fieldcore.Mat.new"] == 0
    assert len(verdicts) == 37
    failing = [v.failing_rep for v in verdicts if not v]
    assert failing and all(g in G for g in failing)


def test_all_subgroups_closes_only_the_ambient_group():
    # S4 over F_13: every subgroup is an index set of G's one closure (920
    # cold closures with classes, 890 without, when each cyclic subgroup
    # and each join was closed as its own group), and each generator
    # element is one Mat shared by the generator lists (25 Mats then)
    for up_to_conjugacy in (True, False):
        G = symmetric_group(4, 13)
        calls, cold, elements = traced(lambda: all_subgroups(G, up_to_conjugacy))
        assert (cold, elements) == (1, 24)
        assert calls["fieldcore.Mat.new"] < 25
