"""The benchmark tracer's contract with the library.  bench/spans.py wraps
envlab functions by name and counts the closures that enumerate through
FinMatGroup._elements, so a rename or a deletion in src/ fails here rather
than in a traced benchmark run.  The mackey session of bench/workloads.py
must re-prove no irreducible module.  Reads bench/ and changes nothing in
it."""

import functools
import importlib.util
import os
import sys

import pytest

import envlab.fieldcore
import envlab.gf
import envlab.mackey

from corpus import quaternion_group_sl2, sl2_group, symmetric_group
from envlab.fieldcore import DEFAULT_SEED
from envlab.mackey import (all_subgroups, clifford_decompose, irreducible_modules,
                           mackey_irreducible, subgroup_datum)
from envlab.nori import nori_points, order_ell_elements
from envlab.pipeline import derived_commutant_dim, envelope_report

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")


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
    # SL2(F_11): G (1,320 elements) only.  G+ is an index set of G's
    # closure (it was closed from the trivial group through one cyclic
    # step, 11, to all 1,320: (4, 2652)); the derived stage closes no group
    _, cold, elements = traced(lambda: envelope_report(sl2_group(11)))
    assert (cold, elements) == (1, 1320)


def test_derived_stage_closes_no_group():
    # the commutant of [G, G] is linear algebra on 2 x 2 matrices: no
    # closure and no derived_subgroup call inside envelope_report
    G = sl2_group(11)
    G.closure()
    calls, cold, _ = traced(lambda: derived_commutant_dim(G))
    assert calls["fieldcore.closure"] == cold == 0
    calls, _, _ = traced(lambda: envelope_report(sl2_group(11)))
    assert calls["pipeline.derived_subgroup"] == 0


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


def test_subgroup_lookup_hands_back_the_closed_subgroup():
    # S4 over F_13: a generator list that all_subgroups returned maps back
    # to its group, so clifford_decompose gets the N that is_normal_in
    # closed and subgroup_datum the H itself; another list gets a fresh
    # group
    G = symmetric_group(4, 13)
    subs = all_subgroups(G)
    normal = [N for N in subs if N.is_normal_in(G)]
    irreps = irreducible_modules(G, G.field)
    _, cold, _ = traced(lambda: [clifford_decompose(G, N.generators, V)
                                 for N in normal for V in irreps])
    assert len(normal) == 4 and cold == 0
    assert all(subgroup_datum(G, H.generators).subgroup is H for H in subs)
    H = next(H for H in subs if len(H.generators) > 1)
    assert subgroup_datum(G, H.generators[::-1]).subgroup is not H


def test_mackey_session_closes_each_subgroup_once():
    # S4 over F_13, as bench/workloads.py runs it: G and each of the other
    # 10 subgroup classes are closed once; the eleventh class is G itself
    session = _load("workloads").mackey_session
    _, cold, _ = traced(lambda: session(symmetric_group(4, 13).to_json()))
    assert cold == 1 + 10


def test_all_subgroups_returns_g_for_its_own_class():
    # S4 over F_13: the class of S4 keeps S4's generator list, so it is S4
    # with its closure, and the lookup of that list hands back S4
    G = symmetric_group(4, 13)
    subs = all_subgroups(G)
    assert any(H is G for H in subs)
    assert [H for H in subs if H.order == 24] == [G]
    assert subgroup_datum(G, G.generators).subgroup is G


def test_irreducible_modules_are_found_once_per_group(monkeypatch):
    # S4 over F_13: a second call returns the same certified modules in a
    # new list, splits no centre and draws no random algebra element;
    # another seed is a store miss and decomposes afresh, still with no
    # draw, since every block of S4 over F_13 is cut by the right action
    fc, mk = envlab.fieldcore, envlab.mackey
    G = symmetric_group(4, 13)
    first = irreducible_modules(G, G.field)
    draws, draw = [], fc._random_algebra_element
    monkeypatch.setattr(fc, "_random_algebra_element",
                        lambda *a: draws.append(1) or draw(*a))
    misses, blocks = [], mk._central_blocks
    monkeypatch.setattr(mk, "_central_blocks", lambda *a: misses.append(1) or blocks(*a))
    again = irreducible_modules(G, G.field)
    assert again is not first and again == first
    assert all(a is b and a._witness is not None for a, b in zip(again, first))
    assert misses == []
    again.pop()
    assert len(irreducible_modules(G, G.field)) == 5
    assert misses == []
    irreducible_modules(G, G.field, seed=1)
    assert len(misses) == 1
    assert draws == []


def test_mackey_session_meataxe_searches(monkeypatch):
    # S4 over F_13, as bench/workloads.py runs it: 142 MeatAxe searches when
    # every piece of every decomposition was searched and G's regular
    # representation was decomposed twice; 108 once a piece isomorphic to
    # a certified factor was counted without one and G's irreducibles were
    # stored on G; 87 once a certified module, a scalar piece and a
    # regular representation met before (the other C2 and V4 classes) were
    # searched no more; 62 once the regular representation was split
    # along the centre of the group algebra and each isotypic block was
    # searched only down to one irreducible; 37 once each Clifford shape
    # was read from ranks at N's central idempotents, with no search; 25,
    # one per line of a centre, now that each block W^d with d >= 2 is cut
    # down to W by the right action of a generator, with no search
    fc = envlab.fieldcore
    searches, search = [], fc._meataxe_search
    monkeypatch.setattr(fc, "_meataxe_search",
                        lambda *a: searches.append(1) or search(*a))
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert len(searches) == 25


def test_mackey_bytes_do_not_depend_on_the_meataxe_seed(tmp_path):
    # the seed-7 mackey jobs of bench/workloads.py, with irreducible_modules,
    # mackey_irreducible and clifford_decompose given DEFAULT_SEED + s: the
    # seed decides how fast each answer is found, never the output bytes
    mk = envlab.mackey
    jobs = _load("workloads")._mackey_jobs(7, str(tmp_path))
    assert len(jobs) == 8
    outputs = []
    for shift in (0, 1, 2, 3, 1000):
        with pytest.MonkeyPatch.context() as patch:
            for name in ("irreducible_modules", "mackey_irreducible", "clifford_decompose"):
                patch.setattr(mk, name, functools.partial(getattr(mk, name),
                                                          seed=DEFAULT_SEED + shift))
            outputs.append([job.run() for job in jobs])
    assert all(out == outputs[0] for out in outputs[1:])


def test_mackey_session_certifies_each_irreducible_once(monkeypatch):
    # S4 over F_13: every W and V reaching is_irreducible in mackey_irreducible
    # and clifford_decompose comes from irreducible_modules, which stored
    # its witness, so those checks draw no random algebra element, and no
    # MeatAxe search draws one either; the polynomial kernel works on
    # python ints, never through GF.mul/GF.add, in the session and in the
    # MeatAxe fallback that Q8 over F_3 takes
    fc, gf = envlab.fieldcore, envlab.gf
    draws, inside, factor_calls = [], [], []
    draw, factor, check = (fc._random_algebra_element, fc._irreducible_factor,
                           envlab.mackey.is_irreducible)
    kernel = {getattr(gf, name).__code__ for name in dir(gf) if name.startswith("poly_")}
    kernel_arith = []

    def in_kernel():
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code in kernel:
                return True
            frame = frame.f_back
        return False

    def guarded(name):
        method = vars(gf.GF)[name]

        def wrapper(self, *args):
            if in_kernel():
                kernel_arith.append(name)
            return method(self, *args)
        return wrapper

    def checked(*args, **kwargs):
        before = len(draws)
        out = check(*args, **kwargs)
        inside.append(len(draws) - before)
        return out

    monkeypatch.setattr(fc, "_random_algebra_element",
                        lambda *a: draws.append(1) or draw(*a))
    monkeypatch.setattr(fc, "_irreducible_factor",
                        lambda *a: factor_calls.append(1) or factor(*a))
    monkeypatch.setattr(envlab.mackey, "is_irreducible", checked)
    for name in ("mul", "add"):
        monkeypatch.setattr(gf.GF, name, guarded(name))
    out = _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    calls = (sum(len(row) for _, _, row in out["mackey"])
             + sum(len(row) for _, row in out["clifford"]))
    assert len(inside) == calls > 37 and set(inside) == {0}
    assert draws == []
    assert kernel_arith == []
    G = quaternion_group_sl2(3)
    irreducible_modules(G, G.field)
    assert draws and factor_calls  # the MeatAxe ran, in the fallback
    assert kernel_arith == []


def test_mackey_session_builds_each_regular_representation_once(monkeypatch):
    # S4 over F_13, as bench/workloads.py runs it: irreducible_modules is
    # called for each of the 11 classes and for G, and builds the regular
    # representation only for the 9 keys it has not stored; the key is read
    # from the permutations each group keeps
    mk = envlab.mackey
    built, calls = [], []
    reg, modules = mk.regular_rep, mk.irreducible_modules
    monkeypatch.setattr(mk, "regular_rep", lambda *a: built.append(1) or reg(*a))
    monkeypatch.setattr(mk, "irreducible_modules",
                        lambda *a, **kw: calls.append(1) or modules(*a, **kw))
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert (len(calls), len(built)) == (12, 9)


def test_clifford_with_n_equal_to_g_searches_nothing(monkeypatch):
    # S4 over F_13, before any all_subgroups call: restricted to G itself,
    # each irreducible V is V, certificate and all, and one class of one
    fc = envlab.fieldcore
    G = symmetric_group(4, 13)
    irreps = irreducible_modules(G, G.field)
    searches, search = [], fc._meataxe_search
    monkeypatch.setattr(fc, "_meataxe_search",
                        lambda *a: searches.append(1) or search(*a))
    for V in irreps:
        assert envlab.mackey.restrict(V, G, G) is V
        shape = clifford_decompose(G, G.generators, V)
        assert (shape.e, shape.f) == (1, 1) and shape.factors[0] is V
    assert searches == []


def test_equal_regular_representations_share_their_modules(monkeypatch):
    # S4 over F_13: the two classes of C2, and the two of V4, have the same
    # regular representation, so they get the same module objects; the
    # session splits each of the 9 distinct regular representations of
    # its 11 classes into central blocks once
    G = symmetric_group(4, 13)
    subs = all_subgroups(G)
    for order in (2, 4):
        pair = [H for H in subs if H.order == order and len(H.generators) == order // 2]
        assert len(pair) == 2
        first, second = (irreducible_modules(H, G.field) for H in pair)
        assert len(first) == order and all(a is b for a, b in zip(first, second))

    mk = envlab.mackey
    split, blocks = [], mk._central_blocks
    monkeypatch.setattr(mk, "_central_blocks", lambda *a: split.append(1) or blocks(*a))
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert len(split) == 9
