"""The benchmark tracer's contract with the library.  bench/spans.py wraps
envlab functions by name and counts the closures that enumerate through
FinMatGroup._elements, so a rename or a deletion in src/ fails here rather
than in a traced benchmark run.  The mackey session of bench/workloads.py
must re-prove no irreducible module.  Reads bench/ and changes nothing in
it."""

import functools
import hashlib
import importlib.util
import os
import sys

import pytest

import envlab.fieldcore
import envlab.gf
import envlab.mackey

from corpus import quaternion_group_sl2, sl2_group, symmetric_group
from envlab.fieldcore import DEFAULT_SEED, FinMatGroup
from envlab.mackey import (all_subgroups, clifford_decompose, irreducible_modules,
                           mackey_irreducible, subgroup_datum)
from envlab.nori import nori_points, order_ell_elements
from envlab.pipeline import commutant_chain, envelope_report
from test_nori import sym2_so3_group

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
    calls, cold, _ = traced(lambda: commutant_chain(G))
    assert calls["fieldcore.closure"] == cold == 0
    calls, _, _ = traced(lambda: envelope_report(sl2_group(11)))
    assert calls["pipeline.derived_subgroup"] == 0


def test_envelope_reuses_the_group_commutant_when_g_plus_is_g():
    # one intertwiner system per report, K0 of the generator commutators;
    # the rest of the chain is solved inside it.  SL2(F_11): G+ = G takes
    # G's commutant.  SO3(F_7): G+ has index 2 and holds the generator
    # commutators, so its commutant is solved inside End_[G,G](V)
    calls, _, _ = traced(lambda: envelope_report(sl2_group(11)))
    assert calls["fieldcore.intertwiners"] == 1
    calls, _, _ = traced(lambda: envelope_report(sym2_so3_group(7)))
    assert calls["fieldcore.intertwiners"] == 1


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


def test_mackey_session_builds_no_double_coset(monkeypatch):
    # S4 over F_13, as bench/workloads.py runs it: every verdict is read
    # off the residue of the stored characters fused into G's classes, so
    # no datum labels its cosets or double cosets (least_labels) and no
    # Reynolds product is formed (22 labellings, 11 double-coset lists
    # and 37 Reynolds products when each verdict built the double cosets)
    mk = envlab.mackey
    calls = dict.fromkeys(("_reynolds_sum", "double_coset_reps", "least_labels"), 0)
    for name in calls:
        def counted(*args, name=name, original=getattr(mk, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(mk, name, counted)
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert calls == dict.fromkeys(calls, 0)


def test_mackey_session_clifford_reads_only_the_trace_column(monkeypatch):
    # S4 over F_13, as bench/workloads.py runs it: every Clifford shape, of
    # a line and over N = G too, is read off the trace column of N's and
    # G's stores, so no clifford_decompose restricts V, walks it, builds a
    # store or decomposes (140 restrictions and 102 walks per seed-7
    # mackey pass when a line or N = G took Res_N V and dim V >= ell the
    # ranks)
    mk = envlab.mackey
    names = ("restrict", "module_value", "composition_factors", "_stored_irreducibles")
    calls, inside, shapes = dict.fromkeys(names, 0), [], []
    for name in names:
        def counted(*args, name=name, original=getattr(mk, name), **kwargs):
            calls[name] += bool(inside)
            return original(*args, **kwargs)
        monkeypatch.setattr(mk, name, counted)
    decompose = mk.clifford_decompose

    def clifford(G, n_gens, V, **kwargs):
        inside.append(1)
        try:
            shape = decompose(G, n_gens, V, **kwargs)
        finally:
            inside.pop()
        shapes.append((len(n_gens) == len(G.gens) and mk._subgroup(G, n_gens) is G, V.dim))
        return shape

    monkeypatch.setattr(mk, "clifford_decompose", clifford)
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert calls == dict.fromkeys(names, 0)
    assert (True, 3) in shapes and (False, 1) in shapes and len(shapes) == 4 * 5


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
    # one per line of a centre, once each block W^d with d >= 2 was cut
    # down to W by the right action of a generator, with no search; 0, now
    # that every module of a store, a line too, takes its dimension
    # certificate with no call to the MeatAxe
    fc = envlab.fieldcore
    searches, search = [], fc._meataxe_search
    monkeypatch.setattr(fc, "_meataxe_search",
                        lambda *a: searches.append(1) or search(*a))
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert len(searches) == 0


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


def counted_calls(monkeypatch, owner, names):
    """A dict that counts the calls of each named function of owner from
    here on, each call passed through to the original."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, original=getattr(owner, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_mackey_session_builds_each_regular_representation_once(monkeypatch):
    # S4 over F_13, as bench/workloads.py runs it: irreducible_modules is
    # called for each of the 11 classes and for G, and builds a store only
    # for the 9 keys that G's store, shared by all of them, does not hold
    # yet; the key is read from the permutations each group keeps.  F_13
    # splits the 5 abelian keys (1, C2, C3, C4, V4), which take the line
    # route, so only the 4 others (S3, D8, A4, S4) take the centre route
    mk = envlab.mackey
    calls = counted_calls(monkeypatch, mk, ("irreducible_modules", "_centre_store",
                                            "_line_store"))
    ambient, subgroups = [], mk.all_subgroups
    monkeypatch.setattr(mk, "all_subgroups", lambda G, *a: ambient.append(G) or subgroups(G, *a))
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert calls == {"irreducible_modules": 12, "_centre_store": 4, "_line_store": 5}
    G, = ambient
    assert len(G._irreducibles) == 9


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
    # session builds the store of each of the 9 distinct regular
    # representations of its 11 classes once, the 4 non-abelian ones by
    # splitting the centre (9 splits before the line route) and the 5
    # abelian ones from their lines
    G = symmetric_group(4, 13)
    subs = all_subgroups(G)
    for order in (2, 4):
        pair = [H for H in subs if H.order == order and len(H.generators) == order // 2]
        assert len(pair) == 2
        first, second = (irreducible_modules(H, G.field) for H in pair)
        assert len(first) == order and all(a is b for a, b in zip(first, second))

    calls = counted_calls(monkeypatch, envlab.mackey, ("_central_blocks", "_line_store"))
    _load("workloads").mackey_session(symmetric_group(4, 13).to_json())
    assert calls == {"_central_blocks": 4, "_line_store": 5}


# SHA-256 of the shape and bytes of (_elements, _parent, _gen, _right) of
# the closure of every envelope bench group, computed before the dense
# numbering of FinMatGroup.closure existed: both numberings must build the
# same closure, byte for byte
CLOSURE_DIGESTS = {
    7: {
        "<diag(w,w^3)>(F11)":
            "746e92e4b2f4fdfd8374e6e260ff04dd6180411e4f8e0b1b97983798b35538a1",
        "SL2(F11)":
            "2ae24b3f5d0a30e609a8793223995689ebb909a013726fce4ae17020dd60d697",
        "SL2(F11)^2":
            "2a2509f78049ebdb167d83b1b1e59afea56078b789744a66ef2e63ff7180d5a6",
        "SL2(F13)":
            "d6ac2879c99eb70a3ad454f631c0e7429fbe594fd95968ba4252cc3d055185a4",
        "SL2(F17)":
            "41bf41ea605030eab83038582e0329d79da8498468882acf007f0742ad8efac3",
        "SL2(F19)":
            "9281c04b2fec77c6793bdc65a616b7b690deb06bedb3367bffe1d240d1ae730a",
        "SL2(F23)":
            "9b3aa69d62125c8116bc191125361fa64942d55dabebce70b4c31b8e1af430ba",
        "SL3(F3)":
            "54254e9b1d9b49fce7f750218aca25bd46b253df626a883b42302ac5e03dd35d",
        "SO3(F11)":
            "a458cf653423bd9bea665d8c2cc444ea929fc46325f2163110dbc82dc261af2a",
        "SO3(F13)":
            "2248aedcb4df2ed054812b57b6a682a4cf63e384029377122e856451039ed2c7",
        "SO3(F7)":
            "ce6b1a75de19e3e374626c6e218fd3b5dd847a0da4bf00a53686b960b2cf7f42",
        "T(F11)":
            "99d81fca70e46534f1e82f9bd84661d6483a3399b51bbab334f8986a027dce6f",
    },
    11: {
        "<diag(w,w^3)>(F11)":
            "2f4395a8c5838a084532b1dac819a99185f6cb25233cbce7ce010e9346d712a9",
        "SL2(F11)":
            "1e278ae52173bc8922df05a24ac8eef3299b8601376b680e9fbb4b2f1513f0cd",
        "SL2(F11)^2":
            "d2351e1e08d4de4bad2bacf67cf534533f598323e83bda8fc0b6be8086c692dd",
        "SL2(F13)":
            "af33b538bc015611f6ded4ba494c5b929cb00e5a11426eac179aafee60c7e203",
        "SL2(F17)":
            "fd987bc766aaaea4b59ddcd8d83460648a82ceae9fe991ea3c92f693988d8c0b",
        "SL2(F19)":
            "9c1c1b13f7f7cc999df1850870ca1314258b72191dce96d48c74f9cd3f18e8f1",
        "SL2(F23)":
            "a75657787b7076840d0e7e8762e158d4252a443b0d764fefa1304f76ae2c52ad",
        "SL3(F3)":
            "909971ae99fc270b5187f1490eb688f5c539779c2da194476857c4e24e336640",
        "SO3(F11)":
            "44d4c4646276f5717680c4574176b15e69386c602ec4416b461c286cb1e1b13b",
        "SO3(F13)":
            "8f410313b3217db02a30086fb9acfa687f4197575aa35584b448b4d95297b953",
        "SO3(F7)":
            "771bf1664b858ee22b84464d65c78cb0957b81f2f3d875d031288884d06dfe99",
        "T(F11)":
            "13f5639b5a02a68d172d4301b1f4c22420662fd03f972d470860a2115f60446d",
    },
}

# the same for the extfield groups over GF(ell^d), d > 1, computed before
# GF's sums went digit by digit: the Zech and the digit sums must build
# the same closure, byte for byte
EXTFIELD_CLOSURE_DIGESTS = {
    7: {
        "SL2(GF16)":
            "49909ef4227f08f0f22a0fc9316e8a5ff929c12fdb5ff1dae912f0e8efe8b989",
        "SL2(GF25)":
            "6d4b50d992e8ce345d66a2ce6c881f65553074ca4d47f2d3b8faecffbb7ed580",
        "SL2(GF8)":
            "7292099168e13cb08075ec71fd563af578fb3ce42b219f7aee69569d1253a528",
        "SL2(GF9)":
            "3f5a438f3698089621c800a8123f6931a5e56ad78b66c0f3c290e4b27bbb365d",
        "SL2(GF9)^2":
            "0540a585bdf9420b3c4ae8c460bf42ef59815612bc15fe25615546a61ff25e1b",
    },
    11: {
        "SL2(GF16)":
            "229afc00ae4f76acd64fad13c16bf56b8cf3f63d82c99cec09c2b2f1e4537809",
        "SL2(GF25)":
            "9df7ec6b47bd4d8e9e338e7b61a0d92f45c6889e4dea0543a9783c037b0882f2",
        "SL2(GF8)":
            "b614b0833dd47b8fabacdd62cec1853e5e866b91a2db105e88406f906939323e",
        "SL2(GF9)":
            "01c55b95fca10093ae87698fa791c2446302b0610b2a1f74407abb424b14d2f6",
        "SL2(GF9)^2":
            "0c1f2d9b7bd37b8670ffda401328ce942ddee7b007e90be266e65f21afdd5c27",
    },
}


@pytest.mark.parametrize("workload,seed", [
    pytest.param("envelope", 7, id="7"), pytest.param("envelope", 11, id="11"),
    pytest.param("extfield", 7, id="extfield-7"), pytest.param("extfield", 11, id="extfield-11")])
def test_envelope_closures_keep_their_bytes(workload, seed, tmp_path):
    jobs = _load("workloads").build_jobs(workload, seed, str(tmp_path))
    got = {}
    for i, job in enumerate(jobs):
        G = FinMatGroup.from_json((tmp_path / f"{workload}-{i}.json").read_text())
        G.closure()
        digest = hashlib.sha256()
        for a in (G._elements, G._parent, G._gen, G._right):
            digest.update(repr(a.shape).encode() + a.tobytes())
        got[job.name] = digest.hexdigest()
    want = {"envelope": CLOSURE_DIGESTS, "extfield": EXTFIELD_CLOSURE_DIGESTS}[workload]
    assert got == want[seed]
