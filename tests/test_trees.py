import re

import numpy as np
import pytest

from abelianbp import (
    EigenList,
    GroupSpec,
    HomSpec,
    ValidationError,
    avg_holevo,
    avg_pgm_error,
    check_combine,
    equality_combine,
    merge_duplicates,
    perfect_list,
    pure,
    useless_list,
)
from abelianbp.errors import NumericalError
from abelianbp.factors import (_automorphism, _check, _check_inverse, _equality, _hom, _lift,
                               _marginalize, _product_apply)
from abelianbp.groups import (identity_hom, invert_automorphism, inversion_automorphism,
                              projection_hom)
from abelianbp.messages import GUARD_PRUNE, HeraldedMessage
from abelianbp.trees import (
    FactorGraphSpec,
    FactorNode,
    leaf,
    root_metrics,
    run_mp,
    validate_tree,
)
from population_tracker import PopulationTracker

Z3 = GroupSpec((3,))
Z32 = GroupSpec((3, 2))
LAM1 = EigenList(Z32, [2, 1, 0, 2, 1, 0])
LAM2 = EigenList(Z32, [2, 0, 1, 1, 0, 2])


def chain_graph(messages, kind="equality", group=Z32):
    """Leaves -> variables -> one combining factor -> root."""
    variables = {"root": group}
    factors = {}
    edge_list = []
    for i, lam in enumerate(messages):
        vid = f"v{i}"
        variables[vid] = group
        factors[f"leaf{i}"] = leaf(vid, lam)
        edge_list.append(vid)
    factors["combine"] = FactorNode(kind, tuple(edge_list) + ("root",))
    return FactorGraphSpec(variables, factors, "root")


def test_validate_single_leaf():
    spec = FactorGraphSpec({"v": Z32}, {"l": leaf("v", LAM1)}, "v")
    validate_tree(spec)
    out = run_mp(spec)
    assert np.allclose(out.lams[0], LAM1.values)


def test_validate_rejects_cycle():
    with pytest.raises(ValidationError, match="tree"):
        FactorGraphSpec(
            {"a": Z32, "b": Z32},
            {
                "f1": FactorNode("equality", ("a", "b")),
                "f2": FactorNode("equality", ("a", "b")),
            },
            "a",
        )


def test_validate_rejects_alphabet_mismatch():
    with pytest.raises(ValidationError, match="alphabet"):
        FactorGraphSpec(
            {"a": Z3, "b": Z32},
            {"f": FactorNode("equality", ("a", "b"))},
            "a",
        )


def test_validate_rejects_disconnected():
    with pytest.raises(ValidationError, match="tree|disconnect"):
        FactorGraphSpec(
            {"a": Z32, "b": Z32},
            {"l": leaf("a", LAM1), "l2": leaf("b", LAM2)},
            "a",
        )


def test_equality_graph_reproduces_rule():
    out = run_mp(chain_graph([LAM1, LAM2]))
    assert len(out) == 1
    assert np.max(np.abs(out.lams[0] - equality_combine(LAM1, LAM2).values)) < 1e-12


def test_check_graph_reproduces_ensemble():
    out = run_mp(chain_graph([LAM1, LAM2], kind="check"))
    base = merge_duplicates(check_combine(LAM1, LAM2))
    assert len(out) == len(base)
    for p1, p2, l1, l2 in zip(out.probs, base.probs, out.lams, base.lams):
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert np.max(np.abs(l1 - l2)) < 1e-12


def test_depth_two_composition():
    lam_a, lam_b, lam_c = LAM1, LAM2, EigenList(Z32, [3, 1, 0, 1, 1, 0])
    variables = {"va": Z32, "vb": Z32, "vmid": Z32, "vc": Z32, "root": Z32}
    factors = {
        "la": leaf("va", lam_a),
        "lb": leaf("vb", lam_b),
        "lc": leaf("vc", lam_c),
        "eq": FactorNode("equality", ("va", "vb", "vmid")),
        "chk": FactorNode("check", ("vmid", "vc", "root")),
    }
    out = run_mp(FactorGraphSpec(variables, factors, "root"))
    manual = _product_apply([pure(equality_combine(lam_a, lam_b)), pure(lam_c)], _check(Z32))
    assert len(out) == len(manual)
    for p1, p2, l1, l2 in zip(out.probs, manual.probs, out.lams, manual.lams):
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert np.max(np.abs(l1 - l2)) < 1e-12


def test_root_metrics_extremes():
    perfect = chain_graph([perfect_list(Z32), perfect_list(Z32)])
    m = root_metrics(perfect)
    assert m["avg_pgm_error"] == pytest.approx(0.0, abs=1e-12)
    useless = chain_graph([useless_list(Z32), useless_list(Z32)], kind="check")
    m2 = root_metrics(useless)
    assert m2["avg_pgm_error"] == pytest.approx(1 - 1 / 6, abs=1e-12)


def test_message_toward_check_input():
    # constraint root = g1 * g2 observed through h and g2
    variables = {"g1": Z32, "g2": Z32, "h": Z32}
    factors = {
        "lh": leaf("h", LAM1),
        "lg2": leaf("g2", LAM2),
        "chk": FactorNode("check", ("g1", "g2", "h")),
    }
    out = run_mp(FactorGraphSpec(variables, factors, "g1"))
    from abelianbp import apply_automorphism, inversion_automorphism
    manual = check_combine(LAM1, apply_automorphism(LAM2, inversion_automorphism(Z32)))
    manual = merge_duplicates(manual)
    assert len(out) == len(manual)
    for p1, p2, l1, l2 in zip(out.probs, manual.probs, out.lams, manual.lams):
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert np.max(np.abs(l1 - l2)) < 1e-12


def test_hom_marginalize_automorphism_edges():
    from abelianbp import inversion_automorphism, projection_hom
    variables = {"big": Z32, "small": Z3, "out": Z3}
    factors = {
        "lbig": leaf("big", LAM1),
        "hom": FactorNode("hom", ("big", "small"), hom=projection_hom(Z32, (0,))),
        "aut": FactorNode("automorphism", ("small", "out"),
                          hom=inversion_automorphism(Z3)),
    }
    spec = FactorGraphSpec(variables, factors, "out")
    out = run_mp(spec)
    assert out.group.moduli == (3,)
    assert sum(out.probs.tolist()) == pytest.approx(1.0)

    variables2 = {"big": Z32, "kept": Z3}
    factors2 = {
        "lbig": leaf("big", LAM1),
        "marg": FactorNode("marginalize", ("big", "kept"), keep=1),
    }
    out2 = run_mp(FactorGraphSpec(variables2, factors2, "kept"))
    from abelianbp import marginalize_split
    manual = merge_duplicates(marginalize_split(LAM1, 1))
    assert len(out2) == len(manual)
    for p1, p2, l1, l2 in zip(out2.probs, manual.probs, out2.lams, manual.lams):
        assert p1 == pytest.approx(p2, abs=1e-12)
        assert np.max(np.abs(l1 - l2)) < 1e-12


def test_schedule_permutation_invariance():
    rng = np.random.default_rng(0)
    lams = []
    for _ in range(3):
        v = rng.gamma(1.0, size=6)
        lams.append(EigenList(Z32, v * 6 / v.sum()))
    base = root_metrics(chain_graph(lams, kind="check"))
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        permuted = root_metrics(chain_graph([lams[i] for i in perm], kind="check"))
        assert permuted["avg_holevo"] == pytest.approx(base["avg_holevo"], abs=1e-10)
        assert permuted["avg_pgm_error"] == pytest.approx(base["avg_pgm_error"], abs=1e-10)


def test_sampled_mode_converges_to_exact():
    lams = [LAM1, LAM2, EigenList(Z32, [3, 1, 0, 1, 1, 0])]
    spec = chain_graph(lams, kind="check")
    exact = root_metrics(spec)
    n = 3000
    vals = np.empty(n)
    for i in range(n):
        msg = run_mp(spec, mode="sampled", seed=i)
        assert len(msg) == 1
        vals[i] = avg_pgm_error(msg)
    mc_err = vals.std() / np.sqrt(n)
    assert abs(vals.mean() - exact["avg_pgm_error"]) < 3 * max(mc_err, 1e-6)


def test_sampled_mode_deterministic():
    spec = chain_graph([LAM1, LAM2], kind="check")
    a = run_mp(spec, mode="sampled", seed=99)
    b = run_mp(spec, mode="sampled", seed=99)
    assert a.labels[0] == b.labels[0]
    assert np.array_equal(a.lams[0], b.lams[0])


def test_branch_cap_guard(monkeypatch):
    monkeypatch.setattr("abelianbp.messages.BRANCH_CAP", 10)
    rng = np.random.default_rng(1)
    lams = []
    for _ in range(4):
        v = rng.gamma(1.0, size=6)
        lams.append(EigenList(Z32, v * 6 / v.sum()))
    spec = chain_graph(lams, kind="check")
    with pytest.warns(RuntimeWarning, match="exceeds cap 10") as record:
        out = run_mp(spec)
    for w in record:
        count, mass = re.search(r"branch count (\d+) .* mass (\S+)$", str(w.message)).groups()
        assert 0 <= float(mass) <= int(count) * GUARD_PRUNE
    assert sum(out.probs.tolist()) == pytest.approx(1.0, abs=1e-9)


def test_group_code_tree_composition():
    # twisted parity checks over Z4 compose from automorphism + check factors
    from abelianbp import HomSpec, apply_automorphism
    Z4 = GroupSpec((4,))
    rng = np.random.default_rng(8)
    obs = []
    for _ in range(4):
        v = rng.gamma(2.0, size=4)
        obs.append(EigenList(Z4, v * 4 / v.sum()))
    unit3 = HomSpec(Z4, Z4, ((3,),))
    spec = FactorGraphSpec(
        variables={**{f"x{i}": Z4 for i in range(1, 5)},
                   "x2t": Z4, "p1": Z4, "p2": Z4, "root": Z4},
        factors={
            **{f"obs{i}": leaf(f"x{i}", obs[i - 1]) for i in range(1, 5)},
            "twist": FactorNode("automorphism", ("x2", "x2t"), hom=unit3),
            "chk1": FactorNode("check", ("x1", "x2t", "p1")),
            "chk2": FactorNode("check", ("x3", "x4", "p2")),
            "top": FactorNode("check", ("p1", "p2", "root")),
        },
        root="root",
    )
    got = run_mp(spec)
    m_p1 = _product_apply([pure(obs[0]), pure(apply_automorphism(obs[1], unit3))], _check(Z4))
    m_p2 = _product_apply([pure(obs[2]), pure(obs[3])], _check(Z4))
    want = _product_apply([m_p1, m_p2], _check(Z4))
    assert avg_holevo(got) == pytest.approx(avg_holevo(want), abs=1e-10)
    assert avg_pgm_error(got) == pytest.approx(avg_pgm_error(want), abs=1e-10)
    key = lambda m: sorted((round(p, 10), tuple(np.round(row, 9)))
                           for p, row in zip(m.probs.tolist(), m.lams))
    assert key(got) == key(want)


def test_intermediate_messages_stay_valid():
    # closure: every run returns a valid heralded message (validated on build)
    lams = [LAM1, LAM2]
    for kind in ("equality", "check"):
        out = run_mp(chain_graph(lams, kind=kind))
        assert sum(out.probs.tolist()) == pytest.approx(1.0, abs=1e-9)
        for row in out.lams:
            assert row.sum() == pytest.approx(6.0, rel=1e-6)


def every_kind_graph():
    """Check, marginalize, hom and automorphism factors in both directions and
    an equality factor, with a two-branch mixture leaf; rooted at r."""
    from abelianbp import HomSpec

    rng = np.random.default_rng(21)

    def lam(G):
        v = rng.gamma(1.0, size=G.order)
        return EigenList(G, v * G.order / v.sum())

    mix = HeraldedMessage.of(Z32, [0.3, 0.7], [lam(Z32).values, lam(Z32).values],
                             [("la:0",), ("la:1",)])
    negate = HomSpec(Z32, Z32, ((2, 0), (0, 1)))     # g -> -g on the Z3 block
    return FactorGraphSpec(
        {"r": Z3, "m": Z3, "s": Z3, "p": Z32, "a": Z32, "b": Z32, "d": Z32, "u": Z32,
         "x": Z32, "s2": Z3, "y": Z3, "w": Z32, "c": Z32},
        {"top": FactorNode("check", ("r", "m", "s")),           # toward an input
         "marg1": FactorNode("marginalize", ("p", "m"), keep=1),
         "chk": FactorNode("check", ("a", "b", "p")),           # toward the output
         "la": leaf("a", mix),
         "aut2": FactorNode("automorphism", ("a", "d"), hom=negate),
         "ld": leaf("d", lam(Z32)),
         "eq": FactorNode("equality", ("b", "u", "x")),
         "marg2": FactorNode("marginalize", ("u", "s2"), keep=1),
         "ls2": leaf("s2", lam(Z3)),
         "h2": FactorNode("hom", ("x", "y"), hom=HomSpec(Z32, Z3, ((2, 0),))),
         "ly": leaf("y", lam(Z3)),
         "h1": FactorNode("hom", ("w", "s"), hom=HomSpec(Z32, Z3, ((1, 0),))),
         "aut": FactorNode("automorphism", ("c", "w"), hom=negate),
         "lc": leaf("c", lam(Z32)),
         "lr": leaf("r", lam(Z3))},
        "r")


def test_population_matches_exact_on_every_factor_kind():
    spec = every_kind_graph()
    exact = run_mp(spec)
    S = 20000
    msg = run_mp(spec, mode="sampled", seed=3, samples=S)
    assert len(msg) == S and np.all(msg.probs == 1.0 / S)
    mu = msg.lams / 3
    holevo = -(mu * np.log2(mu, out=np.zeros_like(mu), where=mu > 0)).sum(axis=1)
    pgm = 1.0 - (np.sqrt(msg.lams).sum(axis=1) / 3) ** 2
    for rows, target in ((holevo, avg_holevo(exact)), (pgm, avg_pgm_error(exact))):
        assert abs(rows.mean() - target) < 5 * rows.std() / np.sqrt(S)
    assert avg_holevo(msg) == pytest.approx(holevo.mean(), abs=1e-12)


def test_population_bytes_fixed(monkeypatch):
    import abelianbp.factors as factors

    spec = every_kind_graph()

    def run():
        msg = run_mp(spec, mode="sampled", seed=11, samples=40)
        return msg.lams.tobytes(), msg.labels

    first = run()
    assert run() == first
    for floats in (1, 100):
        monkeypatch.setattr(factors, "ROW_FLOATS", floats)
        assert run() == first


def test_population_rows_are_exact_branches():
    # each trajectory renders the labels of the exact branch it drew, and
    # carries that branch's list; one trajectory is one branch
    rng = np.random.default_rng(2)
    lams = [EigenList(Z32, v * 6 / v.sum()) for v in rng.gamma(1.0, size=(3, 6))]
    spec = chain_graph(lams, kind="check")
    exact_msg = run_mp(spec)
    exact = dict(zip(exact_msg.labels, exact_msg.lams))
    msg = run_mp(spec, mode="sampled", seed=4, samples=200)
    for labels, row in zip(msg.labels, msg.lams):
        assert np.allclose(row, exact[labels], atol=1e-9)
    one = run_mp(spec, mode="sampled", seed=4)
    assert len(one) == 1 and one.labels[0] in exact


def test_run_mp_rejects_bad_sample_counts():
    spec = chain_graph([LAM1, LAM2], kind="check")
    for mode in ("exact", "sampled"):
        for samples in (0, -1):
            with pytest.raises(ValidationError, match="samples"):
                run_mp(spec, mode=mode, seed=1, samples=samples)


def test_a_spec_is_validated_once_when_built_and_is_read_only(monkeypatch):
    """Building a spec validates it once, and runs validate it no more; a
    built spec cannot be changed (a second combining factor, a new root, a
    replaced leaf or alphabet)."""
    import dataclasses
    import operator

    import abelianbp.trees as trees

    calls = []
    monkeypatch.setattr(trees, "validate_tree", lambda spec: calls.append(spec) or
                        validate_tree(spec))
    spec = chain_graph([LAM1, LAM2], kind="check")
    assert calls == [spec]
    for seed in range(3):
        run_mp(spec, mode="sampled", seed=seed)
    run_mp(spec)
    assert calls == [spec]
    breaks = [
        lambda s: operator.setitem(s.factors, "again", FactorNode("equality", ("v0", "root"))),
        lambda s: setattr(s, "root", "nowhere"),
        lambda s: operator.setitem(s.factors, "leaf0", leaf("v0", EigenList(Z3, [1, 1, 1]))),
        lambda s: operator.setitem(s.variables, "v1", Z3),
    ]
    for brk in breaks:
        with pytest.raises((TypeError, dataclasses.FrozenInstanceError)):
            brk(spec)
    assert calls == [spec] and spec.root == "root" and spec.variables["v1"] == Z32
    assert spec.factors["leaf0"].message.group == Z32 and "again" not in spec.factors


class _Engine:
    """The root-directed recursion that `run_mp` compiled away, kept as the
    reference: `apply` (a `PopulationTracker`) decides how each rule runs, and
    sampled steps draw their uniforms when they run."""

    def __init__(self, spec, apply, prune_eps):
        self.spec, self.apply, self.prune_eps = spec, apply, prune_eps
        self.incident = {v: [] for v in spec.variables}
        for fid, f in spec.factors.items():
            for v in f.edges:
                self.incident[v].append(fid)

    def _rule(self, rule, msgs):
        return self.apply.guard(self.apply.step(rule, msgs), self.prune_eps)

    def _fold(self, rule, msgs):
        acc = msgs[0]
        for m in msgs[1:]:
            acc = self._rule(rule, [acc, m])
        return acc

    def _push(self, rule, v, fid):
        return self._rule(rule, [self.variable_message(v, fid)])

    def variable_message(self, v, toward):
        G = self.spec.variables[v]
        msgs = [self.factor_message(fid, v) for fid in self.incident[v] if fid != toward]
        if not msgs:
            return self.apply.entry(pure(useless_list(G)))
        return self._fold(_equality(G), msgs)

    def factor_message(self, fid, toward):
        f, groups = self.spec.factors[fid], self.spec.variables
        if f.kind == "leaf":
            return self.apply.guard(self.apply.entry(merge_duplicates(f.message)), self.prune_eps)
        if f.kind == "equality":
            return self._fold(_equality(groups[toward]),
                              [self.variable_message(v, fid) for v in f.edges if v != toward])
        if f.kind == "check":
            inputs, out = f.edges[:-1], f.edges[-1]
            G = groups[out]
            if toward == out:
                msgs = [self.variable_message(v, fid) for v in inputs]
            else:
                inv = _automorphism(G, inversion_automorphism(G))
                msgs = [self.variable_message(out, fid)] + [
                    self.apply.step(inv, [self.variable_message(v, fid)])
                    for v in inputs if v != toward]
            return self._fold(_check(G), msgs)
        vin, vout = f.edges
        if f.kind == "hom":
            if toward == vout:
                return self._push(_hom(groups[vin], f.hom), vin, fid)
            return self._push(_lift(groups[vout], f.hom), vout, fid)
        if f.kind == "marginalize":
            if toward == vout:
                return self._push(_marginalize(groups[vin], f.keep), vin, fid)
            return self._push(_lift(groups[vout], projection_hom(groups[vin], range(f.keep))),
                              vout, fid)
        if toward == vout:
            return self._push(_automorphism(groups[vin], f.hom), vin, fid)
        return self._push(_automorphism(groups[vout], invert_automorphism(f.hom)), vout, fid)


def _recursion_mp(spec, mode="exact", seed=None, prune_eps=0.0, samples=1):
    validate_tree(spec)
    apply = PopulationTracker(mode, seed, prune_eps, samples)
    return _Engine(spec, apply, prune_eps).variable_message(spec.root, None)


def _unrolled(T, root_t):
    from abelianbp.de import channel_family
    from abelianbp.trellis import transfer_function_trellis, unroll_to_tree

    lam = channel_family(3, 2.3)
    return unroll_to_tree(transfer_function_trellis([1, 0, 1], [1, 1, 1], 3), [[lam]] * T,
                          root_t, symbol_obs_seq=[lam] * T)


def _mixture_chain():
    """A check chain whose middle leaf is a three-branch mixture."""
    rng = np.random.default_rng(5)
    lams = [EigenList(Z32, v * 6 / v.sum()) for v in rng.gamma(1.0, size=(5, 6))]
    mix = HeraldedMessage.of(Z32, (0.2, 0.5, 0.3), [lam.values for lam in lams[2:]],
                             [(f"mix:{i}",) for i in range(3)])
    return chain_graph([lams[0], mix, lams[1]], kind="check")


def _toward_check_input():
    return FactorGraphSpec({"g1": Z32, "g2": Z32, "h": Z32},
                           {"lh": leaf("h", LAM1), "lg2": leaf("g2", LAM2),
                            "chk": FactorNode("check", ("g1", "g2", "h"))}, "g1")


_SCHEDULE_CASES = {
    **{f"every-kind-S{S}": (every_kind_graph, "sampled", S) for S in (1, 40, 20000)},
    "every-kind-exact": (every_kind_graph, "exact", 1),
    **{f"mixture-chain-{m}": (_mixture_chain, m, 30) for m in ("exact", "sampled")},
    **{f"toward-check-input-{m}": (_toward_check_input, m, 25) for m in ("exact", "sampled")},
    "unrolled-T6-exact": (lambda: _unrolled(6, 3), "exact", 1),
    **{f"unrolled-T{T}-S{S}": (lambda T=T: _unrolled(T, T // 2), "sampled", S)
       for T in (6, 60) for S in (1, 50)},
}


@pytest.mark.parametrize("case", _SCHEDULE_CASES)
def test_schedule_matches_recursion_bytes(case):
    """The compiled schedule returns the recursion's root posterior: equal
    list and probability bytes and equal labels, with the same seed."""
    build, mode, samples = _SCHEDULE_CASES[case]
    spec = build()
    for seed in (0, 7):
        got = run_mp(spec, mode=mode, seed=seed, samples=samples)
        want = _recursion_mp(spec, mode=mode, seed=seed, samples=samples)
        assert got.group == want.group
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.lams.tobytes() == want.lams.tobytes()
        assert got.labels == want.labels


def test_deep_trees_need_no_recursion():
    """Trees deeper than Python's recursion limit run in both modes; the
    recursion fails on the same equality chain."""
    deep = run_mp(_unrolled(400, 0), mode="sampled", seed=1)
    assert len(deep) == 1 and deep.group == Z3
    n = 1500
    rng = np.random.default_rng(3)
    variables = {f"v{i}": Z3 for i in range(n)}
    factors = {f"eq{i}": FactorNode("equality", (f"v{i}", f"v{i + 1}")) for i in range(n - 1)}
    factors.update({f"l{i}": leaf(f"v{i}", EigenList(Z3, v * 3 / v.sum()))
                    for i, v in enumerate(rng.gamma(5.0, size=(n, 3)))})
    chain = FactorGraphSpec(variables, factors, f"v{n - 1}")
    got = run_mp(chain)
    assert len(got) == 1 and got.lams.sum() == pytest.approx(3.0)
    with pytest.raises(RecursionError):
        _recursion_mp(chain)


def nan_on_call(at):
    """A stand-in for `factors._equality` whose rules, all counted together,
    emit a NaN first row on call `at`."""
    calls = []

    def make(G):
        rule = _equality(G)

        def rows(*operands):
            out = rule.rows(*operands)
            calls.append(G)
            if len(calls) == at:
                out = out.copy()
                out[0] = np.nan
            return out
        return rule._replace(rows=rows)
    return make


@pytest.mark.parametrize("mode, floats", [("exact", None), ("sampled", None), ("sampled", 1)])
def test_nan_row_mid_schedule_is_a_numerical_error(monkeypatch, mode, floats):
    """A kernel that emits a NaN row in the middle of a run is a
    `NumericalError` in both modes, whenever the row check runs."""
    import abelianbp.trees as trees

    monkeypatch.setattr(trees, "_equality", nan_on_call(2))
    if floats is not None:
        monkeypatch.setattr(trees, "CACHE_FLOATS", floats)
    spec = chain_graph([LAM1, LAM2, EigenList(Z32, [3, 1, 0, 1, 1, 0]), LAM1])
    with pytest.raises(NumericalError):
        run_mp(spec, mode=mode, seed=1, samples=5)


def test_check_toward_an_input_runs_no_automorphism_step():
    """Read toward an input, a check folds `_check_inverse` over its output
    and its other inputs; the schedule holds no inversion step."""
    steps = [op for op, inputs in validate_tree(_toward_check_input()) if inputs]
    assert len(steps) == 1 and steps[0] is _check_inverse(Z32)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_check_toward_a_middle_input_matches_recursion_bytes(mode):
    """A degree-3 check read toward its middle input gives the recursion's
    bytes, which invert each other input in a step of its own."""
    rng = np.random.default_rng(9)
    lams = [EigenList(Z32, v * 6 / v.sum()) for v in rng.gamma(1.0, size=(3, 6))]
    spec = FactorGraphSpec({"g1": Z32, "g2": Z32, "g3": Z32, "h": Z32},
                           {"l1": leaf("g1", lams[0]), "l3": leaf("g3", lams[1]),
                            "lh": leaf("h", lams[2]),
                            "chk": FactorNode("check", ("g1", "g2", "g3", "h"))}, "g2")
    got = run_mp(spec, mode=mode, seed=3, samples=30)
    want = _recursion_mp(spec, mode=mode, seed=3, samples=30)
    assert got.probs.tobytes() == want.probs.tobytes()
    assert got.lams.tobytes() == want.lams.tobytes()
    assert got.labels == want.labels


def test_validate_rejects_a_cycle_with_tree_edge_count():
    """Two equality factors on (a, b) and an isolated c: four edges for five
    nodes, but the root's component has a cycle.  The walk from the root
    stops when it reaches a node twice."""
    with pytest.raises(ValidationError, match="not a tree"):
        FactorGraphSpec(
            {"a": Z32, "b": Z32, "c": Z32},
            {"f1": FactorNode("equality", ("a", "b")), "f2": FactorNode("equality", ("a", "b"))},
            "a",
        )


@pytest.mark.parametrize("node", [
    FactorNode("equality", ("v0", "v1"), message=pure(LAM1)),
    FactorNode("equality", ("v0", "v1"), keep=1),
    FactorNode("equality", ("v0", "v1"), hom=projection_hom(Z32, range(2))),
    FactorNode("check", ("v0", "v1"), hom=projection_hom(Z32, range(2))),
    FactorNode("marginalize", ("v0", "v1"), keep=2, hom=projection_hom(Z32, range(2))),
    FactorNode("automorphism", ("v0", "v1"), hom=projection_hom(Z32, range(2)), keep=2),
    FactorNode("leaf", ("v0",), message=pure(LAM1), keep=1),
], ids=["message-on-equality", "keep-on-equality", "hom-on-equality", "hom-on-check",
        "hom-on-marginalize", "keep-on-automorphism", "keep-on-leaf"])
def test_validate_tree_rejects_fields_a_factor_kind_does_not_take(node):
    """A message off a leaf, a hom off hom and automorphism factors and a
    split point off marginalize factors were ignored; each names its factor."""
    with pytest.raises(ValidationError, match="'odd'"):
        FactorGraphSpec({"v0": Z32, "v1": Z32},
                        {"l0": leaf("v0", LAM1), "l1": leaf("v1", LAM2), "odd": node}, "v0")


NOT_ONTO = HomSpec(Z32, Z32, ((1, 0), (0, 0)))        # a hom, neither onto nor invertible


@pytest.mark.parametrize("node, message", [
    (FactorNode("bogus", ("v0", "v1")), "unknown kind 'bogus'"),
    (FactorNode("equality", ("v0", "v0")), "repeats a variable"),
    (FactorNode("equality", ("v0", "nowhere")), "unknown variable 'nowhere'"),
    (FactorNode("leaf", ("v0", "v1"), message=pure(LAM1)), "needs exactly one edge and a message"),
    (FactorNode("leaf", ("v1",)), "needs exactly one edge and a message"),
    (FactorNode("equality", ("v1",)), "needs at least two edges"),
    (FactorNode("hom", ("v0", "v1")), "needs edges (in, out) and a hom"),
    (FactorNode("hom", ("v0", "w"), hom=projection_hom(Z32, [1])), "hom signature != edge"),
    (FactorNode("hom", ("v0", "v1"), hom=NOT_ONTO), "is not surjective"),
    (FactorNode("marginalize", ("v0", "w")), "needs edges (in, out) and keep"),
    (FactorNode("marginalize", ("v0", "v1"), keep=1), "kept block (3,) != output alphabet"),
    (FactorNode("marginalize", ("v0", "v1"), keep=5), "keep 5 not in 0..2"),
    (FactorNode("automorphism", ("v0",), hom=identity_hom(Z32)),
     "needs edges (in, out) and a map"),
    (FactorNode("automorphism", ("v0", "w"), hom=identity_hom(Z32)), "edge alphabets differ"),
    (FactorNode("automorphism", ("v0", "v1"), hom=identity_hom(GroupSpec((6,)))),
     "map is not an automorphism of the edge alphabet Z3xZ2"),
    (FactorNode("automorphism", ("v0", "v1"), hom=NOT_ONTO), "map is not an automorphism"),
], ids=["unknown-kind", "repeated-variable", "unknown-variable", "leaf-two-edges",
        "leaf-no-message", "equality-one-edge", "hom-no-hom", "hom-signature", "hom-not-onto",
        "marginalize-no-keep", "marginalize-kept-block", "marginalize-keep-past-rank",
        "automorphism-one-edge", "automorphism-alphabets", "automorphism-map-group",
        "automorphism-not-invertible"])
def test_validate_tree_rejects_a_malformed_factor(node, message):
    """Each rejection of a factor's kind, edges or parameters names the factor."""
    with pytest.raises(ValidationError) as info:
        FactorGraphSpec({"v0": Z32, "v1": Z32, "w": Z3}, {"l0": leaf("v0", LAM1), "odd": node},
                        "v0")
    assert "'odd'" in str(info.value) and message in str(info.value)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_a_variable_without_other_factors_sends_the_useless_list(mode):
    """v's only factor leads toward the root, so v sends the useless list and
    the root posterior is the leaf's list."""
    spec = FactorGraphSpec({"r": Z32, "v": Z32},
                           {"l": leaf("r", LAM1), "eq": FactorNode("equality", ("r", "v"))}, "r")
    useless = [op for op, inputs in validate_tree(spec)
               if not inputs and op.lams.tolist() == [useless_list(Z32).values.tolist()]]
    assert len(useless) == 1 and useless[0].lams.tolist() == [useless_list(Z32).values.tolist()]
    out = run_mp(spec, mode=mode, seed=1)
    assert np.allclose(out.lams, LAM1.values) and out.probs.tolist() == [1.0]


@pytest.mark.parametrize("build, message", [
    (lambda: FactorGraphSpec({"a": Z3}, {"l": leaf("a", LAM1)}, "a"),
     "leaf 'l': message group != variable alphabet"),
    (lambda: FactorGraphSpec({"a": Z32}, {"l": leaf("a", LAM1)}, "b"),
     "root variable 'b' is not declared"),
], ids=["leaf-off-alphabet", "undeclared-root"])
def test_graph_rejections(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert exc.type is ValidationError and str(exc.value) == message
