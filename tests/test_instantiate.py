import pytest

from bipolaraba import (CapExceeded, NotAnAssumption, aba_closure,
                        arguments_for, assumptions_of, baf_extensions,
                        describe_arguments, instantiate_baf, instantiate_pbaf,
                        is_assumption_exhaustive, pbaf_extensions)
from bipolaraba.harness import GenParams, random_aba
from conftest import build_ex22, build_ex44


def label_map_ex22(inst):
    ids = {lbl: inst.argument_id(sup, concl) for lbl, sup, concl in [
        ("a", {"a"}, "a"), ("b", {"b"}, "b"),
        ("c", {"c"}, "c"), ("d", {"d"}, "d"),
        ("A1", {"a"}, "nb"), ("A2", {"b"}, "na"), ("A3", {"b"}, "nd"),
        ("A4", {"c"}, "nb"), ("A5", {"c"}, "d")]}
    return ids, {v: k for k, v in ids.items()}


def label_map_ex44(inst):
    ids = {lbl: inst.argument_id(sup, concl) for lbl, sup, concl in [
        ("a", {"a"}, "a"), ("b", {"b"}, "b"), ("c", {"c"}, "c"),
        ("A1", {"a"}, "p"), ("A2", {"b"}, "q"), ("A3", {"a", "b"}, "c"),
        ("A4", {"c"}, "nc"), ("A5", {"a", "b"}, "nc")]}
    return ids, {v: k for k, v in ids.items()}


def edges(rev, pairs):
    return sorted((rev[x], rev[y]) for x, y in pairs)


def labelled(rev, ext):
    return sorted(rev[i] for i in ext)


def test_graph_of_ex22():
    inst = instantiate_baf(build_ex22())
    assert len(inst.arguments) == 9
    ids, rev = label_map_ex22(inst)
    # assumption bases come first, in assumption order
    assert [ids["a"], ids["b"], ids["c"], ids["d"]] == [0, 1, 2, 3]
    assert edges(rev, inst.baf.att) == sorted([
        ("A1", "A2"), ("A1", "A3"), ("A1", "b"),
        ("A2", "A1"), ("A2", "a"), ("A3", "d"),
        ("A4", "A2"), ("A4", "A3"), ("A4", "b")])
    assert edges(rev, inst.baf.sup) == sorted([
        ("A1", "a"), ("A2", "b"), ("A3", "b"), ("A4", "c"), ("A4", "d"),
        ("A5", "c"), ("A5", "d"), ("c", "d")])
    assert inst.baf.names[ids["A1"]] == "({a},nb)"
    assert inst.baf.names[ids["A5"]] == "({c},d)"


def test_extensions_of_ex22_graph():
    inst = instantiate_baf(build_ex22())
    ids, rev = label_map_ex22(inst)
    assert frozenset({ids["A2"], ids["A3"], ids["b"]}) in \
        baf_extensions(inst.baf, "ad")
    co = baf_extensions(inst.baf, "co")
    assert [labelled(rev, e) for e in co] == [["A1", "A4", "A5", "a", "c", "d"]]
    assert baf_extensions(inst.baf, "stb") == co
    for ext in co:
        assert is_assumption_exhaustive(inst, ext)


def test_graph_of_ex44():
    inst = instantiate_baf(build_ex44())
    assert len(inst.arguments) == 8
    ids, rev = label_map_ex44(inst)
    assert edges(rev, inst.baf.att) == sorted([
        ("A4", "A4"), ("A4", "c"), ("A5", "A4"), ("A5", "c")])
    assert edges(rev, inst.baf.sup) == sorted([
        ("A1", "a"), ("A2", "b"), ("A3", "a"), ("A3", "b"), ("A3", "c"),
        ("A4", "c"), ("A5", "a"), ("A5", "b"), ("A5", "c")])


def test_joint_support_escapes_plain_admissibility():
    # {a, b, A1, A2} defends itself on the graph even though its
    # assumptions rebuild A3 and A5; premise labels close that gap
    inst = instantiate_pbaf(build_ex44())
    ids, rev = label_map_ex44(inst)
    witness = frozenset({ids["a"], ids["b"], ids["A1"], ids["A2"]})
    assert witness in baf_extensions(inst.baf, "ad")
    assert not is_assumption_exhaustive(inst, witness)
    assert witness not in pbaf_extensions(inst.pbaf, "ad")
    ad = pbaf_extensions(inst.pbaf, "ad")
    assert sorted(labelled(rev, e) for e in ad) == \
        [[], ["A1", "a"], ["A2", "b"]]
    assert pbaf_extensions(inst.pbaf, "co") == []
    assert pbaf_extensions(inst.pbaf, "gr") == [frozenset()]


def test_premise_labels_are_atom_ids():
    frame = build_ex44()
    inst = instantiate_pbaf(frame)
    ids, _ = label_map_ex44(inst)
    # atoms a, b, c sit at positions 1, 2, 3 of the atom list
    assert inst.pbaf.premises[ids["A3"]] == frozenset({1, 2})
    assert inst.pbaf.premises[ids["A4"]] == frozenset({3})
    assert inst.pbaf.premise_bound == len(frame.atoms) + 1


def test_arguments_for_and_assumptions_of():
    inst = instantiate_baf(build_ex22())
    ids, rev = label_map_ex22(inst)
    assert labelled(rev, arguments_for(inst, {"b"})) == ["A2", "A3", "b"]
    assert labelled(rev, arguments_for(inst, set())) == []
    assert assumptions_of(inst, [ids["A4"], ids["a"]]) == frozenset({"a", "c"})
    with pytest.raises(NotAnAssumption):
        arguments_for(inst, {"na"})


def test_argument_id_unknown_key():
    inst = instantiate_baf(build_ex22())
    with pytest.raises(KeyError):
        inst.argument_id(frozenset({"a"}), "nd")


def test_describe_arguments():
    inst = instantiate_baf(build_ex22())
    lines = describe_arguments(inst)
    assert lines[0] == "arg 0 concludes a from a"
    ids, _ = label_map_ex22(inst)
    assert lines[ids["A1"]] == f"arg {ids['A1']} concludes nb from a"


def test_describe_empty_support():
    from conftest import build_motivating
    inst = instantiate_baf(build_motivating())
    i = inst.argument_id(frozenset(), "s")
    assert describe_arguments(inst)[i] == f"arg {i} concludes s from -"


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        instantiate_baf(build_ex22(), cap=3)


def test_no_reflexive_supports():
    for build in (build_ex22, build_ex44):
        inst = instantiate_baf(build())
        assert all(x != y for x, y in inst.baf.sup)


def test_instantiation_is_deterministic():
    a = instantiate_pbaf(build_ex22())
    b = instantiate_pbaf(build_ex22())
    assert a.arguments == b.arguments
    assert a.baf == b.baf
    assert a.pbaf == b.pbaf


@pytest.mark.parametrize("seed", range(20))
def test_attacks_follow_the_definition_in_pair_order(seed):
    # x attacks y iff x concludes the contrary of an assumption in y's
    # support; `translate` writes the edges in (x, y) order
    frame = random_aba(GenParams(seed=seed))
    inst = instantiate_baf(frame)
    args = inst.arguments
    assert inst.baf.att == [
        (x, y) for x, ax in enumerate(args) for y, ay in enumerate(args)
        if any(frame.contrary[a] == ax.conclusion for a in ay.support)]


@pytest.mark.parametrize("seed", range(20))
def test_supports_follow_the_definition_in_pair_order(seed):
    # x supports y iff y is the base argument ({a}, a) of an assumption a
    # that x's support derives, x itself excepted
    frame = random_aba(GenParams(seed=seed))
    inst = instantiate_baf(frame)
    args = inst.arguments
    assert inst.baf.sup == [
        (x, y) for x, ax in enumerate(args) for y, ay in enumerate(args)
        if x != y and ay.support == {ay.conclusion}
        and ay.conclusion in aba_closure(frame, ax.support)]
