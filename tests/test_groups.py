"""Tests for finite isometry groups, their axioms, and frame averaging."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from spdm import (
    AnalyticScoreField,
    BridgeScoreField,
    FrameAveragedField,
    GaussianCoupling,
    GaussianMixture,
    InvalidParams,
    IsometryGroup,
    NonSquareGrid,
    ShapeMismatch,
    apply_elements,
    frame_average,
    make_c4_group,
    make_d4_group,
    make_flip_group,
    make_group,
    make_point_group_2d,
    symmetrize,
    verify_group_axioms,
    vp_schedule,
)
from spdm import groups as groups_module
from spdm.io import _load_schema
from spdm.sampling import default_canonicalizer

GRID = np.array([[1.0, 2.0], [3.0, 4.0]])


def equivariance_gap(field, group, x):
    worst = 0.0
    for k in group.elements:
        lhs = field(k.apply(x))
        rhs = k.apply(field(x))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def test_vertical_flip_action():
    g = make_flip_group("vertical", (2, 2))
    f = g.element_by_name("f")
    np.testing.assert_array_equal(f.apply(GRID), [[3.0, 4.0], [1.0, 2.0]])


def test_horizontal_flip_action():
    g = make_flip_group("horizontal", (2, 2))
    f = g.element_by_name("f")
    np.testing.assert_array_equal(f.apply(GRID), [[2.0, 1.0], [4.0, 3.0]])


def test_flip_is_involution():
    g = make_flip_group("vertical", (3, 5))
    f = g.element_by_name("f")
    assert g.compose(f, f).name == "e"


def test_rotation_action_counter_clockwise():
    g = make_c4_group((2, 2))
    r1 = g.element_by_name("r1")
    np.testing.assert_array_equal(r1.apply(GRID), [[3.0, 1.0], [4.0, 2.0]])


def test_rotation_order_four():
    g = make_c4_group((4, 4))
    r1 = g.element_by_name("r1")
    k = g.identity
    for _ in range(4):
        k = g.compose(r1, k)
    assert k.name == "e"
    assert g.compose(r1, g.element_by_name("r3")).name == "e"


def test_rotation_needs_square_grid():
    with pytest.raises(NonSquareGrid):
        make_c4_group((2, 3))
    with pytest.raises(NonSquareGrid):
        make_d4_group((4, 6))


def test_d4_has_eight_elements():
    g = make_d4_group((4, 4))
    assert len(g) == 8
    f = g.element_by_name("f")
    assert g.compose(f, f).name == "e"


def test_d4_contains_both_flip_generators():
    g = make_d4_group((3, 3))
    names = {el.name for el in g.elements}
    assert names == {"e", "r1", "r2", "r3", "f", "fr1", "fr2", "fr3"}


def test_point_rotation_matrix():
    g = make_point_group_2d(4)
    r1 = g.element_by_name("r1")
    np.testing.assert_array_equal(r1.matrix, [[0.0, -1.0], [1.0, 0.0]])


def test_point_group_determinants():
    g = make_point_group_2d(4, with_reflection=True)
    assert len(g) == 8
    for el in g.elements:
        assert abs(abs(np.linalg.det(el.matrix)) - 1.0) < 1e-12


def test_identity_apply_is_bit_exact():
    x = np.random.default_rng(0).standard_normal((4, 4))
    g = make_c4_group((4, 4))
    np.testing.assert_array_equal(g.identity.apply(x), x)


def test_apply_preserves_norm():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 8))
    for g in (make_flip_group("vertical", (8, 8)), make_d4_group((8, 8))):
        for el in g.elements:
            assert abs(np.linalg.norm(el.apply(x)) - np.linalg.norm(x)) < 1e-12
    p = rng.standard_normal((50, 2))
    g = make_point_group_2d(8, with_reflection=True)
    for el in g.elements:
        got = np.linalg.norm(el.apply(p), axis=-1)
        np.testing.assert_allclose(got, np.linalg.norm(p, axis=-1), atol=1e-12)


def test_apply_preserves_pairwise_distance():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((2, 30, 2))
    g = make_point_group_2d(6, with_reflection=True)
    for el in g.elements:
        d0 = np.linalg.norm(x - y, axis=-1)
        d1 = np.linalg.norm(el.apply(x) - el.apply(y), axis=-1)
        np.testing.assert_allclose(d1, d0, atol=1e-12)


def test_apply_channel_axis_matches_per_channel():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5, 3))
    g = make_d4_group((5, 5))
    for el in g.elements:
        stacked = el.apply(x)
        for c in range(3):
            np.testing.assert_array_equal(stacked[..., c], el.apply(x[..., c]))


def test_apply_batch_axis():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 4, 4))
    r1 = make_c4_group((4, 4)).element_by_name("r1")
    out = r1.apply(x)
    for i in range(7):
        np.testing.assert_array_equal(out[i], r1.apply(x[i]))


def test_apply_rejects_wrong_shape():
    g = make_c4_group((4, 4))
    with pytest.raises(ShapeMismatch):
        g.identity.apply(np.zeros((3, 5)))
    p = make_point_group_2d(4)
    with pytest.raises(ShapeMismatch):
        p.identity.apply(np.zeros((10, 3)))


def test_inverse_round_trip():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    g = make_d4_group((4, 4))
    for el in g.elements:
        back = g.inverse(el).apply(el.apply(x))
        np.testing.assert_array_equal(back, x)


def test_axioms_pass_for_builtin_groups():
    groups = [
        make_flip_group("vertical", (4, 4)),
        make_flip_group("horizontal", (4, 4)),
        make_c4_group((4, 4)),
        make_d4_group((4, 4)),
        make_point_group_2d(4),
        make_point_group_2d(4, with_reflection=True),
    ]
    for g in groups:
        report = verify_group_axioms(g, atol=1e-12)
        assert report.passed, report.messages
        assert report.max_orthogonality_error <= 1e-12


def test_corrupted_table_is_caught():
    g = make_c4_group((4, 4))
    table = g.compose_table.copy()
    table[1, 1] = 3  # true product of r1 with itself is r2 (id 2)
    bad = IsometryGroup(g.name, g.elements, table, g.inverse_table)
    report = verify_group_axioms(bad)
    assert not report.passed
    assert not report.closure

    # a grid perm that repeats a cell is not a bijection, so no isometry
    r1 = g.elements[1]
    perm = r1.perm.copy()
    perm[0] = perm[1]
    els = (g.elements[0], dataclasses.replace(r1, perm=perm)) + g.elements[2:]
    report = verify_group_axioms(IsometryGroup(g.name, els, g.compose_table,
                                               g.inverse_table))
    assert not report.orthogonality
    assert report.max_orthogonality_error == 1.0


def test_element_lookup():
    g = make_c4_group((4, 4))
    assert g.element_by_name("r2").gid == 2
    with pytest.raises(KeyError):
        g.element_by_name("nope")


def test_make_group_tags_round_trip():
    built = [make_flip_group("vertical", (3, 5)), make_flip_group("horizontal", (4, 2)),
             make_c4_group((5, 5)), make_d4_group((4, 4)), make_point_group_2d(4),
             make_point_group_2d(3, with_reflection=True)]
    tags = ["flip_v", "flip_h", "C4", "D4", "C4", "D3"]
    for g, tag in zip(built, tags):
        assert g.tag == tag
        again = make_group(g.tag, g.grid_shape)
        assert again.name == g.name and again.tag == g.tag
        np.testing.assert_array_equal(again.compose_table, g.compose_table)
        for a, b in zip(again.elements, g.elements):
            if g.grid_shape is None:
                np.testing.assert_array_equal(a.matrix, b.matrix)
            else:
                np.testing.assert_array_equal(a.perm, b.perm)
    assert make_group("C4", [4, 4]).grid_shape == (4, 4)
    assert make_group("D4").grid_shape is None
    assert make_group("flip_v", (3, 5)).state_shape == (3, 5)
    assert make_group("D3").state_shape == (2,)


def test_make_group_rejects_unknown_tags():
    for tag, shape in (("C8", (4, 4)), ("flip_v", None), ("flip", (4, 4)),
                       ("E4", None), ("C0", None), ("C4x", None), (None, None)):
        with pytest.raises(InvalidParams):
            make_group(tag, shape)
    with pytest.raises(NonSquareGrid):
        make_group("D4", (4, 5))


def test_schema_group_names_match_registry():
    # Every group the config schema admits builds on a grid and has a
    # canonicalizer; the rotation groups also build as point groups.
    names = _load_schema()["properties"]["group"]["properties"]["name"]["enum"]
    assert names == ["flip_v", "flip_h", "C4", "D4"]
    for name in names:
        g = make_group(name, (4, 4))
        assert g.tag == name and default_canonicalizer(g).group is g
    for name in ("C4", "D4"):
        g = make_group(name)
        assert g.grid_shape is None and default_canonicalizer(g).group is g


def test_flip_group_rejects_bad_axis():
    with pytest.raises(InvalidParams):
        make_flip_group("diagonal", (4, 4))
    with pytest.raises(InvalidParams):
        make_point_group_2d(0)


def test_frame_average_is_equivariant():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((6, 6))

    def base(x):
        # Position-dependent weights: not equivariant on its own.
        return np.tanh(x) * w + 0.3 * x**2

    g = make_d4_group((6, 6))
    assert equivariance_gap(base, g, rng.standard_normal((6, 6))) > 0.1
    avg = frame_average(base, g)
    for _ in range(20):
        x = rng.standard_normal((6, 6))
        assert equivariance_gap(avg, g, x) <= 1e-12


def test_frame_average_point_field():
    rng = np.random.default_rng(9)
    b = rng.standard_normal((2, 8))
    c = rng.standard_normal((8, 2))

    def base(x):
        return np.tanh(x @ b) @ c

    g = make_point_group_2d(4)
    avg = frame_average(base, g)
    x = rng.standard_normal((40, 2))
    assert equivariance_gap(avg, g, x) <= 1e-12


def test_frame_average_fixes_equivariant_field():
    # s(x) = -x commutes with every isometry, so averaging changes nothing.
    g = make_c4_group((4, 4))
    avg = frame_average(lambda x: -x, g)
    x = np.random.default_rng(10).standard_normal((4, 4))
    np.testing.assert_allclose(avg(x), -x, atol=1e-15)


def test_frame_average_trivial_group_is_identity_operation():
    g = make_point_group_2d(1)
    base = lambda x: np.sin(3.0 * x) + x
    avg = frame_average(base, g)
    x = np.random.default_rng(11).standard_normal((5, 2))
    np.testing.assert_array_equal(avg(x), base(x))


def test_frame_average_is_idempotent():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((4, 4))
    base = lambda x: x * w
    g = make_c4_group((4, 4))
    once = frame_average(base, g)
    twice = frame_average(once, g)
    x = rng.standard_normal((4, 4))
    np.testing.assert_allclose(twice(x), once(x), atol=1e-12)


def test_paired_average_conditional_equivariance():
    rng = np.random.default_rng(13)
    b = rng.standard_normal((4, 10))
    c = rng.standard_normal((10, 2))

    def base(x, y):
        return np.tanh(np.concatenate([x, y], axis=-1) @ b) @ c

    g = make_point_group_2d(4)
    avg = frame_average(base, g, conditional=True)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal((20, 2))
    for k in g.elements:
        lhs = avg(k.apply(x), k.apply(y))
        rhs = k.apply(avg(x, y))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_frame_average_deterministic():
    rng = np.random.default_rng(14)
    w = rng.standard_normal((4, 4))
    avg = FrameAveragedField(lambda x: x * w, make_d4_group((4, 4)))
    x = rng.standard_normal((4, 4))
    np.testing.assert_array_equal(avg(x), avg(x))


def test_frame_averaged_oracle_batch_rows_match_lone_states():
    # Grid actions return C-contiguous arrays and the oracle rounds a row
    # the same way in a batch of any size, so a batch row of the
    # frame-averaged oracle equals the same lone state bit for bit.
    rng = np.random.default_rng(6)
    rows = (0, 1, 2, 16, 2047)
    for tag, shape in (("D4", (8, 8)), ("C4", (5, 5)), ("flip_v", (4, 6))):
        g = make_group(tag, shape)
        assert g.elements[1].apply(rng.standard_normal((3, *shape))).flags.c_contiguous
        mix = symmetrize(GaussianMixture(weights=np.array([0.5, 0.5]),
                                         means=rng.standard_normal((2, *shape)),
                                         variances=np.array([0.3, 0.5])), g)
        fa = frame_average(AnalyticScoreField(mix, vp_schedule()), g)
        x = rng.standard_normal((2048, *shape))
        for t in (0.0, 0.3, 1.0):
            lone = [fa(x[i], t) for i in rows]
            for size in (1, 2, 3, 17, 2048):
                batch = fa(x[:size], t)
                for j, i in enumerate(rows):
                    if i < size:
                        np.testing.assert_array_equal(batch[i], lone[j])


def counting(base, calls):
    def counted(*args):
        calls.append(tuple(np.shape(a) for a in args))
        return base(*args)
    return counted


def test_frame_average_makes_one_stacked_base_call():
    rng = np.random.default_rng(15)
    g = make_d4_group((4, 4))
    s = vp_schedule()
    mix = symmetrize(GaussianMixture(weights=np.array([0.5, 0.5]),
                                     means=rng.standard_normal((2, 4, 4)),
                                     variances=np.array([0.3, 0.5])), g)
    calls = []
    fa = frame_average(counting(AnalyticScoreField(mix, s), calls), g)
    x = rng.standard_normal((5, 4, 4))
    fa(x, 0.3)
    fa(x[0], 0.3)
    assert calls == [((40, 4, 4), ()), ((8, 4, 4), ())]

    # row times are tiled with their rows; each row equals its lone call
    calls.clear()
    ts = rng.uniform(0.0, s.T, 5)
    batch = fa(x, ts)
    assert calls == [((40, 4, 4), (40,))]
    for i in range(5):
        np.testing.assert_array_equal(batch[i], fa(x[i], ts[i]))

    # a conditional field's conditioning state is moved and stacked as well
    calls.clear()
    bridge = BridgeScoreField(GaussianCoupling(matrix=0.8, noise_var=0.05), s)
    pfa = frame_average(counting(bridge, calls), g, conditional=True)
    y = rng.standard_normal((5, 4, 4))
    got = pfa(x, y, 0.4)
    assert calls == [((40, 4, 4), (40, 4, 4), ())]
    # the bridge score is elementwise, so stacking leaves its bits alone
    want = np.sum([g.inverse(k).apply(bridge(k.apply(x), k.apply(y), 0.4))
                   for k in g.elements], axis=0) / len(g)
    np.testing.assert_array_equal(got, want)


def stacked_reference(base, g, x, *args, conditional=False):
    """The frame average with fresh arrays: one base call on the stacked
    moved copies, then the stacked terms summed along their first axis."""
    if g.grid_shape is None:
        lone = x.ndim == 1
    else:
        lone = x.ndim == (2 if x.shape[-2:] == g.grid_shape else 3)
    join = np.stack if lone else np.concatenate
    states, rest = ((x, args[0]), args[1:]) if conditional else ((x,), args)
    moved = [join([k.apply(v) for k in g.elements]) for v in states]
    for a in rest:
        per_row = not lone and np.ndim(a) >= 1 and len(a) == len(x)
        moved.append(np.concatenate([a] * len(g)) if per_row else a)
    out = np.asarray(base(*moved)).reshape(len(g), *x.shape)
    terms = [g.inverse(k).apply(out[k.gid]) for k in g.elements]
    return np.sum(np.stack(terms), axis=0) / len(g)


@pytest.mark.parametrize("tag", ["C3", "C4", "D4", "C5", "D6"])
def test_stacked_point_average_matches_per_element_reference(tag):
    # one stacked product moves the states and one moves the terms back;
    # each element's slice is the gemm of ``x @ A_k.T``, as in apply,
    # also for the general angles of C3, C5 and D6
    rng = np.random.default_rng(23)
    g = make_group(tag)
    s = vp_schedule()
    mix = symmetrize(GaussianMixture(np.array([0.6, 0.4]),
                                     np.array([[2.4, 0.6], [0.6, 1.8]]),
                                     np.array([0.4, 0.5])), g)
    base = AnalyticScoreField(mix, s)
    fa = frame_average(base, g)
    bridge = BridgeScoreField(GaussianCoupling(matrix=0.8, noise_var=0.05), s)
    cond = frame_average(bridge, g, conditional=True)
    for shape in ((2,), (1, 2), (7, 2), (300, 2)):
        x, y = 2.0 * rng.standard_normal(shape), rng.standard_normal(shape)
        times = [0.4] if len(shape) == 1 else [0.4, rng.uniform(0.0, s.T, shape[0])]
        for t in times:
            got = fa(x, t)
            assert got.shape == shape
            np.testing.assert_array_equal(got, stacked_reference(base, g, x, t))
        np.testing.assert_array_equal(
            cond(x, y, 0.3), stacked_reference(bridge, g, x, y, 0.3, conditional=True))


def search_tables(g):
    """Composition and inverse tables found by searching every element for
    each product, with exact equality for permutations and 1e-9 for matrices."""
    n = len(g)
    table = np.zeros((n, n), dtype=np.int64)
    for a in g.elements:
        for b in g.elements:
            for c in g.elements:
                if a.perm is not None:
                    hit = np.array_equal(b.perm[a.perm], c.perm)
                else:
                    hit = np.allclose(a.matrix @ b.matrix, c.matrix, atol=1e-9)
                if hit:
                    table[a.gid, b.gid] = c.gid
                    break
            else:
                raise AssertionError(f"{a.name} o {b.name} left the group")
    return table, np.argmax(table == 0, axis=1)


def test_compose_tables_match_a_search_over_the_elements():
    # products are looked up by exact keys (permutation bytes, rounded
    # signed-permutation matrices) or, at general angles, by tolerance
    groups = [make_group(tag, shape) for tag in ("flip_v", "flip_h", "C4", "D4")
              for shape in ((3, 3), (4, 4), (8, 8))]
    groups += [make_group("flip_v", (4, 6)), make_group("flip_h", (5, 2))]
    groups += [make_group(f"{kind}{n}") for kind in "CD" for n in range(1, 9)]
    for g in groups:
        table, inverse = search_tables(g)
        np.testing.assert_array_equal(g.compose_table, table, err_msg=g.name)
        np.testing.assert_array_equal(g.inverse_table, inverse, err_msg=g.name)
        assert verify_group_axioms(g).passed, g.name
    # a set that is not closed under composition is refused on either path
    c4 = make_group("C4")
    for els in ((c4.elements[0], c4.elements[1]),
                tuple(make_group("C6").elements[:2])):
        with pytest.raises(InvalidParams):
            groups_module._build_group("open", "", list(els))


def test_buffered_grid_average_matches_stacked_sum_bit_for_bit():
    # the moved copies and base outputs live in kept work arrays and the
    # terms are added one by one; the bits are those of the stacked sum
    rng = np.random.default_rng(16)
    s = vp_schedule()
    for tag, size in ((t, n) for t in ("C4", "D4") for n in (4, 5, 8)):
        g = make_group(tag, (size, size))
        mix = symmetrize(GaussianMixture(weights=np.array([0.5, 0.5]),
                                         means=rng.standard_normal((2, size, size)),
                                         variances=np.array([0.3, 0.5])), g)
        oracle = AnalyticScoreField(mix, s)
        w = rng.standard_normal((size, size, 3))
        # (base, conditional, takes per-row times); the oracle takes out=,
        # the others return fresh arrays
        fields = [
            (oracle, False, True),
            (lambda x, t: np.tanh(x) * w[..., 0] + np.reshape(t, (*np.shape(t), 1, 1)),
             False, True),
            (lambda x, y, t, out=None: oracle(x - 0.3 * y, t, out=out), True, True),
            (BridgeScoreField(GaussianCoupling(matrix=0.8, noise_var=0.05), s),
             True, False),
        ]
        for base, conditional, row_times in fields:
            fa = frame_average(base, g, conditional=conditional)
            for lead in ((), (1,), (7,)):
                x = rng.standard_normal((*lead, size, size))
                y = (rng.standard_normal(x.shape),) if conditional else ()
                times = [0.4]
                if lead and row_times:
                    times.append(rng.uniform(0.05, 0.9, lead[0]))
                for t in times:
                    want = stacked_reference(base, g, x, *y, t, conditional=conditional)
                    np.testing.assert_array_equal(fa(x, *y, t), want)
        # a channel axis is carried through
        fa = frame_average(lambda x, t: np.tanh(x) * w + t, g)
        x = rng.standard_normal((3, size, size, 3))
        want = stacked_reference(lambda x, t: np.tanh(x) * w + t, g, x, 0.2)
        np.testing.assert_array_equal(fa(x, 0.2), want)
        with pytest.raises(ShapeMismatch):
            fa(np.zeros((3, size + 1, size)), 0.2)


def test_grid_average_results_never_alias_work_arrays():
    rng = np.random.default_rng(17)
    g = make_d4_group((8, 8))
    mix = symmetrize(GaussianMixture(weights=np.array([0.5, 0.5]),
                                     means=rng.standard_normal((2, 8, 8)),
                                     variances=np.array([0.3, 0.5])), g)
    oracle = AnalyticScoreField(mix, vp_schedule())
    fa = frame_average(oracle, g)
    for f in (fa, oracle):
        for shape in ((8, 8), (16, 8, 8)):
            first = f(rng.standard_normal(shape), 0.3)
            kept = first.copy()
            f(rng.standard_normal(shape), 0.3)
            f(rng.standard_normal((40, 8, 8)), 0.6)  # grows the work arrays
            np.testing.assert_array_equal(first, kept)


def test_warm_grid_average_allocates_only_its_output():
    # fresh multi-MB temporaries on every call page-fault in a hot loop;
    # a warm 256-row D4 8x8 call allocates its 128 KB result and small
    # per-row vectors (it allocated 3.7 MB when nothing was kept)
    rng = np.random.default_rng(18)
    g = make_d4_group((8, 8))
    mix = symmetrize(GaussianMixture(weights=np.full(4, 0.25),
                                     means=0.4 * rng.standard_normal((4, 8, 8)),
                                     variances=np.full(4, 0.5)), g)
    fa = frame_average(AnalyticScoreField(mix, vp_schedule()), g)
    x = rng.standard_normal((256, 8, 8))
    fa(x, 0.4)
    tracemalloc.start()
    try:
        out = fa(x, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes


def test_apply_elements_refuses_mismatched_shapes():
    grid, points = make_group("C4", (8, 8)), make_group("C4")
    ids = np.zeros(3, dtype=np.int64)
    for g, x, i in ((grid, np.zeros((3, 4, 16)), ids),     # 64 cells, not 8 x 8
                    (points, np.zeros((3, 3)), ids),       # 3-D points
                    (grid, np.zeros((3, 8, 8)), ids[:2]),  # 2 ids, 3 rows
                    (points, np.zeros((3, 2)), ids[:2])):
        with pytest.raises(ShapeMismatch):
            apply_elements(g, i, x)


def test_grid_shape_refusal_reads_alike():
    # the element, the per-row action and the frame average share one
    # reading of grid states, so they refuse a wrong shape in the same words
    g = make_group("D4", (8, 8))
    x = np.zeros((3, 4, 16))
    calls = (lambda: g.elements[1].apply(x),
             lambda: apply_elements(g, np.zeros(3, dtype=np.int64), x),
             lambda: frame_average(lambda v: v, g)(x))
    messages = set()
    for call in calls:
        with pytest.raises(ShapeMismatch) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


def test_apply_elements_matches_per_row_apply():
    rng = np.random.default_rng(4)
    for g, shape in ((make_d4_group((5, 5)), (5, 5)), (make_d4_group((4, 4)), (4, 4, 3)),
                     (make_flip_group("horizontal", (3, 5)), (3, 5)),
                     (make_point_group_2d(4, with_reflection=True), (2,))):
        x = rng.standard_normal((12, *shape))
        ids = rng.integers(len(g), size=12)
        out = apply_elements(g, ids, x)
        for i in range(12):
            np.testing.assert_array_equal(out[i], g.elements[ids[i]].apply(x[i]))
