import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elmkit.numerics import Rng
from elmkit.sit2 import Sit2Model, sit2_predict
from elmkit.type_reduction import (
    It2RuleBase,
    brute_force_cos,
    ekm_reduce,
    firing_batch,
    nt_defuzz,
    sc_reduce,
    sc_reduce_batch,
)


def random_instance(gen, n_rules, zero_lower="some"):
    """One random valid row: (lower, upper, w), each 1 x n_rules, consequents in [-10, 10]."""
    upper = gen.uniform(0.0, 1.0, n_rules)
    upper[gen.integers(n_rules)] = 1.0  # keep at least one rule live
    lower = upper * gen.uniform(0.0, 1.0, n_rules)
    if zero_lower == "some":
        lower[gen.uniform(size=n_rules) < 0.3] = 0.0
    elif zero_lower == "all":
        lower[:] = 0.0
    w = gen.uniform(-10.0, 10.0, n_rules)
    return lower[None], upper[None], w[None]


def row(lower, upper, w):
    """A one-row reducer input from per-rule lists."""
    return tuple(np.array([v], dtype=np.float64) for v in (lower, upper, w))


# --------------------------------------------------------------------------
# firing strengths


def test_firing_at_center_is_one():
    rules = It2RuleBase(np.array([[0.2, 0.4], [0.9, 0.1]]), [0.3, 0.3], [0.6, 0.5])
    lower, upper = firing_batch(rules, np.array([0.2, 0.4])[None])
    assert upper[0, 0] == pytest.approx(1.0)
    assert lower[0, 0] == pytest.approx(1.0)
    assert upper[0, 1] < 1.0


def test_degenerate_fou_gives_equal_bands():
    rules = It2RuleBase(np.array([[0.0], [1.0]]), [0.5, 0.7], [0.5, 0.7])
    lower, upper = firing_batch(rules, np.array([0.3])[None])
    np.testing.assert_array_equal(lower[0], upper[0])


def test_hand_computed_single_rule_rescale():
    # gaussian at distance 1 with widths (1, 2): raw bands e^-0.5 and
    # e^-0.125, shifted together so the upper band becomes 1
    rules = It2RuleBase(np.array([[0.0]]), [1.0], [2.0])
    lower, upper = firing_batch(rules, np.array([1.0])[None])
    assert upper[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert lower[0, 0] == pytest.approx(math.exp(-0.5 + 0.125), abs=1e-12)
    assert lower[0, 0] == pytest.approx(0.68729, abs=5e-6)
    assert upper.max(axis=1)[0] == 1.0


def test_firing_rejects_bad_input():
    rules = It2RuleBase(np.array([[0.0, 0.0]]), [1.0], [1.0])
    with pytest.raises(ValueError, match="samples"):
        firing_batch(rules, np.array([1.0])[None])
    model = Sit2Model(rules, np.zeros((3, 2)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="NaN or Inf"):
            sit2_predict(model, [[0.0, bad]])


def test_rule_base_validates_width_order():
    with pytest.raises(ValueError, match="sigma_lower"):
        It2RuleBase(np.zeros((2, 1)), [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        It2RuleBase(np.zeros((1, 1)), [0.0], [1.0])


def reference_firing(rules, x):
    """Per-vector firing formula, written independently of ``firing_batch``."""
    d2 = ((x[None, :] - rules.centers) ** 2).sum(axis=1)
    log_upper = -d2 / (2.0 * rules.sigma_upper**2)
    log_lower = -d2 / (2.0 * rules.sigma_lower**2)
    shift = float(log_upper.max())
    return np.exp(log_lower - shift), np.exp(log_upper - shift)


def test_firing_batch_matches_scalar_exactly():
    gen = Rng(5).generator()
    rules = It2RuleBase(gen.uniform(0, 1, (7, 4)), gen.uniform(0.2, 0.5, 7), gen.uniform(0.5, 1.0, 7))
    x = gen.uniform(0, 1, (20, 4))
    lower, upper = firing_batch(rules, x)
    np.testing.assert_array_equal(upper.max(axis=1), np.ones(20))
    for p in range(20):
        ref_lower, ref_upper = reference_firing(rules, x[p])
        assert ref_lower.tobytes() == lower[p].tobytes()
        assert ref_upper.tobytes() == upper[p].tobytes()
        one_lower, one_upper = firing_batch(rules, x[p][None])
        assert one_lower[0].tobytes() == lower[p].tobytes()
        assert one_upper[0].tobytes() == upper[p].tobytes()


@pytest.mark.parametrize("p", [0, 1, 3, 4, 5, 9, 255, 256, 257, 600])
def test_firing_batch_matches_reference_across_row_blocks(p):
    # 150 inputs: each row's squared distance is a split pairwise sum
    gen = Rng(6).generator()
    rules = It2RuleBase(gen.uniform(0, 1, (5, 150)), gen.uniform(2.0, 3.0, 5), gen.uniform(3.0, 4.0, 5))
    x = gen.uniform(0, 1, (p, 150))
    lower, upper = firing_batch(rules, x)
    assert lower.shape == upper.shape == (p, 5)
    for row in range(p):
        ref_lower, ref_upper = reference_firing(rules, x[row])
        assert ref_lower.tobytes() == lower[row].tobytes()
        assert ref_upper.tobytes() == upper[row].tobytes()


# --------------------------------------------------------------------------
# individual reducers: pinned cases


@pytest.mark.parametrize("reduce_fn", [sc_reduce, ekm_reduce, brute_force_cos])
def test_single_rule_returns_its_consequent(reduce_fn):
    y_l, y_r, _, _ = reduce_fn(*row([0.4], [0.9], [3.5]))
    assert y_l[0] == pytest.approx(3.5, rel=1e-14)
    assert y_r[0] == pytest.approx(3.5, rel=1e-14)


def test_single_rule_band_convention():
    # sweep-based reducers report the all-upper assignment for one rule;
    # the oracle may return any attaining vertex, so it is not pinned here
    for fn in (sc_reduce, ekm_reduce):
        _, _, z_l, z_r = fn(*row([0.4], [0.9], [3.5]))
        assert z_l[0, 0] == 1 and z_r[0, 0] == 1


@pytest.mark.parametrize("reduce_fn", [sc_reduce, ekm_reduce, brute_force_cos])
def test_zero_fou_is_crisp_weighted_mean(reduce_fn):
    y_l, y_r, _, _ = reduce_fn(*row([0.25, 0.75], [0.25, 0.75], [2.0, 6.0]))
    expected = (0.25 * 2.0 + 0.75 * 6.0) / 1.0
    assert y_l[0] == pytest.approx(expected, rel=1e-12)
    assert y_r[0] == pytest.approx(expected, rel=1e-12)


def test_full_fou_endpoints_are_extreme_consequents():
    y_l, y_r, _, _ = brute_force_cos(*row([0.0, 0.0], [1.0, 1.0], [0.0, 1.0]))
    assert (y_l[0], y_r[0]) == (0.0, 1.0)


def test_degenerate_all_zero_lower_consistent_across_reducers():
    f = row([0.0, 0.0, 0.0], [0.5, 1.0, 0.0], [4.0, -2.0, -9.0])  # the -9 rule cannot fire at all
    for fn in (sc_reduce, ekm_reduce, brute_force_cos):
        y_l, y_r, _, _ = fn(*f)
        assert (y_l[0], y_r[0]) == (-2.0, 4.0)


def test_nt_hand_computed():
    assert nt_defuzz(*row([0.2, 0.4], [0.6, 0.8], [1.0, 2.0]))[0] == pytest.approx(3.2 / 2.0)


def test_nt_single_rule():
    assert nt_defuzz(*row([0.2], [0.9], [5.0]))[0] == 5.0


def test_nt_zero_fou_equals_crisp_mean():
    assert nt_defuzz(*row([0.25, 0.75], [0.25, 0.75], [2.0, 6.0]))[0] == pytest.approx(5.0)


@pytest.mark.parametrize("fn", [sc_reduce, ekm_reduce, brute_force_cos, lambda *f: nt_defuzz(*f)])
def test_vacuous_firing_raises(fn):
    with pytest.raises(ValueError, match="vacuous"):
        fn(*row([0.0, 0.0], [0.0, 0.0], [1.0, 2.0]))
    # a vacuous row among live ones is refused too
    with pytest.raises(ValueError, match="vacuous"):
        fn([[0.5, 0.5], [0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [1.0, 2.0]])


@pytest.mark.parametrize("fn", [sc_reduce, ekm_reduce, brute_force_cos, nt_defuzz])
def test_reducers_check_their_rows(fn):
    good = ([[0.2, 0.5]], [[0.4, 1.0]], [[1.0, 2.0]])
    fn(*good)
    bad = [
        (([0.2, 0.5], [0.4, 1.0], [1.0, 2.0]), "n_rules"),  # one-dimensional
        ((np.zeros((1, 0)), np.zeros((1, 0)), np.zeros((1, 0))), "n_rules"),
        (([[0.2, 0.5]], [[0.4, 1.0]], [[1.0, 2.0, 3.0]]), "n_rules"),
        (([[0.2, np.nan]], [[0.4, 1.0]], [[1.0, 2.0]]), "NaN or Inf"),
        (([[0.2, 0.5]], [[0.4, np.inf]], [[1.0, 2.0]]), "NaN or Inf"),
        (([[0.2, 0.5]], [[0.4, 1.0]], [[np.nan, 2.0]]), "NaN or Inf"),
        (([[-0.1, 0.5]], [[0.4, 1.0]], [[1.0, 2.0]]), "lower <= upper"),
        (([[0.5, 0.5]], [[0.4, 1.0]], [[1.0, 2.0]]), "lower <= upper"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            fn(*args)


def test_brute_force_guard():
    with pytest.raises(ValueError, match="20 rules"):
        brute_force_cos(*row(np.zeros(21), np.ones(21), np.zeros(21)))


def test_defuzz_midpoint():
    y_l, y_r, _, _ = sc_reduce(*row([0.0, 0.0], [1.0, 1.0], [0.0, 2.0]))
    assert 0.5 * (y_l[0] + y_r[0]) == pytest.approx(1.0)
    y_l, y_r, _, _ = sc_reduce(*row([0.5], [0.5], [4.0]))
    assert 0.5 * (y_l[0] + y_r[0]) == 4.0


def test_defuzz_agrees_across_reducers():
    gen = Rng(606).generator()
    for _ in range(100):
        m = int(gen.integers(2, 11))
        f = random_instance(gen, m)
        sc, ekm = sc_reduce(*f), ekm_reduce(*f)
        mid_sc = 0.5 * (sc[0][0] + sc[1][0])
        mid_ekm = 0.5 * (ekm[0][0] + ekm[1][0])
        assert rel_err(mid_sc, mid_ekm) < 1e-9


# --------------------------------------------------------------------------
# oracle agreement


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("zero_lower", ["none", "some", "all"])
def test_reducers_agree_with_oracle(zero_lower):
    gen = Rng(2024).generator()
    for trial in range(300):
        m = int(gen.integers(2, 13))
        f = random_instance(gen, m, zero_lower=zero_lower)
        ref = brute_force_cos(*f)
        for fn in (sc_reduce, ekm_reduce):
            r = fn(*f)
            assert rel_err(r[0][0], ref[0][0]) < 1e-9, (trial, fn.__name__)
            assert rel_err(r[1][0], ref[1][0]) < 1e-9, (trial, fn.__name__)


def test_nt_contained_in_reduced_interval():
    gen = Rng(31).generator()
    for _ in range(300):
        m = int(gen.integers(2, 13))
        lower, upper, w = random_instance(gen, m)
        if not np.any(lower + upper):
            continue
        y_l, y_r, _, _ = brute_force_cos(lower, upper, w)
        y = nt_defuzz(lower, upper, w)[0]
        slack = 1e-12 * max(1.0, abs(y_l[0]), abs(y_r[0]))
        assert y_l[0] - slack <= y <= y_r[0] + slack


def test_enclosure_by_consequent_range():
    gen = Rng(77).generator()
    for _ in range(200):
        m = int(gen.integers(1, 13))
        lower, upper, w = random_instance(gen, m)
        y_l, y_r, _, _ = sc_reduce(lower, upper, w)
        assert w.min() - 1e-12 <= y_l[0] <= y_r[0] + 1e-12
        assert y_r[0] <= w.max() + 1e-12


@pytest.mark.parametrize("lam", [1e-6, 1.0, 1e6])
def test_scale_invariance(lam):
    gen = Rng(55).generator()
    for _ in range(50):
        m = int(gen.integers(2, 10))
        lower, upper, w = random_instance(gen, m)
        a, b = sc_reduce(lower, upper, w), sc_reduce(lower * lam, upper * lam, w)
        assert rel_err(a[0][0], b[0][0]) < 1e-12
        assert rel_err(a[1][0], b[1][0]) < 1e-12
        if np.any(lower + upper):
            assert rel_err(nt_defuzz(lower, upper, w)[0], nt_defuzz(lower * lam, upper * lam, w)[0]) < 1e-12


def test_sc_z_vectors_reproduce_endpoints():
    gen = Rng(99).generator()
    for _ in range(100):
        m = int(gen.integers(2, 10))
        lower, upper, w = random_instance(gen, m)
        y_l, y_r, z_l, z_r = sc_reduce(lower, upper, w)
        for z, y in ((z_l, y_l), (z_r, y_r)):
            u = lower + z * (upper - lower)
            assert rel_err(float((u * w).sum() / u.sum()), y[0]) < 1e-9


# strengths are either exactly zero or within 1e-6 of the per-row maximum 1;
# anything smaller underflows out of the normalized firing representation
strength = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_sc_matches_oracle_property(data):
    m = data.draw(st.integers(min_value=1, max_value=8))
    upper = np.array(data.draw(st.lists(strength, min_size=m, max_size=m)))
    frac = np.array(data.draw(st.lists(strength, min_size=m, max_size=m)))
    w = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=-10, max_value=10),
                min_size=m,
                max_size=m,
            )
        )
    )
    if not np.any(upper > 0):
        return
    f = row(upper * frac, upper, w)
    ref = brute_force_cos(*f)
    r = sc_reduce(*f)
    assert rel_err(r[0][0], ref[0][0]) < 1e-9
    assert rel_err(r[1][0], ref[1][0]) < 1e-9


# --------------------------------------------------------------------------
# batch path


def reference_sc_endpoint(lower, upper, w, left, passes=None):
    """One SC endpoint by the original per-row loop, for pinning the batch sweep.

    ``passes``, a list if given, receives the number of sweeps the row took.
    """
    m = w.size
    delta = upper - lower
    z = np.ones(m, dtype=np.int8)
    d1 = float(upper.sum())
    d2 = float((upper * w).sum())
    for n_pass in range(1, m + 3):
        flipped = False
        for j in range(m):
            a = w[j] * d1 - d2
            if a == 0.0:
                continue
            z_new = (1 if a < 0.0 else 0) if left else (1 if a > 0.0 else 0)
            if z_new != z[j]:
                flipped = True
                if z_new == 0:
                    d1 -= delta[j]
                    d2 -= delta[j] * w[j]
                else:
                    d1 += delta[j]
                    d2 += delta[j] * w[j]
                z[j] = z_new
        if not flipped:
            if passes is not None:
                passes.append(n_pass)
            u = lower + z * delta
            return float((u * w).sum() / u.sum()), z
    raise AssertionError("reference sweep did not reach a fixed point")


def reference_sc(lower, upper, w, passes=None):
    """(y_l, y_r, z_l, z_r) of one row; an all-zero lower band fires one extreme rule."""
    if not np.any(lower > 0.0):
        active = np.flatnonzero(upper > 0.0)
        j_min, j_max = active[np.argmin(w[active])], active[np.argmax(w[active])]
        z_l, z_r = np.zeros(w.size, dtype=np.int8), np.zeros(w.size, dtype=np.int8)
        z_l[j_min] = z_r[j_max] = 1
        return float(w[j_min]), float(w[j_max]), z_l, z_r
    y_l, z_l = reference_sc_endpoint(lower, upper, w, True, passes)
    y_r, z_r = reference_sc_endpoint(lower, upper, w, False, passes)
    return y_l, y_r, z_l, z_r


def batch_rows(seed, n_rows, n_rules):
    gen = Rng(seed).generator()
    rows = [random_instance(gen, n_rules) for _ in range(n_rows)]
    return tuple(np.vstack(a) for a in zip(*rows))


def assert_batch_matches_reference(lower, upper, w):
    """Bitwise batch-vs-reference pin; returns the sweep count of every live endpoint."""
    y_l, y_r, z_l, z_r = sc_reduce_batch(lower, upper, w)
    passes = []
    for i in range(w.shape[0]):
        ref = reference_sc(lower[i], upper[i], w[i], passes)
        assert y_l[i].tobytes() == np.float64(ref[0]).tobytes(), i
        assert y_r[i].tobytes() == np.float64(ref[1]).tobytes(), i
        assert np.array_equal(z_l[i], ref[2]) and np.array_equal(z_r[i], ref[3]), i
    return passes


def assert_rows_match_reference(lower, upper, w):
    """``assert_batch_matches_reference``, then each row reduced alone gives its batch row."""
    passes = assert_batch_matches_reference(lower, upper, w)
    y_l, y_r, z_l, z_r = sc_reduce_batch(lower, upper, w)
    for i in range(w.shape[0]):
        # the same row reduced alone, through the one-row view
        r = sc_reduce(lower[i : i + 1], upper[i : i + 1], w[i : i + 1])
        assert (r[0][0], r[1][0]) == (y_l[i], y_r[i]), i
        assert np.array_equal(r[2][0], z_l[i]) and np.array_equal(r[3][0], z_r[i]), i
    return passes


def test_batch_sc_matches_scalar_bitwise():
    lower, upper, w = batch_rows(404, 64, 9)
    lower[5] = 0.0  # one row on the all-lower-zero path among live rows
    assert_rows_match_reference(lower, upper, w)


def test_batch_sc_one_rule_matches_reference():
    lower, upper, w = batch_rows(405, 6, 1)
    lower[0] = 0.0
    assert_rows_match_reference(lower, upper, w)
    y_l, y_r, _, _ = sc_reduce_batch(lower, upper, w)
    np.testing.assert_allclose(y_l, w[:, 0], rtol=1e-15)
    np.testing.assert_allclose(y_r, w[:, 0], rtol=1e-15)


def test_batch_sc_empty():
    y_l, y_r, z_l, z_r = sc_reduce_batch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))
    assert y_l.shape == (0,) and z_r.shape == (0, 3)


@pytest.mark.parametrize("n_rows", [0, 6])
def test_batch_sc_no_rows_and_all_degenerate_rows_match_reference(n_rows):
    # no live row for the sweep: the general path gives these shapes and values too
    if n_rows:
        lower, upper, w = batch_rows(409, n_rows, 5)
        lower[:] = 0.0  # every row takes the extreme-consequent path
        w[1] = 2.0  # tied consequents: the first active rule wins
    else:
        lower = upper = w = np.zeros((0, 5))
    assert_rows_match_reference(lower, upper, w)
    y_l, y_r, z_l, z_r = sc_reduce_batch(lower, upper, w)
    assert y_l.shape == y_r.shape == (n_rows,) and y_l.dtype == y_r.dtype == np.float64
    assert z_l.shape == z_r.shape == (n_rows, 5) and z_l.dtype == z_r.dtype == np.int8


def head_scale_rows(seed, n_rows, n_inputs=300, n_rules=60, width_scale=(0.15, 0.45)):
    """Firings of a head-sized rule base on wide features, with linear consequents.

    Rules are drawn the way ``sit2_train`` draws them (widths grow with
    sqrt(n_inputs)), with a narrower width scale than ``sit2.WIDTH_SCALE``
    so that some rows need a fourth sweep; consequents are per-rule linear
    functions of the bias-extended input, as ``_consequent_values`` forms
    them.
    """
    gen = Rng(seed).generator()
    x = gen.uniform(0.0, 1.0, (n_rows, n_inputs))
    half_span = 0.5 * math.sqrt(n_inputs)
    sigma_upper = gen.uniform(width_scale[0] * half_span, width_scale[1] * half_span, n_rules)
    sigma_lower = gen.uniform(0.6, 0.95, n_rules) * sigma_upper
    rules = It2RuleBase(gen.uniform(0.0, 1.0, (n_rules, n_inputs)), sigma_lower, sigma_upper)
    lower, upper = firing_batch(rules, x)
    q = gen.normal(0.0, 5.0, (n_rules, n_inputs + 1))
    w = np.hstack([np.ones((n_rows, 1)), x]) @ q.T
    return lower, upper, w



def test_batch_sc_matches_reference_at_head_scale():
    lower, upper, w = head_scale_rows(406, 240)
    passes = assert_rows_match_reference(lower, upper, w)
    # rows settle after different numbers of sweeps, so the dense update
    # runs with rows that have stopped flipping beside rows that have not
    assert {2, 3, 4} <= set(passes), sorted(set(passes))


def switch_condition_violations(lower, upper, w):
    """Rule bands of sc_reduce_batch's assignments on the wrong side of their endpoint.

    Where a rule's band has width, y_l needs the upper band for every
    consequent below y_l and the lower band above it; y_r the mirror image.
    Consequents within 1e-9 relative of the endpoint may take either band.
    """
    y_l, y_r, z_l, z_r = sc_reduce_batch(lower, upper, w)
    wide = upper > lower
    count = 0
    for y, z, below in ((y_l, z_l, 1), (y_r, z_r, 0)):
        tol = 1e-9 * np.maximum(1.0, np.abs(y))[:, None]
        count += int((wide & (w < y[:, None] - tol) & (z != below)).sum())
        count += int((wide & (w > y[:, None] + tol) & (z != 1 - below)).sum())
    return count


def test_sc_switch_condition_holds_on_every_row_at_head_scale():
    ties = head_scale_rows(407, 90)
    ties[0][[3, 20, 50]] = 0.0
    for lower, upper, w in (head_scale_rows(406, 240), ties, head_scale_rows(500, 1000)):
        assert switch_condition_violations(lower, upper, w) == 0


def test_batch_sc_matches_reference_on_ties_and_degenerate_rows():
    lower, upper, w = head_scale_rows(407, 90)
    gen = Rng(408).generator()
    # all-equal consequents: 0 and 2 make every a = w * d1 - d2 an exact
    # tie (scaling by a power of two is exact); with 0.3, rounding decides
    # the sign of a near-zero a
    w[0:5] = 0.0
    w[5:10] = 2.0
    w[10:15] = 0.3
    # duplicated consequent values across the rules of a row
    w[15:45] = gen.choice([-1.0, 0.5, 0.5, 3.0], size=(30, w.shape[1]))
    # all-lower-zero rows among live ones, with and without tied consequents
    lower[[3, 20, 50, 51, 89]] = 0.0
    passes = assert_batch_matches_reference(lower, upper, w)
    assert len(passes) == 2 * (w.shape[0] - 5)
