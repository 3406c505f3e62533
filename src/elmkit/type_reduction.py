"""Interval type-2 rule firing and center-of-sets type reduction.

Rules carry Gaussian antecedents with an uncertain width, so each input
fires an interval [lower, upper] per rule.  Reducing those intervals and
the rule consequents to an output interval [y_l, y_r] is done four ways.
Each takes (n_samples, n_rules) arrays lower, upper and w; the interval
reducers return (y_l, y_r, z_l, z_r), where ``z_l[i, j] = 1`` means rule j
of row i gives y_l its upper strength (0: lower), and ``z_r`` likewise:

* ``brute_force_cos`` - exhaustive search over all binary endpoint
  assignments; the oracle the others are checked against.
* ``ekm_reduce`` - switch-point iteration over sorted consequents.
* ``sc_reduce`` - sort-free sweeps with incremental numerator/denominator
  updates: ``sc_reduce_batch``, which the classifier calls, on checked rows.
* ``nt_defuzz`` - closed-form direct defuzzification, one value per row.

All reducers are degree-0 homogeneous in the firings: rescaling lower and
upper jointly by any positive factor leaves every output unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericalError


@dataclass(frozen=True)
class It2RuleBase:
    """Gaussian antecedents: per-rule centers plus a width interval.

    ``sigma_lower[j] <= sigma_upper[j]`` guarantees the lower membership
    curve sits below the upper one everywhere.  Widths are scalar per rule,
    shared across input dimensions.
    """

    centers: np.ndarray  # n_rules x n_inputs
    sigma_lower: np.ndarray  # n_rules
    sigma_upper: np.ndarray  # n_rules

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        sl = np.asarray(self.sigma_lower, dtype=np.float64).ravel()
        su = np.asarray(self.sigma_upper, dtype=np.float64).ravel()
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("centers must be a 2-D array with >= 1 rule")
        if sl.shape != (c.shape[0],) or su.shape != (c.shape[0],):
            raise ValueError("need one (sigma_lower, sigma_upper) pair per rule")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(sl)) and np.all(np.isfinite(su))):
            raise ValueError("rule parameters contain NaN or Inf")
        if np.any(sl <= 0.0) or np.any(su <= 0.0):
            raise ValueError("widths must be positive")
        if np.any(sl > su):
            raise ValueError("sigma_lower must not exceed sigma_upper")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "sigma_lower", sl)
        object.__setattr__(self, "sigma_upper", su)

    @property
    def n_rules(self) -> int:
        return self.centers.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.centers.shape[1]


_FIRING_ROWS = 4  # rows per firing_batch block: its (rows, rules, inputs) difference is 0.6 MB on the digits head


def firing_batch(rules: It2RuleBase, x) -> tuple[np.ndarray, np.ndarray]:
    """Product-of-Gaussians firing intervals, one row per sample.

    Returns (lower, upper), each of shape (n_samples, n_rules).  Each row
    is evaluated in log space and shifted by its own constant so its
    largest upper strength is exactly 1; the shift is harmless by scale
    invariance and keeps thousand-dimensional products from underflowing.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != rules.n_inputs:
        raise ValueError(f"expected (*, {rules.n_inputs}) samples, got {x.shape}")
    d2 = np.empty((len(x), rules.n_rules))
    for s in range(0, len(x), _FIRING_ROWS):
        np.square(x[s : s + _FIRING_ROWS, None, :] - rules.centers).sum(axis=2, out=d2[s : s + _FIRING_ROWS])
    log_upper = -d2 / (2.0 * rules.sigma_upper**2)
    log_lower = -d2 / (2.0 * rules.sigma_lower**2)
    shifts = log_upper.max(axis=1)
    lower = np.exp(log_lower - shifts[:, None])
    upper = np.exp(log_upper - shifts[:, None])
    return lower, upper


def _validated(lower, upper, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lower, upper, w = (np.asarray(a, dtype=np.float64) for a in (lower, upper, w))
    if lower.ndim != 2 or lower.shape[1] < 1 or not lower.shape == upper.shape == w.shape:
        raise ValueError("lower, upper and w must be equal (n_samples, n_rules) arrays with >= 1 rule")
    if not all(np.all(np.isfinite(a)) for a in (lower, upper, w)):
        raise ValueError("firing strengths or consequents contain NaN or Inf")
    if np.any(lower < 0.0) or np.any(lower > upper):
        raise ValueError("need 0 <= lower <= upper per rule")
    if not np.all(np.any(upper > 0.0, axis=1)):
        raise ValueError("vacuous firing: a row has all-zero upper strengths")
    return lower, upper, w


def _row_by_row(reduce_row, lower, upper, w):
    """(y_l, y_r, z_l, z_r) of a one-row reducer applied to every row."""
    y_l, y_r = np.empty(len(w)), np.empty(len(w))
    z_l, z_r = np.empty(w.shape, dtype=np.int8), np.empty(w.shape, dtype=np.int8)
    for i in range(len(w)):
        y_l[i], y_r[i], z_l[i], z_r[i] = reduce_row(lower[i], upper[i], w[i])
    return y_l, y_r, z_l, z_r


def _degenerate_interval(upper: np.ndarray, w: np.ndarray):
    # every lower strength is zero: endpoints are the extreme consequents
    # among rules that can fire at all, attained by firing that rule alone
    active = np.flatnonzero(upper > 0.0)
    j_min = active[np.argmin(w[active])]
    j_max = active[np.argmax(w[active])]
    z_l = np.zeros(w.size, dtype=np.int8)
    z_r = np.zeros(w.size, dtype=np.int8)
    z_l[j_min] = 1
    z_r[j_max] = 1
    return float(w[j_min]), float(w[j_max]), z_l, z_r


# --------------------------------------------------------------------------
# exhaustive oracle


def brute_force_cos(lower, upper, w):
    """Enumerate every binary band assignment and take the extreme outputs.

    y(z) = sum(lower + z*delta, w-weighted) / sum(lower + z*delta) with
    delta = upper - lower; assignments with a zero denominator cannot fire
    and are skipped.  Exponential in the rule count, hence the guard.
    """
    lower, upper, w = _validated(lower, upper, w)
    if w.shape[1] > 20:
        raise ValueError(f"brute force is limited to 20 rules, got {w.shape[1]}")
    return _row_by_row(_brute_force_row, lower, upper, w)


def _brute_force_row(lower: np.ndarray, upper: np.ndarray, w: np.ndarray):
    m = w.size
    delta = upper - lower
    dw = delta * w
    base_num = float((lower * w).sum())
    base_den = float(lower.sum())
    best_min = np.inf
    best_max = -np.inf
    n = 1 << m
    cols = np.arange(m, dtype=np.uint32)
    for start in range(0, n, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), n), dtype=np.uint32)
        z = ((idx[:, None] >> cols) & 1).astype(np.float64)
        num = base_num + z @ dw
        den = base_den + z @ delta
        ok = den > 0.0
        if not ok.any():
            continue
        y = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
        i_lo = np.nanargmin(y)
        i_hi = np.nanargmax(y)
        if y[i_lo] < best_min:
            best_min = float(y[i_lo])
            z_min = z[i_lo].astype(np.int8)
        if y[i_hi] > best_max:
            best_max = float(y[i_hi])
            z_max = z[i_hi].astype(np.int8)
    return best_min, best_max, z_min, z_max


# --------------------------------------------------------------------------
# switch-point iteration over sorted consequents


def _ekm_endpoint(w: np.ndarray, lower: np.ndarray, upper: np.ndarray, left: bool):
    """One endpoint on consequents already sorted ascending.

    Returns (value, k) where ranks < k take the primary band (upper when
    computing y_l, lower for y_r) and ranks >= k the other band.
    """
    m = w.size
    delta = upper - lower
    k = int(round(m / 2.4 if left else m / 1.7))
    k = min(max(k, 1), m - 1)
    hi, lo = (upper, lower) if left else (lower, upper)
    a = float((w[:k] * hi[:k]).sum() + (w[k:] * lo[k:]).sum())
    b = float(hi[:k].sum() + lo[k:].sum())
    y = a / b
    for _ in range(m + 2):
        k_new = int(np.searchsorted(w, y, side="right"))
        k_new = min(max(k_new, 1), m - 1)
        if k_new == k:
            return y, k
        s = 1.0 if k_new > k else -1.0
        i0, i1 = (k, k_new) if k_new > k else (k_new, k)
        seg_w = (w[i0:i1] * delta[i0:i1]).sum()
        seg = delta[i0:i1].sum()
        if left:
            a += s * seg_w
            b += s * seg
        else:
            a -= s * seg_w
            b -= s * seg
        k = k_new
        y = a / b
    raise NumericalError("switch-point iteration did not settle")


def ekm_reduce(lower, upper, w):
    """Exact COS endpoints of every row by switch-point search over sorted consequents."""
    return _row_by_row(_ekm_row, *_validated(lower, upper, w))


def _ekm_row(lower: np.ndarray, upper: np.ndarray, w: np.ndarray):
    m = w.size
    if m == 1:
        one = np.ones(1, dtype=np.int8)
        return float(w[0]), float(w[0]), one, one
    if not np.any(lower > 0.0):
        return _degenerate_interval(upper, w)
    order = np.argsort(w, kind="stable")
    ws, lo, up = w[order], lower[order], upper[order]
    y_l, k_l = _ekm_endpoint(ws, lo, up, left=True)
    y_r, k_r = _ekm_endpoint(ws, lo, up, left=False)
    z_l = np.zeros(m, dtype=np.int8)
    z_r = np.zeros(m, dtype=np.int8)
    z_l[order[:k_l]] = 1  # leading ranks use the upper band for y_l
    z_r[order[k_r:]] = 1  # trailing ranks use the upper band for y_r
    return float(y_l), float(y_r), z_l, z_r


# --------------------------------------------------------------------------
# closed-form direct defuzzification


def nt_defuzz(lower, upper, w) -> np.ndarray:
    """Per row, the weighted mean of consequents under lower + upper strengths."""
    lower, upper, w = _validated(lower, upper, w)
    return ((lower + upper) * w).sum(axis=1) / (lower.sum(axis=1) + upper.sum(axis=1))


# --------------------------------------------------------------------------
# sort-free sweeps


def sc_reduce(lower, upper, w):
    """``sc_reduce_batch`` on checked rows; the model path calls the batch routine unchecked."""
    return sc_reduce_batch(*_validated(lower, upper, w))


def sc_reduce_batch(lower: np.ndarray, upper: np.ndarray, w: np.ndarray):
    """Exact COS endpoints for every row, via sign-driven sweeps.

    lower/upper/w are (n_samples, n_rules); returns (y_l, y_r, z_l, z_r).
    Each endpoint starts from the all-upper assignment and sweeps the rule
    indices, flipping band assignments until a fixed point.  The running
    (d1, d2) always equal the denominator/numerator of the closed-form
    output for the current assignment; a flip adjusts them by the rule's
    band gap.  Ties (w[j] exactly equal to the current output) keep the
    current assignment, which avoids oscillation.  Rows whose lower band is
    entirely zero take the degenerate extreme-consequent path.

    The sweep runs on rule-major copies, so step j reads contiguous rows,
    and updates every row densely: a row that does not flip gets a step
    of zero, which leaves its d1 and d2 at their values, so each row takes
    the same flips and keeps the same sums as a per-row loop.
    """
    p, m = w.shape
    y_l = np.empty(p)
    y_r = np.empty(p)
    z_l = np.ones((p, m), dtype=np.int8)
    z_r = np.ones((p, m), dtype=np.int8)
    if not np.all(upper.max(axis=1) > 0.0):
        raise ValueError("vacuous firing: a row has all-zero upper strengths")
    degen = ~np.any(lower > 0.0, axis=1)
    live = np.flatnonzero(~degen)
    for i in np.flatnonzero(degen):
        y_l[i], y_r[i], z_l[i], z_r[i] = _degenerate_interval(upper[i], w[i])
    lo, up, ww = (lower, upper, w) if live.size == p else (lower[live], upper[live], w[live])
    delta = up - lo
    delta_t = np.ascontiguousarray(delta.T)
    w_t = np.ascontiguousarray(ww.T)
    for left, ys, zs in ((True, y_l, z_l), (False, y_r, z_r)):
        z_t = np.ones((m, live.size), dtype=bool)
        d1 = up.sum(axis=1)
        d2 = (up * ww).sum(axis=1)
        for _ in range(m + 2):
            any_flip = False
            for j in range(m):
                a = w_t[j] * d1 - d2
                # y_l moves a rule to its upper band when w[j] lies below the
                # current output (a < 0), y_r when it lies above; a == 0 keeps it
                up_when, down_when = (a < 0.0, a > 0.0) if left else (a > 0.0, a < 0.0)
                to_upper = up_when > z_t[j]  # up_when and not z
                to_lower = down_when & z_t[j]
                flip = to_upper | to_lower
                if flip.any():
                    any_flip = True
                    step = np.subtract(to_upper, to_lower, dtype=np.float64) * delta_t[j]
                    d1 += step
                    d2 += step * w_t[j]
                    z_t[j] ^= flip
            if not any_flip:
                break
        else:
            raise NumericalError("band-assignment sweep did not reach a fixed point")
        # re-evaluate the closed form at the final assignment; the
        # incremental pair can carry rounding from transient flips, and
        # the additive lower + z*delta form avoids cancellation
        z = np.ascontiguousarray(z_t.T)
        u = lo + z * delta
        ys[live] = (u * ww).sum(axis=1) / u.sum(axis=1)
        zs[live] = z
    return y_l, y_r, z_l, z_r
