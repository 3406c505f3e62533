"""Interval type-2 TSK classifier trained by ridge regression in two passes.

Antecedents are random Gaussians with an uncertain width (never tuned);
each rule's consequent is linear in the inputs with a bias term.  Training
first solves the consequents against hidden rows built from the closed-form
reduction weights, then re-solves each output column against rows rebuilt
from the converged endpoint assignments of the sort-free reducer.  Both
passes share one ridge constant, so a collapsed width interval makes the
second pass reproduce the first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericalError, Rng, as_integer, as_matrix, check_ridge_constant, ridge_solve, _solve_spd
from .type_reduction import It2RuleBase, ekm_reduce, firing_batch, sc_reduce_batch

WIDTH_SCALE = (0.5, 1.5)  # upper widths, as multiples of the scaled half feature range
WIDTH_RATIO = (0.6, 0.95)  # lower width over upper width; (1, 1) collapses the model to type-1


@dataclass(frozen=True)
class Sit2Model:
    rules: It2RuleBase
    consequents: np.ndarray  # ((n_inputs + 1) * n_rules) x n_outputs

    def __post_init__(self):
        q, rules = self.consequents, self.rules
        if q.ndim != 2 or q.shape[0] != rules.n_rules * (rules.n_inputs + 1):
            raise ValueError(f"sit2 consequents {q.shape} do not chain with "
                             f"{rules.n_rules} rules on {rules.n_inputs} inputs")

    @property
    def n_rules(self) -> int:
        return self.rules.n_rules


def _with_bias(x: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((x.shape[0], 1)), x])


def _consequent_values(xb: np.ndarray, q_col: np.ndarray, n_rules: int) -> np.ndarray:
    """Per-rule linear outputs w_j(x) = q_j0 + q_j . x for one output column."""
    return xb @ q_col.reshape(n_rules, -1).T


_TILE_ROWS = 128  # rows per block of a dual Gram, written straight into its buffer
_TILE_COLS = 512  # columns per in-place K multiply, so its transposed read stays in cache


def _input_gram(xb):
    """A p x p buffer with K = xb xb' below its diagonal _TILE_ROWS blocks, which dual solves keep."""
    buf = np.empty((xb.shape[0], xb.shape[0]))
    for s in range(0, xb.shape[0], _TILE_ROWS):
        np.matmul(xb[s : s + _TILE_ROWS], xb[:s].T, out=buf[s : s + _TILE_ROWS, :s])
    return buf


def _product_ridge(phi, xb, t, c, buf):
    """Ridge solve for hidden rows h_p = kron(phi_p, xb_p), by the route the caller picks.

    Without ``buf``, the caller's choice for tall systems (p*m <= p*p floats),
    it is ``ridge_solve`` on the explicit rows.  With ``buf`` from
    ``_input_gram``, for wide systems, it uses
    h_p . h_q = (phi_p . phi_q)(xb_p . xb_q): the dual Gram is the elementwise
    product of the two small Grams, written in row blocks into the upper
    triangle of ``buf`` around the K it reads, factored there in place, and
    the weights fold back one output column at a time.  K survives for the
    next solve.
    """
    p, m_rules = phi.shape
    k = xb.shape[1]
    m = m_rules * k
    if buf is None:
        return ridge_solve((phi[:, :, None] * xb[:, None, :]).reshape(p, m), t, c)

    def build(g):
        for s in range(0, p, _TILE_ROWS):
            e = min(s + _TILE_ROWS, p)
            # right of the diagonal block, K[i, j] is read from g[j, i]
            np.matmul(phi[s:e], phi[e:].T, out=g[s:e, e:])
            for u in range(e, p, _TILE_COLS):
                g[s:e, u : u + _TILE_COLS] *= g[u : u + _TILE_COLS, s:e].T
            g[s:e, s:e] = (phi[s:e] @ phi[s:e].T) * (xb[s:e] @ xb[s:e].T)

    alpha = _solve_spd(build, t, c, out=buf)
    # b[j*k + a] = sum_p phi[p, j] xb[p, a] alpha[p], one output column at a time
    b = np.empty((m, alpha.shape[1]))
    for i in range(alpha.shape[1]):
        b[:, i] = (xb.T @ (phi * alpha[:, i : i + 1])).T.ravel()
    if not np.all(np.isfinite(b)):
        raise NumericalError("consequent solution contains non-finite entries")
    return b


def _refinement_weights(lower, upper, z_l, z_r):
    """Hidden-row weights from the endpoint assignments, halved.

    Each branch normalizes the band mix that attains one endpoint; their
    half-sum makes a trained consequent predict the interval midpoint.
    """
    delta = upper - lower
    u_l = lower + z_l * delta
    u_r = lower + z_r * delta
    return 0.5 * (u_l / u_l.sum(axis=1, keepdims=True) + u_r / u_r.sum(axis=1, keepdims=True))


def sit2_train(
    x,
    t,
    n_rules: int,
    rng: Rng,
    c: float,
    refine: bool = True,
) -> tuple[Sit2Model, np.ndarray]:
    """Fit the classifier on one-hot targets t; returns the model and its scores on x.

    Centers are uniform over each feature's observed range; upper widths are
    uniform in ``WIDTH_SCALE`` times half the mean feature range, and lower
    widths are the upper ones shrunk by a ratio from ``WIDTH_RATIO``.
    """
    x = as_matrix(x, "x")
    t = as_matrix(t, "t")
    if x.shape[0] != t.shape[0]:
        raise ValueError(f"row mismatch: x has {x.shape[0]} rows, t has {t.shape[0]}")
    if t.shape[1] < 2:
        raise ValueError("need >= 2 classes: target matrix has a single column")
    if as_integer(n_rules, "n_rules") < 2:
        raise ValueError("n_rules must be >= 2")
    check_ridge_constant(c)
    gen = rng.generator()
    fmin = x.min(axis=0)
    fmax = x.max(axis=0)
    centers = gen.uniform(fmin, fmax, size=(n_rules, x.shape[1]))
    half_span = float((fmax - fmin).mean()) / 2.0
    if half_span <= 0.0:
        half_span = 0.5  # all-constant features; any positive width works
    # widths grow with sqrt(dim): the squared distance in the Gaussian
    # exponent sums over every input, and without this factor the firing
    # of all but the nearest rule underflows on wide feature vectors
    half_span *= float(np.sqrt(x.shape[1]))
    sigma_upper = gen.uniform(WIDTH_SCALE[0] * half_span, WIDTH_SCALE[1] * half_span, n_rules)
    sigma_lower = gen.uniform(*WIDTH_RATIO, size=n_rules) * sigma_upper
    rules = It2RuleBase(centers, sigma_lower, sigma_upper)

    lower, upper = firing_batch(rules, x)
    xb = _with_bias(x)
    phi0 = lower + upper
    phi0 /= phi0.sum(axis=1, keepdims=True)
    # the one route choice: every solve of a wide system builds in this input-Gram buffer
    buf = _input_gram(xb) if n_rules * xb.shape[1] > x.shape[0] else None
    q = _product_ridge(phi0, xb, t, c, buf)
    if refine:  # column i of the initial q is read only to refine column i, so refine in place
        for i in range(t.shape[1]):
            w = _consequent_values(xb, q[:, i], n_rules)
            _, _, z_l, z_r = sc_reduce_batch(lower, upper, w)
            phi = _refinement_weights(lower, upper, z_l, z_r)
            q[:, i] = _product_ridge(phi, xb, t[:, i : i + 1], c, buf)[:, 0]
    del buf  # the score sweeps need none of the p x p buffer
    return Sit2Model(rules, q), _scores(sc_reduce_batch, lower, upper, xb, q, n_rules)


def _scores(reduce, lower, upper, xb, consequents, n_rules):
    """Per output column, the midpoint of each row's interval as ``reduce`` gives it."""
    scores = np.empty((xb.shape[0], consequents.shape[1]))
    for i in range(consequents.shape[1]):
        y_l, y_r, _, _ = reduce(lower, upper, _consequent_values(xb, consequents[:, i], n_rules))
        scores[:, i] = 0.5 * (y_l + y_r)
    return scores


def sit2_predict(model: Sit2Model, x, reducer: str = "sc") -> np.ndarray:
    """Score matrix: per output, the midpoint of the reduced interval.

    ``reducer`` selects the endpoint algorithm ("sc" or "ekm"); both compute
    the same interval, so swapping them is a consistency check, not a knob.
    """
    x = as_matrix(x, "x", min_rows=0)
    if x.shape[1] != model.rules.n_inputs:
        raise ValueError(f"feature mismatch: model expects {model.rules.n_inputs}, got {x.shape[1]}")
    if reducer not in ("sc", "ekm"):
        raise ValueError(f"unknown reducer {reducer!r}")
    lower, upper = firing_batch(model.rules, x)
    xb = _with_bias(x)
    # looked up per call, not bound at import, so a tracer that swaps the
    # module attributes sees every sweep
    reduce = sc_reduce_batch if reducer == "sc" else ekm_reduce
    return _scores(reduce, lower, upper, xb, model.consequents, model.n_rules)
