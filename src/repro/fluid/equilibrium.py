"""Fixed points of the fluid model and verification of Theorem 1.

Two complementary tools:

* *per-user allocation rules* — given route loss probabilities, the rate
  vector each algorithm equilibrates to: the TCP square-root law, LIA's
  Eq. (2), OLIA's best-paths-only allocation (Theorem 1), and the
  ``epsilon``-family of Section II (``x_r`` proportional to
  ``p_r**(-1/epsilon)``) that interpolates between full resource pooling
  (``epsilon -> 0``) and uncoupled TCP-like spreading (``epsilon = 2``).

* an *equilibrium solver*: every rule is an explicit map from route
  prices to rates, so an equilibrium is a root of ``F(q) =
  loss(load(x(q))) - q`` over *link* prices.  :func:`solve_fixed_point_batch`
  finds it by a damped Newton iteration on ``log q`` and solves best-path
  ties on the tie manifold — the analytical counterpart of running the
  testbed to equilibrium.

Batching: every allocation rule works along the **last axis** of its
arguments, so the same code evaluates one scenario (``(n_routes,)``
vectors) or K stacked sweep points (``(K, n_routes)`` matrices).
:func:`solve_fixed_point_batch` solves all K points of a parameter sweep
in lock-step and drops each point from the compute the moment it
finishes; every operation is row-wise, so every row is
**bitwise-identical** to what a sequential :func:`solve_fixed_point`
call on that point alone would return (the same contract
:class:`~repro.fluid.BatchFluidIntegrator` keeps for the time-domain
integrator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from .network import BatchFluidNetwork
from .pricemap import _EPS, PriceMap, TieMap, rel_change
from .pricemap import tcp_rates as _tcp_rates


def tcp_rate(p, rtt):
    """TCP loss-throughput formula ``x = sqrt(2/p) / rtt`` (pkt/s).

    Parameters
    ----------
    p : float or ndarray
        Loss probability (clamped below at a tiny positive value).
    rtt : float or ndarray
        Round-trip time in seconds; broadcast against ``p``.

    Returns
    -------
    float or ndarray
        The equilibrium rate; a plain ``float`` for scalar inputs, an
        array of the broadcast shape otherwise.
    """
    rates = np.sqrt(2.0 / np.maximum(p, _EPS)) / np.asarray(rtt, dtype=float)
    if np.ndim(rates) == 0:
        return float(rates)
    return rates


def best_path_rate(p, rtt):
    """Rate of a regular TCP user on the best of the given paths.

    Parameters
    ----------
    p, rtt : array_like, shape ``(..., n_paths)``
        Per-path loss probabilities and RTTs; paths live on the last
        axis.

    Returns
    -------
    float or ndarray, shape ``(...)``
        ``max_r sqrt(2/p_r)/rtt_r`` reduced along the last axis; a
        ``float`` for 1-D input.
    """
    rates = np.max(_tcp_rates(p, rtt), axis=-1)
    if np.ndim(rates) == 0:
        return float(rates)
    return rates


def lia_allocation(p, rtt) -> np.ndarray:
    """LIA's fixed-point allocation, Eq. (2) of the paper.

    Windows are proportional to ``1/p_r`` and the total rate equals the
    TCP rate on the best path: ``w_r = (1/p_r) * best / sum_p 1/(rtt_p p_p)``
    with ``x_r = w_r / rtt_r``.

    Parameters
    ----------
    p, rtt : array_like, shape ``(..., n_routes)``
        Route loss probabilities and RTTs; routes live on the last axis,
        leading axes are independent sweep points.

    Returns
    -------
    ndarray, shape ``(..., n_routes)``
        Per-route rates; each leading-axis row is computed exactly as a
        1-D call on that row would.
    """
    p = np.maximum(np.asarray(p, dtype=float), _EPS)
    rtt = np.asarray(rtt, dtype=float)
    best = np.max(np.sqrt(2.0 / p) / rtt, axis=-1, keepdims=True)
    denom = np.sum(1.0 / (rtt * p), axis=-1, keepdims=True)
    windows = (1.0 / p) * best / denom
    return windows / rtt


def olia_allocation(p, rtt, floor=None, tie_tolerance: float = 1e-6
                    ) -> np.ndarray:
    """OLIA's fixed point per Theorem 1: best paths only.

    Only the routes maximizing ``sqrt(2/p_r)/rtt_r`` carry traffic; the
    total equals the TCP rate on the best path, split equally among tied
    best paths.  Non-best routes receive the probing ``floor`` (0 by
    default), matching the minimum-window behaviour of the implementation.

    Parameters
    ----------
    p, rtt : array_like, shape ``(..., n_routes)``
        Route loss probabilities and RTTs (routes on the last axis).
    floor : array_like, optional
        Probing rate assigned to non-best routes; broadcast against
        ``p``.  ``None`` means zero.
    tie_tolerance : float
        Relative tolerance for counting a path as tied-best.

    Returns
    -------
    ndarray, shape ``(..., n_routes)``
        Per-route rates.
    """
    p = np.maximum(np.asarray(p, dtype=float), _EPS)
    rtt = np.asarray(rtt, dtype=float)
    rates = np.sqrt(2.0 / p) / rtt
    best = np.max(rates, axis=-1, keepdims=True)
    best_set = rates >= best * (1.0 - tie_tolerance)
    n_best = np.sum(best_set, axis=-1, keepdims=True)
    if floor is None:
        base = np.zeros_like(p)
    else:
        base = np.broadcast_to(np.asarray(floor, dtype=float), p.shape)
    return np.where(best_set, best / n_best, base)


def epsilon_family_allocation(p, rtt, epsilon) -> np.ndarray:
    """The ``epsilon``-family of Section II: ``x_r ~ p_r**(-1/epsilon)``.

    The total rate is normalised to the TCP rate on the best path (design
    goals 1-2).  ``epsilon = 1`` reproduces LIA's Eq. (2) when RTTs are
    equal; ``epsilon -> 0`` concentrates on the least-lossy path (fully
    coupled); ``epsilon = 2`` spreads like uncoupled TCP.

    Parameters
    ----------
    p, rtt : array_like, shape ``(..., n_routes)``
        Route loss probabilities and RTTs (routes on the last axis).
    epsilon : float or array_like
        Coupling parameter, non-negative.  An array (broadcast against
        ``p``, e.g. shape ``(K, 1)`` for per-sweep-point epsilons) must
        be strictly positive — per-point batches handle the
        ``epsilon = 0`` (OLIA) points through :func:`olia_allocation`
        separately, because the two formulas do not mix row-wise.

    Returns
    -------
    ndarray, shape ``(..., n_routes)``
        Per-route rates; each row is bitwise-identical to a scalar call
        with that row's epsilon.
    """
    epsilon = np.asarray(epsilon, dtype=float)
    if np.any(epsilon < 0):
        raise ValueError("epsilon must be non-negative")
    p = np.maximum(np.asarray(p, dtype=float), _EPS)
    rtt = np.asarray(rtt, dtype=float)
    if epsilon.ndim == 0:
        if epsilon == 0:
            return olia_allocation(p, rtt)
    elif np.any(epsilon == 0):
        raise ValueError(
            "per-point epsilon arrays must be strictly positive "
            "(route epsilon=0 points through the OLIA rule instead)")
    total = np.max(np.sqrt(2.0 / p) / rtt, axis=-1, keepdims=True)
    # exp/log, not ``p ** (-1/epsilon)``: numpy's power takes shortcuts
    # (reciprocal, square root) that depend on whether the exponent is a
    # scalar or a per-point array, which breaks row == scalar-call bits.
    weights = np.exp(np.log(p) * (-1.0 / epsilon))
    return total * weights / np.sum(weights, axis=-1, keepdims=True)


class PerPointEpsilonRule:
    """An epsilon-family rule with one epsilon per batched sweep point.

    Lets a whole epsilon grid solve as a single
    :func:`solve_fixed_point_batch` call: the rule broadcasts its
    ``(K,)`` epsilon vector against the ``(K, n_routes)`` state, so row
    ``k`` computes exactly what a scalar ``epsilon=epsilons[k]`` rule
    would.  Implements the ``take_points`` protocol so the solver can
    compact frozen rows out of the iteration.
    """

    def __init__(self, epsilons) -> None:
        self.epsilons = np.atleast_1d(np.asarray(epsilons, dtype=float))
        if np.any(self.epsilons <= 0):
            raise ValueError("per-point epsilons must be positive")

    def __call__(self, p, rtt) -> np.ndarray:
        return epsilon_family_allocation(p, rtt, self.epsilons[:, None])

    def take_points(self, points) -> "PerPointEpsilonRule":
        """The same rule restricted to a subset of batch points."""
        return PerPointEpsilonRule(self.epsilons[points])


class PerPointRuleSet:
    """A different allocation rule for every batched sweep point.

    Where :class:`PerPointEpsilonRule` varies one *parameter* across the
    K-dimension, this varies the *algorithm*: row ``k`` of the batch is
    evaluated by ``rules[k]``, so heterogeneous queries — one user
    running OLIA here, BALIA there — still solve as a single
    :func:`solve_fixed_point_batch` call.  Rows sharing the same rule
    object evaluate together in one vectorized call; allocation rules
    operate row-wise along the last axis, so each row's numbers are
    bitwise identical to a standalone K=1 solve with its own rule.
    Implements the ``take_points`` compaction protocol.
    """

    def __init__(self, rules) -> None:
        rules = list(rules)
        if not rules:
            raise ValueError("PerPointRuleSet needs at least one rule")
        distinct: dict = {}
        labels = [distinct.setdefault(id(rule), (len(distinct), rule))[0]
                  for rule in rules]
        self._bind([rule for _, rule in distinct.values()],
                   np.asarray(labels, dtype=np.intp))

    def _bind(self, rules, labels: np.ndarray) -> None:
        """``labels[k]`` names the entry of ``rules`` that row k uses; the
        row groups are built here, once, not in every call."""
        self._rules, self._labels = rules, labels
        self._groups = [(rule, rows) for rule, rows in
                        ((rule, np.flatnonzero(labels == g))
                         for g, rule in enumerate(rules)) if len(rows)]

    def __call__(self, p, rtt) -> np.ndarray:
        p = np.atleast_2d(np.asarray(p, dtype=float))
        rtt = np.atleast_2d(np.asarray(rtt, dtype=float))
        if p.shape[0] != len(self._labels):
            raise ValueError(
                f"batch has {p.shape[0]} points but rule set has "
                f"{len(self._labels)} rules")
        if len(self._groups) == 1:     # homogeneous batch: no gather
            return np.asarray(self._groups[0][0](p, rtt), dtype=float)
        out = np.empty_like(p)
        for rule, rows in self._groups:
            out[rows] = np.asarray(rule(p[rows], rtt[rows]), dtype=float)
        return out

    def take_points(self, points) -> "PerPointRuleSet":
        """The same rule set restricted to a subset of batch points."""
        subset = object.__new__(PerPointRuleSet)
        subset._bind(self._rules, np.atleast_1d(self._labels[points]))
        return subset


def tcp_allocation(p, rtt) -> np.ndarray:
    """Uncoupled: every route gets the full TCP rate for its own loss.

    Parameters
    ----------
    p, rtt : array_like, shape ``(..., n_routes)``
        Route loss probabilities and RTTs.

    Returns
    -------
    ndarray, shape ``(..., n_routes)``
        ``sqrt(2/p_r)/rtt_r`` elementwise.
    """
    return _tcp_rates(p, rtt)


def ewtcp_allocation(p, rtt) -> np.ndarray:
    """EWTCP's fixed point: ``sqrt(a)`` TCP rates with ``a = 1/n^2``.

    Each subflow runs a weighted AIMD whose equilibrium rate is
    ``sqrt(2a/p_r)/rtt_r = (1/n) sqrt(2/p_r)/rtt_r`` — the aggregate of
    ``n`` subflows sharing one bottleneck equals one TCP, with no
    congestion balancing between paths.

    Parameters
    ----------
    p, rtt : array_like, shape ``(..., n_routes)``
        Route loss probabilities and RTTs.

    Returns
    -------
    ndarray, shape ``(..., n_routes)``
        ``sqrt(2/p_r)/rtt_r / n_routes`` elementwise.
    """
    rates = _tcp_rates(p, rtt)
    return rates / rates.shape[-1]


AllocationRule = Callable[[Sequence[float], Sequence[float]], np.ndarray]


def allocation_rule(name: str, **kwargs) -> AllocationRule:
    """Look up an allocation rule by algorithm name.

    .. deprecated::
        Thin wrapper over the cross-layer registry — use
        :func:`repro.core.registry.make_allocation_rule`, which resolves
        the same names (and is the only dispatch path; a CI gate keeps
        new call sites off this wrapper).

    Returns
    -------
    AllocationRule
        A callable ``rule(p, rtt) -> rates`` operating along the last
        axis of its arguments.
    """
    import warnings

    from ..core import registry
    warnings.warn(
        "repro.fluid.equilibrium.allocation_rule is deprecated; use "
        "repro.core.registry.make_allocation_rule",
        DeprecationWarning, stacklevel=2)
    return registry.make_allocation_rule(name, **kwargs)


@dataclass
class FixedPointResult:
    """Outcome of the equilibrium solve (one sweep point).

    ``iterations`` counts the map evaluations spent on the point,
    ``residual`` is the one-step residual of the rate map at ``rates``
    (``max|T(x) - x| / max|T(x)|`` with ``T`` one undamped application of
    rules and loss models) — except for ``exit_reason == "tie"``, where
    it is the larger of the link-equation and price-equality residuals —
    and ``exit_reason`` says how the point left the solver (see
    :func:`solve_fixed_point_batch`).
    """

    rates: np.ndarray
    route_loss: np.ndarray
    link_loss: np.ndarray
    iterations: int
    converged: bool
    residual: float
    exit_reason: str = "newton"

    def user_totals(self, network) -> np.ndarray:
        return network.user_totals(self.rates)


@dataclass
class BatchFixedPointResult:
    """Fixed points of K batched sweep points, solved in lock-step.

    All arrays carry the sweep point on the first axis; ``result(k)``
    unpacks one point into the classic :class:`FixedPointResult`.
    """

    batch_network: BatchFluidNetwork
    rates: np.ndarray        # (K, n_routes)
    route_loss: np.ndarray   # (K, n_routes)
    link_loss: np.ndarray    # (K, n_links)
    iterations: np.ndarray   # (K,) int
    converged: np.ndarray    # (K,) bool
    residual: np.ndarray     # (K,)
    exit_reason: np.ndarray  # (K,) str

    @property
    def n_points(self) -> int:
        return self.rates.shape[0]

    def result(self, point: int) -> FixedPointResult:
        """The classic per-point result of one sweep point."""
        return FixedPointResult(
            rates=self.rates[point], route_loss=self.route_loss[point],
            link_loss=self.link_loss[point],
            iterations=int(self.iterations[point]),
            converged=bool(self.converged[point]),
            residual=float(self.residual[point]),
            exit_reason=str(self.exit_reason[point]))

    def results(self) -> List[FixedPointResult]:
        """All K per-point results."""
        return [self.result(k) for k in range(self.n_points)]

    def user_totals(self) -> np.ndarray:
        """Per-user total rates, shape ``(K, n_users)``."""
        return self.batch_network.networks[0].user_totals(self.rates)


def _resolve_rules(n_users: int, rules) -> List[AllocationRule]:
    """Normalise ``rules`` to one allocation callable per user.

    Accepts algorithm names, :class:`~repro.core.registry.AlgorithmSpec`
    instances, or ready-made rule callables (per user or shared);
    names/specs resolve through the cross-layer registry.
    """
    from ..core.registry import AlgorithmSpec, make_allocation_rule
    if isinstance(rules, (str, AlgorithmSpec)) or callable(rules):
        rules = {user: rules for user in range(n_users)}
    per_user: List[AllocationRule] = []
    for user in range(n_users):
        rule = rules[user]
        if isinstance(rule, (str, AlgorithmSpec)):
            rule = make_allocation_rule(rule)
        elif isinstance(rule, PerPointRuleSet) and len(rule._groups) == 1:
            rule = rule._groups[0][0]    # one rule for every point
        per_user.append(rule)
    return per_user


#: Link price every carried link starts from when no ``x0`` is given.
_START_PRICE = 0.01
#: Forward-difference step of the Jacobian, in log-price units.
_FD_STEP = 1e-6
#: Halvings a Newton step may try before its line search has failed.
_BACKTRACKS = 6
#: Map evaluations any one point may spend, whatever ``max_iter`` says.
_EVAL_BUDGET = 300
#: Plain damped steps that may bridge failed line searches of one point.
_FALLBACK_STEPS = 60
#: Newton steps in a row whose full step is rejected before the point is
#: tried as a tie.
_TIE_STRADDLES = 2
#: Longest move of any log price in one step (a factor e**2): in the flat
#: stretches of a loss curve (saturated, or clamped at zero) the Newton
#: step is the whole distance to the other extreme.
_MAX_STEP = 2.0
_LOG_EPS = float(np.log(_EPS))
_DONE, _STALLED, _BUDGET, _TIE = range(4)
_REASONS = np.array(["newton", "stalled", "budget", "tie"], dtype=object)


class _Run:
    """Where each row of one :func:`_newton` call ended up."""

    def __init__(self, z: np.ndarray, evals: np.ndarray) -> None:
        self.z, self.evals, self.x = z.copy(), evals.copy(), None
        self.residual = np.full(len(z), np.inf)
        self.code = np.full(len(z), _BUDGET)
        self.plain = np.zeros(len(z), dtype=int)


def _solve_rows(jacobian: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Row-wise ``J d = rhs``; a singular row gets a NaN step (and so
    fails its line search) instead of failing its neighbours."""
    try:
        return np.linalg.solve(jacobian, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.full_like(rhs, np.nan)
        for k in range(len(rhs)):
            try:
                steps[k] = np.linalg.solve(jacobian[k], rhs[k])
            except np.linalg.LinAlgError:
                pass
        return steps


def _newton(fmap, z, evals, budget: int, tol: float,
            damping: "float | None" = None) -> _Run:
    """Batched damped Newton on ``fmap(z) -> (F, x)``.

    Forward-difference Jacobian (one evaluation per unknown), per-row
    backtracking on ``max|F|``; rows leave the compute the moment they
    finish and every operation is row-wise, so a row's numbers do not
    depend on its neighbours.  A row is ``_BUDGET`` when its next step
    could overrun ``budget`` evaluations.  Without ``damping`` (the tie
    solve) it is ``_DONE`` when ``max|F| < tol`` and ``_STALLED`` when
    a line search fails.

    With ``damping`` (the price map) ``_DONE`` also requires the rates
    ``x`` to reproduce themselves through one more evaluation to within
    ``tol``; that evaluation, at ``z + F``, is the row's next iterate
    when they do not.  The plain damped step ``z <- z + damping * F`` is
    the warm start (one step: it takes a symmetric start off the kinks
    of min/max rules) and the fallback: a row whose search finds no step
    length down to ``2**-_BACKTRACKS`` that reduces ``max|F|`` takes one
    and tries again, ``_FALLBACK_STEPS`` times before it is
    ``_STALLED``.  A search that fails, or rejects its full step
    ``_TIE_STRADDLES`` Newton steps running, across a best-set jump is a
    tie: the row is re-solved on the tie manifold (:class:`TieMap`,
    from its current prices and an even split) and is ``_TIE`` when that
    converges with the split inside ``[0, 1]``; when it does not, the
    row carries on here and is not tried again.
    """
    main = damping is not None
    run = _Run(z, evals)
    n = z.shape[1]
    prices = slice(0, n if main else n - 1)     # a split is not clipped
    rows = np.arange(len(z))
    z, evals = z.copy(), evals + 1
    residual, x = fmap(z)
    run.x = np.zeros_like(x)
    norm = np.max(np.abs(residual), axis=1)
    plain, straddles, exempt = (
        np.zeros(len(z), dtype=kind) for kind in (int, int, bool))

    def retire(mask, code, measured) -> None:
        """Record the rows in ``mask`` as finished and drop them."""
        nonlocal rows, z, residual, x, evals, norm, plain, straddles, \
            exempt, fmap
        if not mask.any():
            return
        slots = rows[mask]
        run.z[slots], run.x[slots] = z[mask], x[mask]
        run.evals[slots], run.code[slots] = evals[mask], code
        run.residual[slots], run.plain[slots] = measured[mask], plain[mask]
        keep = ~mask
        rows, z, residual, x, evals, norm, plain, straddles, exempt = (
            a[keep] for a in (rows, z, residual, x, evals, norm, plain,
                              straddles, exempt))
        if keep.any():
            fmap = fmap.take(keep)

    def probe(mask, target):
        """One evaluation of the rows in ``mask`` at ``target``, clipped
        to valid prices: ``(target, F, x, max|F|)``."""
        target[:, prices] = np.clip(target[:, prices], _LOG_EPS, 0.0)
        res, rates = (fmap if mask.all() else fmap.take(mask))(target)
        evals[mask] += 1
        return target, res, rates, np.max(np.abs(res), axis=1)

    def plain_step(mask) -> None:
        z[mask], residual[mask], x[mask], norm[mask] = probe(
            mask, z[mask] + np.clip(damping * residual[mask],
                                    -_MAX_STEP, _MAX_STEP))

    def settle(index, reject) -> np.ndarray:
        """Solve on the tie manifold those rows of ``index`` whose failed
        search towards ``reject`` straddles a best-set jump; ``True``
        for the rows this settled (their ``x`` and ``norm`` updated)."""
        settled = np.zeros(len(z), dtype=bool)
        index = index[~exempt[index]]
        if not len(index):
            return settled
        sub = fmap.take(index)
        groups: dict = {}
        for k, tie in enumerate(
                sub.tie_candidates(z[index], reject[index])):
            if tie is not None:
                groups.setdefault(tie, []).append(k)
        for (slot, a, b), members in groups.items():
            at = index[members]
            tie = _newton(
                TieMap(sub.take(members), slot, a, b),
                np.column_stack([z[at], np.full(len(at), 0.5)]), evals[at],
                budget - _BACKTRACKS - 1, tol)
            split = tie.z[:, -1]
            solved = (tie.code == _DONE) & (split >= 0.0) & (split <= 1.0)
            evals[at], exempt[at] = tie.evals, ~solved
            won = at[solved]
            x[won], norm[won], settled[won] = (
                tie.x[solved], tie.residual[solved], True)
        return settled

    if main and budget > 1:
        plain_step(np.ones(len(z), dtype=bool))
    while True:
        measured, done = norm, norm < tol
        if main and done.any():
            # One undamped step of the rate map from x: its image is the
            # verdict, and the row's next iterate when the verdict is no.
            z_next, res_next, x_next, norm_next = probe(
                done, z[done] + residual[done])
            measured = norm.copy()
            measured[done] = rel_change(x_next, x[done])
            failed = done & ~(measured < tol)
            pick = failed[done]
            z[failed], residual[failed] = z_next[pick], res_next[pick]
            x[failed], norm[failed] = x_next[pick], norm_next[pick]
            done = done & ~failed
        retire(done, _DONE, measured)
        retire(evals + n + _BACKTRACKS + 2 > budget, _BUDGET, norm)
        if not len(rows):
            return run
        # All n columns in one call: block j of the stacked rows is every
        # row bumped in unknown j (row-wise maps, so the same numbers as
        # n calls).
        m = len(z)
        bumped = np.tile(z, (n, 1))
        for j in range(n):
            bumped[j * m:(j + 1) * m, j] += _FD_STEP
        stacked = fmap.take(np.tile(np.arange(m), n))(bumped)[0]
        jacobian = ((stacked.reshape(n, m, n) - residual)
                    / _FD_STEP).transpose(1, 2, 0)
        evals += n
        step = _solve_rows(jacobian, -residual)
        step *= np.minimum(
            1.0, _MAX_STEP / np.max(np.abs(step), axis=1))[:, None]
        pending = np.ones(len(z), dtype=bool)
        tied = np.zeros(len(z), dtype=bool)
        reject = z.copy()
        length = 1.0
        for attempt in range(_BACKTRACKS + 1):
            trial, res_trial, x_trial, norm_trial = probe(
                pending, z[pending] + length * step[pending])
            better = norm_trial < (1.0 - 1e-4 * length) * norm[pending]
            index = np.flatnonzero(pending)
            took, missed = index[better], index[~better]
            z[took], residual[took] = trial[better], res_trial[better]
            x[took], norm[took] = x_trial[better], norm_trial[better]
            reject[missed] = trial[~better]
            pending[took] = False
            if main and attempt == 0:
                straddles = np.where(pending, straddles + 1, 0)
                tied = settle(
                    np.flatnonzero(straddles >= _TIE_STRADDLES), reject)
                pending &= ~tied
            if not pending.any():
                break
            length *= 0.5
        if main:
            tied |= settle(np.flatnonzero(pending), reject)
            pending &= ~tied
            escape = pending & (plain < _FALLBACK_STEPS)
            if escape.any():
                plain_step(escape)
                plain[escape] += 1
            pending &= ~escape
        retire(tied, _TIE, norm)
        retire(pending[~tied], _STALLED, norm)
        if not len(rows):
            return run


def solve_fixed_point_batch(networks, rules, *,
                            floor_packets: float = 0.0,
                            damping: float = 0.15,
                            tol: float = 1e-8,
                            max_iter: int = 20000,
                            x0: np.ndarray | None = None
                            ) -> BatchFixedPointResult:
    """Equilibria of K stacked sweep points: Newton in link-price space.

    Every allocation rule is an explicit map from route prices to rates,
    so an equilibrium is a root of ``F(u) = log loss(load(x(e^u))) - u``
    over the ``n_links`` log link prices ``u`` (:class:`PriceMap`; the
    probing floor is inside ``x``).  All K points take damped Newton
    steps on ``F`` in lock-step (:func:`_newton`: finite-difference
    Jacobian, ``n_links + 1`` map evaluations per step, per-row
    backtracking).  A point leaves the compute when it finishes and
    every operation is row-wise, so its rates, evaluation count and
    residual are exactly what :func:`solve_fixed_point` on it alone
    returns, bit for bit.

    Convergence is declared on the rate map ``T(x) = max(rule(loss(
    load(x))), floor)``, never on a rescaled step: a converged point has
    ``max|F| < tol`` *and* ``max|T(x) - x| / max|T(x)| < tol`` at its
    rates ``x``; the latter is its ``residual``.

    Best-path ties: OLIA, fully coupled, ``epsilon = 0`` and BALIA pick
    their best path by TCP rate, so their rule *jumps* where two routes
    tie, and an equilibrium that needs both routes (Theorem 1: any split
    among tied best paths) is a root of no single-valued ``F``.  A point
    whose line search keeps failing across such a jump is re-solved on
    the tie manifold (:class:`TieMap`): the split joins the unknowns
    and price equality the equations, which makes the system smooth
    again; its ``residual`` is the larger of the link-equation and
    price-equality residuals.  BALIA's closed form is itself
    discontinuous at a tie (its true rest points there form a hysteresis
    band); its tie answer is the point of the convex hull of the two
    one-sided values at exact price equality.

    ``exit_reason`` per point: ``"newton"``; ``"tie"``; ``"fallback"``
    (converged, but a failed line search was bridged by plain damped
    steps ``u <- u + damping * F`` — the step that is also every point's
    warm start); ``"stalled"`` (no descent, no tie, no plain steps left)
    and ``"budget"`` (the next step could exceed ``min(max_iter,
    _EVAL_BUDGET)`` map evaluations), both ``converged=False`` with the
    honest one-step residual on record.

    Parameters
    ----------
    networks : BatchFluidNetwork or sequence of FluidNetwork
        K topologically-identical networks (same links/users/routes;
        RTTs and loss parameters may differ per point).
    rules : str, callable or mapping
        A single rule/name shared by every user, or a mapping
        ``user -> rule/name``; shared across all K points.  A rule with
        per-point parameters (:class:`PerPointEpsilonRule`,
        :class:`PerPointRuleSet`) exposes ``take_points(points)``, which
        the solver calls as the active set shrinks.
    floor_packets : float
        Probing floor in packets per RTT, part of the rate map.
    damping : float
        Step size of the plain damped step (warm start and fallback).
    tol : float
        Tolerance on ``max|F|`` and on the one-step residual.
    max_iter : int
        Budget of map evaluations per point, capped at ``_EVAL_BUDGET``.
    x0 : ndarray, optional
        Start rates, shape ``(K, n_routes)``: the solve starts from the
        link prices they induce (default: ``_START_PRICE`` everywhere).

    Returns
    -------
    BatchFixedPointResult
        Per-point rates, losses and convergence diagnostics.
    """
    net = (networks if isinstance(networks, BatchFluidNetwork)
           else BatchFluidNetwork(networks))
    rtts = net.rtts  # (K, n_routes)
    floor = (floor_packets / rtts if floor_packets > 0
             else np.zeros_like(rtts))
    fmap = PriceMap(net, _resolve_rules(net.n_users, rules), floor)
    n_points = rtts.shape[0]
    if x0 is None:
        u = np.full((n_points, net.n_links), np.log(_START_PRICE))
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != rtts.shape:
            raise ValueError(
                f"x0 must have shape {rtts.shape}, got {x0.shape}")
        u = np.log(fmap.prices(np.maximum(x0, floor)))
    budget = max(1, min(int(max_iter), _EVAL_BUDGET))

    with np.errstate(all="ignore"):
        # The last evaluation of the budget is kept back for the honest
        # residual of a point that did not converge.
        run = _newton(fmap, u, np.zeros(n_points, dtype=int), budget - 1,
                      tol, damping)
        reason = _REASONS[run.code]
        reason[(run.code == _DONE) & (run.plain > 0)] = "fallback"
        converged = (run.code == _DONE) | (run.code == _TIE)
        left = np.flatnonzero(~converged & (run.evals < budget))
        if len(left):
            sub = fmap.take(left)
            x = run.x[left]
            run.residual[left] = rel_change(sub.rates(sub.prices(x)), x)
            run.evals[left] += 1

    return BatchFixedPointResult(
        batch_network=net, rates=run.x,
        route_loss=net.route_loss_probs(run.x),
        link_loss=net.link_loss_probs(run.x),
        iterations=run.evals, converged=converged,
        residual=run.residual, exit_reason=reason.astype(str))


def solve_fixed_point(network, rules, *,
                      floor_packets: float = 0.0,
                      damping: float = 0.15,
                      tol: float = 1e-8,
                      max_iter: int = 20000,
                      x0: np.ndarray | None = None) -> FixedPointResult:
    """The K=1 case of :func:`solve_fixed_point_batch`: one code path,
    so sequential and batched sweeps produce bitwise-equal fixed points.

    Parameters are those of the batched solver; ``x0`` has shape
    ``(n_routes,)`` here.
    """
    batch = solve_fixed_point_batch(
        [network], rules, floor_packets=floor_packets, damping=damping,
        tol=tol, max_iter=max_iter,
        x0=None if x0 is None else np.asarray(x0, dtype=float)[None, :])
    return batch.result(0)


def verify_theorem1(network, x: np.ndarray, *,
                    floor_packets: float = 1.0,
                    rtol: float = 0.05) -> Dict[str, bool]:
    """Check the two claims of Theorem 1 for rate vector ``x``.

    (i) only best paths carry more than the probing floor;
    (ii) each user's total rate matches the TCP rate on its best path.
    Returns a dict of booleans per claim.
    """
    rtts = network.rtt_array()
    p_routes = network.route_loss_probs(x)
    only_best = True
    total_matches = True
    for user, routes in enumerate(network.routes_of_user):
        idx = np.asarray(routes, dtype=int)
        p, rtt, rates = p_routes[idx], rtts[idx], x[idx]
        tcp_rates = _tcp_rates(p, rtt)
        best = float(np.max(tcp_rates))
        floor = floor_packets / rtt
        for rate, path_rate, f in zip(rates, tcp_rates, floor):
            is_best = path_rate >= best * (1.0 - rtol)
            # More than ~30% above the probing floor counts as "in use".
            if not is_best and rate > 1.3 * f:
                only_best = False
        if not np.isclose(float(np.sum(rates)), best,
                          rtol=rtol, atol=2 * float(np.max(floor))):
            total_matches = False
    return {"only_best_paths": only_best, "total_is_best_tcp": total_matches}
