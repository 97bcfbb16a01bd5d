"""Recovering photon-number statistics from click statistics.

The click law c = L p is linear, so in principle inversion is a pseudo-inverse.
In practice L is ill-conditioned as soon as the photon support is rich
compared to the number of bins, and the unconstrained solution picks up
negative entries.  The solver is least squares restricted to the
probability simplex (p >= 0, sum p = 1), ``lstsq_simplex``: a square L is
solved directly first; the other records go through an active-set
iteration of reduced least-squares solves.  Both keep the error near
cond(L) eps.  ``invert_clicks`` also offers the plain Moore-Penrose solve
(``method="pseudo_inverse"``), reported raw so the negativity artifacts
stay visible.

The Q_M route (``q_mandel_rows``, ``q_mandel_from_clicks``,
``mc_q_mandel_from_clicks``) always inverts on the simplex, with the
detector's efficiency stripped (dark counts kept), so the recovered
statistics, and the witness computed from them, refer to the photons that
actually reached the detector.  That matches how the witness is used:
detection loss is part of the optical state under test, not something to
be divided out.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .detector import ClickDistribution, CountRecord, DetectorModel, click_matrix
from .distributions import PhotonDistribution, check_count
from .errors import IllConditionedInversionError, InvalidArgumentError, SolverNotConvergedError
from .witnesses import WitnessEstimate, mandel_rows, one_row, poisson_bootstrap

_METHODS = ("constrained", "pseudo_inverse")

#: Condition numbers beyond this make the linear solve meaningless.
CONDITION_LIMIT = 1e12

#: Negative mass a pseudo-inverse solution may carry and still be read as probabilities.
_NEGATIVE_MASS_ATOL = 1e-9

#: ``lstsq_simplex``'s tolerance on negative entries, the sum, KKT multipliers and progress.
_TOL = 1e-12

#: ``lstsq_simplex``'s step budget: 100 (n + 1) active-set steps for n coordinates.
_STEPS_PER_COORDINATE = 100


#: Laws of at most this many bytes have their reduced pseudo-inverses cached,
#: 1,024 supports of at most twice this each (law and pseudo-inverse): 4 MiB in
#: all, and every support of a law of up to 10 columns.
_CACHED_LAW_BYTES = 1 << 11


def _reduced_pinv(A: np.ndarray, mask: np.ndarray) -> tuple:
    """(rest, last, pinv(A[:, rest] - A[:, [last]])) for the free coordinates of ``mask``, ``last`` the eliminated one."""
    free = np.flatnonzero(~mask)
    rest, last = free[:-1], free[-1]
    return rest, last, np.linalg.pinv(A[:, rest] - A[:, [last]])


def _law_key(A: np.ndarray) -> tuple:
    """The support cache's key for the law A: its shape and bytes."""
    return A.shape, A.tobytes()


@lru_cache(maxsize=1024)
def _cached_pinv(shape: tuple, law: bytes, mask: bytes) -> tuple:
    """``_reduced_pinv`` by the law's content, never its identity: a law edited in place is a new law.

    The returned arrays are read-only, as every caller shares them.
    """
    rest, last, pinv = _reduced_pinv(np.frombuffer(law).reshape(shape), np.frombuffer(mask, dtype=bool))
    rest.flags.writeable = pinv.flags.writeable = False
    return rest, last, pinv


def lstsq_simplex(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||A p - b||_2 over the probability simplex, for one or many b.

    ``b`` is one right-hand side of shape (m,), giving p of shape (n,), or a
    stack of R of them, shape (R, m), giving one solution per row, (R, n).

    A square A is first solved directly (LU, error ~cond(A) eps).  A row
    whose solution lies on the simplex (entries >= -1e-12, sum within
    n 1e-12 of 1 for A of shape (m, n)) fits exactly, so it is clipped at 0
    and returned.  Only the other rows, and every row of a tall or singular
    A, enter the active set.

    Active-set iteration (Lawson & Hanson, *Solving Least Squares
    Problems*, 1974, ch. 23): pinned coordinates sit at 0.  The free ones
    solve least squares under sum p = 1, the sum eliminated through the
    last free coordinate j: p_j = 1 - sum y over the others, with columns
    A_y, and y = pinv(A_y - a_j 1^T) (b - a_j).  The SVD keeps the error
    ~cond eps and gives rank-deficient supports the minimum-norm y.  The
    KKT multipliers are g - (p . g), g = A^T (A p - b); coordinates enter
    or leave the active set one at a time until every one is >= -1e-12.
    A pinned coordinate whose release makes no progress (its unpinned
    solution heads straight back below zero) is barred from release until
    the objective next improves, which rules out cycling on degenerate
    data.  All rows iterate together: each step takes the unfinished rows
    whose active set is the first remaining row's as one group, members in
    pending order, and repeats until no row is left; each group shares one
    product with its pseudo-inverse.  Each row follows the iteration it
    would follow alone, for at most 100 (n + 1) steps, but its last bit
    can depend on its batch: the LU solve and ``pinv @ M`` round a
    one-column and a many-column M differently.

    One factorisation per support serves every row, every iteration and
    every later call on the same law: for an A of at most 2 KiB, the
    pseudo-inverses come from an ``lru_cache`` of 1,024 supports keyed by
    A's content (shape and bytes) and the pinned coordinates.  It is
    filled only once a row enters the active set, so a batch that the LU
    solve finishes neither reads A's bytes nor caches anything.  A cached
    and a fresh factorisation are the same bits, so results never depend
    on what was solved before.

    Raises:
        InvalidArgumentError: mismatched shapes, an A with no columns (no
            simplex), or a NaN or inf in A or b.
        SolverNotConvergedError: some row still fails the KKT conditions
            after 100 (n + 1) steps.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.ndim != 2 or not A.shape[1] or B.ndim not in (1, 2) or B.shape[-1] != A.shape[0]:
        raise InvalidArgumentError("A must be 2-d with at least one column and rows matching b")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise InvalidArgumentError("A and b must be finite")
    single = B.ndim == 1
    B = np.atleast_2d(B)
    rows, dim = B.shape[0], A.shape[1]
    max_iter = _STEPS_PER_COORDINATE * (dim + 1)

    # P holds each row's point: its iterate while it runs, its solution once it finishes.
    P = np.empty((rows, dim))
    pending = np.arange(rows)
    if A.shape[0] == dim:
        # A row whose exact solution lies on the simplex has objective 0, the
        # global minimum.
        try:
            X = np.linalg.solve(A, B.T).T
        except np.linalg.LinAlgError:
            pass  # singular: every row goes to the active set
        else:
            done = (X >= -_TOL).all(axis=1) & (np.abs(X.sum(axis=1) - 1.0) <= dim * _TOL)
            # C order: X is a transposed view, and the callers' row sums
            # round differently over F-ordered rows.
            P = np.clip(X, 0.0, None, order="C")
            if done.all():
                return P[0] if single else P
            pending = np.flatnonzero(~done)
    # The unfinished rows start from the simplex centre; their right-hand
    # sides, pinned and barred coordinates and best objectives are compacted
    # in pending order.
    P[pending] = 1.0 / dim
    B = B[pending]
    active = np.zeros((pending.size, dim), dtype=bool)
    tabu = np.zeros((pending.size, dim), dtype=bool)
    best = np.full(pending.size, np.inf)
    # The law's bytes are read only once a row enters the active set.
    law = _law_key(A) if pending.size and A.nbytes <= _CACHED_LAW_BYTES else None

    def support(mask):
        return _reduced_pinv(A, mask) if law is None else _cached_pinv(*law, mask.tobytes())

    # Rows are read with ``take``, which copies them several times faster
    # than indexing with an array.
    for _ in range(max_iter):
        if not pending.size:
            break
        # Solve the sum-constrained least squares on the free coordinates,
        # once per distinct active set: peel off the rows sharing the first
        # remaining row's, in pending order.
        X = np.zeros((pending.size, dim))
        left = np.arange(pending.size)
        while left.size:
            same = (active.take(left, axis=0) == active[left[0]]).all(axis=1)
            members, left = left[same], left[~same]
            rest, last, pinv = support(active[members[0]])
            y = pinv @ (B.take(members, axis=0) - A[:, last]).T
            X[members[:, None], rest] = y.T
            X[members, last] = 1.0 - y.sum(axis=0)
        feasible = (X >= -_TOL).all(axis=1)
        f, i = np.flatnonzero(feasible), np.flatnonzero(~feasible)

        # Feasible rows move to their solution, then release the pinned
        # coordinate whose KKT multiplier is most negative.  A branch with no
        # rows is skipped.
        if f.size:
            x = np.clip(X.take(f, axis=0), 0.0, None)
            P[pending[f]] = x
            residual = x @ A.T - B.take(f, axis=0)
            value = 0.5 * np.sum(residual**2, axis=1)
            improved = value < best[f] - _TOL
            best[f[improved]] = value[improved]
            tabu[f[improved]] = False
            grad = residual @ A
            grad -= np.sum(x * grad, axis=1, keepdims=True)  # the multipliers
            candidates = active.take(f, axis=0) & ~tabu.take(f, axis=0) & (grad < -_TOL)
            releasing = candidates.any(axis=1)
            release = np.argmin(np.where(candidates, grad, np.inf), axis=1)[releasing]
            f = f[releasing]
            active[f, release] = False
            tabu[f, release] = True

        # Infeasible rows step toward their solution until the first free
        # coordinate hits zero, and pin that coordinate.
        if i.size:
            x, p = X.take(i, axis=0), P.take(pending[i], axis=0)
            # p >= 0, so a coordinate with x < 0 shrinks (x - p < 0) and
            # reaches zero at a ratio p / (p - x) <= 1.
            step = x - p
            ratios = np.divide(p, -step, out=np.full_like(p, np.inf), where=x < 0)
            block = np.argmin(ratios, axis=1)
            alpha = ratios[np.arange(i.size), block]
            # A row with alpha = 0 keeps p: p + 0 step is p, up to the sign of a zero.
            step *= alpha[:, None]
            step += p
            P[pending[i]] = np.clip(step, 0.0, None, out=step)
            P[pending[i], block] = 0.0
            active[i, block] = True
        # The rows that go on: the releasing feasible ones, then the infeasible.
        keep = np.concatenate((f, i))
        pending, B, active, tabu, best = (a.take(keep, axis=0) for a in (pending, B, active, tabu, best))
    if pending.size:
        raise SolverNotConvergedError(
            f"simplex least-squares did not converge in {max_iter} iterations "
            f"({pending.size} of {rows} right-hand sides unfinished)"
        )
    return P[0] if single else P


@dataclass(frozen=True, eq=False)
class InversionResult:
    """Outcome of a click-to-photon inversion.

    ``probs`` is the raw solution: the pseudo-inverse method can produce
    negative entries (their total shows up in ``negative_mass``), the
    constrained method cannot.  Call :meth:`distribution` to get a
    validated photon-number distribution.
    """

    probs: np.ndarray
    residual_norm: float
    condition_number: float
    method: str
    negative_mass: float = field(init=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "negative_mass", float(-np.clip(probs, None, 0.0).sum()))

    def distribution(self) -> PhotonDistribution:
        """The solution as a normalized distribution.

        Raises:
            InvalidArgumentError: the raw solution has negative mass beyond
                1e-9 and cannot honestly be read as probabilities.
        """
        if self.negative_mass > _NEGATIVE_MASS_ATOL:
            raise InvalidArgumentError(
                f"inverted probabilities carry negative mass {self.negative_mass:.3g}; "
                "use the constrained method"
            )
        probs = np.clip(self.probs, 0.0, None)
        return PhotonDistribution(probs / probs.sum())


@lru_cache(maxsize=64)
def _condition_number(det: DetectorModel, n_max: int) -> float:
    """cond(L) of ``click_matrix(det, n_max)``, cached as the click law is."""
    return float(np.linalg.cond(click_matrix(det, n_max)))


def _click_law(det: DetectorModel, n_max: int, n_bins: int) -> tuple[np.ndarray, float]:
    """L = ``click_matrix(det, n_max)`` and cond(L), once inverting clicks over ``n_bins`` is well posed."""
    if n_bins != det.n_bins:
        raise InvalidArgumentError(
            f"click distribution has {n_bins} bins, detector has {det.n_bins}"
        )
    n_max = check_count(n_max, "n_max")
    if n_max > det.n_bins:
        raise IllConditionedInversionError(
            f"{n_max + 1} photon-number unknowns from {det.n_bins + 1} click "
            "outcomes is underdetermined; lower n_max or add bins"
        )
    L = click_matrix(det, n_max)
    cond = _condition_number(det, n_max)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedInversionError(
            f"click matrix condition number {cond:.3g} exceeds {CONDITION_LIMIT:.0e}",
            condition_number=cond,
        )
    return L, cond


def invert_clicks(
    c: ClickDistribution,
    det: DetectorModel,
    n_max: int,
    method: str = "constrained",
) -> InversionResult:
    """Solve c = L p for the photon-number distribution p on 0..n_max.

    ``method`` is ``"constrained"`` (``lstsq_simplex``) or
    ``"pseudo_inverse"`` (the raw Moore-Penrose solve).

    Raises:
        IllConditionedInversionError: more photon-number unknowns than
            click outcomes (n_max > n_bins), or cond(L) beyond 1e12.
    """
    if method not in _METHODS:
        raise InvalidArgumentError(f"method must be one of {_METHODS}, got {method!r}")
    L, cond = _click_law(det, n_max, c.n_bins)
    probs = c.probs @ np.linalg.pinv(L).T if method == "pseudo_inverse" else lstsq_simplex(L, c.probs)
    residual = float(np.linalg.norm(L @ probs - c.probs))
    return InversionResult(probs=probs, residual_norm=residual, condition_number=cond, method=method)


def q_mandel_rows(det: DetectorModel, n_max: int, n_bins: int) -> Callable:
    """``q_mandel_from_clicks`` of each row of a click-frequency stack, undefined rows left out.

    The returned rows function inverts all rows with one batched
    ``lstsq_simplex`` call; its ``why`` says what leaves a row out.
    """
    L = _click_law(replace(det, efficiency=1.0), n_max, n_bins)[0]

    def rows(freqs: np.ndarray) -> np.ndarray:
        probs = lstsq_simplex(L, freqs)
        probs /= probs.sum(axis=1, keepdims=True)
        return mandel_rows(probs)

    rows.why = "mean photon number is 0"
    return rows


def q_mandel_from_clicks(c: ClickDistribution, det: DetectorModel, n_max: int) -> float:
    """Mandel witness of the detected photons behind a click record: ``q_mandel_rows`` on one row.

    The inversion uses the detector with its efficiency set to 1 (dark
    counts kept), so loss is not divided out: a pure single photon seen
    through 60% efficiency comes back as Q = -0.6, the witness of the
    surviving photon flux.
    """
    rows = q_mandel_rows(det, n_max, c.n_bins)
    return one_row(rows, c.probs, rows.why)


def mc_q_mandel_from_clicks(
    record: CountRecord,
    det: DetectorModel,
    n_max: int,
    n_replicas: int = 10_000,
    seed=None,
) -> WitnessEstimate:
    """Bootstrap ``q_mandel_from_clicks`` under Poissonian counting noise: ``poisson_bootstrap`` on ``q_mandel_rows``."""
    return poisson_bootstrap(record, q_mandel_rows(det, n_max, record.n_bins), n_replicas, seed)
