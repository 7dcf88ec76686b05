"""Conjugate gradient ascent for the scattering matrix.

Every symmetric unitary block has the Takagi form Theta_g = U_g U_g^T with
U_g unitary, so the optimizer's state is the stack of factors U_g, and every
iterate is exactly symmetric and unitary. 1 x 1 blocks (unit scalars, which
are symmetric already) keep Theta_g itself as their state. One run starts
from a random symmetric unitary point and repeatedly

  1. resets the search direction to the Riemannian gradient if it stopped
     being an ascent direction,
  2. picks a step by backtracking Armijo search on the surrogate objective
     (auxiliaries frozen during the search), moving the state along
     geodesics of the symmetric unitary matrices,
  3. refreshes the per-user auxiliaries at the new point,
  4. recomputes the Riemannian gradient and updates the direction with a
     nonnegative Polak-Ribiere coefficient,

until the true sum-rate changes by less than the tolerance. The surrogate
equals the sum-rate at refreshed auxiliaries and never exceeds it, so the
sum-rate never decreases from one iterate to the next. The final matrix
still goes through the per-block projection onto the symmetric unitary set
(symmetrize, SVD, take U V^H), which only rounds an exact iterate.

Direction handling note: the update is written in ascent form (initial
direction equals the gradient, update Xi <- r + beta * Xi, reset to r when
<r, Xi> <= 0). The Polak-Ribiere denominator is <r, r>, which stays well
defined right after resets. Old directions are carried to the new tangent
space by identity transport plus reprojection.

The surrogate objective replaces the log-of-ratio rate in two steps. A
multiplier tau_k moves the SINR ratio out of the log:

    log2(1 + tau_k) - tau_k/ln2 + (1 + tau_k)/ln2 * F_k,
    F_k = |c_kk|^2 / (sum_i |c_ki|^2 + n0),   c_ki = e_k @ v_i,

tight at tau_k = SINR_k. The remaining ratio F_k is replaced by a concave
quadratic in an auxiliary y_k:

    2 Re{conj(y_k) c_kk} - |y_k|^2 (sum_i |c_ki|^2 + n0),

tight at y_k = c_kk / (sum_i |c_ki|^2 + n0). Both denominators run over all
i, including i = k. For any tau >= 0 and any y the surrogate never exceeds
the true rate, and at the closed-form (tau, y) of ``_Workspace.stats`` it
equals it. The iterates are exactly symmetric, so no penalty term is added,
and a step that raises the surrogate at frozen auxiliaries raises the true
sum-rate at least as much.

Every formula is implemented once, on (G, R_G, R_G) block stacks: the signal
matrix, auxiliaries, rate and surrogate in ``_Workspace``, the gradient in
``gradient``, and the manifold steps in ``manifold``. The signal matrix is
linear in Theta, and the line search only ever scores blocks that are
diagonal in a known basis: 1 x 1 blocks in the identity, and on factored
blocks the geodesic's P_g diag(exp(2 i alpha w_g)) P_g^T in the bases P_g
of ``manifold.geodesic``. So ``_Workspace`` holds a channel tensor with one
row per element for those bases, and a whole chunk of candidate diagonals
is one matrix product with it. A factored search builds that tensor once in
its bases P_g, and forms only the factor it accepts; the search also
returns the accepted point's signal matrix, so no iterate recomputes it.
The auxiliaries of one iterate come with their per-user coefficients
(``gradient.Auxiliaries``), formed once from the rate's own log2(1 + tau)
and shared by the objective, every line-search score and the gradient.

The unitarity residual of every iterate's blocks, which only its
``IterationRecord`` reads, is computed in batches. Each record's state is
copied into a buffer that holds as many states as fit in
``_RESIDUAL_BUDGET`` complex entries, and at least one. When the buffer is
full, and at exit, one ``_Workspace.theta`` and one ``unitarity_residuals``
call cover all the states in it; the records are then built in order.
The values are those of one call per iterate, bit for bit. The blocks
Theta themselves are formed once, at exit, for the final projection.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChannelSet
from .config import SystemConfig, check_fields
from .gradient import Auxiliaries, channel_stacks, factor_gradient, gradient_stack
from .manifold import (geodesic, project_stack, random_feasible,
                       random_feasible_stack, retract_batch, unitarity_residuals)
from .system import Beamformer, ScatteringMatrix


@dataclass(frozen=True)
class CgaSettings:
    """Solver hyperparameters for one optimization run.

    Build them with ``from_config``, which takes the iteration cap from the
    config; the noise power stays there too, since it belongs to the system.
    """

    max_iters: int                 # conjugate-gradient iteration cap
    tolerance: float = 1e-8        # convergence tolerance on the sum-rate
    armijo_max_steps: int = 200    # line-search trial cap
    armijo_coeff: float = 2e-11    # sufficient-increase coefficient
    step_init: float = 1.0         # initial line-search step
    step_contract: float = 0.75    # line-search contraction factor

    def __post_init__(self):
        check_fields(self, positive=("tolerance", "step_init"))
        if not 0 <= self.armijo_coeff < math.inf:
            raise ValueError("armijo_coeff must be nonnegative and finite")
        if not 0 < self.step_contract < 1:
            raise ValueError("step_contract must lie in (0, 1)")

    @classmethod
    def from_config(cls, config: SystemConfig, **overrides) -> "CgaSettings":
        return cls(**{"max_iters": config.max_iters, **overrides})


@dataclass(frozen=True)
class IterationRecord:
    """One iterate of a run: the start point (``iter`` 0) or the point an
    iteration reached, which is the previous one after a stalled search
    (``step`` 0). ``unitarity_residual`` is the largest ||T_g T_g^H - I||_F
    over its blocks, computed in batches (see the module docstring)."""

    iter: int
    true_rate: float         # eta, bits/s/Hz
    surrogate: float         # eta_breve, surrogate value
    step: float              # accepted Armijo step alpha
    grad_norm: float         # Riemannian gradient norm
    beta: float              # direction-update coefficient
    unitarity_residual: float
    armijo_trials: int       # step sizes the line search scored


@dataclass(frozen=True)
class TraceFinal:
    projected_rate: float
    pre_projection_rate: float
    projection_rate_delta: float
    symmetry_residual: float
    unitarity_residual: float
    iters_used: int
    stop_reason: str         # "tolerance", "max_iters", "stalled" or "nonfinite"
    grad_norm: float         # Riemannian gradient norm at the last iterate
    grad_norm_ratio: float   # grad_norm over its value at the start point

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tolerance"


@dataclass
class OptimizerTrace:
    records: list[IterationRecord] = field(default_factory=list)
    final: TraceFinal | None = None
    architecture: str | None = None
    trial: int | None = None
    seed: int | None = None


def write_trace_csv(trace: OptimizerTrace, path: str | Path) -> None:
    """One line per iteration: iter, eta, eta_breve, alpha, grad_norm, beta,
    armijo_trials."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "eta", "eta_breve", "alpha", "grad_norm", "beta",
                         "armijo_trials"])
        for rec in trace.records:
            writer.writerow([rec.iter, repr(rec.true_rate), repr(rec.surrogate),
                             repr(rec.step), repr(rec.grad_norm), repr(rec.beta),
                             rec.armijo_trials])


def _re_vdot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _channel_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t[(g, n), (k, l)] = a[g, k, n] * b[g, n, l]."""
    # In C order the reshape is a view. einsum, not a broadcast product:
    # numpy's complex multiply ufunc rounds some products differently, and
    # 1 x 1 block solves change with the last bit of this tensor.
    t = np.einsum("gkn,gnl->gnkl", a, b, order="C")
    return t.reshape(-1, a.shape[1] * b.shape[2])


class _Workspace:
    """Precomputed channel factors and batched objective/gradient kernels.

    Besides the groupwise factors ``a``, ``b`` of ``channel_stacks`` and
    their conjugate transposes ``a_h``, ``b_h`` (the gradient's factors,
    formed once per solve) it holds the channel tensor ``t`` of shape
    (R, K^2),
    t[(g, n), (k, l)] = a[g, k, n] * b[g, n, l], so that the signal matrix of
    diagonal blocks diag(d_g) is linear in their (G, R_G) diagonals:
    C.ravel() = d.ravel() @ t. It takes R * K^2 * 16 bytes (8 KiB for
    R = 32 and K = 4). ``in_bases`` gives the workspace of blocks written in
    other bases, where a line search's candidates are diagonal, and
    ``theta`` maps an optimizer state to its scattering blocks.
    """

    def __init__(self, channels: ChannelSet, beam: Beamformer,
                 config: SystemConfig):
        self.a, self.b = channel_stacks(channels, beam.v, config.group_size)
        self.a_h = self.a.conj().transpose(0, 2, 1)
        self.b_h = self.b.conj().transpose(0, 2, 1)
        self.users, self.streams = self.a.shape[1], self.b.shape[2]
        self.t = _channel_tensor(self.a, self.b)
        self.noise = config.noise_power
        self.factored = config.group_size > 1
        self.off_diagonal = 1.0 - np.eye(self.users, self.streams)

    def in_bases(self, p: np.ndarray) -> "_Workspace":
        """The workspace of blocks written in the bases ``p`` (G, R_G, R_G):
        a diagonal X_g there scores as P_g X_g P_g^T scores here, because the
        signal matrix sum_g a_g Theta_g b_g becomes
        sum_g (a_g P_g) X_g (P_g^T b_g). The gradient stays in the original
        basis: only the line search and the start point use this one, so
        it holds no conjugate factors.

        The result is a plain ``_Workspace`` filled from this one's
        attribute dictionary, without ``copy.copy`` and its per-call
        overhead; the attributes it does not replace are shared."""
        ws = object.__new__(_Workspace)
        ws.__dict__.update(self.__dict__)
        ws.a, ws.b = self.a @ p, p.transpose(0, 2, 1) @ self.b
        ws.a_h = ws.b_h = None
        ws.t = _channel_tensor(ws.a, ws.b)
        return ws

    def theta(self, state: np.ndarray) -> np.ndarray:
        """Scattering blocks of a state stack (..., G, R_G, R_G): U U^T of
        the Takagi factors, or the state itself for 1 x 1 blocks."""
        if not self.factored:
            return state
        return state @ np.swapaxes(state, -1, -2)

    def signal(self, theta_stack: np.ndarray) -> np.ndarray:
        """Signal matrix C = H_rx @ Theta @ H_tx @ V = sum_g a_g Theta_g b_g
        of any block stack."""
        return (self.a @ theta_stack @ self.b).sum(axis=0)

    def signals(self, diagonals: np.ndarray) -> np.ndarray:
        """(M, K, K) signal matrices of M stacks of diagonal blocks, given as
        their (M, G, R_G) diagonals: one product with the channel tensor."""
        return (diagonals.reshape(len(diagonals), -1) @ self.t).reshape(
            -1, self.users, self.streams)

    def stats(self, c: np.ndarray) -> tuple[Auxiliaries, float, np.ndarray]:
        """Optimal auxiliaries, true sum-rate and the (K,) totals
        sum_i |c_ki|^2 + n0 at the signal matrix ``c``.

        The auxiliaries come with their coefficients (``Auxiliaries``), which
        reuse the rate's log2(1 + tau); passing the totals to ``objective``
        at the same ``c`` saves recomputing them. The SINR denominators sum
        the off-diagonal powers directly: subtracting the own power from the
        total cancels when it dominates.
        """
        powers = np.abs(c) ** 2
        total = powers.sum(axis=1) + self.noise
        interference = (powers * self.off_diagonal).sum(axis=1)
        tau = powers.diagonal() / (interference + self.noise)
        y = c.diagonal() / total
        one_plus = 1.0 + tau
        log_term = np.log2(one_plus)
        return (Auxiliaries.of(tau, y, log_term, one_plus),
                float(log_term.sum()), total)

    def rate(self, c: np.ndarray) -> float:
        return self.stats(c)[1]

    def surrogate(self, c: np.ndarray, aux: Auxiliaries,
                  total: np.ndarray | None = None) -> np.ndarray:
        """Per-user surrogate values (see the module docstring) of signal
        matrices ``c`` of shape (..., K, K) at frozen auxiliaries; ``total``
        are their sum_i |c_ki|^2 + n0 if the caller has them."""
        if total is None:
            total = (np.abs(c) ** 2).sum(axis=-1) + self.noise
        quad = ((aux.y_conj2 * c.diagonal(axis1=-2, axis2=-1)).real
                - aux.y_power * total)
        return aux.offset + aux.weight * quad

    def objective(self, c: np.ndarray, aux: Auxiliaries,
                  total: np.ndarray | None = None) -> float:
        """Surrogate sum at frozen auxiliaries from the signal matrix."""
        return float(self.surrogate(c, aux, total).sum())

    def objective_batch(self, diagonals: np.ndarray,
                        aux: Auxiliaries) -> np.ndarray:
        """Frozen-auxiliary objective of many candidate points at once.

        ``diagonals`` (M, G, R_G) are those of diagonal blocks in this
        workspace's bases; returns the (M,) values of ``objective`` at their
        ``signals``.
        """
        return self.surrogate(self.signals(diagonals), aux).sum(axis=-1)

    def gradient(self, c: np.ndarray, aux: Auxiliaries) -> np.ndarray:
        """Gradient of the objective with respect to the scattering blocks."""
        return gradient_stack(self.a_h, self.b_h, c, aux)

    def riemannian_gradient(self, state: np.ndarray, c: np.ndarray,
                            aux: Auxiliaries) -> np.ndarray:
        """Gradient with respect to the state, projected onto its tangent
        space."""
        grad = self.gradient(c, aux)
        if self.factored:
            grad = factor_gradient(grad, state)
        return project_stack(grad, state)


# Step sizes scored per call of ``objective_batch``. The width only groups
# the scoring: the accepted step is the first that passes at any width.
# Searches accept at index 16 to 31 about 95% of the time (desk-regime
# sc R = 64 and cdf-r8 solves), so at 32 most take one chunk.
_ARMIJO_CHUNK = 32
# The frozen-auxiliary objective sums per-user terms of size log2(1 + tau)
# and tau / ln2 that partly cancel, at rounded blocks. When the state does
# not move at all, the line-search scores (diagonal phases) still exceed f
# by up to 11.7 ulps of (|f| + those terms) where the largest tau exceeds
# 1e-12 (fc, R = 64, gain 1e2, seed 19), and by up to 17.0 at tau ~ 4e-17
# (fc, R = 64, gain 1e-9, seed 19); explicitly formed candidates scored
# through ``_Workspace.signal`` gave 18.8 and 28.8. Sweep: gc2/gc4/fc at
# R = 4, 8, 16, 32, 64, K = 4, unit noise, both link gains 1e-9, 1e-6,
# 1e-3, 1, 1e2 or 1e4, ``tests/helpers`` seeds s = 0..24 (channels seed s,
# start state seed s + 1), at the start state and one accepted search step
# from it, 16 steps alpha = 1e-30 / |xi| * 0.75^k along the Riemannian
# gradient xi. An increase below this many such ulps is noise; the floor
# sits below the worst of those cases.
_NOISE_ULPS = 16.0
_NOISE_FLOOR = _NOISE_ULPS * np.finfo(float).eps
# Complex entries (64 KiB) that the buffer of iterates whose records wait
# for their unitarity residuals fills with whole states; a state larger than
# this is still buffered alone. A fixed count of 64 states raised the peak
# memory of fc R = 32 solves by 14%.
_RESIDUAL_BUDGET = 4096


@functools.lru_cache(maxsize=16)
def _step_grid(settings: CgaSettings) -> tuple[np.ndarray, np.ndarray]:
    """The trial steps alpha_m = step_init * step_contract^m,
    m = 0 .. armijo_max_steps - 1, and coeff * alpha_m, read-only."""
    alphas = settings.step_init * settings.step_contract ** np.arange(
        settings.armijo_max_steps, dtype=float)
    slopes = settings.armijo_coeff * alphas
    alphas.flags.writeable = slopes.flags.writeable = False
    return alphas, slopes


def _finite(rate: float, grad_sq: float) -> bool:
    return math.isfinite(rate) and math.isfinite(grad_sq)


def _norm(square: float) -> float:
    return math.sqrt(max(square, 0.0))


def _armijo_stack(ws: _Workspace, state: np.ndarray, xi_stack: np.ndarray,
                  aux: Auxiliaries, f_current: float,
                  directional_derivative: float, settings: CgaSettings
                  ) -> tuple[float, np.ndarray | None, np.ndarray | None, int]:
    """Backtracking search on the frozen-auxiliary objective.

    Tries alpha = step_init * step_contract^m for m = 0 .. L-1 and accepts
    the smallest m with

        f(R(state, alpha * xi)) >= f(state) + max(coeff * alpha * <grad, xi>, floor),

    R being the retraction ``retract_batch`` and floor the rounding noise
    of f (see ``_NOISE_ULPS``), so that an increase f cannot resolve never
    passes, whatever the coefficient. ``objective_batch`` scores every
    candidate from its diagonals on one workspace, the search's ``line``:
    on factored blocks ``Geodesic.diagonals`` in the workspace of the bases
    P (only the accepted factor is formed), for 1 x 1 blocks the retracted
    candidates themselves.

    The steps are scored in chunks of ``_ARMIJO_CHUNK``, one
    ``objective_batch`` call each, until a chunk holds a passing step. The
    chunk width only groups the scoring and never changes the step: every
    candidate's score is computed on its own, and the accepted step is
    still the first qualifying m. A rank-deficient retraction counts as a
    failed trial (forced contraction). Returns (alpha, accepted state, its
    signal matrix, step sizes scored), or (0.0, None, None, trials) when no
    trial is accepted or the directional derivative is not positive.
    """
    if directional_derivative <= 0 or not xi_stack.any():
        return 0.0, None, None, 0
    floor = _NOISE_FLOOR * (abs(f_current) + aux.spread)
    if ws.factored:
        path = geodesic(state, xi_stack)
        line = ws.in_bases(path.p)
    else:
        path, line = xi_stack, ws
    grid, slopes = _step_grid(settings)
    for start in range(0, len(grid), _ARMIJO_CHUNK):
        alphas = grid[start:start + _ARMIJO_CHUNK]
        if ws.factored:
            diagonals, ok = path.diagonals(alphas), True
        else:
            diagonals, ok = retract_batch(state, path, alphas)
        values = line.objective_batch(diagonals, aux)
        demand = np.maximum(
            slopes[start:start + _ARMIJO_CHUNK] * directional_derivative, floor)
        hits = (ok & (values >= f_current + demand)).nonzero()[0]
        if hits.size:
            first = int(hits[0])
            if ws.factored:
                chosen = retract_batch(state, path,
                                       alphas[first:first + 1])[0][0]
            else:
                chosen = diagonals[first]
            return (float(alphas[first]), chosen,
                    line.signals(diagonals[first:first + 1])[0],
                    start + len(alphas))
    return 0.0, None, None, len(grid)


@np.errstate(over="ignore", invalid="ignore")
def cga_optimize(channels: ChannelSet, beam: Beamformer, config: SystemConfig,
                 seed: int, settings: CgaSettings | None = None
                 ) -> tuple[ScatteringMatrix, OptimizerTrace]:
    """Full conjugate-gradient ascent run; see the module docstring.

    Returns the projected (blockwise symmetric unitary) scattering matrix and
    the per-iteration trace. The convergence test compares consecutive true
    sum-rates; line searches accept on the surrogate. Iterations whose line
    search stalls leave the iterate unchanged and do not trigger the
    convergence test: a stall along a conjugate direction restarts along
    the gradient, and a stall along the gradient terminates the run with
    ``converged=False``. ``final.stop_reason`` says which exit ended the
    run: ``"tolerance"`` (converged), ``"max_iters"``, ``"stalled"``, or
    ``"nonfinite"`` when the rate or the squared gradient norm is not finite
    at the start point or after a step (the run then stops at that point);
    overflow inside numpy raises no warning, only this stop reason.
    """
    if settings is None:
        settings = CgaSettings.from_config(config)
    theta0 = random_feasible(config, seed)
    ws = _Workspace(channels, beam, config)

    if ws.factored:
        # The same seeded draw as theta0: state @ state^T is theta0 bit for
        # bit, the identity in the bases of the state.
        state = random_feasible_stack(np.random.default_rng(seed),
                                      config.n_groups, config.group_size)
        c = ws.in_bases(state).signals(np.ones((1,) + state.shape[:2]))[0]
    else:
        # 1 x 1 blocks are their own diagonals, and score as the line search
        # scores them: the same contraction, bit for bit.
        state = theta0.block_stack()
        c = ws.signals(state[None])[0]
    aux, eta, total = ws.stats(c)
    f_current = ws.objective(c, aux, total)
    riem = ws.riemannian_gradient(state, c, aux)
    riem_sq = _re_vdot(riem, riem)
    start_norm = _norm(riem_sq)
    xi = riem.copy()

    records: list[IterationRecord] = []
    # Iterates whose records wait for their unitarity residuals: the states
    # in ``states``, the other fields in ``pending``.
    states = np.empty((max(1, _RESIDUAL_BUDGET // state.size),) + state.shape,
                      dtype=state.dtype)
    pending: list[tuple] = []

    def flush() -> None:
        """Records of the waiting iterates, in order: one ``theta`` and one
        ``unitarity_residuals`` call cover all their states."""
        count = len(pending)
        thetas = ws.theta(states[:count])
        blocks = thetas.reshape((-1,) + thetas.shape[2:])
        worst = unitarity_residuals(blocks).reshape(count, -1).max(axis=1)
        records.extend(
            IterationRecord(iter=i, true_rate=rate, surrogate=value, step=step,
                            grad_norm=norm, beta=beta,
                            unitarity_residual=float(residual),
                            armijo_trials=trials)
            for (i, rate, value, step, norm, beta, trials), residual
            in zip(pending, worst))
        pending.clear()

    def record(i: int, step: float, beta: float, trials: int) -> None:
        """Queue the record of the current iterate, reached by ``step``."""
        if len(pending) == len(states):
            flush()
        states[len(pending)] = state
        pending.append((i, eta, f_current, step, _norm(riem_sq), beta, trials))

    record(0, 0.0, 0.0, 0)

    stop_reason = None if _finite(eta, riem_sq) else "nonfinite"
    along_gradient = True  # xi is the Riemannian gradient itself
    iters_used = 0
    while stop_reason is None and iters_used < settings.max_iters:
        iters_used += 1
        directional = _re_vdot(riem, xi)
        if directional <= 0:
            xi, along_gradient, directional = riem.copy(), True, riem_sq

        alpha, candidate, c_new, trials = _armijo_stack(
            ws, state, xi, aux, f_current, directional, settings)

        if candidate is None:
            # Nothing moved, so repeating this search would only fail again.
            record(iters_used, 0.0, 0.0, trials)
            if along_gradient:
                stop_reason = "stalled"
            xi, along_gradient = riem.copy(), True
            continue

        state, c = candidate, c_new
        aux, eta_new, total = ws.stats(c)
        f_current = ws.objective(c, aux, total)
        riem_new = ws.riemannian_gradient(state, c, aux)

        # The Polak-Ribiere denominator is <r, r> of the previous gradient.
        if riem_sq > 1e-300:
            beta = max(0.0, _re_vdot(riem_new, riem_new - riem) / riem_sq)
        else:
            beta = 0.0
        xi = riem_new + beta * project_stack(xi, state)
        along_gradient = beta == 0.0

        rate_change = abs(eta_new - eta)
        eta = eta_new
        riem = riem_new
        riem_sq = _re_vdot(riem, riem)
        record(iters_used, alpha, beta, trials)
        if not _finite(eta, riem_sq):
            stop_reason = "nonfinite"
        elif rate_change < settings.tolerance:
            stop_reason = "tolerance"

    flush()
    grad_norm = _norm(riem_sq)
    theta_opt = project_symmetric_unitary(
        ScatteringMatrix.from_block_stack(ws.theta(state)))
    eta_post = ws.rate(ws.signal(theta_opt.block_stack()))
    report = validate_feasibility(theta_opt)
    final = TraceFinal(
        projected_rate=eta_post,
        pre_projection_rate=eta,
        projection_rate_delta=abs(eta_post - eta),
        symmetry_residual=report.max_symmetry,
        unitarity_residual=report.max_unitarity,
        iters_used=iters_used,
        stop_reason=stop_reason or "max_iters",
        grad_norm=grad_norm,
        # A zero start gradient leaves the start stationary: the ratio is 0.
        grad_norm_ratio=grad_norm / start_norm if start_norm != 0.0 else 0.0)
    trace = OptimizerTrace(records=records, final=final, seed=seed)
    return theta_opt, trace


def _group_eigenvalues(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Index groups of near-equal entries in an ascending array."""
    groups = []
    start = 0
    for j in range(1, len(values) + 1):
        if j == len(values) or values[j] - values[j - 1] > tol:
            groups.append(np.arange(start, j))
            start = j
    return groups


def _joint_diagonalize(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthogonal basis diagonalizing two commuting real symmetric matrices."""
    w, o = np.linalg.eigh(x)
    scale = max(abs(w[0]), abs(w[-1]), 1.0)
    for idx in _group_eigenvalues(w, 1e-8 * scale):
        if len(idx) > 1:
            sub = o[:, idx]
            _, rot = np.linalg.eigh(sub.T @ y @ sub)
            o[:, idx] = sub @ rot
    return o


def _takagi_symmetric_unitary(sym: np.ndarray) -> np.ndarray:
    """Symmetric unitary factor of a complex symmetric matrix.

    Robust replacement for the SVD projection when singular values are
    degenerate (including exactly singular blocks): diagonalize sym @ sym^H,
    factor the restriction of sym to each eigenvalue group as a symmetric
    unitary times the singular value, and reassemble with unit moduli.
    """
    lam, q = np.linalg.eigh(sym @ sym.conj().T)
    lam = np.clip(lam, 0.0, None)
    scale = max(float(lam[-1]), 1e-30)
    u = np.empty_like(q)
    for idx in _group_eigenvalues(lam, 1e-8 * scale):
        qs = q[:, idx]
        sigma = float(np.sqrt(np.mean(lam[idx])))
        if sigma <= 1e-10 * np.sqrt(scale):
            factor = np.eye(len(idx), dtype=complex)
        else:
            m = qs.conj().T @ sym @ qs.conj()
            n = m / sigma  # unitary and symmetric on this group
            o = _joint_diagonalize(n.real, n.imag)
            phases = np.angle(np.diagonal(o.T @ n @ o))
            factor = o * np.exp(0.5j * phases)[None, :]
        u[:, idx] = qs @ factor
    return u @ u.T


def project_symmetric_unitary(theta: ScatteringMatrix) -> ScatteringMatrix:
    """Project every block onto the symmetric unitary set.

    ``cga_optimize`` applies it to its exactly symmetric unitary result,
    which it changes only at rounding level. Per block: symmetrize, take the
    SVD U S V^H of the symmetrized block, and return U V^H. For a
    nonsingular symmetric input U V^H is the unique polar factor and is
    itself symmetric; when singular values are degenerate a generic SVD may
    break the pairing, in which case a Takagi-style factorization that
    guarantees a symmetric unitary output is used instead.
    """
    stack = theta.block_stack()
    sym = 0.5 * (stack + stack.transpose(0, 2, 1))
    u, _, vh = np.linalg.svd(sym)
    out = u @ vh
    for g in range(out.shape[0]):
        residual = float(np.linalg.norm(out[g] - out[g].T))
        if residual > 1e-6:
            out[g] = _takagi_symmetric_unitary(sym[g])
    return ScatteringMatrix.from_block_stack(out)


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-block constraint residuals and the overall verdict."""

    unitarity_residuals: np.ndarray   # ||T_g T_g^H - I||_F per block
    symmetry_residuals: np.ndarray    # ||T_g - T_g^T||_F per block
    max_unitarity: float
    max_symmetry: float
    unitary_ok: bool
    symmetric_ok: bool
    diag_modulus_error: float | None  # single-connected only
    off_diagonal_max: float | None    # single-connected only
    passed: bool


# Default tolerances of ``validate_feasibility`` and ``bdris validate``.
TOL_UNITARY = 1e-8
TOL_SYMMETRY = 1e-6


def validate_feasibility(theta: ScatteringMatrix, tol_unitary: float = TOL_UNITARY,
                         tol_symmetry: float = TOL_SYMMETRY) -> FeasibilityReport:
    """Check blockwise unitarity and symmetry against tolerances.

    For single-connected matrices (group size 1) additionally checks unit
    modulus of the diagonal and that off-diagonal entries are zero.
    """
    stack = theta.block_stack()
    unit = unitarity_residuals(stack)
    diff = stack - stack.transpose(0, 2, 1)
    sym = np.sqrt(np.sum(np.abs(diff) ** 2, axis=(1, 2)))
    unitary_ok = bool(unit.max() <= tol_unitary)
    symmetric_ok = bool(sym.max() <= tol_symmetry)
    passed = unitary_ok and symmetric_ok
    diag_err = None
    off_max = None
    if theta.group_size == 1:
        diag = np.diagonal(theta.theta)
        diag_err = float(np.max(np.abs(np.abs(diag) - 1.0)))
        off = theta.theta - np.diag(diag)
        off_max = float(np.max(np.abs(off))) if off.size else 0.0
        passed = passed and diag_err <= tol_unitary and off_max == 0.0
    return FeasibilityReport(
        unitarity_residuals=unit,
        symmetry_residuals=sym,
        max_unitarity=float(unit.max()),
        max_symmetry=float(sym.max()),
        unitary_ok=unitary_ok,
        symmetric_ok=symmetric_ok,
        diag_modulus_error=diag_err,
        off_diagonal_max=off_max,
        passed=passed)
