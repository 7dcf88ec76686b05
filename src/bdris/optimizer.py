"""Sum-rate ascent for the scattering matrix on the symmetric unitary blocks.

Every symmetric unitary block has the Takagi form Theta_g = U_g U_g^T with
U_g unitary, so the optimizer's state is the stack of factors U_g, and every
iterate is exactly symmetric and unitary. Single-connected surfaces are the
case R_G = 1: a 1 x 1 block theta_g is the square of its unit factor u_g,
and runs the same code as every other block size.

The iteration works in body coordinates. A step is a real symmetric S_g
per block, and moves U_g along the geodesic U_g exp(i alpha S_g) of the
symmetric unitary matrices (on 1 x 1 blocks, theta_g exp(2 i alpha s_g)).
The gradient there is sym(Im(U_g^H riem_g)), with riem the Riemannian
gradient of the surrogate objective below. One run starts from a random
symmetric unitary point and repeatedly

  1. takes a direction: the exact Newton step of the sum-rate, shifted
     until the negated Hessian is positive definite (``_newton_direction``;
     Nocedal and Wright, Numerical Optimization, 2nd ed., sec. 3.4), in
     orthonormal coordinates of the S_g. Up to ``_NEWTON_DIMENSION`` body
     coordinates G R_G (R_G + 1) / 2 the Hessian is dense
     (``_Workspace.body_hessian``); above, it is diagonal plus rank 2 K^2
     in the eigenbasis of each block's M_g (``_Workspace.rotated_hessian``,
     ``_LowRankHessian``), and the same scan tests and solves it without an
     (n, n) matrix. 1 x 1 blocks take the step at every shift of
     ``_NEWTON_SHIFTS``; larger blocks only when a shift of at most
     1e-2 max |H_jj| is enough (``_CONNECTED_SHIFTS``). Otherwise the step
     is an L-BFGS one (two-loop recursion, memory ``_MEMORY``,
     ``_two_loop``; sec. 7.2 there), with the identity as the transport of
     S,
  2. picks a step by backtracking Armijo search from alpha = 1 on the true
     sum-rate of each candidate (``_armijo_stack``),
  3. refreshes the per-user auxiliaries at the new point and recomputes
     the gradient,

until the gradient norm in body coordinates falls to ``_GRADIENT_RATIO`` of
its value at the start point. A direction that does not ascend clears the
L-BFGS memory and goes along the gradient instead, and so does the search
after one that failed; only a failed search along the gradient stops the
run as ``stalled``. Every accepted step raises the sum-rate by more than the
rounding noise of its evaluation, so the sum-rate never decreases from one
iterate to the next. The final matrix still goes through the per-block
projection onto the symmetric unitary set (symmetrize, SVD, take U V^H),
which only rounds an exact iterate.

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
equals it. The iterates are exactly symmetric, so no penalty term is added.
By that equivalence the sum-rate is the surrogate maximized over its
auxiliaries, so the surrogate's gradient at the closed-form auxiliaries is
the sum-rate's gradient (Danskin's theorem): the surrogate gives the
gradient, and the line search tests the sum-rate itself.

Every formula is implemented once, on (G, R_G, R_G) block stacks: the signal
matrix, the SINRs (``sinr``, shared by the rate, the line search's scores
and the Hessians), auxiliaries, surrogate and the Hessian's per-user forms
(``_forms``) in ``_Workspace``, the gradient in ``gradient``, and the
manifold steps in ``manifold``. The signal matrix is linear in Theta, and
the line search only ever scores blocks that are diagonal in a known basis:
the geodesic's P_g diag(exp(2 i alpha w_g)) P_g^T in the bases P_g = U_g Q_g
of the eigendecomposition S_g = Q_g diag(w_g) Q_g^T. So ``_Workspace`` holds
a channel tensor with one row per element for those bases, and a whole chunk
of candidate diagonals is one matrix product with it. A search builds that
tensor once in its bases P_g, and forms only the factor it accepts; the
search also returns the accepted point's signal matrix, so no iterate
recomputes it.

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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChannelSet
from .config import SystemConfig, check_fields
from .gradient import (LN2, Auxiliaries, channel_stacks, factor_gradient,
                       gradient_stack)
from .manifold import (geodesic_frame, project_stack, random_feasible,
                       random_feasible_stack, retract_batch,
                       unitarity_residuals)
from .system import Beamformer, ScatteringMatrix


@dataclass(frozen=True)
class CgaSettings:
    """The iteration cap of one optimization run.

    Build it with ``from_config``, which takes the cap from the config; the
    noise power stays there too, since it belongs to the system. The
    direction, the step rule and the stopping rule are fixed: see
    ``_NEWTON_SHIFTS``, ``_CONNECTED_SHIFTS``, ``_MEMORY``, ``_ALPHAS``,
    ``_SLOPES`` and ``_GRADIENT_RATIO``. ``_NEWTON_DIMENSION`` picks how
    the Newton step is factored (dense, or diagonal plus low rank), by
    speed; the two differ only in the coordinates whose max |H_jj| scales
    the shifts.
    """

    max_iters: int                 # iteration cap

    def __post_init__(self):
        check_fields(self)

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
    grad_norm: float         # gradient norm in body coordinates
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
    grad_norm: float         # body-coordinate gradient norm, last iterate
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
    """One line per iteration: iter, eta, eta_breve, alpha, grad_norm,
    armijo_trials."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "eta", "eta_breve", "alpha", "grad_norm",
                         "armijo_trials"])
        for rec in trace.records:
            writer.writerow([rec.iter, repr(rec.true_rate), repr(rec.surrogate),
                             repr(rec.step), repr(rec.grad_norm),
                             rec.armijo_trials])


def _re_vdot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _channel_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t[(g, n), (k, l)] = a[g, k, n] * b[g, n, l]."""
    # In C order the reshape is a view. einsum, not a broadcast product:
    # numpy's complex multiply ufunc rounds some products differently, and
    # solves change with the last bit of this tensor.
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
    ``body_hessian`` gives the Hessian of the sum-rate in the coordinates of
    ``to_coordinates``, in which the Newton step is solved, and
    ``rotated_hessian`` its diagonal plus low-rank form in the eigenbasis
    of M_g, both from the per-user forms of ``_forms``; ``dense`` says
    which of the two ``newton_step`` uses.
    """

    def __init__(self, channels: ChannelSet, beam: Beamformer,
                 config: SystemConfig):
        self.a, self.b = channel_stacks(channels, beam.v, config.group_size)
        self.a_h = self.a.conj().transpose(0, 2, 1)
        self.b_h = self.b.conj().transpose(0, 2, 1)
        self.users, self.streams = self.a.shape[1], self.b.shape[2]
        self.t = _channel_tensor(self.a, self.b)
        self.noise = config.noise_power
        self.off_diagonal = 1.0 - np.eye(self.users, self.streams)
        rg = config.group_size
        # Blocks whose body dimension n = G R_G (R_G + 1) / 2 is at most
        # _NEWTON_DIMENSION form the dense Hessian; larger ones its factors
        # in the eigenbasis of M_g (``rotated_hessian``).
        self.dense = (config.n_groups * rg * (rg + 1) // 2
                      <= _NEWTON_DIMENSION)
        self._body_basis(config.n_groups, rg)

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
        """Scattering blocks U U^T of a stack (..., G, R_G, R_G) of Takagi
        factors."""
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

    def sinr(self, c: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-user totals sum_i |c_ki|^2 + n0, SINR denominators
        sum_{i != k} |c_ki|^2 + n0 and SINRs tau_k of signal matrices ``c``
        of shape (..., K, K), each of shape (..., K).

        The only place that forms them: the rate, the auxiliaries, the line
        search's scores and the Hessians all start here. The
        denominators sum the off-diagonal powers directly: subtracting the
        own power from the total cancels when it dominates.
        """
        powers = np.abs(c) ** 2
        total = powers.sum(axis=-1) + self.noise
        interference = (powers * self.off_diagonal).sum(axis=-1) + self.noise
        tau = powers.diagonal(axis1=-2, axis2=-1) / interference
        return total, interference, tau

    def stats(self, c: np.ndarray) -> tuple[Auxiliaries, float, np.ndarray]:
        """Optimal auxiliaries, true sum-rate and the (K,) totals
        sum_i |c_ki|^2 + n0 at the signal matrix ``c``; passing the totals
        to ``objective`` at the same ``c`` saves recomputing them."""
        total, _, tau = self.sinr(c)
        y = c.diagonal() / total
        return Auxiliaries(tau, y), float(np.log2(1.0 + tau).sum()), total

    def rate(self, c: np.ndarray) -> float:
        return self.stats(c)[1]

    def surrogate(self, c: np.ndarray, aux: Auxiliaries,
                  total: np.ndarray | None = None) -> np.ndarray:
        """Per-user surrogate values (see the module docstring) of signal
        matrices ``c`` of shape (..., K, K) at frozen auxiliaries; ``total``
        are their sum_i |c_ki|^2 + n0 if the caller has them. 2 conj(y) is
        exact, so Re(2 conj(y) c) has the bits of 2 Re(conj(y) c)."""
        if total is None:
            total = self.sinr(c)[0]
        one_plus = 1.0 + aux.tau
        quad = ((2.0 * aux.y.conj() * c.diagonal(axis1=-2, axis2=-1)).real
                - np.abs(aux.y) ** 2 * total)
        return (np.log2(one_plus) - aux.tau / LN2) + one_plus / LN2 * quad

    def objective(self, c: np.ndarray, aux: Auxiliaries,
                  total: np.ndarray | None = None) -> float:
        """Surrogate sum at frozen auxiliaries from the signal matrix."""
        return float(self.surrogate(c, aux, total).sum())

    def objective_batch(self, diagonals: np.ndarray) -> np.ndarray:
        """True sum-rate of many candidate points at once, the line search's
        score.

        ``diagonals`` (M, G, R_G) are those of diagonal blocks in this
        workspace's bases; returns the (M,) rates at their ``signals``. The
        SINRs come from ``sinr`` as in ``stats``, so a candidate scores the
        bits that ``stats`` gives at its signal matrix.
        """
        tau = self.sinr(self.signals(diagonals))[2]
        return np.log2(1.0 + tau).sum(axis=-1)

    def gradient(self, c: np.ndarray, aux: Auxiliaries) -> np.ndarray:
        """Gradient of the objective with respect to the scattering blocks."""
        return gradient_stack(self.a_h, self.b_h, c, aux)

    def riemannian_gradient(self, state: np.ndarray, c: np.ndarray,
                            aux: Auxiliaries) -> np.ndarray:
        """Gradient with respect to the state, projected onto its tangent
        space."""
        return project_stack(factor_gradient(self.gradient(c, aux), state),
                             state)

    def body_gradient(self, state: np.ndarray,
                      riem: np.ndarray) -> np.ndarray:
        """The gradient in body coordinates, sym(Im(U_g^H riem_g)) per
        block: the derivative of the objective along U_g exp(i alpha S_g)
        at alpha = 0 is its trace inner product with S_g."""
        lift = (state.conj().transpose(0, 2, 1) @ riem).imag
        return 0.5 * (lift + lift.transpose(0, 2, 1))

    def _body_basis(self, groups: int, rg: int) -> None:
        """Index arrays of the orthonormal basis of real symmetric R_G x R_G
        matrices: E_aa, and (E_ab + E_ba) / sqrt(2) for a < b, the basis
        element j = (a, b) being ``rows[j], cols[j]`` of ``triu_indices``,
        and ``lift`` its 2 s_j (1 on the diagonal, sqrt(2) off it).
        ``derivative_indices`` and ``derivative_lift`` lay them out for
        ``signal_derivatives``: per entry (g, j, k, i) of D, the flat
        positions of A_g[k, a], B_g[b, i], A_g[k, b] and B_g[a, i] in the
        raveled (G, R_G, K) stacks of A^T and B, and lift_j as a complex.

        Dense workspaces also hold ``body_hessian``'s second-derivative term
        (the structured path never reads it, and at R_G = 32 it would cost
        about 11 ms per solve),
        C_jl = -4 s_j s_l (d_bc M_ad + d_bd M_ac + d_ac M_bd + d_ad M_bc),
        l = (c, d), as a sparse map into the raveled (n, n) Hessian from
        the (n,) vector m_j = 2 s_j M_ab of each block's entries: for every
        nonzero Kronecker delta its weight -4 s_j s_l / (2 s_i), its source
        i in m and its slot, and the distinct Hessian entries of the slots
        (up to four terms share one). At R_G = 8 the four terms have 648
        nonzeros among their 5,184 entries."""
        rows, cols = np.triu_indices(rg)
        half = np.where(rows == cols, 0.5, math.sqrt(0.5))
        self.rows, self.cols, self.lift = rows, cols, 2.0 * half
        shape = (groups, len(rows), self.users, self.streams)
        block = (np.arange(groups) * rg)[:, None, None, None]
        user = np.arange(self.users)[:, None]
        stream = np.arange(self.streams)
        self.derivative_indices = tuple(
            np.broadcast_to(
                (block + index[:, None, None]) * width + entry, shape).ravel()
            for index, width, entry in ((rows, self.users, user),
                                        (cols, self.streams, stream),
                                        (cols, self.users, user),
                                        (rows, self.streams, stream)))
        self.derivative_lift = np.broadcast_to(
            self.lift[:, None, None], shape).astype(complex).ravel()
        if not self.dense:
            return
        size = len(rows)
        n = groups * size
        position = np.empty((rg, rg), dtype=int)
        position[rows, cols] = position[cols, rows] = np.arange(size)
        a, b = rows[:, None], cols[:, None]
        c, d = rows[None, :], cols[None, :]
        targets, sources, weights = [], [], []
        for delta, p, q in ((b == c, a, d), (b == d, a, c), (a == c, b, d),
                            (a == d, b, c)):
            j, l = delta.nonzero()
            source = np.broadcast_to(position[p, q], delta.shape)[j, l]
            targets.append(j * n + l)
            sources.append(source)
            weights.append(-2.0 * half[j] * half[l] / half[source])
        own = np.arange(groups)[:, None]
        targets = (np.concatenate(targets) + own * (size * n + size)).ravel()
        self.curvature_sources = (np.concatenate(sources)
                                  + own * size).ravel()
        self.curvature_weights = np.tile(np.concatenate(weights), groups)
        self.curvature_targets, self.curvature_slots = np.unique(
            targets, return_inverse=True)

    def to_coordinates(self, body: np.ndarray) -> np.ndarray:
        """The coordinates of a body-coordinate stack in the basis of the
        Newton step, raveled: the S_aa and sqrt(2) S_ab (a < b) of each real
        symmetric S_g, its components in the orthonormal basis of
        ``_body_basis``."""
        return (body[:, self.rows, self.cols] * self.lift).ravel()

    def from_coordinates(self, x: np.ndarray) -> np.ndarray:
        """The stack sum_j x_j E_j of ``to_coordinates``' basis."""
        entries = x.reshape(-1, len(self.rows)) / self.lift
        rg = self.a.shape[2]
        body = np.zeros((len(entries), rg, rg))
        body[:, self.rows, self.cols] = entries
        body[:, self.cols, self.rows] = entries
        return body

    def newton_step(self, state: np.ndarray, c: np.ndarray,
                    grad: np.ndarray, start: int, limit: int
                    ) -> tuple[np.ndarray | None, int]:
        """The shifted Newton step of ``_newton_direction`` as a body stack
        (None when no shift below ``limit`` is enough) and its shift index,
        at the state ``state`` with signal matrix ``c`` and body gradient
        ``grad``.

        Dense workspaces solve it from ``body_hessian``, larger ones in the
        eigenbasis Q_g of M_g (``rotated_hessian``): the gradient is rotated
        to Q_g^T G_g Q_g there, and the step back to Q_g S_g Q_g^T."""
        if self.dense:
            step, m = _newton_direction(
                _DenseHessian(self.body_hessian(state, c)),
                self.to_coordinates(grad), start, limit)
            return None if step is None else self.from_coordinates(step), m
        q, *parts = self.rotated_hessian(state, c)
        qt = q.transpose(0, 2, 1)
        step, m = _newton_direction(_LowRankHessian(*parts),
                                    self.to_coordinates(qt @ grad @ q),
                                    start, limit)
        if step is None:
            return None, m
        body = q @ self.from_coordinates(step) @ qt
        return 0.5 * (body + body.transpose(0, 2, 1)), m

    def _forms(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (K, K) w_ki = 1/T_k - [i != k]/I_k, the rate's derivative in
        |c_ki|^2 times ln2, with T_k = sum_i |c_ki|^2 + n0 and I_k the same
        sum without i = k (``sinr``) at the signal matrix ``c``, and the K
        forms (K, 2K, 2K) of the Hessian's first-derivative term.

        The sum-rate times ln2 is sum_k (ln T_k - ln I_k). The first
        derivatives i D[j, (k, i)] of the c_ki (``signal_derivatives``)
        give its Hessian the term
        sum_ki 2 w_ki Re(D[j, (k, i)] conj(D[l, (k, i)])) - gT gT^T + gI gI^T,
        with gT, gI the (n, K) gradients of ln T_k and ln I_k; the second
        derivatives give the rest (``body_hessian``). The term is
        sum_k X_k W_k X_k^T, with X_k the (n, 2K) (re, im) pairs of D's
        columns (k, i) for user k and
        W_k = diag(2 w_ki, twice) - t_k t_k^T + u_k u_k^T,
        where t_k, u_k are the pairs of 2 i c_ki / T_k and of
        2 i c_ki [i != k] / I_k: as d|c_ki|^2/dx_j =
        -2 Im(conj(c_ki) D[j, (k, i)]), X_k t_k and X_k u_k are gT_k and
        gI_k up to a sign that their outer products drop.
        """
        total, interference, _ = self.sinr(c)
        w = 1.0 / total[:, None] - self.off_diagonal / interference[:, None]
        turned = 2j * c
        t = (turned / total[:, None]).view(float)
        u = (turned * self.off_diagonal / interference[:, None]).view(float)
        forms = u[:, :, None] * u[:, None, :] - t[:, :, None] * t[:, None, :]
        forms.reshape(self.users, -1)[:, ::2 * self.streams + 1] += (
            np.repeat(2.0 * w, 2, axis=1))
        return w, forms

    def signal_derivatives(self, state: np.ndarray) -> np.ndarray:
        """(n, K^2) D with dc/dx_j = i D[j] at the state ``state``, for the
        coordinates x of ``to_coordinates``.

        At U_g exp(i S_g), S_g = sum_j x_j E_j, the blocks are
        A_g exp(2 i S_g) B_g with A_g = a_g U_g and B_g = U_g^T b_g, so
        D_j = 2 s_j (A[:, a] B[b, :] + A[:, b] B[a, :]) for j = (a, b).
        """
        ta = (self.a @ state).transpose(0, 2, 1).ravel()
        b = (state.transpose(0, 2, 1) @ self.b).ravel()
        # Gathered into whole (n, K, K) operands: numpy multiplies those
        # about five times as fast as the broadcast (n, K, 1) * (n, 1, K),
        # to the same bits. In place: at fc R = 32 each (n, K^2) temporary
        # takes 132 KiB, and fresh ones of that size cost page faults.
        left, right, swapped_left, swapped_right = self.derivative_indices
        d = ta[left] * b[right]
        d += ta[swapped_left] * b[swapped_right]
        d *= self.derivative_lift
        return d.reshape(-1, self.users * self.streams)

    def body_hessian(self, state: np.ndarray, c: np.ndarray) -> np.ndarray:
        """(n, n) Hessian of the sum-rate in the coordinates x of blocks
        U_g exp(i S_g), S_g = sum_j x_j E_j in the orthonormal basis
        of ``_body_basis`` (n = G R_G (R_G + 1) / 2), at the state ``state``
        with signal matrix ``c``.

        The first derivatives D of ``signal_derivatives`` give the term
        sum_k X_k W_k X_k^T of ``_forms``, formed as one product of the
        (n, 2 K^2) pairs of D with the same pairs times their W_k. The
        second, d2c/dx_j dx_l = -2 A (E_j E_l + E_l E_j) B, give per block
        the term

            C_jl = -4 s_j s_l (d_bc M_ad + d_bd M_ac + d_ac M_bd + d_ad M_bc)

        for l = (c, d), with M_g = Re(N_g + N_g^T) and N_g = A_g^T (w o conj c)
        B_g^T; blocks do not couple in it. For j = (a, b),
        Re(conj(c) D_j) w = 2 s_j M_ab, mapped into the Hessian by
        ``_body_basis``' sparse map.
        """
        d = self.signal_derivatives(state)
        w, forms = self._forms(c)
        # (n, K, 2K): row k of element j holds the pairs of D[j, (k, i)].
        pairs = d.view(float).reshape(len(d), self.users, -1)
        weighted = (pairs.transpose(1, 0, 2) @ forms).transpose(1, 0, 2)
        hess = weighted.reshape(len(d), -1) @ pairs.reshape(len(d), -1).T
        m = (c.conj().ravel() * d).real @ w.ravel()
        hess.reshape(-1)[self.curvature_targets] += np.bincount(
            self.curvature_slots,
            self.curvature_weights * m[self.curvature_sources])
        return hess / LN2

    def rotated_hessian(self, state: np.ndarray, c: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
        """The eigenvectors Q_g of M_g (see ``body_hessian``) and the parts
        (curvature, factor, signs) of ``_LowRankHessian`` that give the
        Hessian of the sum-rate at the state U Q, which has the blocks and
        the signal matrix ``c`` of ``state``: no (n, n) matrix is formed.

        At U Q, M_g is diag(lambda_g), so the second-derivative term of
        ``body_hessian`` is diagonal, -2 (lambda_a + lambda_b) at j = (a, b).
        The first-derivative term sum_k X_k W_k X_k^T of ``_forms`` has rank
        at most 2 K^2, with X_k taken at U Q: one batched ``eigh`` of the K
        forms, W_k = V_k diag(e_k) V_k^T, gives the factor
        [X_k V_k sqrt|e_k|]^T and its signs sign(e_k).
        """
        w, forms = self._forms(c)
        ta = (self.a @ state).transpose(0, 2, 1)
        b = state.transpose(0, 2, 1) @ self.b
        n_g = ta @ (w * c.conj()) @ b.transpose(0, 2, 1)
        lam, q = np.linalg.eigh((n_g + n_g.transpose(0, 2, 1)).real)
        weights, bases = np.linalg.eigh(forms)
        weights /= LN2
        # (n, K, 2K): row k of element j holds the pairs of D[j, (k, i)].
        pairs = self.signal_derivatives(state @ q).view(float).reshape(
            -1, self.users, 2 * self.streams)
        # Rows (k, q) of the factor: column q of X_k V_k sqrt|e_k|.
        bases *= np.sqrt(np.abs(weights))[:, None, :]
        factor = bases.transpose(0, 2, 1) @ pairs.transpose(1, 2, 0)
        curvature = -2.0 * (lam[:, self.rows] + lam[:, self.cols]).ravel()
        return (q, curvature / LN2, factor.reshape(-1, len(pairs)),
                np.sign(weights).ravel())


# Step sizes scored per call of ``objective_batch``. The width only groups
# the scoring: the accepted step is the first that passes at any width. The
# Newton and L-BFGS steps pass at alpha = 1 in most iterations, so most
# searches take one chunk.
_ARMIJO_CHUNK = 4
# The line search compares two rounded sum-rates sum_k log2(1 + SINR_k):
# a candidate's score and the current rate, from signal matrices rounded
# along different contractions. log2(1 + tau) rounds 1 + tau, so each
# user's term is noisy by about an ulp of 1 whatever tau is, and by an ulp
# of its own size: an increase below _NOISE_ULPS ulps of (|rate| + K) is
# noise, and fails the test whatever its slope. At steps that do not move
# the state the scores exceed the rate by up to 10.6 such ulps (fc, R = 16,
# unit noise, gain 1e4), and by up to 6.8 at desk geometry (fc, R = 16,
# noise 1e-16); the floor sits above the worst case. Sweep: sc/gc2/gc4/fc at
# R = 4, 8, 16, 32, 64, K = 4; unit noise with both link gains 1e-9, 1e-6,
# 1e-3, 1, 1e2 or 1e4 (``tests/helpers`` seeds s = 0..24: channels seed s,
# start state seed s + 1), and desk geometry at noise 1e-12, 1e-15 and
# 1e-16 (channel seeds s = 0..24, start state seed s + 1); at the start
# state and one accepted search step from it, 16 steps
# alpha = 1e-30 / |g| * 0.75^k along the body-coordinate gradient g.
_NOISE_ULPS = 16.0
_NOISE_FLOOR = _NOISE_ULPS * np.finfo(float).eps
# Complex entries (64 KiB) that the buffer of iterates whose records wait
# for their unitarity residuals fills with whole states; a state larger than
# this is still buffered alone. A fixed count of 64 states raised the peak
# memory of fc R = 32 solves by 14%.
_RESIDUAL_BUDGET = 4096
# The step grid: the trial steps alpha_m = 0.75^m, m = 0 .. 199, of every
# line search, and the sufficient increase 2e-11 * alpha_m per unit of
# directional derivative that each must reach, both read-only.
_ALPHAS = 0.75 ** np.arange(200)
_SLOPES = 2e-11 * _ALPHAS
_ALPHAS.flags.writeable = _SLOPES.flags.writeable = False
# A run converges when the body-coordinate gradient norm falls to this
# fraction of its value at the start point.
_GRADIENT_RATIO = 1e-3
# (s, y) pairs the L-BFGS direction of connected blocks remembers.
_MEMORY = 5
# The Newton step solves (mu I - H) d = g for the first shift
# mu = factor * max |H_jj| of these at which mu I - H is positive definite:
# the global phase leaves -H singular at a maximum.
_NEWTON_SHIFTS = (1e-10, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2,
                  1e3)
# Blocks whose body dimension G R_G (R_G + 1) / 2 is at most
# _NEWTON_DIMENSION factor the dense Hessian, larger ones its diagonal plus
# rank 2 K^2 form (``_Workspace.rotated_hessian``). Above 64 the
# structured form solves as fast as the dense one or faster. Wall time of
# ten uncapped solves (K = 4, unit gains, seeds 0-9, median of three
# timings each, one BLAS thread on a 2-vCPU x86-64 VM), dense against
# structured:
# gc4 R = 32 (n = 80) 0.495 against 0.473 s, dense faster in 3 of 10;
# gc2 R = 64 (n = 96) 0.847 against 0.803 s, 3 of 10, the same rates in
# both; fc R = 16 (n = 136) 0.590 against 0.352 s, 0 of 10. Blocks
# larger than 1 x 1 take the Newton step only at one of the first
# _CONNECTED_SHIFTS shifts (mu <= 1e-2 max |H_jj|); otherwise they take
# the L-BFGS step. A
# larger shift mostly sends a solve to another local maximum than the
# L-BFGS step reaches, often a lower one. On the 100 instances of
# configs/bench_cdf.yaml, against L-BFGS alone (wins/losses by more than
# 1 mbit for gc2, gc4, fc): Newton at every shift +28/-33, +32/-29, +4/-11
# (gc2 of trial 0 fell from 10.86 to 8.78 bits); at mu <= 1e-1 +7/-6,
# +10/-13, +1/-4; at mu <= 1e-2 +8/-4, +10/-8, +1/-3.
_NEWTON_DIMENSION = 64
_CONNECTED_SHIFTS = 6


def _finite(rate: float, grad_sq: float) -> bool:
    return math.isfinite(rate) and math.isfinite(grad_sq)


def _norm(square: float) -> float:
    return math.sqrt(max(square, 0.0))


class _DenseHessian:
    """mu I - H for a dense (n, n) Hessian H: ``definite`` is ``cholesky``,
    ``solve`` is ``np.linalg.solve``, on one negated copy whose diagonal
    each shift overwrites."""

    def __init__(self, hess: np.ndarray):
        self.scale = float(np.abs(hess.diagonal()).max())
        self.finite = bool(np.isfinite(hess).all())
        self.negated = -hess
        self.diagonal = self.negated.reshape(-1)[::len(hess) + 1]
        self.base = self.diagonal.copy()

    def definite(self, mu: float) -> bool:
        self.diagonal[:] = self.base + mu
        try:
            np.linalg.cholesky(self.negated)
        except np.linalg.LinAlgError:
            return False
        return True

    def solve(self, mu: float, grad: np.ndarray) -> np.ndarray:
        self.diagonal[:] = self.base + mu
        return np.linalg.solve(self.negated, grad)


class _LowRankHessian:
    """A Hessian H = diag(curvature) + P J P^T, with the (n, r) P given as
    its transpose ``factor`` (r small) and J = diag(``signs``), signs in
    {-1, 0, 1}, whose shifted negation mu I - H is tested and solved
    through one r x r matrix. Rows of sign 0 add nothing and are dropped.

    With the diagonal Delta = mu - curvature, mu I - H = Delta - P J P^T.
    When Delta has no zero entry, the inertias of the block matrix
    [[Delta, P], [P^T, J]] give, through its two Schur complements
    (Haynsworth, Linear Algebra Appl. 1, 1968),

        neg(Delta) + neg(K) = neg(J) + neg(mu I - H),
        K = J - P^T Delta^-1 P,

    and no zero eigenvalue of K means none of mu I - H: so mu I - H is
    positive definite exactly when neg(Delta) plus the eigenvalues of K
    that are at most 0 number neg(J). With the same K, Woodbury (Nocedal
    and Wright, Numerical Optimization, sec. A.2) gives the step

        (mu I - H)^-1 g = Delta^-1 g + Delta^-1 P K^-1 P^T Delta^-1 g.

    Each costs O(n r^2), against O(n^3) for the dense matrix. A zero
    entry of Delta, or a non-finite one of K, counts as not definite.
    Every entry of the parts enters some H_jj, so the parts are finite
    when max |H_jj| is."""

    def __init__(self, curvature: np.ndarray, factor: np.ndarray,
                 signs: np.ndarray):
        keep = signs != 0
        if not keep.all():
            factor, signs = factor[keep], signs[keep]
        self.curvature, self.factor = curvature, factor
        with np.errstate(over="ignore", invalid="ignore"):
            self.scale = float(np.abs(
                curvature + signs @ (factor * factor)).max())
        self.finite = math.isfinite(self.scale)
        self.signs = np.diag(signs)
        self.negative = int(np.count_nonzero(signs < 0))
        self.shifted: dict[float, tuple] = {}  # Delta, P^T Delta^-1, K

    def definite(self, mu: float) -> bool:
        delta = mu - self.curvature
        negative = int(np.count_nonzero(delta < 0))
        # K's negative eigenvalues only add to neg(Delta).
        if not delta.all() or negative > self.negative:
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = self.factor / delta
            inner = self.signs - scaled @ self.factor.T
        if not np.isfinite(inner).all():
            return False
        self.shifted[mu] = delta, scaled, inner
        return (negative + int(np.count_nonzero(np.linalg.eigvalsh(inner)
                                                <= 0.0))
                == self.negative)

    def solve(self, mu: float, grad: np.ndarray) -> np.ndarray:
        delta, scaled, inner = self.shifted[mu]
        return grad / delta + np.linalg.solve(inner, scaled @ grad) @ scaled


def _newton_direction(hess: _DenseHessian | _LowRankHessian,
                      grad: np.ndarray, start: int, limit: int
                      ) -> tuple[np.ndarray | None, int]:
    """The shifted Newton step (mu I - H)^-1 g for the (n,) coordinates
    ``grad`` of the gradient, and the index in ``_NEWTON_SHIFTS`` of its
    shift.

    ``hess`` is mu I - H factored densely (``_DenseHessian``, tested by
    ``cholesky``) or as diagonal plus low rank (``_LowRankHessian``): the
    scan below is the same for both. mu = _NEWTON_SHIFTS[m] * max |H_jj|
    for the first m below ``limit`` at which mu I - H is positive definite:
    every shift for 1 x 1 blocks, the first ``_CONNECTED_SHIFTS`` for
    larger ones. Definiteness only grows with mu, so the scan starts at
    ``start``, the index of the last step's shift, and walks down or up
    from there: two factorizations when the shift holds. Over 549
    iterations of three R = 64 desk solves that is 1,657 factorizations
    instead of the 2,900 of a scan from index 0, and 8% more solves per
    second. A capped scan tries its last shift before it walks up, since
    most of its Hessians pass no allowed shift: over the 703 iterations of
    the gc2/gc4/fc solves of the first five trials of configs/bench_cdf.yaml
    that is 1,580 factorizations instead of 2,956. Each shift is tested at
    most once per call. Returns (None, ``start``) when no shift below
    ``limit`` is enough or H is not finite."""
    scale = hess.scale
    if not (0.0 < scale < math.inf) or not hess.finite:
        return None, start
    verdicts: dict[int, bool] = {}

    def definite(m: int) -> bool:
        if m not in verdicts:
            verdicts[m] = hess.definite(_NEWTON_SHIFTS[m] * scale)
        return verdicts[m]

    m = start
    if definite(m):
        while m > 0 and definite(m - 1):
            m -= 1
    else:
        # A capped scan fails in most iterations: its last shift tells so
        # in one factorization.
        if m + 1 == limit or (limit < len(_NEWTON_SHIFTS)
                              and not definite(limit - 1)):
            return None, start
        m += 1
        while m < limit and not definite(m):
            m += 1
        if m == limit:
            return None, start
    return hess.solve(_NEWTON_SHIFTS[m] * scale, grad), m


def _two_loop(grad: np.ndarray, memory: list) -> np.ndarray:
    """The L-BFGS ascent direction H g from the remembered pairs
    (s, y, 1 / s.y), oldest first, as raveled arrays: the two-loop
    recursion with H0 = (s.y / y.y) I from the newest pair."""
    q = grad.ravel().copy()
    coefficients = []
    for s, y, rho in reversed(memory):
        a = rho * np.dot(s, q)
        q -= a * y
        coefficients.append(a)
    _, y, rho = memory[-1]
    r = q / (rho * np.dot(y, y))
    for (s, y, rho), a in zip(memory, reversed(coefficients)):
        r += (a - rho * np.dot(y, r)) * s
    return r.reshape(grad.shape)


def _armijo_stack(ws: _Workspace, state: np.ndarray, direction: np.ndarray,
                  f_current: float, slope: float
                  ) -> tuple[float, np.ndarray | None, np.ndarray | None, int]:
    """Backtracking search on the true sum-rate.

    Moves the state along the body-coordinate ``direction`` (a real
    symmetric S_g per block), tries the steps alpha_m of
    ``_ALPHAS`` for m = 0, 1, ... and accepts the smallest m with

        rate(R(state, alpha_m * direction)) >= f_current
                                               + max(s_m * slope, floor),

    R being the retraction ``retract_batch``, s_m the slope ``_SLOPES[m]``,
    ``slope`` the directional derivative <grad, direction> and floor the
    rounding noise of the rate (see ``_NOISE_ULPS``), so that an increase
    the rate cannot resolve never passes, whatever the slope.
    ``objective_batch`` scores every candidate from its
    ``Geodesic.diagonals`` in the workspace of the bases P, the search's
    ``line``; only the accepted factor is formed.

    The steps are scored in chunks of ``_ARMIJO_CHUNK``, one
    ``objective_batch`` call each, until a chunk holds a passing step. The
    chunk width only groups the scoring and never changes the step: every
    candidate's score is computed on its own, and the accepted step is still
    the first qualifying m. Returns (alpha, accepted state, its signal
    matrix, step sizes scored), or (0.0, None, None, trials) when no trial
    is accepted or the slope is not positive.
    """
    if not slope > 0 or not direction.any():
        return 0.0, None, None, 0
    floor = _NOISE_FLOOR * (abs(f_current) + ws.users)
    path = geodesic_frame(state, direction)
    line = ws.in_bases(path.p)
    for low in range(0, len(_ALPHAS), _ARMIJO_CHUNK):
        alphas = _ALPHAS[low:low + _ARMIJO_CHUNK]
        diagonals = path.diagonals(alphas)
        values = line.objective_batch(diagonals)
        demand = np.maximum(_SLOPES[low:low + _ARMIJO_CHUNK] * slope, floor)
        hits = (values >= f_current + demand).nonzero()[0]
        if hits.size:
            first = int(hits[0])
            chosen = retract_batch(state, path, alphas[first:first + 1])[0][0]
            return (float(alphas[first]), chosen,
                    line.signals(diagonals[first:first + 1])[0],
                    low + len(alphas))
    return 0.0, None, None, len(_ALPHAS)


@np.errstate(over="ignore", invalid="ignore")
def cga_optimize(channels: ChannelSet, beam: Beamformer, config: SystemConfig,
                 seed: int, settings: CgaSettings | None = None
                 ) -> tuple[ScatteringMatrix, OptimizerTrace]:
    """Full sum-rate ascent run; see the module docstring.

    Returns the projected (blockwise symmetric unitary) scattering matrix and
    the per-iteration trace. Each iteration takes a Newton step where it is
    allowed or an L-BFGS step in body coordinates, and line searches accept
    on the true sum-rate from alpha = 1. The run converges when the
    body-coordinate gradient norm is at most ``_GRADIENT_RATIO`` times its
    value at the start point. Iterations whose line search stalls
    leave the iterate unchanged and do not trigger the convergence test: a
    stall of a Newton or L-BFGS search clears the L-BFGS memory and the next
    search goes along the gradient, and only a stall of a search along the
    gradient terminates the run with ``converged=False``.
    ``final.stop_reason`` says which exit ended the run: ``"tolerance"``
    (converged), ``"max_iters"``, ``"stalled"``, or ``"nonfinite"`` when the
    rate or the squared gradient norm is not finite at the start point or
    after a step (the run then stops at that point); overflow inside numpy
    raises no warning, only this stop reason.
    """
    if settings is None:
        settings = CgaSettings.from_config(config)
    # The start point theta0 is drawn twice from ``seed``: as blocks, which
    # keeps the benchmark trace's ``random_feasible`` span (perfbench/
    # tracer.py), and as the Takagi factors ``state``, with state @ state^T
    # theta0 bit for bit, the identity in the bases of the state.
    random_feasible(config, seed)
    ws = _Workspace(channels, beam, config)
    state = random_feasible_stack(np.random.default_rng(seed),
                                  config.n_groups, config.group_size)
    c = ws.in_bases(state).signals(np.ones((1,) + state.shape[:2]))[0]
    aux, eta, total = ws.stats(c)
    f_current = ws.objective(c, aux, total)
    grad = ws.body_gradient(state, ws.riemannian_gradient(state, c, aux))
    grad_sq = _re_vdot(grad, grad)
    start_norm = _norm(grad_sq)

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
                            grad_norm=norm, unitarity_residual=float(residual),
                            armijo_trials=trials)
            for (i, rate, value, step, norm, trials), residual
            in zip(pending, worst))
        pending.clear()

    def record(i: int, step: float, trials: int) -> None:
        """Queue the record of the current iterate, reached by ``step``."""
        if len(pending) == len(states):
            flush()
        states[len(pending)] = state
        pending.append((i, eta, f_current, step, _norm(grad_sq), trials))

    record(0, 0.0, 0)

    stop_reason = None if _finite(eta, grad_sq) else "nonfinite"
    memory: list[tuple] = []  # L-BFGS pairs (s, y, 1 / s.y), oldest first
    retry = False  # the last search stalled: go along the gradient
    shift = 0  # index of the last Newton shift in _NEWTON_SHIFTS
    # 1 x 1 blocks take the Newton step at every shift. Capped like larger
    # blocks, sc at R = 64, desk geometry and p_max 1e3 reached 83.66 and
    # 83.76 bits instead of 84.48 and 84.53 (seeds 0 and 1).
    limit = (len(_NEWTON_SHIFTS) if config.group_size == 1
             else _CONNECTED_SHIFTS)
    iters_used = 0
    while stop_reason is None and iters_used < settings.max_iters:
        iters_used += 1
        direction = grad if retry else None
        if direction is None:
            direction, shift = ws.newton_step(state, c, grad, shift, limit)
        if direction is None:
            direction = _two_loop(grad, memory) if memory else grad
        slope = _re_vdot(grad, direction)
        if direction is not grad and not slope > 0:
            memory.clear()
            direction, slope = grad, grad_sq

        alpha, candidate, c_new, trials = _armijo_stack(
            ws, state, direction, eta, slope)

        if candidate is None:
            # Nothing moved, so repeating this search would only fail again.
            record(iters_used, 0.0, trials)
            if direction is grad:
                stop_reason = "stalled"
            memory.clear()
            retry = True
            continue

        retry = False
        state, c = candidate, c_new
        aux, eta, total = ws.stats(c)
        f_current = ws.objective(c, aux, total)
        grad_new = ws.body_gradient(state,
                                    ws.riemannian_gradient(state, c, aux))
        step = alpha * direction.ravel()
        change = (grad - grad_new).ravel()
        curvature = _re_vdot(step, change)
        if curvature > 0:
            memory.append((step, change, 1.0 / curvature))
            del memory[:-_MEMORY]
        grad = grad_new
        grad_sq = _re_vdot(grad, grad)
        record(iters_used, alpha, trials)
        if not _finite(eta, grad_sq):
            stop_reason = "nonfinite"
        elif _norm(grad_sq) <= _GRADIENT_RATIO * start_norm:
            stop_reason = "tolerance"

    flush()
    grad_norm = _norm(grad_sq)
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
    modulus of the diagonal and that off-diagonal entries are zero. A
    tolerance that is not positive and finite raises ``ValueError``: an
    infinite one passes every matrix, and a NaN or negative one fails
    every matrix.
    """
    for name, tol in (("tol_unitary", tol_unitary),
                      ("tol_symmetry", tol_symmetry)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {tol!r}")
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
