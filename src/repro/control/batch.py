"""Batched LQG servo: one controller update for N devices per array op.

:class:`BatchedLQGServo` replays ``LQGServoController.step`` across an
``(N, ·)`` state batch with per-row bit-identical results.  The
baseline batching primitive for the matrix algebra is ``np.matvec`` —
``np.matvec(A, X)`` with ``A (m, n)`` and ``X (N, n)`` performs the same
per-row dot-product reduction as the scalar ``A @ x`` (a single
``matmul``/dgemm does *not*: BLAS blocks the accumulation differently).
``-K_state`` is precomputed because the scalar ``-K @ x - Ki @ z``
parses as ``(-K) @ x`` (unary minus binds tighter than ``@``), and
negation is exact.

Two faster primitives are used *only when a construction-time probe
proves them bit-identical on the running BLAS*:

* **Row stacking** — one matvec over ``vstack((D, B))`` instead of two.
  Whether the stacked product's row slices equal the separate products
  depends on the dgemv kernel's row blocking, which varies with the
  matrix shape; it cannot be assumed.  :func:`_stack_rows_exact`
  checks the actual matrices against the separate matvecs.
* **Per-column dgemv** — ``X @ M[j]`` per output column, one tall
  dgemv over the contiguous ``(N, n)`` batch instead of N tiny core
  loops.  Bit-identity again depends on the kernel (observed to hold
  for small inner dimensions, and to *fail* for N=1, which takes a
  different code path).  :func:`_matvec_by_columns_exact` checks each
  matrix; the fast path is additionally gated on ``N >= 2``.

A primitive that fails its probe silently falls back to plain
``np.matvec``, so results are identical on every machine and only the
speed varies.

Rows may run different gain sets simultaneously (SPECTR's supervisor
switches rows independently).  The servo keeps its rows grouped by gain
set: a stable row order plus per-set bounds, rebuilt by
:meth:`BatchedLQGServo.switch_rows`.  The compiled kernel (when its
probe passed) steps every group in one call, reading rows through the
order; the numpy path advances each group via gather/scatter and stays
the fallback and the probe's oracle.  Both preserve bit-identity
because every operation is row-independent.
"""

from __future__ import annotations

import numpy as np

from repro.control.fused import dot_variant, fused_kernel
from repro.control.lqg import ActuatorLimits, LQGGains
from repro.control.statespace import ModelError, OperatingPoint

__all__ = ["BatchedGainSet", "BatchedLQGServo"]

# Probe batch sizes / magnitudes: small-N kernels, the blocked tall
# path, and a scale sweep so exponent-dependent behavior would show.
_PROBE_ROWS = (2, 3, 17, 256)
_PROBE_SCALES = (1e-3, 1.0, 1e3)


def _probe_batches(n_cols: int):
    rng = np.random.default_rng(0x5BA7C4)
    for rows in _PROBE_ROWS:
        for scale in _PROBE_SCALES:
            yield rng.standard_normal((rows, n_cols)) * scale


def _stack_rows_exact(parts) -> bool:
    """True iff one matvec over ``vstack(parts)`` reproduces separate
    per-part matvecs bit-for-bit on this machine's BLAS."""
    stacked = np.ascontiguousarray(np.vstack(parts))
    for X in _probe_batches(stacked.shape[1]):
        merged = np.matvec(stacked, X)
        row = 0
        for part in parts:
            m = part.shape[0]
            if not np.array_equal(merged[:, row : row + m], np.matvec(part, X)):
                return False
            row += m
    return True


def _matvec_by_columns_exact(matrix: np.ndarray) -> bool:
    """True iff ``X @ matrix[j]`` per output column reproduces
    ``np.matvec(matrix, X)`` bit-for-bit for N >= 2 batches."""
    for X in _probe_batches(matrix.shape[1]):
        reference = np.matvec(matrix, X)
        for j in range(matrix.shape[0]):
            if not np.array_equal(X @ matrix[j], reference[:, j]):
                return False
    return True


def _matvec_columns(matrix: np.ndarray, X: np.ndarray, out: np.ndarray):
    # repro: shape[matrix: (r, k) f8; X: (N, k) f8; out: (N, r) f8; -> (N, r) f8]
    """``np.matvec(matrix, X)`` via one tall dgemv per output column.

    ``out`` is F-ordered so each column view is contiguous; only valid
    when :func:`_matvec_by_columns_exact` passed for ``matrix``.
    """
    for j in range(matrix.shape[0]):
        np.matmul(X, matrix[j], out=out[:, j])
    return out


class BatchedGainSet:
    """Contiguous views of one :class:`LQGGains` set for batched use.

    Construction probes which fast primitives are bit-exact for these
    matrices on the running BLAS (see module docstring); the flags are
    consulted by the servo's hot path every tick.
    """

    def __init__(self, gains: LQGGains) -> None:
        self.gains = gains
        self.name = gains.name
        model = gains.model
        self.A = np.ascontiguousarray(model.A)  # repro: shape[(n, n) f8]
        self.B = np.ascontiguousarray(model.B)  # repro: shape[(n, m) f8]
        self.C = np.ascontiguousarray(model.C)  # repro: shape[(p, n) f8]
        self.D = np.ascontiguousarray(model.D)  # repro: shape[(p, m) f8]
        self.L = np.ascontiguousarray(gains.L)  # repro: shape[(n, p) f8]
        self.DB = np.ascontiguousarray(  # repro: shape[(p+n, m) f8]
            np.vstack((model.D, model.B))
        )
        self.neg_K_state = np.ascontiguousarray(  # repro: shape[(m, n) f8]
            -gains.K_state
        )
        self.K_integral = np.ascontiguousarray(  # repro: shape[(m, p) f8]
            gains.K_integral
        )
        self.K_integral_pinv = np.ascontiguousarray(  # repro: shape[(p, m) f8]
            gains.K_integral_pinv
        )
        self.integral_mask = gains.integral_mask  # repro: shape[(p,) f8]
        # Machine-verified fast-path eligibility.
        self.db_stack_exact = _stack_rows_exact((self.D, self.B))  # repro: shape[bool]
        self.db_columns_exact = self.db_stack_exact and _matvec_by_columns_exact(  # repro: shape[bool]
            self.DB
        )
        self.l_columns_exact = _matvec_by_columns_exact(self.L)  # repro: shape[bool]
        self.ki_columns_exact = _matvec_by_columns_exact(self.K_integral)  # repro: shape[bool]
        self.ki_pinv_columns_exact = _matvec_by_columns_exact(  # repro: shape[bool]
            self.K_integral_pinv
        )
        # The fused kernel's per-set matrices, in its table order; all
        # but the trailing integral mask carry a probed dot variant.
        self.kernel_matrices = (
            self.C,
            self.A,
            self.B,
            self.D,
            self.L,
            self.neg_K_state,
            self.K_integral,
            self.K_integral_pinv,
            self.integral_mask,
        )
        # Per-matrix dot variants for the fused C kernel (None when any
        # matrix has no bit-exact inlined reduction on this machine).
        self.fused_variants = None  # repro: shape[(8,) i1 | none]
        kernel = fused_kernel()
        if kernel is not None:
            codes = [
                dot_variant(kernel, matrix)
                for matrix in self.kernel_matrices[:-1]
            ]
            if None not in codes:
                self.fused_variants = np.array(codes, dtype=np.int8)


class BatchedLQGServo:
    """N rows of ``LQGServoController`` advanced together.

    ``gain_sets`` is the palette of gain sets rows may run; every row
    starts on ``gain_sets[initial]``.  References are physical, one
    ``(N, p)`` row each; managers with a fleet-wide reference use
    :meth:`set_reference`; managers with per-row references (fleet
    SPECTR) write ``references`` directly and call
    :meth:`refresh_references`.
    """

    def __init__(
        self,
        gain_sets,
        operating_point: OperatingPoint,
        limits: ActuatorLimits,
        n_rows: int,
        *,
        initial: int = 0,
        anti_windup: float = 0.9,
        name: str = "batched-lqg",
    ) -> None:  # repro: shape[n_rows: int[N]]
        self.sets = [BatchedGainSet(g) for g in gain_sets]
        if not self.sets:
            raise ModelError("need at least one gain set")
        first = self.sets[0].gains
        for batched in self.sets[1:]:
            g = batched.gains
            if (
                g.n_states != first.n_states
                or g.n_inputs != first.n_inputs
                or g.n_outputs != first.n_outputs
            ):
                raise ModelError("gain set dimensions differ across palette")
        if operating_point.u.size != first.n_inputs:
            raise ModelError("operating point u dimension mismatch")
        if operating_point.y.size != first.n_outputs:
            raise ModelError("operating point y dimension mismatch")
        self.name = name
        self.operating_point = operating_point
        self.limits = limits
        self.anti_windup = float(anti_windup)  # repro: shape[float]
        self.n_rows = int(n_rows)  # repro: shape[int[N]]
        n, m, p = first.n_states, first.n_inputs, first.n_outputs
        self.gain_ids = np.full(self.n_rows, initial, dtype=np.int8)  # repro: shape[(N,) i1]
        # Rows grouped by gain id (stable, so ascending within a group):
        # set s owns _order[_bounds[s]:_bounds[s + 1]].  Both update in
        # place because the fused call captures their addresses.
        self._order = np.arange(self.n_rows, dtype=np.int64)  # repro: shape[(N,) i8]
        self._bounds = np.zeros(len(self.sets) + 1, dtype=np.int64)  # repro: shape[(S+1,) i8]
        self._uniform: int | None = None
        self._regroup()
        self.X = np.zeros((self.n_rows, n), dtype=float)  # repro: shape[(N, n) f8]
        self.Z = np.zeros((self.n_rows, p), dtype=float)  # repro: shape[(N, p) f8]
        self.DU = np.zeros((self.n_rows, m), dtype=float)  # repro: shape[(N, m) f8]
        # Scatter target for mixed-gain steps (allocated off the hot path).
        self._du_scatter = np.zeros((self.n_rows, m), dtype=float)  # repro: shape[(N, m) f8]
        # Uniform-path scratch: every per-step temporary is written into
        # a preallocated buffer via ufunc/matvec ``out=`` (same values,
        # no per-tick allocations).  X/Z are double-buffered because the
        # new state is computed from matvec reads of the old one; the
        # F-ordered buffers receive per-column dgemv results.
        rows = self.n_rows
        self._x_spare = np.zeros((rows, n), dtype=float)  # repro: shape[(N, n) f8]
        self._z_spare = np.zeros((rows, p), dtype=float)  # repro: shape[(N, p) f8]
        self._cax = np.empty((rows, p + n))  # repro: shape[(N, p+n) f8]
        self._dbu = np.empty((rows, p + n), order="F")  # repro: shape[(N, p+n) f8]
        self._ypred = np.empty((rows, p))  # repro: shape[(N, p) f8]
        self._lresid = np.empty((rows, n), order="F")  # repro: shape[(N, n) f8]
        self._zstep = np.empty((rows, p))  # repro: shape[(N, p) f8]
        self._du_out = np.empty((rows, m))  # repro: shape[(N, m) f8]
        self._kiz = np.empty((rows, m), order="F")  # repro: shape[(N, m) f8]
        self._corr = np.empty((rows, p), order="F")  # repro: shape[(N, p) f8]
        self._dy = np.empty((rows, p))  # repro: shape[(N, p) f8]
        self._u_raw = np.empty((rows, m))  # repro: shape[(N, m) f8]
        self._u_next = np.empty((rows, m))  # repro: shape[(N, m) f8]
        self._du_spare = np.empty((rows, m))  # repro: shape[(N, m) f8]
        self._step_lo = np.empty((rows, m))  # repro: shape[(N, m) f8]
        self._excess = np.empty((rows, m))  # repro: shape[(N, m) f8]
        self.U_prev = np.tile(operating_point.u, (self.n_rows, 1))  # repro: shape[(N, m) f8]
        self.references = np.tile(operating_point.y, (self.n_rows, 1))  # repro: shape[(N, p) f8]
        self._dr = (  # repro: shape[(N, p) f8]
            self.references - operating_point.y
        ) / operating_point.y_scale
        self._reference_key: list | None = None
        self._u_scale_safe = np.where(  # repro: shape[(m,) f8]
            operating_point.u_scale == 0, 1.0, operating_point.u_scale
        )
        self.invocations = 0  # repro: shape[int]
        # Compiled whole-step kernel: enabled only when available for
        # these dimensions AND a differential probe reproduces the
        # numpy path bit-for-bit for every gain set in the palette, on
        # uniform and mixed gain-id layouts.
        self._dims = (n, m, p)
        self._fused = None
        self._fused_tail = None
        kernel = fused_kernel()
        if (
            kernel is not None
            and kernel.fits(n, m, p)
            and all(g.fused_variants is not None for g in self.sets)
        ):
            # Per-set table for the kernel: matrix addresses in the C
            # entry point's order, and the probed dot variants.
            self._set_mats = np.array(  # repro: shape[(S, 9) i8]
                [[a.ctypes.data for a in g.kernel_matrices] for g in self.sets],
                dtype=np.int64,
            )
            self._set_variants = np.stack(  # repro: shape[(S, 8) i1]
                [g.fused_variants for g in self.sets]
            )
            key = self._probe_key()
            verdict = _PROBE_MEMO.get(key)
            if verdict is None:
                verdict = self._probe_fused(kernel)
                if len(_PROBE_MEMO) < 256:
                    _PROBE_MEMO[key] = verdict
            if verdict:
                self._fused = kernel

    # ------------------------------------------------------------------
    def set_reference(self, reference) -> None:
        """Fleet-wide reference (same list-key memo as the scalar servo)."""
        if isinstance(reference, list) and reference == self._reference_key:
            return
        row = np.asarray(reference, dtype=float).ravel()
        if row.size != self.references.shape[1]:
            raise ModelError(
                f"reference needs {self.references.shape[1]} entries, "
                f"got {row.size}"
            )
        self.references = np.tile(row, (self.n_rows, 1))
        self._reference_key = row.tolist()
        self.refresh_references()

    def refresh_references(self) -> None:
        """Recompute normalized references after ``references`` changed.

        Pure element-wise normalization, so recomputing unchanged rows
        reproduces their previous values bit-for-bit.  ``_dr`` is
        updated in place: its address is captured by the fused call
        tail and must stay stable.
        """
        op = self.operating_point
        np.subtract(self.references, op.y, out=self._dr)
        np.divide(self._dr, op.y_scale, out=self._dr)

    # ------------------------------------------------------------------
    def switch_rows(self, rows, new_id: int, *, bumpless: bool = True) -> None:
        """Gain-schedule ``rows`` onto ``gain_sets[new_id]``.

        Mirrors ``LQGServoController.switch_gains``: estimator state is
        preserved; with ``bumpless`` the integrators are re-solved so the
        commanded input is continuous across the switch.
        """
        g = self.sets[new_id]
        if bumpless:
            X = self.X[rows]
            DU = self.DU[rows]
            # (-K_state) @ x == -(K_state @ x) exactly (negation is a
            # sign flip, and rounding is sign-symmetric).
            rhs = np.matvec(g.neg_K_state, X) - DU
            z = np.matvec(g.K_integral_pinv, rhs)
            self.Z[rows] = z * g.integral_mask
        self.gain_ids[rows] = np.int8(new_id)
        self._regroup()

    def _regroup(self) -> None:
        """Rebuild the row order and group bounds from ``gain_ids``."""
        counts = np.bincount(self.gain_ids, minlength=len(self.sets))
        np.cumsum(counts, out=self._bounds[1:])
        self._order[...] = np.argsort(self.gain_ids, kind="stable")
        occupied = np.flatnonzero(counts)
        self._uniform = int(occupied[0]) if occupied.size == 1 else None

    def _groups(self):
        """``(gain id, ascending row indices)`` for every occupied set."""
        bounds = self._bounds
        for gain_id in range(len(self.sets)):
            lo, hi = int(bounds[gain_id]), int(bounds[gain_id + 1])
            if lo < hi:
                yield gain_id, self._order[lo:hi]

    @property
    def fused_enabled(self) -> bool:
        """True when steps run the probe-verified compiled kernel."""
        return self._fused is not None

    # ------------------------------------------------------------------
    def step(self, measured_outputs: np.ndarray) -> np.ndarray:
        # repro: shape[measured_outputs: (N, p) f8; -> (N, m) f8]
        """One control interval for every row; returns ``(N, m)`` u."""
        if self._fused is not None:
            return self._step_fused(measured_outputs)
        return self._step_numpy(measured_outputs)

    def _step_fused(self, measured_outputs, kernel=None) -> np.ndarray:
        # repro: shape[measured_outputs: (N, p) f8; -> (N, m) f8]
        """Whole step in one compiled per-row pass (probe-verified)."""
        Y = measured_outputs
        if (
            not isinstance(Y, np.ndarray)
            or Y.dtype != np.float64
            or not Y.flags.c_contiguous
        ):
            Y = np.ascontiguousarray(Y, dtype=float)
        tail = self._fused_tail
        if tail is None:
            tail = self._fused_tail = self._capture_fused_tail()
        (kernel or self._fused).servo_step_ptrs(Y.ctypes.data, tail)
        self.invocations += 1
        return self._u_next

    def _capture_fused_tail(self) -> tuple:
        """Raw post-``Y`` arguments of the fused call.

        Captured addresses stay valid because every referenced buffer
        is updated strictly in place on the fused path (``_order`` and
        ``_bounds`` included); the numpy path rotates buffers, so it
        drops the cache (``_step_numpy``).
        """
        op = self.operating_point
        limits = self.limits
        if limits.max_step is None:
            step_ptr, has_step = limits.lower.ctypes.data, 0
        else:
            step_ptr, has_step = limits.max_step.ctypes.data, 1
        n, m, p = self._dims
        return (
            n,
            m,
            p,
            len(self.sets),
            self._order.ctypes.data,
            self._bounds.ctypes.data,
            self._set_mats.ctypes.data,
            self._set_variants.ctypes.data,
            self._dr.ctypes.data,
            self.X.ctypes.data,
            self.Z.ctypes.data,
            self.DU.ctypes.data,
            self.U_prev.ctypes.data,
            self._u_next.ctypes.data,
            op.y.ctypes.data,
            op.y_scale.ctypes.data,
            op.u.ctypes.data,
            op.u_scale.ctypes.data,
            self._u_scale_safe.ctypes.data,
            limits.lower.ctypes.data,
            limits.upper.ctypes.data,
            step_ptr,
            has_step,
            self.anti_windup,
        )

    def _step_numpy(self, measured_outputs: np.ndarray) -> np.ndarray:
        # repro: shape[measured_outputs: (N, p) f8; -> (N, m) f8]
        op = self.operating_point
        dy = np.subtract(measured_outputs, op.y, out=self._dy)
        np.divide(dy, op.y_scale, out=dy)
        if self._uniform is not None:
            du = self._advance(self.sets[self._uniform], dy, None)
        else:
            du = self._du_scatter
            for gain_id, idx in self._groups():
                du[idx] = self._advance(self.sets[gain_id], dy, idx)
        u_raw = np.multiply(du, op.u_scale, out=self._u_raw)
        np.add(op.u, u_raw, out=u_raw)
        limits = self.limits
        u = self._u_next
        if limits.max_step is not None:
            lo = np.subtract(self.U_prev, limits.max_step, out=self._step_lo)
            hi = np.add(self.U_prev, limits.max_step, out=u)
            np.minimum(np.maximum(u_raw, lo, out=lo), hi, out=u)
        else:
            u[...] = u_raw
        np.minimum(np.maximum(u, limits.lower, out=u), limits.upper, out=u)
        excess = np.subtract(u_raw, u, out=self._excess)
        np.divide(excess, self._u_scale_safe, out=excess)
        if excess.any():
            self._apply_anti_windup(excess)
        du_next = np.subtract(u, op.u, out=self._du_spare)
        np.divide(du_next, op.u_scale, out=du_next)
        # Rotate the u/du double buffers: this tick's results become
        # current state, the previous arrays become next tick's scratch.
        # Rotation moves buffer addresses, so the fused pointer cache
        # (if any) is stale and must be rebuilt on the next fused step.
        self._du_spare = self.DU
        self.DU = du_next
        self._u_next = self.U_prev
        self.U_prev = u
        self._fused_tail = None
        self.invocations += 1
        return u

    def _advance(self, g: BatchedGainSet, dy: np.ndarray, idx) -> np.ndarray:
        # repro: shape[g: obj[BatchedGainSet]; dy: (N, p) f8; -> (N, m) f8]
        if idx is None:
            return self._advance_uniform(g, dy)
        X = self.X[idx]
        Z = self.Z[idx]
        DU = self.DU[idx]
        dr = self._dr[idx]
        dy_rows = dy[idx]
        p = g.C.shape[0]
        # Gather rows are few and may number one (where the per-column
        # path is not bit-exact), so this path sticks to plain matvec.
        cx = np.matvec(g.C, X)
        ax = np.matvec(g.A, X)
        if g.db_stack_exact:
            dbu = np.matvec(g.DB, DU)
            du_d, du_b = dbu[:, :p], dbu[:, p:]
        else:
            du_d = np.matvec(g.D, DU)
            du_b = np.matvec(g.B, DU)
        y_pred = cx + du_d
        X = (ax + du_b) + np.matvec(g.L, dy_rows - y_pred)
        Z = Z + g.integral_mask * (dr - dy_rows)
        du = np.matvec(g.neg_K_state, X) - np.matvec(g.K_integral, Z)
        self.X[idx] = X
        self.Z[idx] = Z
        return du

    def _advance_uniform(self, g: BatchedGainSet, dy: np.ndarray) -> np.ndarray:
        # repro: shape[g: obj[BatchedGainSet]; dy: (N, p) f8; -> (N, m) f8]
        """Whole-batch advance into preallocated scratch.

        Identical values to the gather path: ``out=`` only changes
        where results land, and every fast primitive used here was
        construction-probed bit-identical against plain matvec.
        """
        X, Z, DU, dr = self.X, self.Z, self.DU, self._dr
        p = g.C.shape[0]
        wide = self.n_rows >= 2
        # C @ x and A @ x as separate products, exactly as the scalar
        # computes them (their row-stacked merge is NOT bit-identical:
        # dgemv row blocking differs between the (p+n, n) and split
        # shapes).  Writing into slices of one buffer changes nothing.
        cax = self._cax
        np.matvec(g.C, X, out=cax[:, :p])
        np.matvec(g.A, X, out=cax[:, p:])
        if wide and g.db_columns_exact:
            dbu = _matvec_columns(g.DB, DU, self._dbu)
        elif g.db_stack_exact:
            dbu = np.matvec(g.DB, DU, out=self._dbu)
        else:
            dbu = self._dbu
            np.matvec(g.D, DU, out=dbu[:, :p])
            np.matvec(g.B, DU, out=dbu[:, p:])
        y_pred = np.add(cax[:, :p], dbu[:, :p], out=self._ypred)
        resid = np.subtract(dy, y_pred, out=y_pred)
        if wide and g.l_columns_exact:
            l_term = _matvec_columns(g.L, resid, self._lresid)
        else:
            l_term = np.matvec(g.L, resid, out=self._lresid)
        x_new = np.add(cax[:, p:], dbu[:, p:], out=self._x_spare)
        np.add(x_new, l_term, out=x_new)
        z_step = np.subtract(dr, dy, out=self._zstep)
        np.multiply(g.integral_mask, z_step, out=z_step)
        z_new = np.add(Z, z_step, out=self._z_spare)
        du = np.matvec(g.neg_K_state, x_new, out=self._du_out)
        if wide and g.ki_columns_exact:
            kiz = _matvec_columns(g.K_integral, z_new, self._kiz)
        else:
            kiz = np.matvec(g.K_integral, z_new, out=self._kiz)
        np.subtract(du, kiz, out=du)
        # Swap the double buffers: the new state arrays become current,
        # the previous ones become next tick's scratch.
        self._x_spare, self.X = X, x_new
        self._z_spare, self.Z = Z, z_new
        return du

    def _probe_key(self) -> tuple:
        """Every input :meth:`_probe_fused` reads, as a hashable key."""
        op, limits = self.operating_point, self.limits
        arrays = [op.y, op.y_scale, op.u, op.u_scale, limits.lower, limits.upper]
        if limits.max_step is not None:
            arrays.append(limits.max_step)
        for g in self.sets:
            arrays.extend(g.kernel_matrices)
        return (
            self.n_rows,
            self.anti_windup,
            limits.max_step is None,
            tuple((a.shape, a.tobytes()) for a in arrays),
        )

    def _probe_layouts(self) -> list[np.ndarray]:
        """Gain-id layouts the fused probe steps through, in order.

        Every set uniform, then (palettes of two or more) rows
        alternating across sets and runs of three rows per set: lane
        blocks of the row space mix sets, the kernel's blocks gather
        rows from across the batch, and groups end in partial blocks.
        """
        rows = np.arange(self.n_rows)
        count = len(self.sets)
        layouts = [np.full(self.n_rows, s) for s in range(count)]
        if count > 1:
            layouts.append(rows % count)
            layouts.append(rows // 3 % count)
        return layouts

    def _probe_fused(self, kernel) -> bool:
        """Differential gate for the compiled kernel.

        Runs the numpy and fused paths over identical random inputs —
        covering every gain set uniformly, mixed gain-id layouts (see
        :meth:`_probe_layouts`) and both saturated and unsaturated
        regimes — and enables the kernel only on bit-exact agreement
        of every output and every piece of internal state.
        """
        saved = (
            self.X.copy(),
            self.Z.copy(),
            self.DU.copy(),
            self.U_prev.copy(),
            self.gain_ids.copy(),
            self.invocations,
        )
        op = self.operating_point
        shape = (self.n_rows, op.y.size)
        outputs: list[list[np.ndarray]] = []
        finals: list[tuple[np.ndarray, ...]] = []
        try:
            for use_fused in (False, True):
                self._restore_probe_state(saved)
                rng = np.random.default_rng(0xF05ED)
                run: list[np.ndarray] = []
                for layout in self._probe_layouts():
                    self.gain_ids[:] = layout
                    self._regroup()
                    for scale in (0.5, 3.0, 50.0):
                        for _ in range(2):
                            Y = op.y + op.y_scale * scale * (
                                rng.standard_normal(shape)
                            )
                            if use_fused:
                                u = self._step_fused(Y, kernel)
                            else:
                                u = self._step_numpy(Y)
                            run.append(u.copy())
                outputs.append(run)
                finals.append(
                    (
                        self.X.copy(),
                        self.Z.copy(),
                        self.DU.copy(),
                        self.U_prev.copy(),
                    )
                )
        finally:
            self._restore_probe_state(saved)
        return all(
            np.array_equal(a, b) for a, b in zip(outputs[0], outputs[1])
        ) and all(np.array_equal(a, b) for a, b in zip(finals[0], finals[1]))

    def _restore_probe_state(self, saved) -> None:
        X, Z, DU, U_prev, gain_ids, invocations = saved
        self.X[...] = X
        self.Z[...] = Z
        self.DU[...] = DU
        self.U_prev[...] = U_prev
        self.gain_ids[...] = gain_ids
        self._regroup()
        self.invocations = invocations

    def _apply_anti_windup(self, excess: np.ndarray) -> None:
        # repro: shape[excess: (N, m) f8]
        # Scalar rows with no saturation skip the correction entirely;
        # np.where keeps their integrators byte-identical (masked
        # in-place updates can flip +0.0 to -0.0).
        anti_windup = self.anti_windup
        if self._uniform is not None:
            g = self.sets[self._uniform]
            row_mask = _saturated_rows(excess)
            if self.n_rows >= 2 and g.ki_pinv_columns_exact:
                correction = _matvec_columns(
                    g.K_integral_pinv, excess, self._corr
                )
            else:
                correction = np.matvec(g.K_integral_pinv, excess)
            self.Z = np.where(
                row_mask[:, None], self.Z + anti_windup * correction, self.Z
            )
            return
        for gain_id, idx in self._groups():
            group_excess = excess[idx]
            if not group_excess.any():
                continue
            g = self.sets[gain_id]
            row_mask = _saturated_rows(group_excess)
            correction = np.matvec(g.K_integral_pinv, group_excess)
            Z = self.Z[idx]
            self.Z[idx] = np.where(
                row_mask[:, None], Z + anti_windup * correction, Z
            )


# Fused-probe verdicts keyed by every probe input (``_probe_key``).  The
# probe is deterministic, so identical servos always re-derive the same
# verdict; fleet runs rebuild identical servos per run.
_PROBE_MEMO: dict[tuple, bool] = {}


def _saturated_rows(excess: np.ndarray) -> np.ndarray:
    # repro: shape[excess: (N, m) f8; -> (N,) b1]
    """Per-row ``excess.any()`` via column compares (faster than np.any
    on small widths, and ``-0.0 != 0.0`` is False, matching ``any``)."""
    mask = excess[:, 0] != 0.0
    for column in range(1, excess.shape[1]):
        mask = mask | (excess[:, column] != 0.0)
    return mask
