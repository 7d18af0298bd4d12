"""End-to-end worked scenarios: energy estimation, EPR correlations, linear estimates.

Each scenario combines the estimation machinery with a concrete physical
setup and cross-checks the numerics against closed forms where they exist.
The EPR scenario works on a two-particle position grid: the first particle's
position is read directly off the grid and the second particle's momentum
through the discrete Fourier basis of the second axis, with the momentum
spacing 2 pi hbar / (N h).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimation import Estimator, optimal_analysis
from .operators import DensityOperator, HermitianOperator
from .pom import Pom

__all__ = [
    "ScenarioError",
    "GridWavefunction",
    "PointwiseEstimate",
    "EprParams",
    "EprReport",
    "EprNumericReport",
    "LinearEstimateInputs",
    "LinearReport",
    "SqueezingReport",
    "thermal_energy_estimate",
    "log_partition_estimate",
    "quantum_potential_estimate",
    "epr_closed_form",
    "epr_numeric",
    "recommended_epr_points",
    "linear_estimate",
    "optimize_squeezing",
    "golden_section",
]


class ScenarioError(RuntimeError):
    """A scenario's internal cross-check failed."""


# ---------------------------------------------------------------------------
# thermal energy estimation


def _thermal_state(h: HermitianOperator, beta: float) -> DensityOperator:
    """e^{-beta H}/Z, built from its factor V sqrt(g/Z) on H's kept eigensystem."""
    vals, vecs = h.eigensystem()
    spread = float(vals[-1] - vals[0])
    if not math.isfinite(beta * spread):
        raise OverflowError("beta times the spectral spread is not representable")
    e0 = float(vals[0])
    # weights are rescaled by the ground energy, so large beta*spread only
    # underflows the high levels (the zero-temperature limit), never overflows
    g = np.array([math.exp(max(-beta * (x - e0), -745.0)) for x in vals])
    return DensityOperator.from_factor(vecs * np.sqrt(g / g.sum()))


def log_partition_estimate(h: HermitianOperator, pom: Pom, beta: float,
                           rel_step=1e-5) -> np.ndarray:
    """-d/dbeta ln tr[e^{-beta H} M_k] by central differences in beta.

    Independent route to the thermal optimal estimate; outcomes whose
    generalized partition function underflows return nan.
    """
    vals, vecs = h.eigensystem()
    e0 = vals[0]
    # (K, n): <v_n|M_k|v_n>, a sum of nonnegative terms in tr[e^{-beta H} M_k]
    w2 = (np.abs(pom.project(vecs)) ** 2).sum(axis=1)
    db = rel_step * beta
    out = np.full(pom.n_outcomes, np.nan)
    t_plus = w2 @ np.exp(-(beta + db) * (vals - e0))
    t_minus = w2 @ np.exp(-(beta - db) * (vals - e0))
    ok = (t_plus > 0) & (t_minus > 0)
    out[ok] = (np.log(t_minus[ok]) - np.log(t_plus[ok])) / (2 * db) + e0
    return out


def thermal_energy_estimate(h: HermitianOperator, pom: Pom, beta: float) -> Estimator:
    """Optimal energy estimate for a system known only to be thermal.

    Builds rho proportional to e^{-beta H}, runs the optimal estimate of H
    and cross-checks it to 1e-6 against the log-derivative of the generalized
    partition function tr[e^{-beta H} M_k] on outcomes carrying more than
    1e-12 of the largest outcome probability, leaving out those the
    estimate flags as of zero probability (it sets them to 0).  The estimate
    keeps its ``analysis``, whose ``p`` are the outcome probabilities.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    an = optimal_analysis((h,), pom, _thermal_state(h, beta))
    est, p = an.estimates[0], an.p
    ref = log_partition_estimate(h, pom, beta)
    keep = (p > 1e-12 * p.max()) & np.isfinite(ref) & ~est.zero_probability
    gap = float(np.abs(est.values[keep] - ref[keep]).max()) if keep.any() else 0.0
    if gap > 1e-6:
        raise ScenarioError(
            f"thermal estimate disagrees with the log-partition route by {gap:.2e}"
        )
    return replace(est, meta="thermal")


# ---------------------------------------------------------------------------
# quantum potential / local energy estimate


@dataclass
class GridWavefunction:
    """Complex amplitudes on a uniform position grid of any number of axes, one spacing for all."""

    spacing: float
    amplitudes: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        norm2 = float(np.sum(np.abs(self.amplitudes) ** 2) * self.spacing**self.amplitudes.ndim)
        if abs(norm2 - 1) > 1e-8:
            raise ValueError(f"discrete norm {norm2!r} differs from 1 beyond 1e-8")


@dataclass
class PointwiseEstimate:
    values: np.ndarray
    flagged: np.ndarray


def quantum_potential_estimate(psi: GridWavefunction, potential) -> PointwiseEstimate:
    """Local optimal energy estimate |grad S|^2/2m + V + Q from a position readout.

    Writes the amplitude as R e^{iS/hbar} and adds the curvature term
    Q = -hbar^2/(2m) lap(R)/R, all by central differences along every axis.  Points
    within 1e-12 (relative) of a node and the boundary ring are flagged and carry nan.
    """
    amp = psi.amplitudes
    h = psi.spacing
    v = np.asarray(potential, dtype=float)
    if v.shape != amp.shape:
        raise ValueError("potential must be sampled on the wavefunction grid")
    R = np.abs(amp)
    node = R <= 1e-12 * R.max()
    S = np.angle(amp)
    for axis in range(amp.ndim):
        S = np.unwrap(S, axis=axis)
    S = psi.hbar * S
    grad2 = np.zeros_like(R)
    lap_R = np.zeros_like(R)
    boundary = np.ones_like(R, dtype=bool)
    boundary[(slice(1, -1),) * amp.ndim] = False
    for axis in range(amp.ndim):
        # views with this axis first: its central differences fill the interior slab
        s, r, g2, lap = (np.moveaxis(a, axis, 0) for a in (S, R, grad2, lap_R))
        g2[1:-1] += ((s[2:] - s[:-2]) / (2 * h)) ** 2
        lap[1:-1] += (r[2:] - 2 * r[1:-1] + r[:-2]) / h**2
    flagged = node | boundary
    with np.errstate(divide="ignore", invalid="ignore"):
        qpot = -psi.hbar**2 / (2 * psi.mass) * lap_R / R
    values = grad2 / (2 * psi.mass) + v + qpot
    values = np.where(flagged, np.nan, values)
    return PointwiseEstimate(values, flagged)


# ---------------------------------------------------------------------------
# EPR pair: direct position readout plus partner-momentum readout


_EPR_STRIP = 32  # grid rows per FFT batch: a few strips of complex rows stay in cache
_EPR_THREADS = 2  # strips in flight at once; the sums are taken in strip order whatever it is


@dataclass(frozen=True)
class EprParams:
    """Two-particle Gaussian approximating a relative-position/total-momentum eigenket."""

    sigma: float = 0.1
    tau: float = 0.1
    a: float = 0.0
    p0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.sigma <= 0 or self.tau <= 0:
            raise ValueError("sigma and tau must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")


@dataclass
class EprReport:
    """Closed-form estimates and uncertainties for the EPR readout."""

    x_estimate_coeff: tuple  # X~ = x
    p_estimate_coeff: tuple  # P~ = c0 + c1 p'
    disp_x: float
    eps_x: float
    disp_p: float
    eps_p: float
    ungen_lhs: float
    ungen_rhs: float


@dataclass
class EprNumericReport:
    numeric: EprReport
    closed: EprReport
    rel_err_disp_x: float
    rel_err_disp_p: float
    rel_err_eps_p: float
    points: int
    length: float
    spacing: float
    points_per_sigma: float


def epr_closed_form(params: EprParams) -> EprReport:
    """Exact dispersions and inaccuracies of the optimal EPR estimates."""
    hb, s, t, p0 = params.hbar, params.sigma, params.tau, params.p0
    denom = hb**2 + s**2 * t**2
    disp_x = math.sqrt(denom) / (2 * t)
    disp_p = abs(hb**2 - s**2 * t**2) / (2 * s * math.sqrt(denom))
    eps_p = hb * t / math.sqrt(denom)
    lhs = disp_x * eps_p  # eps_x vanishes; remaining terms drop out
    return EprReport(
        x_estimate_coeff=(0.0, 1.0),
        p_estimate_coeff=(hb**2 * p0 / denom, (s**2 * t**2 - hb**2) / denom),
        disp_x=disp_x,
        eps_x=0.0,
        disp_p=disp_p,
        eps_p=eps_p,
        ungen_lhs=lhs,
        ungen_rhs=hb / 2,
    )


def recommended_epr_points(params: EprParams):
    """Grid size and half-length resolving both length scales with Gaussian margin."""
    # 4 points per length scale: a uniform grid converges exponentially in the
    # spacing on a Gaussian, so from there on the reach alone sets the error
    h_target = min(params.sigma, params.hbar / params.tau) / 4
    scale_x = math.sqrt(params.sigma**2 + (params.hbar / params.tau) ** 2) / 2
    length = 5.5 * scale_x
    # enough points that epr_numeric's balanced half-length n h_bal / 2 reaches length
    n_reach = (4 * length**2 + 2 * length * abs(params.p0)) / (2 * math.pi * params.hbar)
    n_raw = int(math.ceil(max(2 * length / h_target, n_reach)))
    # round up to a 3-smooth size for a fast FFT
    best = None
    p2 = 1
    while p2 < 4 * n_raw:
        p3 = p2
        while p3 < 4 * n_raw:
            if p3 >= n_raw and (best is None or p3 < best):
                best = p3
            p3 *= 3
        p2 *= 2
    return best, length


def _nearest_row(x, v):
    """Index of the grid point nearest v (an edge point when v lies off the grid)."""
    return int(np.abs(x - v).argmin())


def epr_numeric(params: EprParams, points: int, length: float | None = None,
                validate=True) -> EprNumericReport:
    """Grid evaluation of the EPR estimates via the product position (x)
    partner-momentum readout.

    The wavefunction is sampled on an N x N grid, the second axis is rotated
    to the discrete Fourier (momentum) basis, and the optimal estimates of
    the first particle's position and momentum are computed outcome by
    outcome from the pure-state formula.  The momentum P acts through the
    exact derivative of the Gaussian, P psi = -i hbar psi d/dx log psi,
    point by point, so only the partner axis is transformed and every grid
    row is independent.  The rows are streamed in strips of ``_EPR_STRIP``, in
    one pass, mode strip (x = a/2) first: outcomes below 1e-13 of its largest
    outcome probability are cut, and the pass reruns with the global peak if a
    later strip peaks higher.  After the mode strip, ``_EPR_THREADS`` strips run
    at once and their sums are added in strip order, so the result is the same
    bit for bit on any number of threads.  No N x N array is ever held.  A state
    beyond the grid's reach (every sampled amplitude 0) raises
    GridResolutionError, and so, with ``validate`` set, do deviations from the
    closed forms beyond 1e-3 relative; the dispersion of P is compared on the
    scale of the prior momentum spread sqrt(disp_p^2 + eps_p^2), which is never 0.
    """
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    from .relations import GridResolutionError

    closed = epr_closed_form(params)
    n = int(points)
    if length is None:
        # balance position coverage n*h/2 against the momentum window pi*hbar/h
        # (offset by the mean momentum), capped at the fine-grid recommendation
        hb, p_half = params.hbar, abs(params.p0) / 2
        h_bal = (-p_half + math.sqrt(p_half**2 + 2 * n * math.pi * hb)) / n
        length = min(n * h_bal / 2, recommended_epr_points(params)[1])
    h = 2 * length / n
    x = -length + h * np.arange(n)
    hb = params.hbar
    p_vals = 2 * np.pi * hb * np.fft.fftfreq(n, d=h)
    # On the uniform grid the Gaussian is a function of x - x' (index i - j)
    # times one of x + x' (index i + j): Toeplitz and Hankel views of two
    # length-2N vectors, multiplied one strip of rows at a time.
    rel = h * np.arange(-(n - 1), n) - params.a
    tot = 2 * x[0] + h * np.arange(2 * n - 1)
    s2, t2 = params.sigma**2, params.tau**2

    def toeplitz(v):  # [i, j] -> v at x_i - x_j
        return sliding_window_view(v[::-1], n)[::-1]

    def hankel(v):  # [i, j] -> v at x_i + x_j
        return sliding_window_view(v, n)

    psi_rel = toeplitz(np.exp(-rel**2 / (4 * s2)))
    psi_tot = hankel(np.exp(-t2 * tot**2 / (4 * hb**2) + 1j * params.p0 * tot / (2 * hb)))
    # -i hbar d/dx log psi, so that P psi = psi * (p_rel + p_tot) exactly
    p_rel = toeplitz(1j * hb * rel / (2 * s2))
    p_tot = hankel(params.p0 / 2 + 1j * t2 * tot / (2 * hb))
    strips = [slice(r, min(r + _EPR_STRIP, n)) for r in range(0, n, _EPR_STRIP)]
    strips.insert(0, strips.pop(_nearest_row(x, params.a / 2) // _EPR_STRIP))
    # one buffer set per worker, allocated here: temporaries freed in a worker thread
    # stay in its malloc arena, where the calling thread's later work cannot reuse them
    buffers = SimpleQueue()
    for _ in range(_EPR_THREADS):
        buffers.put((*np.empty((3, _EPR_STRIP, n), complex), *np.empty((4, _EPR_STRIP, n)),
                     np.empty((_EPR_STRIP, n), bool)))

    def strip(rows, peak):
        """The strip's largest outcome probability and its sums, outcomes below
        1e-13 of peak (of its own largest when peak is 0) cut."""
        full = buffers.get()
        try:
            psi, phi, g, prob, inv, pf, tmp, keep = (b[:rows.stop - rows.start] for b in full)
            np.multiply(psi_rel[rows], psi_tot[rows], out=psi)
            np.add(p_rel[rows], p_tot[rows], out=phi)
            np.multiply(psi, phi, out=phi)
            np.fft.fft(phi, axis=1, norm="ortho", out=g)
            np.fft.fft(psi, axis=1, norm="ortho", out=phi)
            np.square(np.abs(phi, out=prob), out=prob)
            top = float(prob.max())
            np.greater(prob, 1e-13 * (peak or top), out=keep)
            inv.fill(0.0)
            np.divide(1.0, prob, out=inv, where=keep)
            overlap = np.multiply(g, np.conjugate(phi, out=psi), out=g)
            np.multiply(overlap.real, keep, out=pf)
            ffw = float(np.multiply(np.multiply(pf, pf, out=tmp), inv, out=tmp).sum())
            im = overlap.imag
            eps_p2 = float(np.multiply(np.multiply(im, im, out=tmp), inv, out=tmp).sum())
            return top, prob.sum(axis=1), prob.sum(axis=0), pf.sum(axis=0), ffw, eps_p2
        finally:
            buffers.put(full)

    peak = 0.0
    with ThreadPoolExecutor(_EPR_THREADS) as pool:
        for _ in range(2):
            # sums over the unnormalized prob, divided by the norm below; on the kept outcomes
            # prob * f_p = Re overlap, and the eps_p^2 density is Im overlap^2 / prob
            px = np.empty(n)
            w = np.zeros(n)
            fw_cols = np.zeros(n)
            ffw = eps_p2 = top = 0.0
            first = strip(strips[0], peak)
            # the mode strip sets the cut; if it holds no weight, each strip cuts at its own top
            # and the pass reruns
            peak = peak or first[0]
            # added in strip order as they arrive, so the sums never depend on the threads
            results = itertools.chain([first], pool.map(strip, strips[1:], itertools.repeat(peak)))
            for rows, (top_r, px_r, w_r, fw_r, ffw_r, eps_r) in zip(strips, results):
                top = max(top, top_r)
                px[rows] = px_r
                w += w_r
                fw_cols += fw_r
                ffw += ffw_r
                eps_p2 += eps_r
            if top <= peak:
                break
            peak = top  # a later strip peaked higher: rerun with the global peak
    norm2 = float(px.sum())
    if norm2 == 0:  # every sampled amplitude underflowed
        raise GridResolutionError("the EPR state lies beyond the grid's reach")
    px /= norm2
    w /= norm2
    fw_cols /= norm2
    mean_x = float(px @ x)
    var_x = float(px @ (x * x)) - mean_x**2
    fw = float(fw_cols.sum())
    var_p = ffw / norm2 - fw**2
    eps_p2 /= norm2

    # probability-weighted affine fit of the momentum estimate against p'
    pw = w @ p_vals
    ppw = w @ (p_vals * p_vals)
    fpw = float(fw_cols @ p_vals)
    det = w.sum() * ppw - pw * pw
    c1 = (w.sum() * fpw - pw * fw) / det
    c0 = (ppw * fw - pw * fpw) / det

    numeric = EprReport(
        x_estimate_coeff=(0.0, 1.0),
        p_estimate_coeff=(float(c0), float(c1)),
        disp_x=math.sqrt(max(var_x, 0.0)),
        eps_x=0.0,
        disp_p=math.sqrt(max(var_p, 0.0)),
        eps_p=math.sqrt(max(eps_p2, 0.0)),
        ungen_lhs=math.sqrt(max(var_x, 0.0)) * math.sqrt(max(eps_p2, 0.0)),
        ungen_rhs=hb / 2,
    )
    rd_x = abs(numeric.disp_x - closed.disp_x) / closed.disp_x
    # Var P = disp_p^2 + eps_p^2 > 0, while disp_p itself vanishes at sigma tau = hbar
    rd_p = abs(numeric.disp_p - closed.disp_p) / math.hypot(closed.disp_p, closed.eps_p)
    re_p = abs(numeric.eps_p - closed.eps_p) / closed.eps_p
    report = EprNumericReport(numeric, closed, rd_x, rd_p, re_p, n, float(length), h,
                              params.sigma / h)
    if validate and max(rd_x, rd_p, re_p) > 1e-3:
        raise GridResolutionError(
            f"EPR grid run deviates from the closed form by up to "
            f"{max(rd_x, rd_p, re_p):.2e} (tol 1.0e-03); refine the grid"
        )
    return report


# ---------------------------------------------------------------------------
# linear estimates from prior moments


@dataclass(frozen=True)
class LinearEstimateInputs:
    """Prior means/variances plus the auxiliary minimum-uncertainty variances."""

    mean_x: float
    var_x: float
    mean_p: float
    var_p: float
    var_xprime: float
    var_pprime: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.var_x <= 0 or self.var_p <= 0:
            raise ValueError("prior variances must be positive")
        if not (self.var_xprime >= 0 and self.var_pprime >= 0):  # nan fails too
            raise ValueError("auxiliary variances var_xprime and var_pprime must be nonnegative")
        degenerate = {self.var_xprime, self.var_pprime}
        if 0.0 in degenerate or math.inf in degenerate:
            # squeezing endpoint: one variance vanishes, the conjugate diverges
            if sorted(degenerate) != [0.0, math.inf]:
                raise ValueError("a vanishing auxiliary variance requires a divergent conjugate")
            return
        target = self.hbar**2 / 4
        if abs(self.var_xprime * self.var_pprime - target) > 1e-12 * max(1.0, target):
            raise ValueError("auxiliary variances must satisfy var_x' var_p' = hbar^2/4")


@dataclass
class LinearChannel:
    lam: float
    eps_lin: float
    disp_lin: float
    eps_raw: float
    disp_raw: float


@dataclass
class LinearReport:
    x: LinearChannel
    p: LinearChannel
    joint_cost: float


def _linear_channel(S, N) -> LinearChannel:
    if N == 0:
        return LinearChannel(1.0, 0.0, math.sqrt(S), 0.0, math.sqrt(S))
    if math.isinf(N):
        return LinearChannel(0.0, math.sqrt(S), 0.0, math.inf, 0.0)
    lam = S / (S + N)
    return LinearChannel(lam, math.sqrt(S * N / (S + N)), S / math.sqrt(S + N),
                         math.sqrt(N), math.sqrt(S + N))


def linear_estimate(inputs: LinearEstimateInputs) -> LinearReport:
    """Best linear estimates lam*m + (1-lam)*prior_mean for both readouts.

    For each channel, lam = S/(S+N) with S the prior variance and N the
    auxiliary noise variance; the inaccuracy is sqrt(SN/(S+N)) < sqrt(N) and
    the dispersion shrinks to (1 + N/S)^{-1} of the raw readout spread.
    """
    cx = _linear_channel(inputs.var_x, inputs.var_xprime)
    cp = _linear_channel(inputs.var_p, inputs.var_pprime)
    j = cx.disp_lin * cp.eps_lin + cx.eps_lin * cp.disp_lin + cx.eps_lin * cp.eps_lin
    return LinearReport(cx, cp, j)


# ---------------------------------------------------------------------------
# squeezing-ratio optimization of the joint-uncertainty cost


def golden_section(f, lo, hi, tol=1e-10):
    """Scalar golden-section minimization on [lo, hi], at most 200 steps; returns (x, f(x))."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if abs(b - a) < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2
    return x, f(x)


@dataclass
class SqueezingReport:
    """Outcome of minimizing the joint-uncertainty cost over the squeezing ratio.

    ``regime`` reports where the cost is actually smallest: 'interior' when a
    ratio strictly inside the search bracket beats the degenerate choices,
    'endpoint' when sending one auxiliary variance to zero (no true joint
    measurement) wins.  The ratio-matched candidate ratio' = DeltaX/DeltaP and
    its cost and dispersion product are always reported alongside.

    ``threshold_product`` is the prior product DeltaX DeltaP at which the
    matched cost equals the endpoint cost.  At the matched ratio both
    auxiliary noise-to-prior ratios are x = hbar/(2 DeltaX DeltaP), so
    J_matched/J_end = (2 sqrt(x) + x)/(1 + x), which crosses 1 at x = 1/4:
    the threshold is 2 hbar for every asymmetry.
    """

    regime: str
    ratio: float
    j_min: float
    j_endpoint: float
    matched_ratio: float
    j_matched: float
    disp_product_matched: float
    threshold_product: float
    prior_product: float


def optimize_squeezing(var_x: float, var_p: float, hbar=1.0) -> SqueezingReport:
    """Minimize disp_x eps_p + eps_x disp_p + eps_x eps_p over the squeezing ratio.

    The auxiliary state keeps var_x' var_p' = hbar^2/4 while the ratio
    DeltaX'/DeltaP' varies.  A coarse scan plus golden-section refinement
    covers log ratios in [-12, 12]; the degenerate endpoints (one auxiliary
    variance exactly zero, cost DeltaX * DeltaP) are evaluated explicitly.
    """
    if var_x <= 0 or var_p <= 0:
        raise ValueError("prior variances must be positive")

    def cost_of_log_ratio(t):
        u = math.exp(t)
        nx = 0.5 * hbar * u
        npp = 0.5 * hbar / u
        ex = math.sqrt(var_x * nx / (var_x + nx))
        ep = math.sqrt(var_p * npp / (var_p + npp))
        dx = var_x / math.sqrt(var_x + nx)
        dp = var_p / math.sqrt(var_p + npp)
        return dx * ep + ex * dp + ex * ep

    bracket = 12.0  # on the log ratio
    grid = np.linspace(-bracket, bracket, 961)
    coarse = np.array([cost_of_log_ratio(t) for t in grid])
    k = int(np.argmin(coarse))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    t_star, j_star = golden_section(cost_of_log_ratio, lo, hi, tol=1e-12)

    j_endpoint = math.sqrt(var_x * var_p)  # either degenerate choice
    matched_ratio = math.sqrt(var_x / var_p)  # DeltaX / DeltaP
    j_matched = cost_of_log_ratio(math.log(matched_ratio))
    nx = 0.5 * hbar * matched_ratio
    npp = 0.5 * hbar / matched_ratio
    disp_matched = (var_x / math.sqrt(var_x + nx)) * (var_p / math.sqrt(var_p + npp))

    at_edge = bracket - abs(t_star) < 0.5
    if not at_edge and j_star < j_endpoint - 1e-12 * max(1.0, j_endpoint):
        regime = "interior"
        ratio = math.exp(t_star)
        j_min = j_star
    else:
        regime = "endpoint"
        ratio = 0.0
        j_min = j_endpoint
    return SqueezingReport(regime, ratio, j_min, j_endpoint, matched_ratio, j_matched,
                           disp_matched, 2 * hbar, math.sqrt(var_x * var_p))
