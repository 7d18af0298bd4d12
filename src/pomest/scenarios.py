"""End-to-end worked scenarios: energy estimation, EPR correlations, linear estimates.

Each scenario combines the estimation machinery with a concrete physical
setup and cross-checks the numerics against closed forms where they exist.
The EPR scenario works on a two-particle position grid: the first particle's
position is read directly off the grid and the second particle's momentum
through the discrete Fourier basis of the second axis, with the momentum
spacing 2 pi hbar / (N h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import Estimator, optimal_estimate
from .operators import DensityOperator, HermitianOperator, spectral_apply
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
    vals = np.linalg.eigvalsh(h.matrix)
    spread = float(vals[-1] - vals[0])
    if not math.isfinite(beta * spread):
        raise OverflowError("beta times the spectral spread is not representable")
    e0 = float(vals[0])
    # weights are rescaled by the ground energy, so large beta*spread only
    # underflows the high levels (the zero-temperature limit), never overflows
    gibbs = spectral_apply(h, lambda x: math.exp(max(-beta * (x - e0), -745.0)))
    z = float(np.real(np.trace(gibbs.matrix)))
    return DensityOperator(gibbs.matrix / z)


def log_partition_estimate(h: HermitianOperator, pom: Pom, beta: float,
                           rel_step=1e-5) -> np.ndarray:
    """-d/dbeta ln tr[e^{-beta H} M_k] by central differences in beta.

    Independent route to the thermal optimal estimate; outcomes whose
    generalized partition function underflows return nan.
    """
    vals, vecs = np.linalg.eigh(h.matrix)
    e0 = vals[0]
    if pom.kets is not None:
        w2 = np.abs(pom.kets.conj() @ vecs) ** 2  # (K, n): |<v_n|ket_k>|^2
    else:
        w2 = np.real(np.einsum("nm,kml,ln->kn", vecs.conj().T, pom._operators, vecs))
    db = rel_step * beta
    out = np.full(pom.n_outcomes, np.nan)
    t_plus = w2 @ np.exp(-(beta + db) * (vals - e0))
    t_minus = w2 @ np.exp(-(beta - db) * (vals - e0))
    ok = (t_plus > 0) & (t_minus > 0)
    out[ok] = (np.log(t_minus[ok]) - np.log(t_plus[ok])) / (2 * db) + e0
    return out


def thermal_energy_estimate(h: HermitianOperator, pom: Pom, beta: float,
                            crosscheck_tol=1e-6, significance=1e-12) -> Estimator:
    """Optimal energy estimate for a system known only to be thermal.

    Builds rho proportional to e^{-beta H}, runs the optimal estimate of H
    and cross-checks it against the log-derivative of the generalized
    partition function tr[e^{-beta H} M_k] on outcomes carrying at least
    ``significance`` of the largest outcome probability.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    rho = _thermal_state(h, beta)
    est = optimal_estimate(h, pom, rho)
    ref = log_partition_estimate(h, pom, beta)
    from .estimation import probabilities

    p = probabilities(pom, rho)
    keep = (p > significance * p.max()) & np.isfinite(ref)
    gap = float(np.abs(est.values[keep] - ref[keep]).max()) if keep.any() else 0.0
    if gap > crosscheck_tol:
        raise ScenarioError(
            f"thermal estimate disagrees with the log-partition route by {gap:.2e}"
        )
    return Estimator(est.pom, est.values, meta="thermal", zero_probability=est.zero_probability,
                     out_of_range=est.out_of_range, probabilities=p)


# ---------------------------------------------------------------------------
# quantum potential / local energy estimate


@dataclass
class GridWavefunction:
    """Complex amplitudes on a uniform 1D or 2D position grid."""

    positions: np.ndarray
    spacing: float
    amplitudes: np.ndarray
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0

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
    Q = -hbar^2/(2m) lap(R)/R, all by central differences.  Points within
    1e-12 (relative) of a node and the boundary ring are flagged and carry nan.
    """
    amp = psi.amplitudes
    h = psi.spacing
    v = np.asarray(potential, dtype=float)
    if v.shape != amp.shape:
        raise ValueError("potential must be sampled on the wavefunction grid")
    R = np.abs(amp)
    node = R <= 1e-12 * R.max()
    phase = np.angle(amp)
    ndim = amp.ndim
    if ndim == 1:
        S = psi.hbar * np.unwrap(phase)
    else:
        S = psi.hbar * np.unwrap(np.unwrap(phase, axis=0), axis=1)
    grad2 = np.zeros_like(R)
    lap_R = np.zeros_like(R)
    boundary = np.ones_like(R, dtype=bool)
    if ndim == 1:
        boundary[1:-1] = False
        grad2[1:-1] = ((S[2:] - S[:-2]) / (2 * h)) ** 2
        lap_R[1:-1] = (R[2:] - 2 * R[1:-1] + R[:-2]) / h**2
    else:
        boundary[1:-1, 1:-1] = False
        grad2[1:-1, :] += ((S[2:, :] - S[:-2, :]) / (2 * h)) ** 2
        grad2[:, 1:-1] += ((S[:, 2:] - S[:, :-2]) / (2 * h)) ** 2
        lap_R[1:-1, :] += (R[2:, :] - 2 * R[1:-1, :] + R[:-2, :]) / h**2
        lap_R[:, 1:-1] += (R[:, 2:] - 2 * R[:, 1:-1] + R[:, :-2]) / h**2
    flagged = node | boundary
    with np.errstate(divide="ignore", invalid="ignore"):
        qpot = -psi.hbar**2 / (2 * psi.mass) * lap_R / R
    values = grad2 / (2 * psi.mass) + v + qpot
    values = np.where(flagged, np.nan, values)
    return PointwiseEstimate(values, flagged)


# ---------------------------------------------------------------------------
# EPR pair: direct position readout plus partner-momentum readout


@dataclass(frozen=True)
class EprParams:
    """Two-particle Gaussian approximating a relative-position/total-momentum eigenket."""

    sigma: float = 0.1
    tau: float = 0.1
    a: float = 0.0
    p0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0 or self.tau <= 0:
            raise ValueError("sigma and tau must be positive")


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


def recommended_epr_points(params: EprParams, points_per_scale=8, reach_sigmas=5.5):
    """Grid size and half-length resolving both length scales with Gaussian margin."""
    h_target = min(params.sigma, params.hbar / params.tau) / points_per_scale
    scale_x = math.sqrt(params.sigma**2 + (params.hbar / params.tau) ** 2) / 2
    length = reach_sigmas * scale_x
    n_raw = int(math.ceil(2 * length / h_target))
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


def epr_numeric(params: EprParams, points: int, length: float | None = None,
                validate=True, rel_tol=1e-3, prob_floor=1e-13) -> EprNumericReport:
    """Grid evaluation of the EPR estimates via the product position (x)
    partner-momentum readout.

    The wavefunction is sampled on an N x N grid, the second axis is rotated
    to the discrete Fourier (momentum) basis, and the optimal estimates of
    the first particle's position and momentum are computed outcome by
    outcome from the pure-state formula.  With ``validate`` set, deviations
    from the closed forms beyond ``rel_tol`` raise GridResolutionError.
    """
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
    X = x[:, None]
    Xp = x[None, :]
    psi = np.exp(
        -((X - Xp - params.a) ** 2) / (4 * params.sigma**2)
        - params.tau**2 * (X + Xp) ** 2 / (4 * hb**2)
        + 1j * params.p0 * (X + Xp) / (2 * hb)
    )
    psi /= np.linalg.norm(psi)
    p_vals = 2 * np.pi * hb * np.fft.fftfreq(n, d=h)

    phi = np.fft.fft(psi, axis=1, norm="ortho")
    prob = np.abs(phi) ** 2
    kspace = np.fft.fft(psi, axis=0, norm="ortho")
    kspace *= p_vals[:, None]
    p_psi = np.fft.ifft(kspace, axis=0, norm="ortho")
    del kspace, psi
    g = np.fft.fft(p_psi, axis=1, norm="ortho")
    del p_psi
    overlap = g * np.conj(phi)
    del g, phi

    keep = prob > prob_floor * prob.max()
    f_p = np.where(keep, np.real(overlap) / np.where(keep, prob, 1.0), 0.0)
    mean_p = float((prob * f_p).sum())
    var_p = float((prob * f_p * f_p).sum()) - mean_p**2
    px = prob.sum(axis=1)
    mean_x = float(px @ x)
    var_x = float(px @ (x * x)) - mean_x**2
    eps_p2 = float(np.where(keep, np.imag(overlap) ** 2 / np.where(keep, prob, 1.0), 0.0).sum())

    # probability-weighted affine fit of the momentum estimate against p'
    w = prob.sum(axis=0)
    pw = w @ p_vals
    ppw = w @ (p_vals * p_vals)
    fw = float((prob * f_p).sum())
    fpw = float(((prob * f_p) @ p_vals).sum())
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
    rd_p = abs(numeric.disp_p - closed.disp_p) / closed.disp_p
    re_p = abs(numeric.eps_p - closed.eps_p) / closed.eps_p
    report = EprNumericReport(numeric, closed, rd_x, rd_p, re_p, n, float(length), h,
                              params.sigma / h)
    if validate and max(rd_x, rd_p, re_p) > rel_tol:
        raise GridResolutionError(
            f"EPR grid run deviates from the closed form by up to "
            f"{max(rd_x, rd_p, re_p):.2e} (tol {rel_tol:.1e}); refine the grid"
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
        if self.var_xprime < 0 or self.var_pprime < 0:
            raise ValueError("auxiliary variances must be nonnegative")
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


def golden_section(f, lo, hi, tol=1e-10, max_iter=200):
    """Scalar golden-section minimization on [lo, hi]; returns (x, f(x))."""
    inv_phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
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


def optimize_squeezing(var_x: float, var_p: float, hbar=1.0, log_bracket=12.0,
                       tol=1e-12) -> SqueezingReport:
    """Minimize disp_x eps_p + eps_x disp_p + eps_x eps_p over the squeezing ratio.

    The auxiliary state keeps var_x' var_p' = hbar^2/4 while the ratio
    DeltaX'/DeltaP' varies.  A coarse scan plus golden-section refinement
    covers the bracket; the degenerate endpoints (one auxiliary variance
    exactly zero, cost DeltaX * DeltaP) are evaluated explicitly.
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

    grid = np.linspace(-log_bracket, log_bracket, 961)
    coarse = np.array([cost_of_log_ratio(t) for t in grid])
    k = int(np.argmin(coarse))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    t_star, j_star = golden_section(cost_of_log_ratio, lo, hi, tol=tol)

    j_endpoint = math.sqrt(var_x * var_p)  # either degenerate choice
    matched_ratio = math.sqrt(var_x / var_p)  # DeltaX / DeltaP
    j_matched = cost_of_log_ratio(math.log(matched_ratio))
    nx = 0.5 * hbar * matched_ratio
    npp = 0.5 * hbar / matched_ratio
    disp_matched = (var_x / math.sqrt(var_x + nx)) * (var_p / math.sqrt(var_p + npp))

    at_edge = min(t_star - (-log_bracket), log_bracket - t_star) < 0.5
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
