"""Coverage analysis (paper section 5.1).

Geometry
--------
Two neighbor nodes S and D at distance x (pdf f(x) = 2x/r² on (0, r))
can be guarded by any node inside the intersection of their two
communication disks.  The lens area is::

    Area(x) = 2 r² cos⁻¹(x / 2r) − (x/2) √(4r² − x²)

minimised at x = r and averaging E[Area] ≈ 1.84 r² over f (exact
quadrature).  With node density d and N_B = π r² d average neighbors, the
paper linearises the expected guard count as g ≈ 0.51·N_B (it quotes
E[Area] ≈ 1.6 r²; the difference is immaterial to every conclusion, and we
expose both the exact and the paper's quoted constants).

Probabilities
-------------
With per-packet collision probability P_C, a guard misses a fabrication
with probability P_C.  Over a window containing γ fabrications, a guard
alerts if it detects at least κ::

    P_alert = Σ_{i=κ}^{γ} C(γ,i) (1−P_C)^i P_C^{γ−i}

and the wormhole is detected when at least θ of the g guards alert::

    P_θ = Σ_{i=θ}^{g} C(g,i) P_alert^i (1−P_alert)^{g−i}

False alarms: a guard falsely suspects one packet when it misses the
S→D transmission but hears D's forward, P_fa = P_C (1−P_C); the windowed
and θ-of-g aggregation is identical in form.

Figure 6 evaluates both curves against the number of neighbors N_B with
P_C growing linearly in N_B.

scipy is imported inside the functions that call it, not at module scope:
``import repro`` reaches this module, and simulations never pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

PAPER_GUARD_FRACTION = 0.51  # paper: g = 0.51 * N_B


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
def guard_region_area(x: float, r: float) -> float:
    """Lens area of two disks of radius ``r`` whose centres are ``x`` apart.

    Valid for 0 <= x <= 2r; the paper only uses x in (0, r] (neighbors).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if x < 0 or x > 2 * r:
        raise ValueError(f"x must be in [0, 2r], got {x!r}")
    if x == 0:
        return math.pi * r * r
    area = 2 * r * r * math.acos(x / (2 * r)) - (x / 2.0) * math.sqrt(4 * r * r - x * x)
    # Catastrophic cancellation near x = 2r can produce a tiny negative.
    return max(0.0, area)


def guard_region_area_min(r: float) -> float:
    """Minimum guard-region area over neighbor distances (attained at x=r)."""
    return guard_region_area(r, r)


def mean_guard_region_area(r: float) -> float:
    """E[Area(x)] under f(x) = 2x/r² on (0, r), by quadrature."""
    if r <= 0:
        raise ValueError("r must be positive")
    from scipy import integrate

    value, _err = integrate.quad(
        lambda x: guard_region_area(x, r) * 2 * x / (r * r), 0.0, r
    )
    return value


def expected_guards(n_neighbors: float, exact: bool = False) -> float:
    """Expected guard count for a random link given average degree N_B.

    ``exact=False`` uses the paper's linearisation g = 0.51·N_B;
    ``exact=True`` uses E[Area]/ (π r²) · N_B from the quadrature.
    """
    if n_neighbors < 0:
        raise ValueError("n_neighbors must be non-negative")
    if not exact:
        return PAPER_GUARD_FRACTION * n_neighbors
    ratio = mean_guard_region_area(1.0) / math.pi
    return ratio * n_neighbors


def min_guards(n_neighbors: float) -> float:
    """Worst-case guard count (link length x = r): Area_min/(π r²) · N_B."""
    ratio = guard_region_area_min(1.0) / math.pi
    return ratio * n_neighbors


# ----------------------------------------------------------------------
# Detection probability
# ----------------------------------------------------------------------
def per_guard_alert_probability(p_collision: float, gamma: int, kappa: int) -> float:
    """Probability one guard detects ≥ κ of γ fabrications (each seen with
    probability 1 − P_C)."""
    _check_probability(p_collision, "p_collision")
    _check_window(gamma, kappa)
    return _binom_sf(kappa - 1, gamma, 1.0 - p_collision)


def theta_of_g(p_alert: float, theta: int, guards: int) -> float:
    """Probability at least θ of g independent guards alert."""
    _check_probability(p_alert, "p_alert")
    if theta < 1:
        raise ValueError("theta must be at least 1")
    if guards < 0:
        raise ValueError("guards must be non-negative")
    if guards < theta:
        return 0.0
    return _binom_sf(theta - 1, guards, p_alert)


def detection_probability(
    p_collision: float, gamma: int, kappa: int, theta: int, guards: int
) -> float:
    """P_θ: the wormhole is detected by at least θ of g guards."""
    p_alert = per_guard_alert_probability(p_collision, gamma, kappa)
    return theta_of_g(p_alert, theta, guards)


# ----------------------------------------------------------------------
# False-alarm probability
# ----------------------------------------------------------------------
def per_guard_false_alarm_probability(
    p_collision: float, gamma: int, kappa: int, squared: bool = False
) -> float:
    """Probability one guard falsely accuses over a γ-packet window.

    Per packet the guard must miss the incoming transmission and hear the
    forward: p = P_C (1 − P_C); ``squared=True`` selects the stricter
    P_C² (1 − P_C) variant suggested by the scanned formula.
    """
    _check_probability(p_collision, "p_collision")
    _check_window(gamma, kappa)
    per_packet = p_collision * (1.0 - p_collision)
    if squared:
        per_packet *= p_collision
    return _binom_sf(kappa - 1, gamma, per_packet)


def false_alarm_probability(
    p_collision: float,
    gamma: int,
    kappa: int,
    theta: int,
    guards: int,
    squared: bool = False,
) -> float:
    """Probability an honest node is falsely isolated (≥ θ guards falsely
    alert)."""
    p_fa = per_guard_false_alarm_probability(p_collision, gamma, kappa, squared=squared)
    return theta_of_g(p_fa, theta, guards)


# ----------------------------------------------------------------------
# Figure-level sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoverageParams:
    """Parameters of the figure-6 sweeps (paper values as defaults)."""

    gamma: int = 7
    kappa: int = 5
    theta: int = 3
    p_collision_base: float = 0.05
    n_neighbors_base: float = 3.0
    exact_guards: bool = False

    def p_collision(self, n_neighbors: float) -> float:
        """P_C grows linearly with the neighbor count (paper assumption),
        capped below 1."""
        scaled = self.p_collision_base * n_neighbors / self.n_neighbors_base
        return min(scaled, 0.999)

    def guards(self, n_neighbors: float) -> int:
        """Integer guard count for the sweep."""
        return int(round(expected_guards(n_neighbors, exact=self.exact_guards)))


def detection_vs_neighbors(
    neighbor_counts: Sequence[float], params: CoverageParams = CoverageParams()
) -> List[Tuple[float, float]]:
    """Figure 6(a): (N_B, P_detection) series."""
    series = []
    for n_b in neighbor_counts:
        p = detection_probability(
            params.p_collision(n_b), params.gamma, params.kappa,
            params.theta, params.guards(n_b),
        )
        series.append((float(n_b), p))
    return series


def false_alarm_vs_neighbors(
    neighbor_counts: Sequence[float],
    params: CoverageParams = CoverageParams(),
    squared: bool = False,
) -> List[Tuple[float, float]]:
    """Figure 6(b): (N_B, P_false_alarm) series."""
    series = []
    for n_b in neighbor_counts:
        p = false_alarm_probability(
            params.p_collision(n_b), params.gamma, params.kappa,
            params.theta, params.guards(n_b), squared=squared,
        )
        series.append((float(n_b), p))
    return series


def detection_vs_theta(
    thetas: Sequence[int],
    n_neighbors: float = 15.0,
    params: CoverageParams = CoverageParams(),
) -> List[Tuple[int, float]]:
    """Figure 10 (analytical curve): (θ, P_detection) at fixed N_B."""
    guards = params.guards(n_neighbors)
    p_c = params.p_collision(n_neighbors)
    series = []
    for theta in thetas:
        p = detection_probability(p_c, params.gamma, params.kappa, int(theta), guards)
        series.append((int(theta), p))
    return series


def density_for_detection(
    target_probability: float,
    params: CoverageParams = CoverageParams(),
    search_range: Tuple[float, float] = (2.0, 60.0),
    tolerance: float = 0.01,
) -> Optional[float]:
    """Smallest average neighbor count N_B achieving the target detection
    probability (paper 5.1: "we are able to compute the required network
    density d to detect p% of the wormhole attacks for a given θ").

    Returns None when no density in ``search_range`` reaches the target
    (detection is non-monotone in density — it collapses again at high
    density — so the search walks up from the sparse end).
    """
    _check_probability(target_probability, "target_probability")
    low, high = search_range
    if low <= 0 or high <= low:
        raise ValueError("search_range must satisfy 0 < low < high")
    step = tolerance * max(1.0, (high - low))
    n_b = low
    previous = None
    while n_b <= high:
        p = detection_probability(
            params.p_collision(n_b), params.gamma, params.kappa,
            params.theta, params.guards(n_b),
        )
        if p >= target_probability:
            if previous is None:
                return n_b
            # Refine between the last miss and this hit.
            lo, hi = previous, n_b
            for _ in range(30):
                mid = (lo + hi) / 2
                p_mid = detection_probability(
                    params.p_collision(mid), params.gamma, params.kappa,
                    params.theta, params.guards(mid),
                )
                if p_mid >= target_probability:
                    hi = mid
                else:
                    lo = mid
            return hi
        previous = n_b
        n_b += step
    return None


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _binom_sf(k: int, n: int, p: float) -> float:
    """P(X > k) for X ~ Binomial(n, p), via scipy (imported on first call)."""
    from scipy import stats

    return float(stats.binom.sf(k, n, p))


def _check_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _check_window(gamma: int, kappa: int) -> None:
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    if not 1 <= kappa <= gamma:
        raise ValueError("kappa must satisfy 1 <= kappa <= gamma")
