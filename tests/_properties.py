"""Loss-versus-delivery property audit of one knapsack instance.

Re-solves the max-energy problem over an ascending loss-cap sweep and the
min-loss problem over an ascending floor sweep with the greedy fill, and
samples random feasible assignments to count violations of
loss >= transferred.
"""

import math
from dataclasses import dataclass

import numpy as np

from venplan import MAX_ENERGY, MIN_LOSS, OPTIMAL, knapsack_assign


@dataclass(frozen=True)
class TradeoffReport:
    """Outcome of the property checks.

    ``premise_holds`` is true when every path loses at least as much as it
    delivers (loss factor >= 1, i.e. the retained fraction per path is at
    most one half). Under that premise every nonnegative assignment has
    total loss >= total delivered energy.
    """

    premise_holds: bool
    offending_paths: tuple[int, ...]
    samples: int
    dominance_violations: int
    loss_caps: tuple[float, ...]
    energy_curve: tuple[float, ...]
    energy_monotone: bool
    energy_saturates: bool
    floors: tuple[float, ...]
    loss_curve: tuple[float, ...]
    loss_monotone: bool


def check_tradeoff_properties(
    capacities, loss_factors, loss_caps=None, floors=None, samples=1000, seed=0
) -> TradeoffReport:
    """Audit monotonicity, saturation, and loss dominance on one instance.

    A failing premise (some loss factor below 1) is reported, not raised.
    """
    caps = np.asarray(capacities, dtype=float)
    lams = np.asarray(loss_factors, dtype=float)
    total_cap = float(caps.sum())
    max_loss = float((lams * caps).sum())
    offenders = tuple(int(j) for j in np.flatnonzero(lams < 1.0))

    if loss_caps is None:
        base = max_loss if max_loss > 0 else 1.0
        loss_caps = tuple(f * base for f in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0))
    else:
        loss_caps = tuple(float(v) for v in loss_caps)
    if floors is None:
        floors = tuple(f * total_cap for f in (0.0, 0.25, 0.5, 0.75, 1.0))
    else:
        floors = tuple(float(v) for v in floors)

    energy_curve = []
    for cap in loss_caps:
        x, _ = knapsack_assign(caps, lams, MAX_ENERGY, cap)
        energy_curve.append(float(x.sum()))
    loss_curve = []
    for floor in floors:
        x, status = knapsack_assign(caps, lams, MIN_LOSS, floor)
        assert status == OPTIMAL, f"floor {floor} exceeds total capacity {total_cap}"
        loss_curve.append(float((lams * x).sum()))

    tol = 1e-9 * max(1.0, total_cap, max_loss)
    saturating_caps = [v for c, v in zip(loss_caps, energy_curve) if c >= max_loss]

    rng = np.random.default_rng(seed)
    finite_caps = [c for c in loss_caps if math.isfinite(c)]
    largest_cap = max(finite_caps) if finite_caps else math.inf
    violations = 0
    for _ in range(samples):
        x = rng.uniform(0.0, 1.0, caps.size) * caps
        loss = float((lams * x).sum())
        if math.isfinite(largest_cap) and loss > largest_cap > 0:
            x = x * (largest_cap / loss)
            loss = float((lams * x).sum())
        if float(x.sum()) > loss + tol:
            violations += 1

    return TradeoffReport(
        premise_holds=not offenders,
        offending_paths=offenders,
        samples=samples,
        dominance_violations=violations,
        loss_caps=loss_caps,
        energy_curve=tuple(energy_curve),
        energy_monotone=_nondecreasing(energy_curve, tol),
        energy_saturates=bool(saturating_caps)
        and all(abs(v - total_cap) <= tol for v in saturating_caps),
        floors=floors,
        loss_curve=tuple(loss_curve),
        loss_monotone=_nondecreasing(loss_curve, tol),
    )


def _nondecreasing(curve, tol) -> bool:
    return all(b >= a - tol for a, b in zip(curve, curve[1:]))
