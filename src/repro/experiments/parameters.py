"""The paper's simulation inputs (Table 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

#: The selectable ``attack_mode`` values: no attack, then the launch modes
#: of the paper's taxonomy (section 3) by their short names.
ATTACK_MODES = ("none", "outofband", "encapsulation", "highpower", "relay", "rushing")


@dataclass(frozen=True)
class Table2Parameters:
    """Input parameter values for the LITEWORP simulations (Table 2).

    Symbols follow the paper: r (transmit range), λ (data rate), μ
    (destination change rate), N (node counts), N_B (average neighbors),
    M (compromised node counts), θ (detection confidence index range),
    δ (watch deadline), T (MalC window).
    """

    tx_range_m: float = 30.0
    theta_range: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    node_counts: Tuple[int, ...] = (20, 50, 100, 150)
    avg_neighbors: int = 8
    data_rate: float = 1.0 / 10.0
    dest_change_rate: float = 1.0 / 200.0
    route_timeout: float = 50.0
    malicious_counts: Tuple[int, ...] = (0, 1, 2, 3, 4)
    channel_bandwidth_bps: float = 40_000.0
    delta: float = 0.5
    malc_window: float = 200.0

    def rows(self) -> List[Tuple[str, str]]:
        """Render the table as (parameter, value) rows."""
        return [
            ("Tx Range (r)", f"{self.tx_range_m:g} m"),
            ("theta", f"{self.theta_range[0]}-{self.theta_range[-1]}"),
            ("Total # nodes (N)", ",".join(str(n) for n in self.node_counts)),
            ("N_B", str(self.avg_neighbors)),
            ("lambda", f"1/{1.0 / self.data_rate:g} sec"),
            ("mu", f"1/{1.0 / self.dest_change_rate:g} sec"),
            ("TOut_Route", f"{self.route_timeout:g} sec"),
            ("M", f"{self.malicious_counts[0]}-{self.malicious_counts[-1]}"),
            ("Channel BW", f"{self.channel_bandwidth_bps / 1000:g} kbps"),
            ("delta", f"{self.delta:g} sec"),
            ("T", f"{self.malc_window:g}"),
        ]


TABLE2 = Table2Parameters()
