"""The wormhole attack-mode taxonomy (paper Table 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class AttackMode:
    """One row of the taxonomy."""

    key: str
    name: str
    min_compromised_nodes: int
    special_requirements: str
    liteworp_detects: bool
    paper_section: str


ATTACK_MODES: Tuple[AttackMode, ...] = (
    AttackMode(
        key="encapsulation",
        name="Packet encapsulation",
        min_compromised_nodes=2,
        special_requirements="None",
        liteworp_detects=True,
        paper_section="3.1",
    ),
    AttackMode(
        key="outofband",
        name="Out-of-band channel",
        min_compromised_nodes=2,
        special_requirements="Out-of-band link",
        liteworp_detects=True,
        paper_section="3.2",
    ),
    AttackMode(
        key="highpower",
        name="High power transmission",
        min_compromised_nodes=1,
        special_requirements="High energy source",
        liteworp_detects=True,
        paper_section="3.3",
    ),
    AttackMode(
        key="relay",
        name="Packet relay",
        min_compromised_nodes=1,
        special_requirements="None",
        liteworp_detects=True,
        paper_section="3.4",
    ),
    AttackMode(
        key="deviation",
        name="Protocol deviations",
        min_compromised_nodes=1,
        special_requirements="None",
        liteworp_detects=False,
        paper_section="3.5",
    ),
)


def taxonomy_table() -> List[Tuple[str, int, str]]:
    """Table 1 rows: (mode name, min #compromised nodes, requirements)."""
    return [
        (mode.name, mode.min_compromised_nodes, mode.special_requirements)
        for mode in ATTACK_MODES
    ]
