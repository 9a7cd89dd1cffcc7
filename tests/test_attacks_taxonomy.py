"""Unit tests for the attack-mode taxonomy (paper Table 1)."""

from repro.attacks.taxonomy import ATTACK_MODES, taxonomy_table


def test_five_modes():
    assert len(ATTACK_MODES) == 5


def test_table1_rows_match_paper():
    rows = dict((name, (count, req)) for name, count, req in taxonomy_table())
    assert rows["Packet encapsulation"] == (2, "None")
    assert rows["Out-of-band channel"] == (2, "Out-of-band link")
    assert rows["High power transmission"] == (1, "High energy source")
    assert rows["Packet relay"] == (1, "None")
    assert rows["Protocol deviations"] == (1, "None")


def test_liteworp_detects_all_but_protocol_deviation():
    for mode in ATTACK_MODES:
        if mode.key == "deviation":
            assert not mode.liteworp_detects
        else:
            assert mode.liteworp_detects


def test_two_node_modes_are_the_tunnel_modes():
    two = {m.key for m in ATTACK_MODES if m.min_compromised_nodes == 2}
    assert two == {"encapsulation", "outofband"}
