"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json

import pytest

from repro.dpst import ArrayDPST, LinkedDPST, NodeKind
from repro.trace.serialize import dpst_to_dict, event_to_dict


@pytest.fixture(params=["array", "linked"])
def dpst_layout(request):
    """Parametrize a test over both DPST layouts (Figure 14's two variants)."""
    return request.param


@pytest.fixture
def tree(dpst_layout):
    """An empty DPST of the parametrized layout."""
    return ArrayDPST() if dpst_layout == "array" else LinkedDPST()


def build_figure2(tree):
    """Build the paper's Figure 2 DPST by hand.

    Returns the node ids ``(s11, f12, a2, s2, s12, a3, s3)`` under root 0::

        F0
         |- S11
         |- F12
             |- A2 -- S2
             |- S12
             |- A3 -- S3
    """
    s11 = tree.add_node(0, NodeKind.STEP)
    f12 = tree.add_node(0, NodeKind.FINISH)
    a2 = tree.add_node(f12, NodeKind.ASYNC)
    s2 = tree.add_node(a2, NodeKind.STEP)
    s12 = tree.add_node(f12, NodeKind.STEP)
    a3 = tree.add_node(f12, NodeKind.ASYNC)
    s3 = tree.add_node(a3, NodeKind.STEP)
    return s11, f12, a2, s2, s12, a3, s3


def write_v1_trace(trace, path):
    """Write *trace* as a v1 monolithic JSON file.

    The library only reads v1 (it writes v2 and v3); this writer keeps the
    v1 read, sniffing, sharding and lenient paths under test.
    """
    data = {
        "version": 1,
        "events": [event_to_dict(event) for event in trace.events],
        "dpst": None if trace.dpst is None else dpst_to_dict(trace.dpst),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return str(path)
