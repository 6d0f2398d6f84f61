"""Parsing data trees and prob-trees back from their XML serialization.

Inverse of :mod:`repro.xmlio.serialize`; round-tripping preserves structure,
labels, conditions and the event table (node identifiers are re-allocated,
as XML has no notion of them).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict

from repro.core.events import ProbabilityDistribution
from repro.core.probtree import ProbTree
from repro.formulas.literals import Condition
from repro.trees.datatree import DataTree, NodeId
from repro.utils.errors import InvalidTreeError


def _root_element(text: str) -> ET.Element:
    """The root element of *text*; malformed or non-text input is typed."""
    if not isinstance(text, (str, bytes)):
        raise InvalidTreeError(f"expected XML text, got {type(text).__name__}")
    try:
        return ET.fromstring(text)
    except ET.ParseError as error:
        raise InvalidTreeError(f"malformed XML: {error}") from error


def datatree_from_xml(text: str) -> DataTree:
    """Parse a ``<node>``-rooted XML document into a data tree.

    Malformed XML raises :class:`~repro.utils.errors.InvalidTreeError`.

    Ingests through :meth:`DataTree.add_subtree_bulk` — one flat preorder
    batch instead of one :meth:`~DataTree.add_child` call per element — so
    warehouse/service ``insert`` payloads skip the per-node mutator
    overhead.  Identifiers, structure and the mutation journal are exactly
    what the per-node path produced.
    """
    element = _root_element(text)
    if element.tag != "node":
        raise InvalidTreeError(f"expected a <node> root element, got <{element.tag}>")
    tree = DataTree(element.get("label", ""))
    spec = []
    stack = [
        (child, -1)
        for child in reversed([c for c in element if c.tag == "node"])
    ]
    while stack:
        node, parent_slot = stack.pop()
        slot = len(spec)
        spec.append((parent_slot, node.get("label", "")))
        for child in reversed([c for c in node if c.tag == "node"]):
            stack.append((child, slot))
    tree.add_subtree_bulk(tree.root, spec)
    return tree


def probtree_from_xml(text: str) -> ProbTree:
    """Parse a ``<probtree>`` document into a prob-tree.

    Malformed XML raises :class:`~repro.utils.errors.InvalidTreeError`.
    """
    element = _root_element(text)
    if element.tag != "probtree":
        raise InvalidTreeError(
            f"expected a <probtree> root element, got <{element.tag}>"
        )
    probabilities: Dict[str, float] = {}
    events_element = element.find("events")
    if events_element is not None:
        for event in events_element.findall("event"):
            name = event.get("name")
            probability = event.get("probability")
            if name is None or probability is None:
                raise InvalidTreeError("<event> elements need name and probability")
            try:
                probabilities[name] = float(probability)
            except ValueError:
                raise InvalidTreeError(
                    f"<event> {name!r} has a non-numeric probability {probability!r}"
                ) from None

    node_element = element.find("node")
    if node_element is None:
        raise InvalidTreeError("<probtree> documents need a <node> tree")

    tree = DataTree(node_element.get("label", ""))
    conditions: Dict[NodeId, Condition] = {}
    _attach_conditional_children(tree, tree.root, node_element, conditions)
    root_condition = node_element.get("condition")
    if root_condition:
        raise InvalidTreeError("the root of a prob-tree cannot carry a condition")
    return ProbTree(tree, ProbabilityDistribution(probabilities), conditions)


def _attach_conditional_children(
    tree: DataTree,
    parent: NodeId,
    element: ET.Element,
    conditions: Dict[NodeId, Condition],
) -> None:
    for child in element:
        if child.tag != "node":
            continue
        node = tree.add_child(parent, child.get("label", ""))
        condition_text = child.get("condition")
        if condition_text:
            condition = Condition.of(*condition_text.split(" and "))
            if not condition.is_true():
                conditions[node] = condition
        _attach_conditional_children(tree, node, child, conditions)


__all__ = ["datatree_from_xml", "probtree_from_xml"]
