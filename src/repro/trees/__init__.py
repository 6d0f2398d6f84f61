"""Unordered labeled data trees (Definition 1) and their basic algorithms.

* :mod:`repro.trees.datatree` — the :class:`DataTree` structure itself;
* :mod:`repro.trees.isomorphism` — linear-time unordered labeled tree
  isomorphism via canonical encodings (the Aho–Hopcroft–Ullman technique the
  paper cites for Proposition 3 / Theorem 2);
* :mod:`repro.trees.subdatatree` — the sub-datatree partial order of
  Definition 5;
* :mod:`repro.trees.builders` — convenient literal-style construction of
  trees from nested tuples;
* :mod:`repro.trees.index` — structural indexes (preorder intervals, label
  posting lists, cached depths) backing the compiled query matcher on
  small and mid-sized trees;
* :mod:`repro.trees.columnar` — the flat struct-of-arrays snapshot
  (:class:`ColumnarTree`) behind the vectorized matcher the fast path picks
  for large trees: numpy-backed when available, mmap-able to disk,
  zero-copy on load.
"""

from repro.trees.columnar import ColumnarTree, columnar_tree
from repro.trees.datatree import DataTree
from repro.trees.index import TreeIndex, tree_index
from repro.trees.isomorphism import canonical_encoding, isomorphic
from repro.trees.subdatatree import (
    is_sub_datatree,
    enumerate_sub_datatrees,
    sub_datatree_count,
)
from repro.trees.builders import tree, leaf

__all__ = [
    "ColumnarTree",
    "columnar_tree",
    "DataTree",
    "TreeIndex",
    "tree_index",
    "canonical_encoding",
    "isomorphic",
    "is_sub_datatree",
    "enumerate_sub_datatrees",
    "sub_datatree_count",
    "tree",
    "leaf",
]
