"""Compiled tree-pattern evaluation plans (the two fast matchers).

The naive matcher in :mod:`repro.queries.treepattern` backtracks over the
tree directly: every descendant edge re-walks ``tree.descendants()``, label
tests are per-node string comparisons, and shared subpatterns are re-matched
once per enclosing candidate.  This module lowers a pattern into a bottom-up
plan executed against a :class:`~repro.trees.index.TreeIndex`:

1. **candidate seeding** — each pattern node starts from the label inverted
   index (or the full preorder for wildcards), so label selectivity is
   exploited before any structure is looked at;
2. **bottom-up structural semijoins** — candidates of a pattern node are
   filtered to those with at least one structurally-related candidate per
   pattern child: child edges through a parent-set semijoin, descendant
   edges through binary search on preorder intervals;
3. **join pushdown** — a label-equality join restricts both endpoints to
   the intersection of their candidates' label sets before any embedding is
   enumerated;
4. **memoized embedding enumeration** — embeddings of the subpattern rooted
   at ``p`` with ``p ↦ v`` are computed once per ``(p, v)`` pair, so a
   subpattern reachable from many candidates is matched exactly once.

The matchers are observationally identical — they return the same embedding
sets (the plans only ever *prune* candidates that cannot occur in an
embedding, and the enumeration re-verifies every edge) — so the naive
matcher is kept as a differential-testing oracle, mirroring the
``engine="enumerate"`` convention of :mod:`repro.core.probability`.

:class:`ColumnarPlan` is the second fast matcher: the same four stages
rebased onto the flat rank-indexed arrays of a
:class:`~repro.trees.columnar.ColumnarTree`, with seeding and the semijoin
filters vectorized (numpy when available) instead of looping per node.  Its
differential twin is :class:`PatternPlan` — the candidate pruning must
agree element for element, and the memoized enumeration mirrors the object
plan exactly (sibling ranks ascend in child insertion order), so the two
return byte-identical match lists.  Which of the two runs is decided by tree
size (:meth:`repro.core.context.ExecutionContext.effective_matcher`); call
the plans (or :func:`indexed_matches` / :func:`columnar_matches`) directly
to pin one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.queries.base import Match
from repro.trees import columnar as _columnar
from repro.trees.columnar import ColumnarTree, columnar_tree
from repro.trees.datatree import DataTree, NodeId
from repro.trees.index import TreeIndex, tree_index

def _pattern_postorder(pattern) -> List[int]:
    """Children-before-parents order over pattern nodes (patterns are tiny)."""
    order: List[int] = []
    stack = [pattern.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(pattern.pattern_children(node))
    order.reverse()
    return order


class PatternPlan:
    """A compiled evaluation plan for one pattern against one indexed tree.

    The plan is cheap to build (a few linear passes over candidate lists)
    and single-use: build, call :meth:`matches`, discard.  The underlying
    :class:`TreeIndex` is shared through :func:`tree_index`, so evaluating
    many patterns against the same tree pays the O(n) index build once.
    """

    def __init__(
        self, pattern, tree: DataTree, index: Optional[TreeIndex] = None
    ) -> None:
        self._pattern = pattern
        self._tree = tree
        self._index = index if index is not None else tree_index(tree)
        self._specs = {spec.node_id: spec for spec in pattern.pattern_nodes()}
        self._postorder = _pattern_postorder(pattern)

    # -- plan construction ---------------------------------------------------

    def _seed_candidates(self) -> Dict[int, Sequence[NodeId]]:
        """Per-pattern-node candidate sequences from the label index, in preorder.

        Seeds are *shared, never copied*: a wildcard pattern node gets the
        index's preorder tuple itself — materializing a fresh O(n) list per
        wildcard per evaluation dominated seeding on large documents.  The
        root candidate stays in wildcard pools (the semijoin and the
        enumeration both exclude it structurally: the root is nobody's child
        and nobody's strict descendant); selective label postings still drop
        a leading root, where the slice is proportional to the posting.
        Materialization is deferred to the prune steps, which build fresh
        lists only when they actually remove candidates.
        """
        tree, index = self._tree, self._index
        from repro.queries.treepattern import WILDCARD  # local: avoids an import cycle

        root = tree.root
        candidates: Dict[int, Sequence[NodeId]] = {}
        for node_id, spec in self._specs.items():
            if node_id == self._pattern.root:
                matched = spec.label_matches(tree.root_label)
                candidates[node_id] = [root] if matched else []
                continue
            if spec.label == WILDCARD:
                candidates[node_id] = index.nodes_in_preorder()
                continue
            # Non-root pattern nodes sit strictly below the pattern root,
            # which is pinned to the tree root — drop the root candidate.
            # Posting lists are preorder-sorted, so the root can only be first.
            pool = index.nodes_with_label(spec.label)
            candidates[node_id] = pool[1:] if pool and pool[0] == root else pool
        return candidates

    def _semijoin_filter(self, candidates: Dict[int, Sequence[NodeId]]) -> None:
        """Bottom-up: keep candidates with structural support for every child."""
        from repro.queries.treepattern import EDGE_CHILD  # local: avoids an import cycle

        tree = self._tree
        pre = self._index.preorder_map()
        last = self._index.subtree_last_map()
        for node_id in self._postorder:
            for child_id in self._pattern.pattern_children(node_id):
                child_candidates = candidates[child_id]
                if not child_candidates:
                    candidates[node_id] = []
                    break
                if self._specs[child_id].edge == EDGE_CHILD:
                    parents = {tree.parent(u) for u in child_candidates}
                    candidates[node_id] = [v for v in candidates[node_id] if v in parents]
                else:
                    # Both lists are in preorder, so the first child candidate
                    # past each interval start is found by a single merge pass.
                    pres = [pre[u] for u in child_candidates]
                    count = len(pres)
                    kept = []
                    cursor = 0
                    for v in candidates[node_id]:
                        lo = pre[v]
                        while cursor < count and pres[cursor] <= lo:
                            cursor += 1
                        if cursor < count and pres[cursor] <= last[v]:
                            kept.append(v)
                    candidates[node_id] = kept

    def _push_down_joins(self, candidates: Dict[int, List[NodeId]]) -> None:
        """Restrict join endpoints to the labels both sides can produce."""
        tree = self._tree
        for first, second in self._pattern.joins():
            first_labels = {tree.label(v) for v in candidates[first]}
            second_labels = {tree.label(v) for v in candidates[second]}
            common = first_labels & second_labels
            if common != first_labels:
                candidates[first] = [
                    v for v in candidates[first] if tree.label(v) in common
                ]
            if common != second_labels:
                candidates[second] = [
                    v for v in candidates[second] if tree.label(v) in common
                ]

    # -- execution -----------------------------------------------------------

    def matches(self) -> List[Match]:
        """All embeddings, as :class:`Match` objects (join-filtered)."""
        joins = self._pattern.joins()
        embeddings = self.embeddings()
        if joins:
            label = self._tree.label
            embeddings = [
                e for e in embeddings
                if all(label(e[a]) == label(e[b]) for a, b in joins)
            ]
        return [Match.from_dict(e) for e in embeddings]

    def embeddings(self) -> List[Dict[int, NodeId]]:
        """All embeddings surviving candidate pruning, before the final join check.

        Join-label pushdown has already been applied, so embeddings whose
        join endpoints cannot possibly carry equal labels are pruned here;
        the exact per-embedding join equality test happens in
        :meth:`matches`.  Use :meth:`matches` for the join-complete result.
        """
        from repro.queries.treepattern import EDGE_CHILD  # local: avoids an import cycle

        candidates = self._seed_candidates()
        self._semijoin_filter(candidates)
        self._push_down_joins(candidates)
        root = self._pattern.root
        if not candidates[root]:
            return []

        tree = self._tree
        pre = self._index.preorder_map()
        last = self._index.subtree_last_map()
        pattern_children = self._pattern.pattern_children
        specs = self._specs
        candidate_sets = {node_id: set(nodes) for node_id, nodes in candidates.items()}
        candidate_pres = {
            node_id: [pre[u] for u in nodes] for node_id, nodes in candidates.items()
        }
        memo: Dict[Tuple[int, NodeId], List[Dict[int, NodeId]]] = {}

        def embed(pattern_node: int, tree_node: NodeId) -> List[Dict[int, NodeId]]:
            key = (pattern_node, tree_node)
            cached = memo.get(key)
            if cached is not None:
                return cached
            partials: List[Dict[int, NodeId]] = [{pattern_node: tree_node}]
            for child_id in pattern_children(pattern_node):
                if specs[child_id].edge == EDGE_CHILD:
                    allowed = candidate_sets[child_id]
                    child_nodes: Sequence[NodeId] = [
                        u for u in tree.children(tree_node) if u in allowed
                    ]
                else:
                    pres = candidate_pres[child_id]
                    start = bisect_right(pres, pre[tree_node])
                    stop = bisect_right(pres, last[tree_node])
                    child_nodes = candidates[child_id][start:stop]
                child_embeddings: List[Dict[int, NodeId]] = []
                for u in child_nodes:
                    child_embeddings.extend(embed(child_id, u))
                if not child_embeddings:
                    memo[key] = []
                    return memo[key]
                partials = [
                    {**left, **right}
                    for left in partials
                    for right in child_embeddings
                ]
            memo[key] = partials
            return partials

        return embed(root, tree.root)


class ColumnarPlan:
    """The compiled plan of one pattern against one :class:`ColumnarTree`.

    The same four stages as :class:`PatternPlan` — seeding, bottom-up
    structural semijoins, join pushdown, memoized embedding enumeration —
    rebased onto flat rank-indexed arrays.  Node identity is the preorder
    rank, so the per-node dict lookups of the object plan become array
    indexing, and the two whole-tree passes (wildcard semijoin filtering,
    interval merging) vectorize with numpy when the column is numpy-backed.

    Candidate sequences stay preorder-sorted throughout, sibling ranks
    ascend in child insertion order and the enumeration mirrors the object
    plan step for step, so :meth:`matches` returns a list *identical* (same
    matches, same order) to ``PatternPlan(pattern, tree).matches()`` — the
    fast-default/slow-oracle pairing the differential harness pins.

    The column must be fresh: a snapshot whose source tree has mutated
    raises :class:`~repro.utils.errors.StaleColumnarTreeError` at plan
    construction instead of pruning against torn arrays.
    """

    def __init__(self, pattern, column: ColumnarTree) -> None:
        column.require_fresh()
        self._pattern = pattern
        self._column = column
        self._specs = {spec.node_id: spec for spec in pattern.pattern_nodes()}
        self._postorder = _pattern_postorder(pattern)

    # -- plan construction ---------------------------------------------------

    def _seed_candidates(self) -> Dict[int, Sequence[int]]:
        """Per-pattern-node candidate rank sequences, preorder-sorted, shared."""
        from repro.queries.treepattern import WILDCARD  # local: avoids an import cycle

        column = self._column
        np = _columnar._np
        empty = column.posting_ranks[0:0]
        candidates: Dict[int, Sequence[int]] = {}
        for node_id, spec in self._specs.items():
            if node_id == self._pattern.root:
                if spec.label_matches(column.root_label):
                    candidates[node_id] = (
                        np.zeros(1, dtype=np.int64) if np is not None else [0]
                    )
                else:
                    candidates[node_id] = empty
                continue
            if spec.label == WILDCARD:
                # Shared arange/range — same no-copy discipline as the
                # object plan's shared preorder tuple.
                candidates[node_id] = column.nonroot_ranks()
                continue
            pool = column.postings(column.label_code(spec.label))
            candidates[node_id] = pool[1:] if len(pool) and pool[0] == 0 else pool
        return candidates

    def _semijoin_filter(self, candidates: Dict[int, Sequence[int]]) -> None:
        """Bottom-up structural semijoins as vectorized rank-interval merges."""
        from repro.queries.treepattern import EDGE_CHILD  # local: avoids an import cycle

        column = self._column
        np = _columnar._np
        last = column.last_ranks
        parents = column.parent_ranks
        for node_id in self._postorder:
            for child_id in self._pattern.pattern_children(node_id):
                child_cand = candidates[child_id]
                if not len(child_cand):
                    candidates[node_id] = child_cand
                    break
                cand = candidates[node_id]
                if not len(cand):
                    break
                if self._specs[child_id].edge == EDGE_CHILD:
                    if np is not None:
                        cand = np.asarray(cand, dtype=np.int64)
                        child_parents = parents[np.asarray(child_cand, dtype=np.int64)]
                        candidates[node_id] = cand[np.isin(cand, child_parents)]
                    else:
                        parent_set = {parents[u] for u in child_cand}
                        candidates[node_id] = [v for v in cand if v in parent_set]
                elif np is not None:
                    # v keeps a descendant-edge child iff some child candidate
                    # rank lies in (v, last[v]] — one searchsorted over the
                    # sorted child candidates answers it for every v at once.
                    cand = np.asarray(cand, dtype=np.int64)
                    child_arr = np.asarray(child_cand, dtype=np.int64)
                    index = np.searchsorted(child_arr, cand, side="right")
                    safe = np.minimum(index, child_arr.size - 1)
                    keep = (index < child_arr.size) & (child_arr[safe] <= last[cand])
                    candidates[node_id] = cand[keep]
                else:
                    kept = []
                    cursor = 0
                    count = len(child_cand)
                    for v in cand:
                        while cursor < count and child_cand[cursor] <= v:
                            cursor += 1
                        if cursor < count and child_cand[cursor] <= last[v]:
                            kept.append(v)
                    candidates[node_id] = kept

    def _push_down_joins(self, candidates: Dict[int, Sequence[int]]) -> None:
        """Restrict join endpoints to the label codes both sides can produce."""
        column = self._column
        np = _columnar._np
        codes = column.label_codes
        for first, second in self._pattern.joins():
            if np is not None:
                first_cand = np.asarray(candidates[first], dtype=np.int64)
                second_cand = np.asarray(candidates[second], dtype=np.int64)
                first_codes = codes[first_cand]
                second_codes = codes[second_cand]
                common = np.intersect1d(first_codes, second_codes)
                if common.size != np.unique(first_codes).size:
                    candidates[first] = first_cand[np.isin(first_codes, common)]
                if common.size != np.unique(second_codes).size:
                    candidates[second] = second_cand[np.isin(second_codes, common)]
            else:
                first_codes = {codes[v] for v in candidates[first]}
                second_codes = {codes[v] for v in candidates[second]}
                common = first_codes & second_codes
                if common != first_codes:
                    candidates[first] = [
                        v for v in candidates[first] if codes[v] in common
                    ]
                if common != second_codes:
                    candidates[second] = [
                        v for v in candidates[second] if codes[v] in common
                    ]

    # -- execution -----------------------------------------------------------

    def matches(self) -> List[Match]:
        """All embeddings, as :class:`Match` objects (join-filtered)."""
        joins = self._pattern.joins()
        embeddings = self.embeddings()
        if joins:
            codes = self._column.label_codes
            embeddings = [
                e for e in embeddings
                if all(codes[e[a]] == codes[e[b]] for a, b in joins)
            ]
        node_ids = self._column.node_ids
        return [
            Match.from_dict({p: int(node_ids[r]) for p, r in e.items()})
            for e in embeddings
        ]

    def embeddings(self) -> List[Dict[int, int]]:
        """All rank embeddings surviving candidate pruning (pre join check)."""
        from repro.queries.treepattern import EDGE_CHILD  # local: avoids an import cycle

        candidates = self._seed_candidates()
        self._semijoin_filter(candidates)
        self._push_down_joins(candidates)
        root = self._pattern.root
        if not len(candidates[root]):
            return []

        column = self._column
        np = _columnar._np
        last = column.last_ranks
        pattern_children = self._pattern.pattern_children
        specs = self._specs

        if np is not None:
            def descendant_slice(cand, lo: int, hi: int):
                start = int(np.searchsorted(cand, lo, side="right"))
                stop = int(np.searchsorted(cand, hi, side="right"))
                return cand[start:stop]

            def allowed_children(cand, children):
                if not len(children) or not len(cand):
                    return children[:0]
                index = np.searchsorted(cand, children)
                safe = np.minimum(index, len(cand) - 1)
                keep = (index < len(cand)) & (
                    np.asarray(cand, dtype=np.int64)[safe] == children
                )
                return children[keep]
        else:
            from bisect import bisect_left

            def descendant_slice(cand, lo: int, hi: int):
                return cand[bisect_right(cand, lo) : bisect_right(cand, hi)]

            def allowed_children(cand, children):
                out = []
                for child in children:
                    position = bisect_left(cand, child)
                    if position < len(cand) and cand[position] == child:
                        out.append(child)
                return out

        memo: Dict[Tuple[int, int], List[Dict[int, int]]] = {}

        def embed(pattern_node: int, rank: int) -> List[Dict[int, int]]:
            key = (pattern_node, rank)
            cached = memo.get(key)
            if cached is not None:
                return cached
            partials: List[Dict[int, int]] = [{pattern_node: rank}]
            for child_id in pattern_children(pattern_node):
                if specs[child_id].edge == EDGE_CHILD:
                    child_ranks = allowed_children(
                        candidates[child_id], column.children_of(rank)
                    )
                else:
                    child_ranks = descendant_slice(
                        candidates[child_id], rank, last[rank]
                    )
                child_embeddings: List[Dict[int, int]] = []
                for child_rank in child_ranks:
                    child_embeddings.extend(embed(child_id, int(child_rank)))
                if not child_embeddings:
                    memo[key] = []
                    return memo[key]
                partials = [
                    {**left, **right}
                    for left in partials
                    for right in child_embeddings
                ]
            memo[key] = partials
            return partials

        return embed(root, 0)


def indexed_matches(pattern, tree: DataTree, index: Optional[TreeIndex] = None) -> List[Match]:
    """Convenience: compile and execute a plan for *pattern* on *tree*."""
    return PatternPlan(pattern, tree, index).matches()


def columnar_matches(pattern, source, stats=None) -> List[Match]:
    """Convenience: columnar-match *pattern* against a tree or a column.

    *source* is either a :class:`DataTree` (its cached column is fetched
    through :func:`~repro.trees.columnar.columnar_tree` — journal-patched
    forward when stale-but-patchable, rebuilt otherwise) or a
    :class:`ColumnarTree` directly (e.g. one loaded from disk).  *stats*
    (a ``ContextStats``) receives the ``columns_patched`` /
    ``column_rebuilds`` maintenance counters when given.
    """
    if isinstance(source, ColumnarTree):
        column = source
    else:
        column = columnar_tree(source, stats)
    return ColumnarPlan(pattern, column).matches()


__all__ = [
    "PatternPlan",
    "ColumnarPlan",
    "indexed_matches",
    "columnar_matches",
]
