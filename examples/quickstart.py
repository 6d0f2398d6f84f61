"""Quickstart: an uncertain movie warehouse with a session execution context.

Run with ``python examples/quickstart.py`` (after ``pip install -e .`` or with
``PYTHONPATH=src``).  The example walks through the core workflow of the
prob-tree model:

1. start from a certain document,
2. apply probabilistic updates (each carrying the extractor's confidence),
3. query the uncertain document and read answer probabilities,
4. hold several documents in one warehouse and query the whole corpus,
5. inspect the possible worlds, prune the improbable ones, serialize to XML.

**Execution context.**  Every probabilistic question (query probability, DTD
satisfaction, thresholding, world ranking) and every pattern match runs
under an :class:`repro.ExecutionContext` — a session object owning

* the **policy**: ``engine="formula"`` (default; Shannon expansion over
  event formulas, never materializes possible worlds) or ``"enumerate"``
  (the paper's literal exponential semantics, kept as an oracle), and
  the matcher: the fast path by default (compiled plans over a structural
  index, or vectorized plans over a flat columnar snapshot for documents of
  16384 nodes and more when numpy is installed — the document's size
  decides) or ``matcher="naive"`` (backtracking oracle);
* the **caches**: per-document Shannon tables, structural indexes, and an
  answer-set cache that makes repeated queries on an unchanged document
  near-free (any update invalidates it automatically);
* observable **stats** counters (cache hits, plans compiled, formulas
  evaluated).

``ProbXMLWarehouse(...)`` builds its own context; pass ``context=`` to share
one across warehouses, or legacy ``engine=`` / ``matcher=`` strings for an
ad-hoc policy.  Per-call overrides always win:
``warehouse.probability(q, engine="enumerate")``.  The same knobs exist on
the CLI (``python -m repro.cli probability doc.xml //movie --engine formula
--matcher naive --stats``) and on the underlying functions
(``boolean_probability(query, probtree, context=ctx)``).
"""

from repro import ExecutionContext, ProbXMLWarehouse, probtree_to_xml, tree


def main() -> None:
    # 1. An empty catalog (a certain, single-node document), run under a
    #    session ExecutionContext; the document's size picks the embedding
    #    strategy.
    context = ExecutionContext(engine="formula")
    warehouse = ProbXMLWarehouse("catalog", context=context)

    # 2. Imprecise knowledge arrives as probabilistic insertions.  Each update
    #    introduces an independent event variable holding its confidence.
    warehouse.insert(
        "/catalog",
        tree("movie", tree("title", "Solaris"), tree("year", "1972")),
        confidence=0.9,
    )
    warehouse.insert(
        "/catalog",
        tree("movie", tree("title", "Stalker"), tree("year", "1979")),
        confidence=0.7,
    )
    # A second extractor disagrees about Solaris' year.
    warehouse.insert("/catalog/movie/title/Solaris", tree("note", "festival-cut"), confidence=0.4)

    print("Prob-tree after three probabilistic insertions:")
    print(warehouse.probtree.pretty())
    print()

    # 3. Queries return sub-documents together with their probability.  A
    #    repeated query is served from the context's answer cache — check
    #    warehouse.stats afterwards.
    print("Movie titles and their probabilities:")
    for answer in warehouse.query("/catalog/movie/title/*"):
        title = [
            answer.tree.label(node)
            for node in answer.tree.nodes()
            if not answer.tree.children(node)
        ][0]
        print(f"  {title:10s}  p = {answer.probability:.2f}")
    print(f"P(catalog has at least one movie) = {warehouse.probability('/catalog/movie'):.3f}")
    warehouse.query("/catalog/movie/title/*")  # identical query: a cache hit
    print(f"context stats: {warehouse.stats.as_dict()}")
    print()

    # 4. The warehouse is a corpus: add more documents under their own names
    #    and fan a query out across all of them — one shared context, one
    #    set of caches.
    warehouse.add_document("archive", "archive")
    warehouse.insert(
        "/archive",
        tree("movie", tree("title", "Mirror"), tree("year", "1975")),
        confidence=0.8,
        name="archive",
    )
    print(f"Corpus documents: {warehouse.names()}")
    for name, probability in warehouse.probability_all("//movie").items():
        print(f"  P({name} has a movie) = {probability:.3f}")
    print()

    # 5. The possible-world semantics is always available explicitly.
    print("Three most probable worlds of the default document:")
    for world, probability in warehouse.most_probable_worlds(3):
        print(f"  p = {probability:.3f}  {world.to_nested()}")
    print()

    # Keep only worlds with probability at least 0.2 (the lost mass moves to
    # a bare-root world, per the paper's Definition 3).
    warehouse.prune_below(0.2)
    print("After pruning worlds below probability 0.2:")
    for world, probability in warehouse.most_probable_worlds(3):
        print(f"  p = {probability:.3f}  {world.to_nested()}")
    print()

    # The warehouse serializes to plain XML — and parses it back: passing an
    # XML string to ProbXMLWarehouse / add_document re-reads the document
    # instead of treating the markup as a root label.
    xml_text = probtree_to_xml(warehouse.probtree)
    print("XML serialization (truncated):")
    print("\n".join(xml_text.splitlines()[:12]))
    roundtripped = ProbXMLWarehouse(xml_text, context=context)
    print(f"round-tripped document nodes: {roundtripped.document.node_count()}")


if __name__ == "__main__":
    main()
