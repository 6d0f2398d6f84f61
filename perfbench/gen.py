"""Seeded input generators for the benchmark.

Every generator takes an explicit ``random.Random`` (or a seed) and returns
plain data: XML text, path strings and op dictionaries.  The program under
test only ever sees these generated inputs, never the generators.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Tuple

ENTITY_TYPES = ("movie", "person", "conference", "product")
TITLE_WORDS = (
    "nights", "shadows", "journey", "garden", "engine", "archive", "harbor", "signal",
)


def _probability(rng: random.Random, low: float, high: float) -> float:
    return round(rng.uniform(low, high), 3)


def hidden_web_document(
    rng: random.Random, sources: int, entities: int, retract_share: float = 0.15
) -> Tuple[str, List[Tuple[int, str, str]]]:
    """A ``<probtree>`` warehouse of *entities* extracted from *sources*.

    Each entity is ``<type><title>word-i</title><url>http://sK.example/i</url>``
    conditioned on its own extraction event ``e<i>``; *retract_share* of
    them also carry a negated retraction event ``r<i>``.  Returns the XML
    text and the ``(source, type, title)`` triple of every entity, so query
    generators can ask about values that exist.
    """
    # Exact per-source, per-type and retraction counts, shuffled, so that
    # documents of different seeds cost the same to query.
    placement = [1 + i % sources for i in range(entities)]
    kinds = [ENTITY_TYPES[i % len(ENTITY_TYPES)] for i in range(entities)]
    rng.shuffle(placement)
    rng.shuffle(kinds)
    retracted = set(rng.sample(range(entities), round(retract_share * entities)))
    per_source: Dict[int, List[str]] = {k: [] for k in range(1, sources + 1)}
    events: List[str] = []
    catalog: List[Tuple[int, str, str]] = []
    for i in range(entities):
        source, kind = placement[i], kinds[i]
        title = f"{rng.choice(TITLE_WORDS)}-{i}"
        events.append(f'<event name="e{i}" probability="{_probability(rng, 0.5, 0.95)}"/>')
        condition = f"e{i}"
        if i in retracted:
            events.append(
                f'<event name="r{i}" probability="{_probability(rng, 0.1, 0.4)}"/>'
            )
            condition += f" and not r{i}"
        per_source[source].append(
            f'<node label="{kind}" condition="{condition}">'
            f'<node label="title"><node label="{title}"/></node>'
            f'<node label="url"><node label="http://s{source}.example/{i}"/></node>'
            f"</node>"
        )
        catalog.append((source, kind, title))
    body = "".join(
        f'<node label="source{k}">' + "".join(items) + "</node>"
        for k, items in per_source.items()
    )
    xml = (
        "<probtree><events>" + "".join(events) + "</events>"
        f'<node label="warehouse">{body}</node></probtree>'
    )
    return xml, catalog


def _shares(items, weights, count: int) -> List:
    """*count* items in order, each repeated in its share of *weights* (to within one)."""
    total, cumulative, picked = sum(weights), 0.0, []
    for item, weight in zip(items, weights):
        start = round(cumulative / total * count)
        cumulative += weight
        picked += [item] * (round(cumulative / total * count) - start)
    return picked


def _zipf_pick(rng: random.Random, items: List, skew: float = 0.3):
    """One item of *items*, the i-th with weight about 1/(i+1)**skew."""
    # Inverse CDF of the continuous power law, clipped to the list.
    n = len(items)
    index = int(((n ** (1 - skew) - 1) * rng.random() + 1) ** (1 / (1 - skew))) - 1
    return items[min(max(index, 0), n - 1)]


#: Shares of the four question families of :func:`analyst_questions`.
ANALYST_SHARES = (0.35, 0.35, 0.20, 0.10)


def analyst_questions(
    rng: random.Random, catalog: List[Tuple[int, str, str]], sources: int, count: int,
    shares: Tuple[float, float, float, float] = ANALYST_SHARES,
) -> List[Tuple[str, str]]:
    """*count* analyst reads ``(op, path)``: 60% ``query``, 40% ``probability``.

    Four families in *shares*, with a power-law skew within each so that
    some questions repeat (answer-cache hits) while the distinct set exceeds
    the answer cache: per-source paths (about 1/150 of the entities answer),
    title-value lookups and ``//`` searches for a title or within one source
    (one entity or one source), and corpus-wide questions (a type or every
    entity, across all sources).
    """
    order = list(range(1, sources + 1))
    rng.shuffle(order)
    entities = list(catalog)
    rng.shuffle(entities)
    corpus_wide = ["/warehouse/*/{}".format(kind) for kind in ENTITY_TYPES]
    corpus_wide += ["/warehouse//{}/url".format(kind) for kind in ENTITY_TYPES]
    corpus_wide.append("/warehouse/*/*/title")
    # (share, maker): the two searches and the corpus-wide questions split
    # their family's share evenly.
    families = [
        (shares[0], lambda: "/warehouse/source{}/{}{}".format(
            _zipf_pick(rng, order), rng.choice(ENTITY_TYPES), rng.choice(("", "/title", "/url"))
        )),
        (shares[1], lambda: "/warehouse/source{0}/{1}/title/{2}".format(*_zipf_pick(rng, entities))),
        (shares[2] / 2, lambda: "//source{}//title".format(_zipf_pick(rng, order))),
        (shares[2] / 2, lambda: "//title/{}".format(_zipf_pick(rng, entities)[2])),
    ]
    families += [(shares[3] / len(corpus_wide), lambda path=path: path) for path in corpus_wide]
    # Exact family and op counts, shuffled, so that the mixes of different
    # seeds hold as many costly questions (see hidden_web_document).
    shares, makers = zip(*families)
    makers = _shares(makers, shares, count)
    ops = _shares(("probability", "query"), (0.4, 0.6), count)
    rng.shuffle(makers)
    rng.shuffle(ops)
    return [(op, make()) for op, make in zip(ops, makers)]


def pattern_path(pattern) -> str:
    """The path expression of a single-chain tree pattern (its last node is the focus)."""
    specs = {spec.node_id: spec for spec in pattern.pattern_nodes()}
    node = pattern.root
    path = "/" + specs[node].label
    while pattern.pattern_children(node):
        (node,) = pattern.pattern_children(node)
        spec = specs[node]
        path += ("//" if spec.edge == "descendant" else "/") + spec.label
    return path


def ingest_stream(seed: int, sources: int, steps: int) -> List[Tuple[dict, str]]:
    """*steps* ``(update, read)`` pairs replaying a ``HiddenWebScenario``.

    The update is an op dictionary (``kind``, ``query``, ``confidence`` and,
    for insertions, the ``subtree`` as ``<node>`` XML); the read is one of
    the scenario's analyst queries as a path, taken in turn (in an order
    shuffled by *seed*) so that every query is asked equally often.
    """
    from repro.updates.operations import Insertion
    from repro.workloads.scenarios import HiddenWebScenario
    from repro.xmlio import datatree_to_xml

    scenario = HiddenWebScenario(source_count=sources, event_count=steps, seed=seed)
    reads = [pattern_path(pattern) for _, pattern in scenario.queries()]
    random.Random(seed).shuffle(reads)
    stream = []
    for step, event in enumerate(scenario.events()):
        operation = event.update.operation
        op = {"query": pattern_path(operation.query), "confidence": event.update.confidence}
        if isinstance(operation, Insertion):
            op.update(kind="insert", subtree=datatree_to_xml(operation.subtree, pretty=False))
        else:
            op["kind"] = "delete"
        stream.append((op, reads[step % len(reads)]))
    return stream


#: Question family shares of the service's reads.  Corpus-wide questions
#: (100 to 400 answers on a service document) are 1%, so that the query p95
#: falls among the ``//`` searches rather than on the edge between them
#: and the corpus-wide answers, where it jumped by 20% from run to run.
SERVICE_SHARES = (0.45, 0.35, 0.19, 0.01)


def service_plan(
    seed: int, documents: int, sources: int, entities: int, connections: int, length: int
) -> Tuple[Dict[str, str], List[List[Tuple[str, dict]]]]:
    """Documents and per-connection request lists for the service workload.

    Returns ``{name: <probtree> XML}`` and, per connection, *length*
    ``(endpoint, body)`` requests.  Document ``d<i>`` belongs to connection
    ``i % connections`` only, so every document sees its requests in one
    fixed order.  The mix is 60% ``/query``, 25% ``/probability`` and 15%
    ``/update``, spread evenly over the documents.  Each document's reads are
    its own analyst question list; its updates replay its own
    ``HiddenWebScenario`` stream, each with an explicit event name.
    """
    rng = random.Random(seed)
    docs: Dict[str, str] = {}
    catalogs: Dict[str, List[Tuple[int, str, str]]] = {}
    for index in range(documents):
        docs[f"d{index}"], catalogs[f"d{index}"] = hidden_web_document(rng, sources, entities)
    # Exact per-document and per-endpoint counts, shuffled, so that plans of
    # different seeds ask for the same amount of each kind of work.
    mix = _shares(("/update", "/probability", "/query"), (0.15, 0.25, 0.60), length)
    plans = []
    for connection in range(connections):
        owned = [name for i, name in enumerate(docs) if i % connections == connection]
        slots = [(owned[i % len(owned)], endpoint) for i, endpoint in enumerate(mix)]
        rng.shuffle(slots)
        reads, updates = {}, {}
        for name in owned:
            counts = Counter(endpoint == "/update" for owner, endpoint in slots if owner == name)
            questions = analyst_questions(
                rng, catalogs[name], sources, counts[False], SERVICE_SHARES
            )
            reads[name] = iter(path for _, path in questions)
            stream = ingest_stream(rng.randrange(1 << 30), sources, counts[True])
            updates[name] = iter(enumerate(op for op, _ in stream))
        plan = []
        for name, endpoint in slots:
            if endpoint == "/update":
                step, op = next(updates[name])
                plan.append(("/update", dict(op, name=name, event=f"{name}u{step}")))
            else:
                plan.append((endpoint, {"query": next(reads[name]), "name": name}))
        plans.append(plan)
    return docs, plans
