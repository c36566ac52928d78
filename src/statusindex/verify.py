"""Oracle harness: brute-force cross-checks of every closed form and
identity, plus the registry of published values that contradict the
defining sums.

Corrected-mode mismatches are always hard failures. As-printed
mismatches must map into the erratum registry; anything unregistered is
a hard failure too.
"""
from __future__ import annotations

import random
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .closed_forms import INDEX_NAMES, closed_forms_for
from .families import FamilySpec, generate
from .graph import DisconnectedGraphError, Graph, Value, check_complement, transmission_profile
from .indices import (
    complement_bounds,
    diam2_coindex_formulas,
    status_coindices_direct,
    status_coindices_identity,
    status_indices,
)

#: Fixed default seed so repeated verification runs are reproducible.
DEFAULT_SEED = 1729

#: Default size of a seeded random corpus.
DEFAULT_COUNT = 200

MODES = ("corrected", "as_printed")

#: Tag for the registry's 5-vertex worked-example fixture.
DEMO_TAG = "demo5"


class Erratum(NamedTuple):
    """One published value known to contradict the defining sums."""

    index: str
    family: str | None = None
    fixture: str | None = None
    printed_value: int | None = None
    note: str = ""


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        index="s1_co",
        fixture=DEMO_TAG,
        printed_value=11,
        note="the published worked example lists s1_co = 11 for the 5-vertex demo "
        "graph; the non-edge sum and the identity 2(n-1)W - s1 both give 22",
    ),
    Erratum(
        index="s1_co",
        family="hypercube",
        note="published closed form 2*n^2*2^(n-1)*(2n-5) contradicts the co-index "
        "identity; at n=2 it gives -16 where the non-edge sum is 16",
    ),
    Erratum(
        index="s2_co",
        family="hypercube",
        note="published closed form n^2*2^(2n-2)*(n(2n-1)-1) contradicts the "
        "co-index identity; at n=2 it gives 80 where the non-edge sum is 32",
    ),
    Erratum(
        index="s2_co",
        family="kneser",
        note="published expansion subtracts W where the identity needs 2W^2/C(p,k); "
        "on kneser(p=5, k=2) it gives 7800 where the non-edge sum is 6750",
    ),
)


def registered_erratum(family: str, index: str) -> Erratum | None:
    for e in ERRATA:
        if e.family == family and e.index == index:
            return e
    return None


def fixture_errata(tag: str) -> tuple[Erratum, ...]:
    return tuple(e for e in ERRATA if e.fixture == tag)


def demo_graph() -> Graph:
    """The registry's 5-vertex worked-example fixture: the complete graph
    K5 minus the two edges at vertex 3."""
    return Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4)]
    )


#: Fixture graph's adjacency -> the tag of the errata that record its
#: published values. The rows alone identify a graph, and a tuple hashes
#: without a Python-level call.
FIXTURE_GRAPHS = {demo_graph().adjacency: DEMO_TAG}


class VerificationCase(NamedTuple):
    """One oracle-vs-formula comparison."""

    case_id: str
    index_name: str
    oracle: int
    formula: int
    mode: str
    match: bool
    registered_erratum: bool = False
    note: str = ""

    @property
    def hard_failure(self) -> bool:
        return not self.match and not self.registered_erratum


class VerificationReport(Value):
    """A collection of verification cases, stored as a tuple in output
    order: sorted once, when the report is built, by case id, index name
    and mode. Reports of the same cases are equal in any given order."""

    __slots__ = ("cases",)
    _fields = ("cases",)

    cases: tuple[VerificationCase, ...]

    def __init__(self, cases: Iterable[VerificationCase] = ()) -> None:
        object.__setattr__(
            self, "cases", tuple(sorted(cases, key=attrgetter("case_id", "index_name", "mode")))
        )

    def summary(self) -> dict[str, int]:
        return {
            "cases": len(self.cases),
            "passed": sum(c.match for c in self.cases),
            "registered_errata": sum(
                not c.match and c.registered_erratum for c in self.cases
            ),
            "hard_failures": sum(c.hard_failure for c in self.cases),
        }

    @property
    def ok(self) -> bool:
        return not any(c.hard_failure for c in self.cases)


def verify_family(spec: FamilySpec, mode: str = "corrected") -> VerificationReport:
    """Generate the family member, compute every index by its defining
    sum, and compare with the closed forms.

    For the nanotorus, if the closed forms disagree as given but agree
    with the parameters exchanged, the rows are compared against the
    exchanged forms and carry a parameter-orientation note instead of
    failing.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    # the cap comes first: the closed forms of a huge spec are huge integers
    g = generate(spec)
    cf = closed_forms_for(spec)
    tp = transmission_profile(g)
    oracles = status_indices(g, tp) + status_coindices_direct(g, tp)
    note = ""
    if spec.kind == "nanotorus" and tp.regular_k is not None and cf.sigma != tp.regular_k:
        p, q = spec.params
        exchanged = closed_forms_for(FamilySpec.nanotorus(q, p))
        if exchanged.sigma == tp.regular_k:
            cf = exchanged
            note = f"published formulas match under parameter exchange (p,q)=({q},{p})"
    # (index, oracle, formula, note); a non-regular graph has no sigma (-1)
    checks = [
        ("sigma", -1, cf.sigma, "generated graph is not transmission-regular")
        if tp.regular_k is None else ("sigma", tp.regular_k, cf.sigma, note),
        ("wiener", tp.wiener, cf.wiener, note),
    ]
    checks += [
        (name, oracle, getattr(cf.indices[name], mode), note)
        for name, oracle in zip(INDEX_NAMES, oracles)
    ]
    rows = []
    for name, oracle, formula, row_note in checks:
        erratum = (registered_erratum(spec.kind, name)
                   if mode == "as_printed" and oracle != formula else None)
        rows.append(VerificationCase(
            spec.label(), name, oracle, formula, mode, oracle == formula,
            erratum is not None, erratum.note if erratum else row_note,
        ))
    return VerificationReport(cases=rows)


def verify_identities(g: Graph, case_id: str = "graph") -> VerificationReport:
    """Check the co-index identities on one connected graph.

    Always compares the identity-path co-indices with the defining
    non-edge sums. When the diameter is at most 2, also checks the four
    degree-based co-index formulas; when the complement is connected,
    checks both complement lower bounds and the equality condition.
    When ``g`` is a fixture graph, adds a ``published.<index>`` row for
    each erratum registered against it.
    """
    check_complement(g)  # above the edge cap, fail before any other work
    tp = transmission_profile(g)
    s1, s2 = status_indices(g, tp)
    s1_co, s2_co = status_coindices_direct(g, tp)
    id1, id2 = status_coindices_identity(tp, s1, s2)
    # (index, oracle, formula): the rows that must match exactly
    equal = [("identity.s1_co", s1_co, id1), ("identity.s2_co", s2_co, id2)]
    if tp.diameter <= 2:
        d2 = diam2_coindex_formulas(g, tp)
        equal += [
            ("diam2_zagreb.s1_co", s1_co, d2.s1_co_from_zagreb),
            ("diam2_zagreb.s2_co", s2_co, d2.s2_co_from_zagreb),
            ("diam2_zagreb_co.s1_co", s1_co, d2.s1_co_from_zagreb_co),
            ("diam2_zagreb_co.s2_co", s2_co, d2.s2_co_from_zagreb_co),
        ]
    # (index, oracle, formula, match, note)
    checks = [(name, oracle, formula, oracle == formula, "") for name, oracle, formula in equal]
    try:
        bounds = complement_bounds(g)
    except DisconnectedGraphError:
        pass
    else:
        diam_le_2 = bounds.complement_diameter <= 2
        checks += [
            ("complement_bound.s1", bounds.s1_actual, bounds.s1_lower,
             bounds.s1_actual >= bounds.s1_lower, "lower bound"),
            ("complement_bound.s2", bounds.s2_actual, bounds.s2_lower,
             bounds.s2_actual >= bounds.s2_lower, "lower bound"),
            ("complement_bound.equality_iff", int(diam_le_2), int(bounds.equality),
             diam_le_2 == bounds.equality,
             "equality must hold exactly when diam(complement) <= 2"),
        ]
    rows = [
        VerificationCase(case_id, name, oracle, formula, "corrected", match, note=note)
        for name, oracle, formula, match, note in checks
    ]
    tag = FIXTURE_GRAPHS.get(g.adjacency)
    if tag is not None:
        computed = {"s1": s1, "s2": s2, "s1_co": s1_co, "s2_co": s2_co,
                    "wiener": tp.wiener}
        for e in fixture_errata(tag):
            oracle = computed[e.index]
            rows.append(VerificationCase(
                case_id, f"published.{e.index}", oracle, e.printed_value, "as_printed",
                oracle == e.printed_value, True, e.note,
            ))
    return VerificationReport(cases=rows)


def _pairs(n: int) -> list[tuple[int, int]]:
    """The pairs u < v of ``range(n)`` in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _random_edges(
    n: int, edge_probability: float, seed: int, pairs: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The sorted edges of the seeded connected random graph on ``n``
    vertices; ``pairs`` lists the pairs u < v in lexicographic order.

    Draws one ``rng.random()`` per pair, in ``pairs`` order, then one
    ``rng.choice`` per merge over the pairs that cross two components, in
    the same order. Such a pair is never an edge already. The component
    labels are updated at each union rather than rebuilt. At probability 1
    nothing is drawn: ``random()`` is below 1.0, so every pair is an edge.
    """
    if edge_probability >= 1:
        return list(pairs)
    rng = random.Random(seed)
    draw = rng.random
    edges = [pair for pair in pairs if draw() < edge_probability]
    label = list(range(n))
    components = n
    for u, v in edges:
        a, b = label[u], label[v]
        if a != b:
            label = [a if x == b else x for x in label]
            components -= 1
    while components > 1:
        u, v = rng.choice([(u, v) for u, v in pairs if label[u] != label[v]])
        edges.append((u, v))
        a, b = label[u], label[v]
        label = [a if x == b else x for x in label]
        components -= 1
    edges.sort()
    return edges


def random_connected_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Seeded connected random graph.

    Samples each pair independently, then repeatedly adds a uniformly
    random missing edge between two different components until the graph
    is connected. Deterministic for a given seed.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 < edge_probability <= 1:
        raise ValueError(f"edge probability must be in (0, 1], got {edge_probability}")
    return Graph.from_edges(n, _random_edges(n, edge_probability, seed, _pairs(n)))


#: (n, edge probability) schedules for the seeded random corpora.
_MIXED_NS = tuple(range(2, 11))
_MIXED_PROBS = (0.25, 0.4, 0.55, 0.7, 0.85)
_DENSE_NS = tuple(range(4, 11))
_DENSE_PROBS = (0.75, 0.85, 0.95, 1.0)


def random_corpus(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, dense: bool = False
) -> list[Graph]:
    """A deterministic corpus of seeded connected random graphs.

    The mixed corpus sweeps n in 2..10 over a spread of densities; the
    dense corpus sweeps n in 4..10 at high densities (for diameter <= 2
    coverage). Graph ``i`` is ``random_connected_graph(n, p, seed + i)``.
    Small graphs repeat often, so each distinct edge set is built and
    validated once and every graph that repeats it is the same object.
    """
    ns = _DENSE_NS if dense else _MIXED_NS
    probs = _DENSE_PROBS if dense else _MIXED_PROBS
    pairs = {n: _pairs(n) for n in ns}
    built: dict[tuple[int, tuple[tuple[int, int], ...]], Graph] = {}
    graphs = []
    for i in range(count):
        n = ns[i % len(ns)]
        probability = probs[(i // len(ns)) % len(probs)]
        edges = _random_edges(n, probability, seed + i, pairs[n])
        key = (n, tuple(edges))
        g = built.get(key)
        if g is None:
            g = built[key] = Graph.from_edges(n, edges)
        graphs.append(g)
    return graphs


def verify_random_suite(
    count: int = DEFAULT_COUNT, seed: int = DEFAULT_SEED, dense: bool = False
) -> VerificationReport:
    """Run the identity checks over a seeded random corpus.

    The checks run once per distinct graph; a graph drawn again under a
    later seed gets the first draw's rows under its own case id.
    """
    cases: list[VerificationCase] = []
    kind = "dense" if dense else "mixed"
    checked: dict[tuple[tuple[int, ...], ...], Sequence[VerificationCase]] = {}
    for i, g in enumerate(random_corpus(count=count, seed=seed, dense=dense)):
        case_id = f"random[{kind},seed={seed + i},n={g.n}]"
        rows = checked.get(g.adjacency)
        if rows is None:
            rows = checked[g.adjacency] = verify_identities(g, case_id=case_id).cases
        else:
            rows = [VerificationCase(case_id, *c[1:]) for c in rows]  # new case_id
        cases += rows
    return VerificationReport(cases)


def default_grid() -> list[FamilySpec]:
    """The family parameter grid used by full verification runs."""
    specs: list[FamilySpec] = [FamilySpec.hypercube(n) for n in range(1, 14)]
    specs += [
        FamilySpec.kneser(p, k)
        for p, k in ((5, 2), (6, 2), (7, 2), (7, 3), (9, 4), (10, 4), (11, 5))
    ]
    specs += [
        FamilySpec.intersection(p, t)
        for p, t in ((3, 2), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3))
    ]
    specs += [
        FamilySpec.nanotorus(p, q)
        for p, q in (
            (4, 2), (2, 4), (4, 4), (6, 4), (4, 6), (8, 6),
            (12, 10), (10, 12), (20, 16), (16, 20),
        )
    ]
    return specs


def verify_grid(
    mode: str = "corrected", specs: Iterable[FamilySpec] | None = None
) -> VerificationReport:
    """Verify every spec in the grid (default: the full family grid)."""
    cases: list[VerificationCase] = []
    for spec in specs if specs is not None else default_grid():
        cases += verify_family(spec, mode=mode).cases
    return VerificationReport(cases)
