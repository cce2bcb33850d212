"""Differential fleet-testing harness: N aliases × M structures, shared vs solo.

The dedup/fan-out path of the multi-query service is exactly where silent
wrong-answer bugs live: a structure key that conflates two different
computations, a fan-out that hands one subscriber another's buffered
output, a trie that prunes an event one group still needed.  This module
makes that path cheap to attack, for tests and for the S7 fleet-scaling
bench alike:

* :func:`make_fleet` builds a parameterized fleet — ``total``
  registrations drawn round-robin from ``M`` base queries, each repeat
  spelled as a fresh *alias* (bound variables renamed; identical
  computation, different text) so plan-cache text keys differ while
  structure keys collide;
* :func:`run_shared` registers the fleet on one
  :class:`~repro.service.service.QueryService` and serves one document in
  a single shared pass (any chunking, dedup on or off); :func:`run_shared_async` is the same through
  :class:`~repro.service.async_service.AsyncQueryService`;
* :func:`run_solo` produces the ground truth: one independent
  :class:`~repro.engines.flux_engine.FluxEngine` execution per distinct
  query *text* (aliases are distinct texts, so each spelling is honestly
  re-evaluated, memoized only on exact text equality);
* :func:`run_differential` sweeps front ends (sync, async) × chunkings and raises
  :class:`FleetOutputMismatch` unless every subscriber's shared output is
  byte-identical to its solo output.

Everything is deterministic — same bases, same ``total``, same chunking →
the same fleet and the same pass — so a failing configuration replays
exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.dtd.schema import DTD
from repro.engines.flux_engine import FluxEngine
from repro.service.service import QueryService

#: Variables bound by ``for``/``let`` clauses — the only names an alias may
#: rename.  Free variables (``$ROOT``) are the engine's binding, not the
#: query's, and renaming one would change the computation.
_BOUND_VAR = re.compile(r"(?:for|let)\s+\$(\w+)\b")


def alias_query(query: str, variant: int) -> str:
    """Spelling ``variant`` of ``query``: same computation, different text.

    Variant 0 is the original text; variant ``k`` suffixes every bound
    variable with ``_ak`` (``$b`` → ``$b_a3``).  The rewrite is a
    whole-name substitution, so distinct bound names cannot collide and
    string literals (which contain no ``$``) are untouched.  The result
    parses to the same :func:`~repro.runtime.plan_cache.structure_key` as
    the original — bound variables are α-renamed away there — so the plan
    cache serves it the original's plan without optimizing, under its own
    key.
    """
    if variant == 0:
        return query
    bound = sorted(set(_BOUND_VAR.findall(query)))
    aliased = query
    for name in bound:
        aliased = re.sub(rf"\${name}\b", f"${name}_a{variant}", aliased)
    return aliased


@dataclass(frozen=True)
class FleetQuery:
    """One registration of a generated fleet."""

    key: str
    text: str
    #: Index of the base query this registration is an alias of.
    structure: int
    #: Alias spelling number (0 = the base text itself).
    variant: int


def make_fleet(bases: Sequence[str], total: int) -> List[FleetQuery]:
    """``total`` registrations over ``len(bases)`` structures, round-robin.

    Registration ``i`` is alias variant ``i // M`` of base ``i % M``, so
    every structure gets ``total / M`` subscribers (±1) and every repeat
    of a structure is a differently spelled alias.  Keys are ``q00000``,
    ``q00001``, ... in registration order.
    """
    if not bases:
        raise ValueError("make_fleet() needs at least one base query")
    fleet: List[FleetQuery] = []
    width = max(5, len(str(max(total - 1, 0))))
    for i in range(total):
        structure, variant = i % len(bases), i // len(bases)
        fleet.append(
            FleetQuery(
                key=f"q{i:0{width}d}",
                text=alias_query(bases[structure], variant),
                structure=structure,
                variant=variant,
            )
        )
    return fleet


def chunk_document(
    document: str, chunking: Union[None, int, Sequence[int]]
) -> List[str]:
    """Split ``document`` into feed chunks.

    ``None`` feeds the whole text at once; an ``int`` is a fixed chunk
    size; a sequence of sizes is applied cyclically (sizes < 1 are clamped
    to 1), which is how the property tests replay a random chunking.
    """
    if chunking is None or not document:
        return [document]
    if isinstance(chunking, int):
        sizes: Sequence[int] = [chunking]
    else:
        sizes = list(chunking) or [len(document)]
    chunks: List[str] = []
    position = 0
    cursor = 0
    while position < len(document):
        size = max(1, sizes[cursor % len(sizes)])
        chunks.append(document[position : position + size])
        position += size
        cursor += 1
    return chunks


def run_shared(
    fleet: Sequence[FleetQuery],
    document: str,
    dtd: Union[DTD, str, None] = None,
    chunking: Union[None, int, Sequence[int]] = None,
    dedup: bool = True,
    validate: bool = True,
) -> Tuple[Dict[str, str], QueryService]:
    """One shared pass of the whole fleet over ``document``.

    Returns ``({key: output}, service)`` — the service comes back so
    callers can inspect structures, refcounts, and metrics after the pass.
    """
    service = QueryService(dtd=dtd, validate=validate, dedup=dedup)
    for query in fleet:
        service.register(query.text, key=query.key)
    shared_pass = service.open_pass()
    try:
        for chunk in chunk_document(document, chunking):
            shared_pass.feed(chunk)
        results = shared_pass.finish()
    except BaseException:
        shared_pass.abort()
        raise
    return {key: result.output for key, result in results.items()}, service


def run_shared_async(
    fleet: Sequence[FleetQuery],
    document: str,
    dtd: Union[DTD, str, None] = None,
    chunking: Union[None, int, Sequence[int]] = None,
    dedup: bool = True,
    validate: bool = True,
) -> Dict[str, str]:
    """The fleet through :class:`AsyncQueryService` (one event loop run)."""
    import asyncio

    from repro.service.async_service import AsyncQueryService

    async def _serve() -> Dict[str, str]:
        service = AsyncQueryService(dtd=dtd, validate=validate, dedup=dedup)
        for query in fleet:
            service.register(query.text, key=query.key)
        async with service.open_pass() as shared_pass:
            for chunk in chunk_document(document, chunking):
                await shared_pass.feed(chunk)
            results = await shared_pass.finish()
        return {key: result.output for key, result in results.items()}

    return asyncio.run(_serve())


def run_solo(
    fleet: Sequence[FleetQuery],
    document: str,
    dtd: Union[DTD, str, None] = None,
    validate: bool = True,
    keys: Optional[Iterable[str]] = None,
) -> Dict[str, str]:
    """Ground truth: each registration's query run by a solo engine.

    Memoized on exact text equality only — every alias spelling is its own
    engine run, so the reference does not assume the structural equality
    it is used to check.  ``keys`` restricts evaluation to a sampled
    subset (the 10k bench verifies a sample; tests verify everything).
    """
    engine = FluxEngine(dtd=dtd, validate=validate)
    wanted = None if keys is None else set(keys)
    memo: Dict[str, str] = {}
    outputs: Dict[str, str] = {}
    for query in fleet:
        if wanted is not None and query.key not in wanted:
            continue
        if query.text not in memo:
            memo[query.text] = engine.execute(query.text, document).output
        outputs[query.key] = memo[query.text]
    return outputs


class FleetOutputMismatch(AssertionError):
    """A shared-pass subscriber's output differed from its solo run."""


def _compare(
    solo: Dict[str, str], shared: Dict[str, str], configuration: str
) -> None:
    for key, expected in solo.items():
        actual = shared.get(key)
        if actual != expected:
            raise FleetOutputMismatch(
                f"fleet subscriber {key!r} under {configuration}: shared "
                f"output {actual!r} != solo output {expected!r}"
            )


def run_differential(
    bases: Sequence[str],
    total: int,
    document: str,
    dtd: Union[DTD, str, None] = None,
    chunkings: Sequence[Union[None, int, Sequence[int]]] = (None,),
    include_async: bool = False,
    dedup: bool = True,
    validate: bool = True,
    sample: Optional[Iterable[str]] = None,
) -> Dict[str, object]:
    """Shared vs solo over every front end × chunking configuration.

    Builds the fleet, computes the solo ground truth once (optionally on a
    ``sample`` of keys), then runs one shared pass per configuration and
    byte-compares every verified subscriber.  Raises
    :class:`FleetOutputMismatch` on the first disagreement; returns a
    summary dict (fleet size, structure count observed by the service,
    configurations checked) on success.
    """
    fleet = make_fleet(bases, total)
    solo = run_solo(fleet, document, dtd=dtd, validate=validate, keys=sample)
    configurations: List[str] = []
    structure_counts: List[int] = []
    for chunking in chunkings:
        configuration = f"face='sync', chunking={chunking!r}"
        shared, service = run_shared(
            fleet,
            document,
            dtd=dtd,
            chunking=chunking,
            dedup=dedup,
            validate=validate,
        )
        _compare(solo, shared, configuration)
        configurations.append(configuration)
        structure_counts.append(service.metrics.last_pass.structures)
    if include_async:
        for chunking in chunkings:
            configuration = f"face='async', chunking={chunking!r}"
            shared = run_shared_async(
                fleet,
                document,
                dtd=dtd,
                chunking=chunking,
                dedup=dedup,
                validate=validate,
            )
            _compare(solo, shared, configuration)
            configurations.append(configuration)
    return {
        "queries": total,
        "bases": len(bases),
        "verified_keys": len(solo),
        "configurations": configurations,
        "structures_per_pass": structure_counts,
    }
