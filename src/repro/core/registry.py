"""Kernel registry: scorers, matchers and contractors unified by name.

The pipeline's three phase kinds — ``scorer`` (edge scoring, §III
step 1), ``matcher`` (greedy maximal matching, §III step 2) and
``contractor`` (graph contraction, §III step 3) — each have several
interchangeable implementations: the paper's new/legacy ablation pairs,
the problem-specific scorers the algorithm is "agnostic" towards, and
whatever a user plugs in.  This module is the single naming authority
for all of them, so ablations and user kernels select by string through
one mechanism instead of per-kind lookup tables scattered through the
driver, the CLI and the bench harness.

A registered entry is a zero-argument **factory** producing the kernel
object for one run, plus a one-line description for ``repro kernels``:

* ``scorer`` factories return an :class:`~repro.core.scoring.EdgeScorer`
  instance (a fresh one per call, so per-run state such as a recovery
  report never leaks between runs);
* ``matcher`` factories return a matching callable with the
  :func:`~repro.core.matching.match_locally_dominant` signature;
* ``contractor`` factories return a contraction callable with the
  :func:`~repro.core.contraction.contract` signature.

User extension::

    from repro.core.registry import register_kernel

    class MyScorer:
        name = "my-metric"
        def score(self, graph, recorder=None): ...

    register_kernel("scorer", "my-metric", MyScorer)
    detect_communities(graph, scorer="my-metric")

The built-in kernels are registered at import time; discovery
(:func:`kernel_names`, :func:`kernel_catalog`) is what the CLI uses to
populate its ``--scorer`` / ``--matcher`` / ``--contractor`` choices
and the ``repro kernels`` listing.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.core.contraction import contract, contract_hash_chains
from repro.core.matching import match_full_sweep, match_locally_dominant
from repro.core.scoring import ConductanceScorer, ModularityScorer, WeightScorer

__all__ = [
    "KERNEL_KINDS",
    "register_kernel",
    "unregister_kernel",
    "kernel_names",
    "kernel_catalog",
    "create_kernel",
]

#: The phase kinds the registry knows about.
KERNEL_KINDS = ("scorer", "matcher", "contractor")


class _Entry(NamedTuple):
    factory: Callable[[], object]
    description: str


_REGISTRY: dict[tuple[str, str], _Entry] = {}


def _check_kind(kind: str) -> None:
    if kind not in KERNEL_KINDS:
        raise ValueError(
            f"unknown kernel kind {kind!r} "
            f"(expected one of {', '.join(KERNEL_KINDS)})"
        )


def register_kernel(
    kind: str,
    name: str,
    factory: Callable[[], object],
    *,
    replace: bool = False,
) -> None:
    """Register a kernel factory under ``(kind, name)``.

    ``factory`` is called with no arguments each time the kernel is
    instantiated for a run.  Re-registering an existing name raises
    unless ``replace=True`` (so a typo cannot silently shadow a
    built-in).
    """
    _register(kind, name, factory, "", replace=replace)


def _register(
    kind: str,
    name: str,
    factory: Callable[[], object],
    description: str,
    *,
    replace: bool = False,
) -> None:
    _check_kind(kind)
    if not name:
        raise ValueError("kernel name must be non-empty")
    key = (kind, name)
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"{kind} {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _REGISTRY[key] = _Entry(factory, description)


def unregister_kernel(kind: str, name: str) -> None:
    """Remove a kernel registration (KeyError when absent)."""
    _check_kind(kind)
    del _REGISTRY[(kind, name)]


def kernel_names(kind: str) -> tuple[str, ...]:
    """Registered kernel names of one kind, sorted (CLI choices)."""
    _check_kind(kind)
    return tuple(sorted(n for k, n in _REGISTRY if k == kind))


def kernel_catalog(kind: str) -> list[tuple[str, str]]:
    """``(name, description)`` of every kernel of one kind, by name.

    The ``repro kernels`` data source; user kernels describe as ``""``.
    """
    _check_kind(kind)
    return [
        (name, _REGISTRY[(kind, name)].description)
        for name in kernel_names(kind)
    ]


def create_kernel(kind: str, name: str) -> object:
    """Instantiate the kernel registered under ``(kind, name)``.

    Raises ``ValueError`` naming the kind and the available options when
    the name is unknown — the message the driver and CLI surface for a
    bad ``matcher=``/``contractor=``/``scorer=`` argument.
    """
    _check_kind(kind)
    try:
        entry = _REGISTRY[(kind, name)]
    except KeyError:
        available = ", ".join(kernel_names(kind)) or "none"
        raise ValueError(
            f"unknown {kind} {name!r} (available: {available})"
        ) from None
    return entry.factory()


# ------------------------------------------------------------- built-ins
_register(
    "scorer",
    "modularity",
    ModularityScorer,
    "CNM merge gain (the paper's default objective)",
)
_register(
    "scorer",
    "conductance",
    ConductanceScorer,
    "negative conductance of the merged pair",
)
_register(
    "scorer",
    "weight",
    WeightScorer,
    "raw edge weight (heaviest-first agglomeration)",
)
_register(
    "matcher",
    "worklist",
    lambda: match_locally_dominant,
    "the paper's improved worklist matching (§IV-B new)",
)
_register(
    "matcher",
    "sweep",
    lambda: match_full_sweep,
    "legacy full-sweep matching (§IV-B old)",
)
_register(
    "contractor",
    "bucket",
    lambda: contract,
    "vectorized bucket-sort contraction (§IV-C new)",
)
_register(
    "contractor",
    "chains",
    lambda: contract_hash_chains,
    "legacy hash-of-linked-lists contraction (§IV-C old)",
)
