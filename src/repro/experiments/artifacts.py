"""Typed pipeline artifacts with a content-addressed on-disk cache.

The paper's evaluation is one campaign over a handful of shared inputs: a
simulated ground-truth evolution, a crawled snapshot series, frozen snapshot
views, a reference SAN, an arrival history, estimated parameters, and a few
generated model SANs.  This module declares each of those as an *artifact
node* — a named builder with declared dependencies, an optional on-disk
representation, and a version tag::

    @artifact("reference_san", needs=("snapshot_series",),
              save=_save_san, load=_load_san)
    def _build_reference_san(resolver): ...

An :class:`ArtifactResolver` materialises artifacts on demand for one
scenario: every artifact is built at most once per run (memory sharing), and
persistent artifacts are written to / read from an :class:`ArtifactStore`
under a **content-addressed key** — the hash of the scenario's
:meth:`~repro.experiments.scenarios.Scenario.cache_token`, the artifact's
recipe version, and (recursively) the keys of its dependencies.  Changing the
scenario, bumping a recipe version, or invalidating any upstream artifact
therefore re-keys — and rebuilds — everything downstream, while a warm cache
reruns the full figure suite without recomputing a single artifact.

Persistence goes through :mod:`repro.graph.serialization` (SAN JSON
documents) for mutable inputs and :mod:`repro.graph.columnar` (binary
columnar files, served as read-only mapped views on warm hits) for frozen
graphs, and every frozen artifact is built with :func:`canonical_frozen`
— a sorted rebuild that makes the CSR view a pure function of the graph's
*content* rather than of the source object's set-insertion history.  Cold,
warm, and naive (per-figure re-derivation) runs of the same scenario are
therefore byte-identical, stage for stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..crawler.snapshots import SnapshotSeries, crawl_evolution
from ..graph.columnar import open_columnar, save_columnar
from ..graph.serialization import load_san_json, save_san_json
from ..models.estimation import estimate_parameters
from ..models.history import ArrivalEvent, ArrivalHistory
from ..models.parameters import (
    AttachmentParameters,
    LifetimeParameters,
    SANModelParameters,
    ZhelModelParameters,
)
from ..models.san_model import generate_san
from ..models.zhel import generate_zhel_san
from ..synthetic.gplus import GroundTruthEvolution, TimedEvent, simulate_google_plus
from ..metrics.evolution import PhaseBoundaries

PathLike = Union[str, Path]


class ArtifactError(Exception):
    """Base class for artifact-layer errors."""


class UnknownArtifactError(ArtifactError, KeyError):
    """No artifact is registered under the requested name."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (
            f"unknown artifact {self.name!r}; "
            f"known artifacts: {', '.join(artifact_names())}"
        )


class ArtifactCycleError(ArtifactError, ValueError):
    """The artifact dependency graph contains a cycle."""


@dataclass(frozen=True)
class ArtifactSpec:
    """One artifact node: builder, dependencies, optional disk format."""

    name: str
    builder: Callable[["ArtifactResolver"], Any]
    needs: Tuple[str, ...] = ()
    #: Bump to invalidate every cache entry of this artifact (and, because
    #: keys chain through ``needs``, of everything downstream of it).
    version: str = "1"
    save: Optional[Callable[[Any, Path], None]] = None
    load: Optional[Callable[[Path], Any]] = None

    @property
    def persistent(self) -> bool:
        """Whether this artifact has an on-disk representation.

        Non-persistent artifacts are cheap in-memory views (e.g. the frozen
        reference SAN) rebuilt from their cached parents on every run.
        """
        return self.save is not None and self.load is not None


#: name -> spec, in registration order (roughly dependency order).
_ARTIFACTS: Dict[str, ArtifactSpec] = {}


def register_artifact(
    name: str,
    builder: Callable[["ArtifactResolver"], Any],
    needs: Sequence[str] = (),
    version: str = "1",
    save: Optional[Callable[[Any, Path], None]] = None,
    load: Optional[Callable[[Path], Any]] = None,
) -> ArtifactSpec:
    """Register an artifact node (functional form of :func:`artifact`)."""
    spec = ArtifactSpec(
        name=name,
        builder=builder,
        needs=tuple(needs),
        version=version,
        save=save,
        load=load,
    )
    _ARTIFACTS[name] = spec
    return spec


def artifact(
    name: str,
    needs: Sequence[str] = (),
    version: str = "1",
    save: Optional[Callable[[Any, Path], None]] = None,
    load: Optional[Callable[[Path], Any]] = None,
) -> Callable[[Callable[["ArtifactResolver"], Any]], Callable[["ArtifactResolver"], Any]]:
    """Decorator: register the function as the builder of artifact ``name``."""

    def decorator(builder: Callable[["ArtifactResolver"], Any]):
        register_artifact(name, builder, needs=needs, version=version, save=save, load=load)
        return builder

    return decorator


def unregister_artifact(name: str) -> None:
    """Remove a registered artifact (test hook; unknown names are ignored)."""
    _ARTIFACTS.pop(name, None)


def artifact_spec(name: str) -> ArtifactSpec:
    """The registered spec of artifact ``name``."""
    try:
        return _ARTIFACTS[name]
    except KeyError:
        raise UnknownArtifactError(name) from None


def artifact_names() -> List[str]:
    """Names of every registered artifact, in registration order."""
    return list(_ARTIFACTS)


def artifact_topological_order(names: Sequence[str]) -> List[str]:
    """Dependency-closed topological order of ``names`` (deps first).

    Raises :class:`UnknownArtifactError` for undeclared dependencies and
    :class:`ArtifactCycleError` when the dependency graph has a cycle.
    """
    order: List[str] = []
    done: Set[str] = set()
    in_progress: Set[str] = set()

    def visit(name: str, chain: Tuple[str, ...]) -> None:
        if name in done:
            return
        if name in in_progress:
            cycle = " -> ".join(chain + (name,))
            raise ArtifactCycleError(f"artifact dependency cycle: {cycle}")
        in_progress.add(name)
        for dep in artifact_spec(name).needs:
            visit(dep, chain + (name,))
        in_progress.discard(name)
        done.add(name)
        order.append(name)

    for name in names:
        visit(name, ())
    return order


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
_MARKER = "ARTIFACT.json"


def _payload_bytes(entry: Path) -> int:
    """Total size of an entry's payload files (everything but the marker)."""
    return sum(
        path.stat().st_size
        for path in sorted(entry.rglob("*"))
        if path.is_file() and path.name != _MARKER
    )


def _recorded_payload_bytes(entry: Path) -> int:
    """Payload size from the entry marker (re-measured for pre-size entries)."""
    try:
        recorded = json.loads((entry / _MARKER).read_text(encoding="utf-8")).get(
            "payload_bytes"
        )
    except (OSError, json.JSONDecodeError):
        recorded = None
    return int(recorded) if recorded is not None else _payload_bytes(entry)


class ArtifactStore:
    """Content-addressed artifact directory: ``<root>/<name>-<key>/``.

    Each entry is a directory written atomically (build into ``*.tmp``, then
    rename) and finalised with an ``ARTIFACT.json`` marker, so a crashed
    writer never leaves a half-entry that reads as a cache hit.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    def entry_path(self, name: str, key: str) -> Path:
        return self.root / f"{name}-{key}"

    def has(self, name: str, key: str) -> bool:
        return (self.entry_path(name, key) / _MARKER).is_file()

    def write(
        self,
        name: str,
        key: str,
        save: Callable[[Any, Path], None],
        value: Any,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist ``value`` under ``(name, key)`` atomically.

        Each writer stages into its own private temp directory (so
        concurrent processes racing on the same entry never touch each
        other's half-written files) and commits with a single rename.  If
        another writer finalised the entry first, this writer's staging is
        simply discarded — the content is addressed by ``key``, so both
        copies are identical.
        """
        final = self.entry_path(name, key)
        self.root.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(prefix=f".{final.name}.staging-", dir=self.root)
        )
        try:
            save(value, staging)
            from .. import sanitize

            # Recorded unconditionally (hashing at write time is cheap next
            # to building).  Warm hits deliberately do NOT re-hash: for a
            # multi-hundred-MB columnar graph that eager read would cost more
            # than the load it guards, so integrity verification happens only
            # under REPRO_SANITIZE=1 (see ArtifactResolver.artifact).
            marker = {
                "artifact": name,
                "key": key,
                "payload_sha256": sanitize.hash_payload(staging),
                "payload_bytes": _payload_bytes(staging),
                **(metadata or {}),
            }
            (staging / _MARKER).write_text(
                json.dumps(marker, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            if final.exists() and not self.has(name, key):
                shutil.rmtree(final)  # crash leftover: unmarked, never a hit
            try:
                os.replace(staging, final)
            except OSError:
                if not self.has(name, key):
                    raise
                shutil.rmtree(staging)  # lost the race to an identical entry
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return final

    def entries(self) -> List[Path]:
        """Every finalised entry directory currently in the store."""
        if not self.root.is_dir():
            return []
        return sorted(
            path for path in self.root.iterdir() if (path / _MARKER).is_file()
        )


# ----------------------------------------------------------------------
# Resolver
# ----------------------------------------------------------------------
@dataclass
class ArtifactEvent:
    """How one artifact was materialised during a run (for the manifest)."""

    name: str
    key: str
    status: str  # "built" or "cached"
    persistent: bool
    seconds: float
    #: On-disk payload size (persistent artifacts; 0 for memory views).
    bytes: int = 0


class ArtifactResolver:
    """Materialise artifacts for one scenario, each at most once per run.

    Without a ``cache_dir`` the resolver shares artifacts in memory only;
    with one, persistent artifacts round-trip through the content-addressed
    :class:`ArtifactStore`, so a second resolver over the same scenario loads
    every expensive input instead of recomputing it.
    """

    def __init__(self, scenario, cache_dir: Optional[PathLike] = None) -> None:
        self.scenario = scenario
        self.store = ArtifactStore(cache_dir) if cache_dir is not None else None
        self.events: List[ArtifactEvent] = []
        self._memory: Dict[str, Any] = {}
        self._keys: Dict[str, str] = {}
        self._resolving: Set[str] = set()

    # -- content-addressed keys ------------------------------------------
    def key(self, name: str) -> str:
        """Content-addressed cache key of ``name`` under this scenario."""
        cached = self._keys.get(name)
        if cached is not None:
            return cached
        spec = artifact_spec(name)
        if name in self._resolving:
            chain = " -> ".join(sorted(self._resolving) + [name])
            raise ArtifactCycleError(f"artifact dependency cycle involving: {chain}")
        self._resolving.add(name)
        try:
            payload = {
                "artifact": name,
                "version": spec.version,
                "scenario": self.scenario.cache_token(),
                "needs": {dep: self.key(dep) for dep in spec.needs},
            }
        finally:
            self._resolving.discard(name)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        ).hexdigest()[:16]
        self._keys[name] = digest
        return digest

    # -- resolution -------------------------------------------------------
    def artifact(self, name: str) -> Any:
        """The materialised artifact ``name`` (build, load, or memory hit)."""
        if name in self._memory:
            return self._memory[name]
        spec = artifact_spec(name)
        key = self.key(name)
        # repro: lint-ignore[R004] -- build timing for the manifest's
        # ArtifactEvent.seconds; it never enters a cache key or payload
        started = time.perf_counter()
        payload_bytes = 0
        if self.store is not None and spec.persistent and self.store.has(name, key):
            entry = self.store.entry_path(name, key)
            from .. import sanitize

            if sanitize.enabled():
                try:
                    recorded = json.loads(
                        (entry / _MARKER).read_text(encoding="utf-8")
                    ).get("payload_sha256")
                except (OSError, json.JSONDecodeError):
                    recorded = None
                sanitize.verify_artifact_payload(name, key, entry, recorded)
            value = spec.load(entry)
            status = "cached"
            payload_bytes = _recorded_payload_bytes(entry)
        else:
            value = spec.builder(self)
            status = "built"
            if self.store is not None and spec.persistent:
                entry = self.store.write(
                    name,
                    key,
                    spec.save,
                    value,
                    metadata={
                        "scenario": self.scenario.name,
                        "version": spec.version,
                    },
                )
                payload_bytes = _recorded_payload_bytes(entry)
        self.events.append(
            ArtifactEvent(
                name=name,
                key=key,
                status=status,
                persistent=spec.persistent,
                # repro: lint-ignore[R004] -- manifest timing, not key material
                seconds=time.perf_counter() - started,
                bytes=payload_bytes,
            )
        )
        self._memory[name] = value
        return value

    def resolve_all(self, names: Sequence[str]) -> Dict[str, Any]:
        """Materialise ``names`` (and their dependencies) in topological order."""
        return {name: self.artifact(name) for name in artifact_topological_order(names)}


def canonical_frozen(san):
    """A canonical CSR-backed frozen view of ``san`` (mutable or frozen).

    The frozen backend preserves the *insertion order* of its source, and the
    mutable backend's set-based adjacency makes that order a function of the
    object's construction history, not just its content.  Rebuilding in
    sorted order first makes the frozen view a pure function of the graph's
    content — so a freshly built artifact and its cache-loaded round trip
    yield byte-identical frozen views, and every downstream sampled estimator
    draws identical populations.
    """
    from ..graph.san import SAN

    rebuilt = SAN()
    for node in sorted(san.social_nodes(), key=str):
        rebuilt.add_social_node(node)
    for source, target in sorted(
        san.social_edges(), key=lambda edge: (str(edge[0]), str(edge[1]))
    ):
        rebuilt.add_social_edge(source, target)
    for social, attribute in sorted(
        san.attribute_edges(), key=lambda edge: (str(edge[1]), str(edge[0]))
    ):
        info = san.attribute_info(attribute)
        rebuilt.add_attribute_edge(
            social, attribute, attr_type=info.attr_type, value=info.value
        )
    from ..graph.columnar import maybe_spill

    return maybe_spill(rebuilt.freeze())


# ----------------------------------------------------------------------
# Serialization helpers (all order-preserving)
# ----------------------------------------------------------------------
def _save_san(san, path: Path) -> None:
    save_san_json(san, path / "san.json")


def _save_frozen_san(san, path: Path) -> None:
    save_columnar(san, path / "san.col")


def _load_frozen_san(path: Path):
    # Served copy-free: the CSR arrays are mapped views of the cache
    # entry itself, so a warm hit costs one header parse, not an edge scan.
    return open_columnar(path / "san.col", mmap_mode="r")


def _save_frozen_snapshot_list(snapshots, path: Path) -> None:
    days = []
    for day, san in snapshots:
        save_columnar(san, path / f"day-{day:05d}.col")
        days.append(day)
    (path / "days.json").write_text(json.dumps(days), encoding="utf-8")


def _load_frozen_snapshot_list(path: Path):
    days = json.loads((path / "days.json").read_text(encoding="utf-8"))
    return [
        (day, open_columnar(path / f"day-{day:05d}.col", mmap_mode="r"))
        for day in days
    ]


def _load_san(path: Path):
    return load_san_json(path / "san.json")


def _event_to_json(event: ArrivalEvent) -> Dict[str, Any]:
    return {
        "kind": event.kind,
        "first": event.first,
        "second": event.second,
        "attr_type": event.attr_type,
        "value": event.value,
    }


def _event_from_json(record: Dict[str, Any]) -> ArrivalEvent:
    return ArrivalEvent(
        kind=record["kind"],
        first=record["first"],
        second=record["second"],
        attr_type=record.get("attr_type", "generic"),
        value=record.get("value"),
    )


def _save_evolution(evolution: GroundTruthEvolution, path: Path) -> None:
    document = {
        "num_days": evolution.num_days,
        "phases": {
            "phase_one_end": evolution.phases.phase_one_end,
            "phase_two_end": evolution.phases.phase_two_end,
        },
        # Lists of pairs (not JSON objects) so integer node ids survive the
        # round trip without a string conversion.
        "join_day": [[node, day] for node, day in evolution.join_day.items()],
        "profiles": [[node, profile] for node, profile in evolution.profiles.items()],
        "sybil_nodes": list(evolution.sybil_nodes),
        "events": [
            {"day": timed.day, **_event_to_json(timed.event)}
            for timed in evolution.events
        ],
    }
    (path / "evolution.json").write_text(
        json.dumps(document), encoding="utf-8"
    )


def _load_evolution(path: Path) -> GroundTruthEvolution:
    document = json.loads((path / "evolution.json").read_text(encoding="utf-8"))
    return GroundTruthEvolution(
        events=[
            TimedEvent(day=record["day"], event=_event_from_json(record))
            for record in document["events"]
        ],
        num_days=document["num_days"],
        join_day={node: day for node, day in document["join_day"]},
        profiles={node: profile for node, profile in document["profiles"]},
        phases=PhaseBoundaries(**document["phases"]),
        sybil_nodes=list(document.get("sybil_nodes", [])),
    )


def _save_snapshot_list(snapshots, path: Path) -> None:
    days = []
    for day, san in snapshots:
        save_san_json(san, path / f"day-{day:05d}.json")
        days.append(day)
    (path / "days.json").write_text(json.dumps(days), encoding="utf-8")


def _load_snapshot_list(path: Path):
    days = json.loads((path / "days.json").read_text(encoding="utf-8"))
    return [(day, load_san_json(path / f"day-{day:05d}.json")) for day in days]


def _save_snapshot_series(series: SnapshotSeries, path: Path) -> None:
    _save_snapshot_list(series.snapshots, path)
    (path / "coverage.json").write_text(
        json.dumps([[day, value] for day, value in series.coverage.items()]),
        encoding="utf-8",
    )


def _load_snapshot_series(path: Path) -> SnapshotSeries:
    coverage = json.loads((path / "coverage.json").read_text(encoding="utf-8"))
    return SnapshotSeries(
        snapshots=_load_snapshot_list(path),
        coverage={day: value for day, value in coverage},
    )


def _save_history(history: ArrivalHistory, path: Path) -> None:
    save_san_json(history.initial, path / "initial.json")
    (path / "events.json").write_text(
        json.dumps([_event_to_json(event) for event in history.events]),
        encoding="utf-8",
    )


def _load_history(path: Path) -> ArrivalHistory:
    events = json.loads((path / "events.json").read_text(encoding="utf-8"))
    return ArrivalHistory(
        initial=load_san_json(path / "initial.json"),
        events=[_event_from_json(record) for record in events],
    )


def _save_parameters(params: SANModelParameters, path: Path) -> None:
    document = {
        "steps": params.steps,
        "arrivals_per_step": params.arrivals_per_step,
        "attribute_mu": params.attribute_mu,
        "attribute_sigma": params.attribute_sigma,
        "new_attribute_probability": params.new_attribute_probability,
        "attachment": {
            "alpha": params.attachment.alpha,
            "beta": params.attachment.beta,
            "smoothing": params.attachment.smoothing,
            "type_weights": params.attachment.type_weights,
        },
        "lifetime": {
            "mu": params.lifetime.mu,
            "sigma": params.lifetime.sigma,
            "mean_sleep": params.lifetime.mean_sleep,
        },
        "focal_weight": params.focal_weight,
        "reciprocation_probability": params.reciprocation_probability,
        "seed_social_nodes": params.seed_social_nodes,
        "seed_attribute_nodes": params.seed_attribute_nodes,
        "use_lapa": params.use_lapa,
        "use_focal_closure": params.use_focal_closure,
    }
    (path / "parameters.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _load_parameters(path: Path) -> SANModelParameters:
    document = json.loads((path / "parameters.json").read_text(encoding="utf-8"))
    attachment = AttachmentParameters(**document.pop("attachment"))
    lifetime = LifetimeParameters(**document.pop("lifetime"))
    return SANModelParameters(attachment=attachment, lifetime=lifetime, **document)


# ----------------------------------------------------------------------
# The artifact DAG
# ----------------------------------------------------------------------
@artifact("evolution", version="1", save=_save_evolution, load=_load_evolution)
def _build_evolution(resolver: ArtifactResolver) -> GroundTruthEvolution:
    """The simulated Google+ ground truth of the scenario."""
    scenario = resolver.scenario
    return simulate_google_plus(scenario.config, rng=scenario.seed)


#: First-crawl seed count under a privacy regime.  A single seed can hide its
#: links and strand the whole series (later crawls re-seed from the previous
#: visited set); ten early joiners make that failure mode vanishingly rare
#: while matching the paper's multi-seed crawl methodology.
_PRIVACY_CRAWL_SEEDS = 10


def _earliest_joiners(evolution: GroundTruthEvolution, count: int):
    """The first ``count`` users by join day (label as the tiebreak)."""
    ranked = sorted(evolution.join_day.items(), key=lambda item: (item[1], str(item[0])))
    return [node for node, _ in ranked[:count]]


@artifact(
    "snapshot_series",
    needs=("evolution",),
    save=_save_snapshot_series,
    load=_load_snapshot_series,
)
def _build_snapshot_series(resolver: ArtifactResolver) -> SnapshotSeries:
    """Crawled daily snapshots (the analogue of the paper's 79 crawls).

    The scenario's privacy regime (if any) is applied during the crawl, so
    visibility sweeps flow through the whole figure suite.  Privacy crawls
    start from several early joiners instead of the single default seed —
    otherwise one link-hiding seed strands every snapshot of the series.
    """
    evolution = resolver.artifact("evolution")
    privacy = resolver.scenario.privacy_model()
    seeds = None
    if privacy is not None:
        seeds = _earliest_joiners(evolution, _PRIVACY_CRAWL_SEEDS)
    return crawl_evolution(
        evolution,
        resolver.scenario.snapshot_days(),
        privacy=privacy,
        seeds=seeds,
    )


@artifact("snapshots", needs=("snapshot_series",))
def _build_snapshots(resolver: ArtifactResolver):
    """The snapshot series as a plain ``[(day, SAN)]`` list (memory view)."""
    return list(resolver.artifact("snapshot_series"))


@artifact(
    "frozen_snapshots",
    needs=("snapshot_series",),
    version="2",
    save=_save_frozen_snapshot_list,
    load=_load_frozen_snapshot_list,
)
def _build_frozen_snapshots(resolver: ArtifactResolver):
    """CSR-backed frozen views of every crawled snapshot.

    Persisted as columnar files since the binary format landed: a warm hit
    mmaps the canonical CSR arrays straight out of the store — no JSON
    re-parse, no canonical rebuild, and no dependence on the parent
    ``snapshot_series`` being materialised at all.
    """
    return [
        (day, canonical_frozen(san))
        for day, san in resolver.artifact("snapshot_series")
    ]


@artifact("reference_san", needs=("snapshot_series",), save=_save_san, load=_load_san)
def _build_reference_san(resolver: ArtifactResolver):
    """The last crawled snapshot — the reference the models are fitted against."""
    return resolver.artifact("snapshot_series").last()


@artifact(
    "frozen_reference",
    needs=("reference_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_reference(resolver: ArtifactResolver):
    """Frozen view of the reference SAN (columnar on disk, mmap on warm hits)."""
    return canonical_frozen(resolver.artifact("reference_san"))


@artifact("halfway_san", needs=("snapshot_series",), save=_save_san, load=_load_san)
def _build_halfway_san(resolver: ArtifactResolver):
    """The mid-crawl snapshot (the 'earlier' input of Figure 13)."""
    return resolver.artifact("snapshot_series").halfway()


@artifact(
    "arrival_history", needs=("evolution",), save=_save_history, load=_load_history
)
def _build_arrival_history(resolver: ArtifactResolver) -> ArrivalHistory:
    """Link arrivals over the crawl's later days (the Figure 15 input)."""
    evolution = resolver.artifact("evolution")
    start_day = evolution.num_days // resolver.scenario.history_start_divisor
    return evolution.arrival_history(start_day=start_day)


@artifact(
    "estimated_parameters",
    needs=("reference_san",),
    save=_save_parameters,
    load=_load_parameters,
)
def _build_estimated_parameters(resolver: ArtifactResolver) -> SANModelParameters:
    """Generative-model parameters estimated from the reference SAN."""
    scenario = resolver.scenario
    return estimate_parameters(
        resolver.artifact("reference_san"),
        mean_sleep=scenario.mean_sleep,
        beta=scenario.beta,
    ).parameters


@artifact("model_san", needs=("estimated_parameters",), save=_save_san, load=_load_san)
def _build_model_san(resolver: ArtifactResolver):
    """Our model (Algorithm 1) fitted to the reference SAN."""
    params = resolver.artifact("estimated_parameters")
    return generate_san(params, rng=resolver.scenario.seed, record_history=False).san


@artifact(
    "model_no_focal_san",
    needs=("estimated_parameters",),
    save=_save_san,
    load=_load_san,
)
def _build_model_no_focal_san(resolver: ArtifactResolver):
    """Ablation: the fitted model without focal closure (RR instead of RR-SAN)."""
    params = replace(resolver.artifact("estimated_parameters"), use_focal_closure=False)
    return generate_san(params, rng=resolver.scenario.seed, record_history=False).san


@artifact(
    "model_no_lapa_san",
    needs=("estimated_parameters",),
    save=_save_san,
    load=_load_san,
)
def _build_model_no_lapa_san(resolver: ArtifactResolver):
    """Ablation: the fitted model with classical PA instead of LAPA."""
    params = replace(resolver.artifact("estimated_parameters"), use_lapa=False)
    return generate_san(params, rng=resolver.scenario.seed, record_history=False).san


@artifact("zhel_san", needs=("estimated_parameters",), save=_save_san, load=_load_san)
def _build_zhel_san(resolver: ArtifactResolver):
    """The directed Zhel baseline sized to the same number of social nodes."""
    estimated = resolver.artifact("estimated_parameters")
    params = ZhelModelParameters(
        steps=estimated.steps,
        reciprocation_probability=estimated.reciprocation_probability,
        mean_groups_per_node=2.0,
    )
    return generate_zhel_san(params, rng=resolver.scenario.seed, record_history=False).san


# Frozen views of the generated SANs, persisted as columnar files.  Beyond
# running the model-evaluation stages on the vectorized kernels, the CSR form
# is *canonical* (rows sorted), so stages consuming these produce
# byte-identical payloads whether the parent SAN was freshly generated,
# rebuilt from its JSON cache entry, or mmapped from a columnar entry — the
# mutable backend's set-based adjacency does not guarantee that.
@artifact(
    "frozen_model_san",
    needs=("model_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_model_san(resolver: ArtifactResolver):
    """Frozen view of the fitted model SAN (columnar on disk)."""
    return canonical_frozen(resolver.artifact("model_san"))


@artifact(
    "frozen_model_no_focal_san",
    needs=("model_no_focal_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_model_no_focal_san(resolver: ArtifactResolver):
    """Frozen view of the no-focal-closure ablation SAN."""
    return canonical_frozen(resolver.artifact("model_no_focal_san"))


@artifact(
    "frozen_model_no_lapa_san",
    needs=("model_no_lapa_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_model_no_lapa_san(resolver: ArtifactResolver):
    """Frozen view of the no-LAPA ablation SAN."""
    return canonical_frozen(resolver.artifact("model_no_lapa_san"))


@artifact(
    "frozen_zhel_san",
    needs=("zhel_san",),
    version="2",
    save=_save_frozen_san,
    load=_load_frozen_san,
)
def _build_frozen_zhel_san(resolver: ArtifactResolver):
    """Frozen view of the Zhel baseline SAN."""
    return canonical_frozen(resolver.artifact("zhel_san"))
