"""Named, versioned model registry over checksummed artifacts.

Model artifacts (:mod:`repro.artifacts.store`) are content-addressed by
their payload checksum, but every consumer so far has carried ad-hoc file
paths around.  :class:`ModelRegistry` gives the repo one shared, local model
store with the semantics a serving fleet needs:

* **publish** a learned :class:`~repro.core.sgl.SGLResult` (or an existing
  artifact file) under a *name*; each publish mints the next integer
  version and records lineage back to the parent version it superseded;
* **resolve** a model *reference* — ``"name@3"``, ``"name@latest"`` or
  ``"name@<tag>"`` — to the concrete artifact path that
  :func:`~repro.artifacts.load_result` and :class:`repro.serve.GraphService`
  consume (``repro-serve --registry`` and the ``serve --follow`` hot-swap
  loop resolve through exactly this);
* **tag** versions with mutable labels (``prod``, ``canary``) and **gc**
  superseded versions while keeping tagged and recent ones.

Layout on disk::

    <root>/index.json                 queryable JSON index (atomic writes)
    <root>/models/<name>/v0001.npz    immutable artifact payloads

The index is the single source of truth and is rewritten atomically
(temp file + ``os.replace``) on every mutation, so a crash mid-publish
leaves either the old or the new index, never a torn one; the artifact
file lands (also via ``os.replace``) *before* the index references it.
The registry is a single-writer store: concurrent readers are always
safe, concurrent writers from separate processes are not coordinated.

Examples
--------
>>> import tempfile
>>> from repro import learn_graph, simulate_measurements
>>> from repro.artifacts import ModelRegistry, load_result
>>> from repro.graphs.generators import grid_2d
>>> data = simulate_measurements(grid_2d(6, 6), n_measurements=30, seed=0)
>>> registry = ModelRegistry(tempfile.mkdtemp())
>>> v1 = registry.publish(learn_graph(data, beta=0.05), "grid")
>>> v2 = registry.publish(learn_graph(data, beta=0.1), "grid", parent=v1)
>>> (v1.version, v2.version, v2.parent)
(1, 2, 1)
>>> registry.get("grid@latest").version
2
>>> load_result(registry.resolve("grid@1")).n_nodes
36
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.artifacts.store import (
    ArtifactFormatError,
    artifact_checksum,
    save_result,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.sgl import SGLResult

__all__ = [
    "ModelRegistry",
    "ModelVersion",
    "RegistryError",
    "is_model_ref",
    "parse_model_ref",
]

REGISTRY_SCHEMA = "repro.registry"
REGISTRY_VERSION = 1

#: Model names: a leading alphanumeric, then word chars / dots / dashes.
_NAME_RE = re.compile(r"^[A-Za-z0-9][\w.-]*$")
#: ``name@selector`` references; the selector grammar is checked in resolve.
_REF_RE = re.compile(r"^(?P<name>[A-Za-z0-9][\w.-]*)@(?P<selector>[\w.-]+)$")


class RegistryError(ValueError):
    """A registry operation failed: unknown model, bad reference, torn index."""


def is_model_ref(ref: object) -> bool:
    """Whether ``ref`` looks like a ``name@selector`` registry reference.

    Used by the serving layer to distinguish registry references from
    filesystem paths (paths contain separators or extensions that the
    reference grammar rejects).

    >>> is_model_ref("grid@latest"), is_model_ref("models/grid.npz")
    (True, False)
    """
    return isinstance(ref, str) and _REF_RE.match(ref) is not None


def parse_model_ref(ref: str) -> tuple[str, str]:
    """Split ``"name@selector"`` into its parts (``"name"`` → ``latest``).

    >>> parse_model_ref("grid@3")
    ('grid', '3')
    >>> parse_model_ref("grid")
    ('grid', 'latest')
    """
    if "@" not in ref:
        if not _NAME_RE.match(ref):
            raise RegistryError(f"invalid model reference {ref!r}")
        return ref, "latest"
    match = _REF_RE.match(ref)
    if match is None:
        raise RegistryError(
            f"invalid model reference {ref!r} (expected name@version, "
            "name@latest or name@tag)"
        )
    return match.group("name"), match.group("selector")


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published version of a named model.

    Attributes
    ----------
    name, version:
        The registry coordinates; ``version`` is a monotonically increasing
        integer minted at publish time.
    path:
        Absolute path of the artifact file (load it with
        :func:`~repro.artifacts.load_result`).
    checksum:
        The artifact's payload checksum — its content identity; the serving
        layer keys sessions on it.
    parent:
        Version number this one superseded (lineage), or ``None`` for a
        root version (a fresh fit).
    created_at:
        UTC ISO timestamp of the publish.
    n_nodes, n_edges:
        Graph size, denormalised into the index for cheap queries.
    tags:
        Labels currently pointing at this version (mutable registry state,
        snapshotted at lookup time).
    metadata:
        Free-form JSON metadata recorded at publish (the stream loop stores
        the update mode and drift scores here).
    """

    name: str
    version: int
    path: Path
    checksum: str
    parent: int | None = None
    created_at: str = ""
    n_nodes: int = 0
    n_edges: int = 0
    tags: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    @property
    def ref(self) -> str:
        """The canonical ``name@version`` reference of this version."""
        return f"{self.name}@{self.version}"


class ModelRegistry:
    """Local named-and-versioned store of model artifacts (see module docs).

    Parameters
    ----------
    root:
        Registry directory; created (with parents) if missing.  An existing
        ``index.json`` is loaded and validated.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / "index.json"
        self._lock = threading.Lock()
        self._index = self._load_index()

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def _load_index(self) -> dict:
        if not self._index_path.exists():
            return {
                "schema": REGISTRY_SCHEMA,
                "schema_version": REGISTRY_VERSION,
                "models": {},
            }
        try:
            index = json.loads(self._index_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(f"{self._index_path}: unreadable index ({exc})") from exc
        if not isinstance(index, dict) or index.get("schema") != REGISTRY_SCHEMA:
            raise RegistryError(
                f"{self._index_path}: not a {REGISTRY_SCHEMA} index"
            )
        if index.get("schema_version") != REGISTRY_VERSION:
            raise RegistryError(
                f"unsupported registry schema_version "
                f"{index.get('schema_version')!r} (this reader supports "
                f"{REGISTRY_VERSION})"
            )
        index.setdefault("models", {})
        return index

    def _write_index(self) -> None:
        # Atomic replace: a crash leaves either the old or the new index.
        tmp = self._index_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(self._index, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, self._index_path)

    def reload(self) -> None:
        """Re-read the index from disk (pick up another process's publishes)."""
        with self._lock:
            self._index = self._load_index()

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(
        self,
        source: "SGLResult | str | Path",
        name: str,
        *,
        parent: "ModelVersion | int | None" = None,
        tags: tuple[str, ...] | list[str] = (),
        metadata: dict | None = None,
        compress: bool = True,
    ) -> ModelVersion:
        """Publish a model under ``name``; mints and returns the next version.

        ``source`` is either a learned :class:`~repro.core.sgl.SGLResult`
        (persisted via :func:`~repro.artifacts.save_result`, which stores
        the result's own embedding) or the path of an existing
        artifact file (copied in after a checksum read validates it).  The
        artifact lands in the registry *before* the index references it, so
        readers never see a dangling entry.  ``parent`` records lineage;
        ``compress=False`` stores raw (``np.savez``) payloads that
        :func:`~repro.artifacts.load_result` can memory-map on the serve
        path.
        """
        if not _NAME_RE.match(name):
            raise RegistryError(
                f"invalid model name {name!r} (must match {_NAME_RE.pattern})"
            )
        if isinstance(parent, ModelVersion):
            if parent.name != name:
                raise RegistryError(
                    f"parent {parent.ref!r} belongs to a different model than {name!r}"
                )
            parent = parent.version
        metadata = dict(metadata or {})
        model_dir = self.root / "models" / name
        model_dir.mkdir(parents=True, exist_ok=True)

        with self._lock:
            entry = self._index["models"].setdefault(
                name, {"latest": 0, "tags": {}, "versions": []}
            )
            if parent is not None and not any(
                v["version"] == parent for v in entry["versions"]
            ):
                raise RegistryError(f"parent version {name}@{parent} does not exist")
            version = int(entry["latest"]) + 1
            rel_path = f"models/{name}/v{version:04d}.npz"
            final = self.root / rel_path
            tmp = final.with_suffix(".npz.tmp")
            try:
                if isinstance(source, (str, Path)):
                    checksum = artifact_checksum(source)  # validates the meta blob
                    shutil.copyfile(source, tmp)
                    with np.load(tmp, allow_pickle=False) as data:
                        n_nodes_arr = data["graph_rows"]
                        n_edges = int(n_nodes_arr.shape[0])
                        n_nodes = int(
                            json.loads(bytes(data["meta_json"].tobytes()))["n_nodes"]
                        )
                else:
                    save_result(source, tmp, compress=compress)
                    checksum = artifact_checksum(tmp)
                    n_nodes = source.graph.n_nodes
                    n_edges = source.graph.n_edges
                os.replace(tmp, final)
            finally:
                tmp.unlink(missing_ok=True)

            record = {
                "version": version,
                "path": rel_path,
                "checksum": checksum,
                "parent": parent,
                "created_at": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "n_nodes": n_nodes,
                "n_edges": n_edges,
                "metadata": metadata,
            }
            entry["versions"].append(record)
            entry["latest"] = version
            for tag in tags:
                self._check_tag(tag)
                entry["tags"][tag] = version
            self._write_index()
        return self._to_version(name, record)

    @staticmethod
    def _check_tag(tag: str) -> None:
        if not _NAME_RE.match(tag) or tag.isdigit() or tag == "latest":
            raise RegistryError(
                f"invalid tag {tag!r} (reserved or not a valid label)"
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _entry(self, name: str) -> dict:
        try:
            return self._index["models"][name]
        except KeyError:
            raise RegistryError(
                f"unknown model {name!r}; available: {sorted(self._index['models'])}"
            ) from None

    def _to_version(self, name: str, record: dict) -> ModelVersion:
        entry = self._index["models"][name]
        tags = tuple(
            sorted(t for t, v in entry["tags"].items() if v == record["version"])
        )
        return ModelVersion(
            name=name,
            version=int(record["version"]),
            path=self.root / record["path"],
            checksum=record["checksum"],
            parent=record["parent"],
            created_at=record.get("created_at", ""),
            n_nodes=int(record.get("n_nodes", 0)),
            n_edges=int(record.get("n_edges", 0)),
            tags=tags,
            metadata=dict(record.get("metadata", {})),
        )

    def get(self, ref: str) -> ModelVersion:
        """Resolve ``name@selector`` (or bare ``name``) to a version record."""
        name, selector = parse_model_ref(ref)
        with self._lock:
            entry = self._entry(name)
            if selector == "latest":
                if not entry["versions"]:
                    raise RegistryError(f"model {name!r} has no versions")
                version = int(entry["latest"])
            elif selector.isdigit():
                version = int(selector)
            elif selector in entry["tags"]:
                version = int(entry["tags"][selector])
            else:
                raise RegistryError(
                    f"model {name!r} has no version or tag {selector!r}; "
                    f"tags: {sorted(entry['tags'])}"
                )
            for record in entry["versions"]:
                if record["version"] == version:
                    return self._to_version(name, record)
        raise RegistryError(f"model {name!r} has no version {version}")

    def resolve(self, ref: str) -> Path:
        """The artifact path behind a reference (shortcut for ``get(ref).path``)."""
        return self.get(ref).path

    def list(self, name: str | None = None) -> list[ModelVersion]:
        """All versions of one model (or of every model), oldest first."""
        with self._lock:
            if name is not None:
                names = [name] if name in self._index["models"] else []
                if not names:
                    self._entry(name)  # raises with the helpful message
            else:
                names = sorted(self._index["models"])
            return [
                self._to_version(model, record)
                for model in names
                for record in self._index["models"][model]["versions"]
            ]

    def names(self) -> list[str]:
        """The registered model names."""
        with self._lock:
            return sorted(self._index["models"])

    def lineage(self, ref: str) -> list[ModelVersion]:
        """The parent chain of ``ref``, newest first, ending at a root version."""
        chain = [self.get(ref)]
        while chain[-1].parent is not None:
            chain.append(self.get(f"{chain[-1].name}@{chain[-1].parent}"))
        return chain

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def tag(self, ref: str, tag: str) -> ModelVersion:
        """Point ``tag`` at the version ``ref`` resolves to (moving it if set)."""
        target = self.get(ref)
        self._check_tag(tag)
        with self._lock:
            entry = self._entry(target.name)
            entry["tags"][tag] = target.version
            self._write_index()
        return self.get(f"{target.name}@{tag}")

    def gc(
        self,
        name: str | None = None,
        *,
        keep_last: int = 3,
        keep_tagged: bool = True,
    ) -> list[ModelVersion]:
        """Delete superseded versions; returns the versions removed.

        The newest ``keep_last`` versions of each model survive, as do (by
        default) tagged versions and any version that is the parent of a
        surviving one (so lineage chains of the kept versions never dangle).
        Artifact files are unlinked after the index stops referencing them.
        """
        if keep_last < 1:
            raise RegistryError("keep_last must be at least 1")
        removed: list[ModelVersion] = []
        with self._lock:
            names = [name] if name is not None else sorted(self._index["models"])
            for model in names:
                entry = self._entry(model)
                records = entry["versions"]
                keep = {r["version"] for r in records[-keep_last:]}
                if keep_tagged:
                    keep.update(int(v) for v in entry["tags"].values())
                # Parents of kept versions survive transitively.
                by_version = {r["version"]: r for r in records}
                frontier = list(keep)
                while frontier:
                    parent = by_version.get(frontier.pop(), {}).get("parent")
                    if parent is not None and parent not in keep:
                        keep.add(parent)
                        frontier.append(parent)
                doomed = [r for r in records if r["version"] not in keep]
                if not doomed:
                    continue
                removed.extend(self._to_version(model, r) for r in doomed)
                entry["versions"] = [r for r in records if r["version"] in keep]
            if removed:
                self._write_index()
        for version in removed:
            try:
                version.path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        return removed

    # ------------------------------------------------------------------
    def verify(self, ref: str) -> ModelVersion:
        """Check that ``ref``'s artifact still matches its indexed checksum."""
        version = self.get(ref)
        try:
            actual = artifact_checksum(version.path)
        except (OSError, ArtifactFormatError) as exc:
            raise RegistryError(f"{version.ref}: artifact unreadable ({exc})") from exc
        if actual != version.checksum:
            raise RegistryError(
                f"{version.ref}: checksum drift (index {version.checksum[:12]}..., "
                f"file {actual[:12]}...)"
            )
        return version

    def __len__(self) -> int:
        with self._lock:
            return sum(
                len(e["versions"]) for e in self._index["models"].values()
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry(root={str(self.root)!r}, versions={len(self)})"
