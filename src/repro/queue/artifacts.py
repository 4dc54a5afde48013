"""Content-addressed artifact store: every result carries its provenance.

An :class:`ArtifactStore` is a directory of ``<job_hash>.json`` entries.
Blob sidecars (DRL checkpoints) live under
``<root>/checkpoints/<job_hash>.npz``, recorded *store-relative* in result
payloads (:meth:`Artifact.checkpoint` resolves them) so a store rsynced
to another machine stays internally consistent.

Result entries
--------------
Each finished job is one ``<job_hash>.json`` file holding ``{"job": spec,
"result": payload}``, compact JSON that :meth:`ArtifactStore.put` writes
through :func:`~repro.utils.serialization.write_json_durably`: a
*per-writer-unique* temporary name, so concurrent writers sharing a store
— two schedulers, a scheduler and a queue worker, two workers racing on
the same at-least-once job — never clobber each other's half-written temp
file, and an ``fsync`` before the ``os.replace``, so a visible entry is
always complete even across a crash or SIGKILL mid-write. A reader whose
entry is absent, truncated, byte-corrupt or otherwise unreadable gets
``None`` — a cache miss, recomputed — while an entry recording a different
spec raises :class:`~repro.errors.ExperimentError`.

Provenance is the load-bearing property: because every entry embeds the
**full job spec**, any artifact reloads and re-runs from its own metadata
alone — :meth:`Artifact.replay` re-executes the embedded spec in-process
and asserts the fresh result is bitwise-identical to the stored payload
(floats survive the JSON wire exactly, so this is an equality check, not a
tolerance check). A store is therefore self-verifying: no side channel —
not the queue, not the plan that enqueued the job — is needed to audit or
reproduce anything it holds.

Addressing is by content: the file name is the SHA-256 of the canonical
spec JSON (:meth:`~repro.experiments.scheduler.Job.job_hash`), so
identical specs land on the same entry no matter which worker, machine, or
scheduler executed them — that is what turns at-least-once *execution*
into exactly-once *results*.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.scheduler import Job, execute_job
from repro.utils.serialization import load_json, to_jsonable, write_json_durably

__all__ = ["Artifact", "ArtifactStore"]

_HASH_HEX_LENGTH = 64  # SHA-256


@dataclass(frozen=True)
class Artifact:
    """One stored result: the job that produced it, its payload, its file.

    ``job`` is rebuilt from the spec *embedded in the entry itself* — the
    artifact's provenance — never from the caller's expectation.
    """

    job: Job
    result: object
    path: Path
    store_root: Path

    @property
    def job_hash(self) -> str:
        """The content address (SHA-256 of the canonical embedded spec)."""
        return self.job.job_hash()

    def spec(self) -> dict:
        """The full embedded job spec — enough to re-run this artifact."""
        return self.job.spec()

    def blob_path(self, relative: str | Path) -> Path:
        """Resolve a store-relative sidecar path recorded in the result."""
        return self.store_root / Path(relative)

    def checkpoint(self) -> Path | None:
        """The checkpoint sidecar this result recorded, if any (absolute).

        DRL job kinds (``market_scheme``, ``training_run``) record their
        parked agent as a store-relative ``"checkpoint"`` entry in the
        result payload; plannable/analytic kinds record none.
        """
        if not isinstance(self.result, Mapping):
            return None
        recorded = self.result.get("checkpoint")
        if recorded is None:
            return None
        recorded = Path(str(recorded))
        return recorded if recorded.is_absolute() else self.blob_path(recorded)

    def replay(self) -> object:
        """Re-execute the embedded spec; assert the result is bitwise-equal.

        The job function runs in *this* process with the store root
        injected as its artifact dir (so checkpoint-recording kinds
        produce the same store-relative paths they produced originally —
        their sidecars are rewritten in place, which is sound because the
        jobs are pure). Returns the replayed result payload.

        Raises:
            ExperimentError: if the replayed result differs anywhere from
                the stored payload — the store's provenance contract is
                broken (nondeterministic job function, or a tampered
                entry whose spec/result pairing no longer holds).
        """
        fresh = execute_job(self.job, artifact_dir=self.store_root)
        if fresh != self.result:
            raise ExperimentError(
                f"artifact {self.path} does not replay: re-executing its "
                f"embedded {self.job.kind!r} spec produced a different "
                "result — the job function is impure or the entry was "
                "tampered with"
            )
        return fresh


class ArtifactStore:
    """A directory of content-addressed ``{"job", "result"}`` entries.

    The store is safe for concurrent writers (every write goes through a
    unique temp name, an fsync and a rename) and requires no locking to
    read: an entry is either absent or complete. It is designed so a
    network filesystem or an object store (one key per hash) can back it —
    nothing below relies on more than atomic rename within one directory.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    def path_for(self, job_or_hash: Job | str) -> Path:
        """Where the entry for ``job_or_hash`` lives (exists or not)."""
        key = (
            job_or_hash.job_hash()
            if isinstance(job_or_hash, Job)
            else str(job_or_hash)
        )
        return self.root / f"{key}.json"

    def contains(self, job_or_hash: Job | str) -> bool:
        """Whether a (possibly not-yet-verified) entry exists for this key."""
        return self.path_for(job_or_hash).exists()

    # ------------------------------------------------------------------ #
    # read / write
    # ------------------------------------------------------------------ #
    def put(self, job: Job, result: object) -> Artifact:
        """Persist ``result`` under ``job``'s content address, atomically.

        Concurrent puts of the same job are benign: both writers produce
        the same entry (pure jobs, canonical encoding) through unique temp
        files, and whichever rename lands last wins with identical bytes'
        worth of content.
        """
        path = self.path_for(job)
        text = write_json_durably(
            path, {"job": job.spec(), "result": to_jsonable(result)}
        )
        # Hand back what later readers will see: the JSON round trip of
        # the entry just written, decoded from memory (identical — floats
        # survive the wire exactly — but e.g. tuples have become lists).
        stored = json.loads(text)["result"]
        return Artifact(job=job, result=stored, path=path, store_root=self.root)

    def get(self, job: Job) -> Artifact | None:
        """The verified artifact for ``job``, or None if absent/torn.

        Raises:
            ExperimentError: if the slot is occupied by a different spec;
                the message names both kinds and tells a *foreign file*
                (the recorded spec does not hash to this key) from a
                genuine SHA-256 *collision*.
        """
        path = self.path_for(job)
        entry = _read_entry(path)
        if entry is None:
            return None
        recorded = entry.get("job")
        if recorded != job.spec():
            found_kind = (
                recorded.get("kind") if isinstance(recorded, Mapping) else None
            )
            try:
                collision = Job.from_spec(recorded).job_hash() == job.job_hash()
            except ExperimentError:
                collision = False
            reason = (
                "the recorded spec hashes to the same key — a SHA-256 "
                "collision between distinct specs"
                if collision
                else "the recorded spec does not hash to this entry's key — "
                "a foreign file is occupying the slot"
            )
            raise ExperimentError(
                f"cache entry {path} was written by a different job spec "
                f"(found kind {found_kind!r}, expected kind {job.kind!r}; "
                f"{reason}); clear the cache directory or use a fresh one"
            )
        return Artifact(
            job=job, result=entry["result"], path=path, store_root=self.root
        )

    def load(self, job_hash: str) -> Artifact | None:
        """Load an entry by bare hash, verifying its embedded provenance.

        The embedded spec must hash back to the file's own name — an entry
        that fails this is a foreign or tampered file and raises, because
        serving it would attribute a result to a spec that never produced
        it. Torn/absent entries return None. The file is read and decoded
        once, so a replace landing mid-load cannot pair one file's spec
        with another's result.
        """
        path = self.path_for(job_hash)
        entry = _read_entry(path)
        if entry is None:
            return None
        job = Job.from_spec(entry.get("job"))
        if job.job_hash() != str(job_hash):
            raise ExperimentError(
                f"artifact {path} embeds a spec of kind {job.kind!r} that "
                f"hashes to {job.job_hash()[:16]}..., not to its own file "
                "name — a foreign or tampered entry"
            )
        return Artifact(
            job=job, result=entry["result"], path=path, store_root=self.root
        )

    # ------------------------------------------------------------------ #
    # enumeration
    # ------------------------------------------------------------------ #
    def hashes(self) -> list[str]:
        """The content addresses currently stored (sorted)."""
        if not self.root.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.root.glob("*.json")
            if len(path.stem) == _HASH_HEX_LENGTH
        )

    def artifacts(self) -> Iterator[Artifact]:
        """Iterate every readable artifact (torn entries skipped)."""
        for key in self.hashes():
            artifact = self.load(key)
            if artifact is not None:
                yield artifact

    def __len__(self) -> int:
        return len(self.hashes())

    def __iter__(self) -> Iterator[Artifact]:
        return self.artifacts()


def _read_entry(path: Path) -> Mapping | None:
    """The decoded ``{"job", "result"}`` mapping of the entry at ``path``,
    or None if the file is absent, truncated, byte-corrupt or not an
    entry."""
    try:
        entry = load_json(path)
    except (ValueError, OSError):
        # ValueError covers JSONDecodeError and UnicodeDecodeError.
        return None
    if not isinstance(entry, Mapping) or "result" not in entry:
        return None
    return entry
