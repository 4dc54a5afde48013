"""Content-addressed artifact store: every result carries its provenance.

An :class:`ArtifactStore` is a directory of ``<job_hash>.json`` entries,
each the ``{"job": spec, "result": payload}`` file that
:func:`repro.experiments.scheduler.write_result_entry` writes. Blob
sidecars (DRL checkpoints) live under ``<root>/checkpoints/<job_hash>.npz``,
recorded *store-relative* in result payloads (:meth:`Artifact.checkpoint`
resolves them) so a store rsynced to another machine stays internally
consistent.

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
from repro.experiments.scheduler import (
    MISSING_RESULT,
    Job,
    execute_job,
    load_result_entry,
    read_result_entry,
    result_entry,
)
from repro.utils.serialization import write_json_durably

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

    The store is safe for concurrent writers (every write goes through the
    unique-temp-name + fsync + rename codec) and requires no locking to
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
        text = write_json_durably(path, result_entry(job, result))
        # Hand back what later readers will see: the JSON round trip of
        # the entry just written, decoded from memory (identical — floats
        # survive the wire exactly — but e.g. tuples have become lists).
        stored = json.loads(text)["result"]
        return Artifact(job=job, result=stored, path=path, store_root=self.root)

    def get(self, job: Job) -> Artifact | None:
        """The verified artifact for ``job``, or None if absent/torn.

        Raises:
            ExperimentError: if the slot is occupied by a different spec
                (foreign file vs hash collision, per
                :func:`~repro.experiments.scheduler.read_result_entry`).
        """
        path = self.path_for(job)
        result = read_result_entry(path, job)
        if result is MISSING_RESULT:
            return None
        return Artifact(job=job, result=result, path=path, store_root=self.root)

    def load(self, job_hash: str) -> Artifact | None:
        """Load an entry by bare hash, verifying its embedded provenance.

        The embedded spec must hash back to the file's own name — an entry
        that fails this is a foreign or tampered file and raises, because
        serving it would attribute a result to a spec that never produced
        it. Torn/absent entries return None.
        """
        path = self.path_for(job_hash)
        entry = load_result_entry(path)
        if entry is MISSING_RESULT:
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
