"""Durable corpus bundles: one directory, one digest.

A corpus bundle is a directory holding every artifact of one generation
run, each in the format its own layer already defines:

- ``vocabulary.json`` — the deep HIPAA vocabulary
  (:mod:`repro.vocab.io`);
- ``policy_store.json`` — the documented store
  (:mod:`repro.policy.store_io`);
- ``rules.json`` — the full modal rulebook (rule DSL + modality +
  citation + weight);
- ``trace.entries.jsonl`` — the labelled audit trace
  (:mod:`repro.audit.io`, truth included);
- ``labels.json`` — the ground-truth journal
  (:class:`~repro.corpus.scenarios.LabelRecord` rows);
- ``clinical_state.json`` — the joinable relations
  (:class:`~repro.explain.relations.ClinicalState`);
- ``CORPUS.json`` — the manifest: format version, spec, counts, and a
  sha256 **digest over the other files' bytes** in a fixed order.

The digest is the determinism contract: the same spec must reproduce the
bundle byte-identically, so CI regenerates a bundle and compares digests
(`repro corpus stats --verify`).  All files are written atomically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import obs
from repro.audit import io as audit_io
from repro.audit.log import AuditLog
from repro.corpus.generate import CorpusRule, CorpusSpec, PolicyCorpus
from repro.corpus.scenarios import CorpusTrace, LabelRecord
from repro.errors import CorpusError
from repro.explain.relations import ClinicalState
from repro.policy import store_io
from repro.policy.store import PolicyStore
from repro.store.manifest import atomic_write_bytes
from repro.vocab import io as vocab_io
from repro.vocab.vocabulary import Vocabulary

#: Manifest file name.
MANIFEST_NAME = "CORPUS.json"

#: Bundle payload files, in digest order (the manifest itself excluded).
BUNDLE_FILES: tuple[str, ...] = (
    "vocabulary.json",
    "policy_store.json",
    "rules.json",
    "trace.entries.jsonl",
    "labels.json",
    "clinical_state.json",
)

#: Current manifest format version.
BUNDLE_FORMAT = 1


def bundle_digest(directory: str | Path) -> str:
    """Sha256 over the bundle payload files' bytes, in fixed order."""
    base = Path(directory)
    hasher = hashlib.sha256()
    for name in BUNDLE_FILES:
        path = base / name
        if not path.is_file():
            raise CorpusError(f"corpus bundle is missing {name!r} under {base}")
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def save_corpus(
    corpus: PolicyCorpus, trace: CorpusTrace, directory: str | Path
) -> str:
    """Write the corpus + trace bundle under ``directory``.

    Returns the bundle digest recorded in the manifest.
    """
    reg = obs.get_registry()
    with reg.span("repro_corpus_save"):
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            base / "vocabulary.json",
            vocab_io.dumps(corpus.vocabulary).encode("utf-8"),
        )
        atomic_write_bytes(
            base / "policy_store.json", store_io.dumps(corpus.store).encode("utf-8")
        )
        rules_payload = {
            "format": BUNDLE_FORMAT,
            "rules": [rule.to_dict() for rule in corpus.rules],
        }
        atomic_write_bytes(
            base / "rules.json",
            json.dumps(rules_payload, indent=2).encode("utf-8"),
        )
        audit_io.save_jsonl(trace.log, base / "trace.entries.jsonl")
        labels_payload = {
            "format": BUNDLE_FORMAT,
            "labels": [label.to_dict() for label in trace.labels],
        }
        atomic_write_bytes(
            base / "labels.json",
            json.dumps(labels_payload, indent=2).encode("utf-8"),
        )
        atomic_write_bytes(
            base / "clinical_state.json",
            json.dumps(trace.state.to_dict(), indent=2).encode("utf-8"),
        )
        digest = bundle_digest(base)
        manifest = {
            "format": BUNDLE_FORMAT,
            "name": corpus.spec.name,
            "spec": corpus.spec.to_dict(),
            "counts": {
                "rules": len(corpus.rules),
                "documented": len(corpus.store),
                "staff": len(corpus.hospital.all_staff()),
                "patients": len(corpus.hospital.patients),
                "practices": len(corpus.hospital.practices),
                "entries": len(trace.log),
                "labels": len(trace.labels),
                "violations": trace.violations,
            },
            "digest": digest,
        }
        atomic_write_bytes(
            base / MANIFEST_NAME,
            json.dumps(manifest, indent=2).encode("utf-8"),
        )
    reg.counter("repro_corpus_bundles_saved_total").inc()
    return digest


class LoadedCorpus:
    """A corpus bundle read back from disk.

    Carries the deserialised artifacts plus the manifest; the generation
    spec is available as :attr:`spec` so callers can regenerate and
    compare digests.
    """

    def __init__(
        self,
        manifest: dict,
        vocabulary: Vocabulary,
        store: PolicyStore,
        rules: tuple[CorpusRule, ...],
        log: AuditLog,
        labels: tuple[LabelRecord, ...],
        state: ClinicalState,
    ) -> None:
        self.manifest = manifest
        self.vocabulary = vocabulary
        self.store = store
        self.rules = rules
        self.log = log
        self.labels = labels
        self.state = state

    @property
    def spec(self) -> CorpusSpec:
        """The generation spec recorded in the manifest."""
        return CorpusSpec.from_dict(self.manifest["spec"])

    @property
    def digest(self) -> str:
        """The bundle digest recorded in the manifest."""
        return str(self.manifest["digest"])


def load_corpus(directory: str | Path, verify: bool = True) -> LoadedCorpus:
    """Read a corpus bundle; ``verify`` recomputes and checks the digest."""
    reg = obs.get_registry()
    with reg.span("repro_corpus_load"):
        base = Path(directory)
        manifest_path = base / MANIFEST_NAME
        if not manifest_path.is_file():
            raise CorpusError(f"no corpus bundle manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid corpus manifest JSON: {exc}") from exc
        if manifest.get("format") != BUNDLE_FORMAT:
            raise CorpusError(
                f"unsupported corpus bundle format {manifest.get('format')!r} "
                f"(expected {BUNDLE_FORMAT})"
            )
        if verify:
            actual = bundle_digest(base)
            expected = manifest.get("digest")
            if actual != expected:
                raise CorpusError(
                    f"corpus bundle digest mismatch under {base}: manifest "
                    f"records {expected!r} but files hash to {actual!r}"
                )
        vocabulary = vocab_io.load(base / "vocabulary.json")
        store = store_io.load(base / "policy_store.json")
        try:
            rules_payload = json.loads(
                (base / "rules.json").read_text(encoding="utf-8")
            )
            rules = tuple(
                CorpusRule.from_dict(item) for item in rules_payload["rules"]
            )
            labels_payload = json.loads(
                (base / "labels.json").read_text(encoding="utf-8")
            )
            labels = tuple(
                LabelRecord.from_dict(item) for item in labels_payload["labels"]
            )
            state = ClinicalState.from_dict(
                json.loads(
                    (base / "clinical_state.json").read_text(encoding="utf-8")
                )
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise CorpusError(f"malformed corpus bundle under {base}: {exc}") from exc
        log = audit_io.load_jsonl(base / "trace.entries.jsonl", name=manifest["name"])
    reg.counter("repro_corpus_bundles_loaded_total").inc()
    return LoadedCorpus(
        manifest=manifest,
        vocabulary=vocabulary,
        store=store,
        rules=rules,
        log=log,
        labels=labels,
        state=state,
    )
