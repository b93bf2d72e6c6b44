"""Quarantine for records the parser rejects.

"On Automatic Parsing of Log Records" motivates quarantining unparseable
inputs instead of dropping them: a record the pipeline cannot trust is
still evidence (of a hostile server, a charset bug, a truncated fetch)
and must stay queryable.  :class:`RecordGate` decides which fetched
thick records to reject -- structurally garbled ones (empty bodies,
NULs, mojibake) and, when the parser exposes posterior marginals,
records whose label confidence collapses (the signature of truncation
and format damage).  Rejected records become :class:`QuarantinedRecord`
rows in the survey store's quarantine table instead of silently
counting as ``ok``.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from repro import obs
from repro.errors import CrawlError, GarbledRecord, Truncated


@dataclass(frozen=True)
class QuarantinedRecord:
    """One rejected record: the domain, the raw text, and the typed
    reason it was rejected."""

    domain: str
    text: str
    error: CrawlError

    @property
    def reason(self) -> str:
        """The stable taxonomy code of the rejection error."""
        return self.error.code


def _suspicious_fraction(text: str) -> float:
    """Fraction of characters that read as binary damage: NULs, other
    control characters (beyond whitespace), and U+FFFD replacements."""
    if not text:
        return 1.0
    bad = 0
    for ch in text:
        if ch in "\n\r\t":
            continue
        if ch == "�" or unicodedata.category(ch) in ("Cc", "Co"):
            bad += 1
    return bad / len(text)


@dataclass(frozen=True)
class RecordGate:
    """The admission test a fetched thick record must pass.

    Structural checks are parser-free: empty bodies and binary/mojibake
    damage are :class:`GarbledRecord`.  With ``min_mean_confidence`` set
    and a parser exposing ``line_confidences`` (the statistical parser's
    posterior marginals), records whose mean Viterbi-label marginal
    falls below the threshold are :class:`Truncated` -- damaged input
    makes the CRF hedge, which is exactly the low-confidence routing
    Section 5.3 implies.
    """

    max_suspicious_fraction: float = 0.005
    min_lines: int = 3
    min_mean_confidence: float | None = None
    #: truncation bites hardest at the end of the record: the minimum
    #: marginal over the last ``tail_lines`` lines must clear this
    #: (defaults to min_mean_confidence when unset)
    min_tail_confidence: float | None = None
    tail_lines: int = 2

    def inspect_text(self, domain: str, text: str | None) -> CrawlError | None:
        """Parser-free structural check; None means admissible."""
        if text is None or not text.strip():
            return GarbledRecord(
                f"empty thick record for {domain}", domain=domain
            )
        if _suspicious_fraction(text) > self.max_suspicious_fraction:
            return GarbledRecord(
                f"binary/mojibake damage in thick record for {domain}",
                domain=domain,
            )
        if len([ln for ln in text.splitlines() if ln.strip()]) < self.min_lines:
            return Truncated(
                f"thick record for {domain} is implausibly short",
                domain=domain,
            )
        return None

    def inspect_confidence(
        self, domain: str, text: str, parser
    ) -> CrawlError | None:
        """Marginal-confidence check, for parsers that expose it."""
        if self.min_mean_confidence is None and self.min_tail_confidence is None:
            return None
        line_confidences = getattr(parser, "line_confidences", None)
        if line_confidences is None:
            return None
        scored = line_confidences(text)
        if not scored:
            return GarbledRecord(
                f"no labelable lines in thick record for {domain}",
                domain=domain,
            )
        mean = sum(c for _, _, c in scored) / len(scored)
        obs.observe("resilience.gate.mean_confidence", mean)
        if self.min_mean_confidence is not None and mean < self.min_mean_confidence:
            return Truncated(
                f"parser confidence {mean:.3f} below "
                f"{self.min_mean_confidence:.3f} for {domain} "
                "(truncated or damaged record)",
                domain=domain,
            )
        tail_floor = (
            self.min_tail_confidence
            if self.min_tail_confidence is not None
            else self.min_mean_confidence
        )
        tail = min(c for _, _, c in scored[-self.tail_lines:])
        if tail_floor is not None and tail < tail_floor:
            return Truncated(
                f"parser confidence {tail:.3f} on the record tail below "
                f"{tail_floor:.3f} for {domain} (record cut mid-stream)",
                domain=domain,
            )
        return None

    def inspect(self, domain: str, text: str | None, parser=None) -> CrawlError | None:
        """Full admission test; None means the record is trusted."""
        error = self.inspect_text(domain, text)
        if error is None and parser is not None and text is not None:
            error = self.inspect_confidence(domain, text, parser)
        return error
