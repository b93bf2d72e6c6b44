"""One comparable schema over both protocols.

The auditor never diffs raw protocol payloads against each other: a
WHOIS parse and an RDAP object both lower into a
:class:`ComparableRecord` first, through the same
:mod:`repro.survey.normalize` canonicalizers the survey uses.  That
shared normalization is what makes a field-level disagreement mean
"the registrar's two front doors answer differently" rather than "the
two protocols spell the same answer differently":

- dates become :class:`datetime.date` (WHOIS date strings already parse
  on ingest; RDAP events carry ISO dates);
- statuses collapse across the EPP-camelCase / RFC 8056 vocabularies,
  with pure liveness tokens ("ok", "Active") dropped -- several schema
  families print those unconditionally;
- nameservers case-fold into sets, so ordering and the icann family's
  upper-casing cannot manufacture disagreements;
- registrars canonicalize to the survey's display names;
- registrant contacts keep the survey's privacy detection, so redacted
  records can be excluded from contact comparison instead of flagged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING

from repro.rdap.convert import rdap_from_json
from repro.survey.normalize import (
    canonical_country,
    canonical_nameservers,
    canonical_registrar,
    canonical_statuses,
    detect_privacy_service,
)

if TYPE_CHECKING:
    from repro.parser.fields import ParsedRecord
    from repro.rdap.schema import RdapDomain

__all__ = ["ComparableRecord", "comparable_from_parsed", "comparable_from_rdap"]


def _clean(text: str | None) -> str | None:
    """Whitespace-collapsed, case-folded free text (None when empty)."""
    if not text:
        return None
    folded = " ".join(text.split()).casefold()
    return folded or None


#: _find_email checks outward from each "@"; one search for the whole
#: address (``[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+``) retries every start
#: of a long local-part run and is quadratic in it
_EMAIL_LOCAL_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._%+-"
)
_EMAIL_HOST = re.compile(r"[A-Za-z0-9.-]+")
_PAREN_TAIL = re.compile(r"\s*\([^()]*\)\s*$")


def _clean_person(text: str | None) -> str | None:
    """A contact name/org, decoration-tolerant.

    Schema families decorate contact lines -- a trailing parenthesized
    email after the name, a corporate-suffix period that the template
    does or doesn't print (``K.K`` vs ``K.K.``).  Those are renderings
    of the same answer, not cross-protocol disagreements, so both sides
    shed them before comparison.
    """
    if not text:
        return None
    stripped = _PAREN_TAIL.sub("", text)
    cleaned = _clean(stripped.rstrip(". "))
    return cleaned


def _find_email(text: str) -> str | None:
    """The leftmost address in ``text``, or None.

    Equals ``re.search(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+", text)``'s
    match in linear time: local-part runs end at the first ``@``, so the
    first ``@`` with a local character before it and a host character
    after it closes the leftmost match.
    """
    at = text.find("@", 1)
    while at != -1:
        if text[at - 1] in _EMAIL_LOCAL_CHARS:
            host = _EMAIL_HOST.match(text, at + 1)
            if host is not None:
                start = at - 1
                while start > 0 and text[start - 1] in _EMAIL_LOCAL_CHARS:
                    start -= 1
                return text[start:host.end()]
        at = text.find("@", at + 1)
    return None


def _clean_email(text: str | None) -> str | None:
    """The address itself, shorn of label words like ``contact``."""
    if not text:
        return None
    address = _find_email(text)
    if address is not None:
        return address.casefold()
    return _clean(text)


@dataclass(frozen=True)
class ComparableRecord:
    """One domain's registration data, protocol-neutral and canonical.

    ``None`` (or an empty set) on any field means "this side did not
    state it" -- the diff engine treats that as incomparable, never as a
    disagreement, because a WHOIS template omitting a field is normal.
    """

    domain: str | None = None
    registrar: str | None = None
    created: date | None = None
    updated: date | None = None
    expires: date | None = None
    statuses: frozenset[str] = frozenset()
    nameservers: frozenset[str] = frozenset()
    registrant_name: str | None = None
    registrant_org: str | None = None
    registrant_country: str | None = None
    registrant_email: str | None = None
    #: a privacy/proxy service shields the registrant on this side
    private: bool = False


def comparable_from_parsed(
    domain: str, parsed: "ParsedRecord"
) -> ComparableRecord:
    """Lower one WHOIS parse into the comparable schema."""
    name = parsed.registrant.get("name")
    org = parsed.registrant.get("org")
    return ComparableRecord(
        domain=_clean(parsed.domain or domain),
        registrar=canonical_registrar(parsed.registrar),
        created=parsed.created,
        updated=parsed.updated,
        expires=parsed.expires,
        statuses=canonical_statuses(parsed.statuses),
        nameservers=canonical_nameservers(parsed.name_servers),
        registrant_name=_clean_person(name),
        registrant_org=_clean_person(org),
        registrant_country=canonical_country(parsed.registrant.get("country")),
        registrant_email=_clean_email(parsed.registrant.get("email")),
        private=detect_privacy_service(name, org) is not None,
    )


def comparable_from_rdap(payload: "dict | RdapDomain") -> ComparableRecord:
    """Lower one RDAP domain object (wire JSON or dataclass) into the
    comparable schema."""
    from repro.rdap.schema import RdapDomain

    obj = payload if isinstance(payload, RdapDomain) else rdap_from_json(payload)
    created = updated = expires = None
    for event in obj.events:
        if event.action == "registration":
            created = event.date
        elif event.action == "last changed":
            updated = event.date
        elif event.action == "expiration":
            expires = event.date
    registrar = None
    registrant = None
    for entity in obj.entities:
        if entity.role == "registrar" and registrar is None:
            registrar = entity
        elif entity.role == "registrant" and registrant is None:
            registrant = entity
    name = registrant.full_name if registrant else None
    org = registrant.organization if registrant else None
    country = registrant.country if registrant else None
    return ComparableRecord(
        domain=_clean(obj.ldh_name),
        registrar=canonical_registrar(registrar.full_name if registrar else None),
        created=created,
        updated=updated,
        expires=expires,
        statuses=canonical_statuses(obj.statuses),
        nameservers=canonical_nameservers(obj.nameservers),
        registrant_name=_clean_person(name),
        registrant_org=_clean_person(org),
        # RDAP jCards carry the ISO code; run it through the same
        # canonicalizer anyway so display spellings also land on codes.
        registrant_country=(canonical_country(country) or (country or "").upper() or None),
        registrant_email=_clean_email(registrant.email if registrant else None),
        private=detect_privacy_service(name, org) is not None,
    )
