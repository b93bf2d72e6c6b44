"""Aggregations reproducing Tables 3-9 and Figures 4-5 of Section 6.

Every table runs on the :class:`~repro.survey.store.SqliteStore` query
API -- grouped counts and streaming iterators -- so the same function
answers from an in-memory survey or a 100x-larger file replica without
materializing entry lists.  Rankings break count ties deterministically
(by key), so tables do not depend on row order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.datagen.countries import country_by_code
from repro.survey.database import SurveyDatabase


@dataclass(frozen=True)
class TableRow:
    """One row of a paper-style ranking table."""

    key: str
    count: int
    share: float  # fraction of the table's total


def _top(counts: Counter, k: int | None) -> list[tuple[str, int]]:
    """Highest-count items, ties broken by key, so the ranking does not
    depend on the order a Counter was filled in."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))
    return ranked if k is None else ranked[:k]


def _ranking(
    counts: Counter, total: int, k: int, *, other_label: str = "(Other)",
    unknown_label: str | None = None, unknown_count: int = 0,
) -> list[TableRow]:
    """Top-k rows plus aggregated (Other) and optional (Unknown) rows."""
    rows = [
        TableRow(key, count, count / total if total else 0.0)
        for key, count in _top(counts, k)
    ]
    other = total - sum(r.count for r in rows) - unknown_count
    if other > 0:
        rows.append(TableRow(other_label, other, other / total))
    if unknown_label is not None and unknown_count > 0:
        rows.append(
            TableRow(unknown_label, unknown_count, unknown_count / total)
        )
    return rows


def _country_name(code: str) -> str:
    try:
        return country_by_code(code).name
    except KeyError:
        return code


def top_registrant_countries(
    db: SurveyDatabase, *, year: int | None = None, k: int = 10
) -> list[TableRow]:
    """Table 3: top registrant countries, excluding privacy-protected
    domains, with an (Unknown) row for records lacking country data."""
    scope = (db.created_in(year) if year is not None else db).public()
    by_code = scope.group_counts("country")
    unknown = by_code.pop(None, 0)
    total = sum(by_code.values()) + unknown
    counts = Counter()
    for code, count in by_code.items():
        counts[_country_name(code)] += count
    return _ranking(counts, total, k,
                    unknown_label="(Unknown)", unknown_count=unknown)


def top_registrars(
    db: SurveyDatabase, *, year: int | None = None, k: int = 10
) -> list[TableRow]:
    """Table 5: top registrars by registrations."""
    scope = db.created_in(year) if year is not None else db
    by_registrar = scope.group_counts("registrar")
    counts = Counter()
    for registrar, count in by_registrar.items():
        counts[registrar or "(Unknown)"] += count
    return _ranking(counts, sum(counts.values()), k)


def top_privacy_services(db: SurveyDatabase, *, k: int = 10) -> list[TableRow]:
    """Table 7: top privacy protection services among protected domains."""
    counts = db.private().group_counts("privacy_service")
    counts.pop(None, None)
    return _ranking(counts, sum(counts.values()), k)


def privacy_by_registrar(db: SurveyDatabase, *, k: int = 10) -> list[TableRow]:
    """Table 6: registrars through which protected domains were registered."""
    by_registrar = db.private().group_counts("registrar")
    counts = Counter()
    for registrar, count in by_registrar.items():
        counts[registrar or "(Unknown)"] += count
    return _ranking(counts, sum(counts.values()), k)


def privacy_rate(db: SurveyDatabase) -> float:
    """Overall fraction of domains using privacy protection (paper: ~20%)."""
    total = len(db)
    if not total:
        return 0.0
    return len(db.private()) / total


def brand_companies(db: SurveyDatabase) -> list[TableRow]:
    """Table 4: well-known brand companies with the most com domains."""
    counts = db.group_counts("brand")
    counts.pop(None, None)
    total = sum(counts.values())
    return [
        TableRow(brand, count, count / total if total else 0.0)
        for brand, count in _top(counts, None)
    ]


def dbl_countries(db: SurveyDatabase, *, year: int = 2014,
                  k: int = 10) -> list[TableRow]:
    """Table 8: registrant countries of blacklisted domains created in
    ``year``."""
    return top_registrant_countries(db.blacklisted(), year=year, k=k)


def dbl_registrars(db: SurveyDatabase, *, year: int = 2014,
                   k: int = 10) -> list[TableRow]:
    """Table 9: registrars of blacklisted domains created in ``year``."""
    return top_registrars(db.blacklisted(), year=year, k=k)


def creation_histogram(db: SurveyDatabase) -> dict[int, int]:
    """Figure 4a: number of domains created per year."""
    counts = db.group_counts("creation_year")
    counts.pop(None, None)
    return dict(sorted(counts.items()))


def country_proportions_by_year(
    db: SurveyDatabase,
    *,
    countries: tuple[str, ...] = ("US", "CN", "GB", "FR", "DE"),
    min_year: int = 1995,
) -> dict[int, dict[str, float]]:
    """Figure 4b: per-year breakdown into the five largest registrant
    countries, privacy-protected, unknown, and other.

    A single streaming pass over the store: per-year Counters are tiny
    (a handful of buckets per year), so this never materializes entries
    even against a replica larger than RAM.
    """
    by_year: dict[int, Counter] = {}
    totals: Counter = Counter()
    for entry in db:
        year = entry.creation_year
        if year is None or year < min_year:
            continue
        bucket = by_year.setdefault(year, Counter())
        totals[year] += 1
        if entry.is_private:
            bucket["Private"] += 1
        elif entry.country is None:
            bucket["Unknown"] += 1
        elif entry.country in countries:
            bucket[entry.country] += 1
        else:
            bucket["Other"] += 1
    result: dict[int, dict[str, float]] = {}
    for year in sorted(by_year):
        total = totals[year]
        result[year] = {
            key: count / total for key, count in sorted(by_year[year].items())
        }
    return result


def registrar_country_mix(
    db: SurveyDatabase, registrar: str, *, k: int = 3
) -> list[TableRow]:
    """Figure 5: top registrant countries for one registrar.

    Records lacking country data appear as ``[]``, as in the paper's plot.
    """
    by_code = db.public().registered_with(registrar).group_counts("country")
    counts = Counter()
    for code, count in by_code.items():
        counts[code if code else "[]"] += count
    total = sum(counts.values())
    return [
        TableRow(code, count, count / total if total else 0.0)
        for code, count in _top(counts, k)
    ]
