"""The Section 6 survey: registrants, registrars, privacy, blacklists.

The package is layered: :mod:`~repro.survey.store` holds the sqlite
store (in memory or a file replica), :mod:`~repro.survey.database` the
:class:`SurveyDatabase` facade and normalization,
:mod:`~repro.survey.ingest` the one ingest path, and
:mod:`~repro.survey.analysis` / :mod:`~repro.survey.report` the paper's
tables over the store's query API.
"""

from repro.survey.analysis import (
    brand_companies,
    country_proportions_by_year,
    creation_histogram,
    dbl_countries,
    dbl_registrars,
    privacy_by_registrar,
    registrar_country_mix,
    top_privacy_services,
    top_registrant_countries,
    top_registrars,
)
from repro.survey.database import DomainEntry, SurveyDatabase, entry_from_parsed
from repro.survey.ingest import IngestJob, jobs_from_results, sharded_ingest
from repro.survey.normalize import (
    canonical_country,
    canonical_registrar,
    detect_brand,
    detect_privacy_service,
)
from repro.survey.report import (
    format_histogram,
    format_inconsistency_table,
    format_proportions,
    format_table,
)
from repro.survey.store import EntryFilter, SqliteStore

__all__ = [
    "DomainEntry",
    "EntryFilter",
    "IngestJob",
    "SqliteStore",
    "SurveyDatabase",
    "brand_companies",
    "canonical_country",
    "canonical_registrar",
    "country_proportions_by_year",
    "creation_histogram",
    "dbl_countries",
    "dbl_registrars",
    "detect_brand",
    "detect_privacy_service",
    "entry_from_parsed",
    "format_histogram",
    "format_inconsistency_table",
    "format_proportions",
    "format_table",
    "jobs_from_results",
    "privacy_by_registrar",
    "registrar_country_mix",
    "sharded_ingest",
    "top_privacy_services",
    "top_registrant_countries",
    "top_registrars",
]
