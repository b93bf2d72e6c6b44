"""``repro query`` filter flags composing with the PR-7 ``EntryFilter``.

The contract: ``--registrar`` / ``--status`` flags compile into one
:class:`~repro.survey.store.EntryFilter` that answers identically on an
in-memory store and a file replica, ``--thin``/``--full`` select the
payload shape, and contradictory status constraints fail loudly.
"""

import datetime
import json

import pytest

from repro.cli import build_query_filter, main
from repro.survey.database import DomainEntry
from repro.survey.store import SqliteStore


def _entries():
    day = datetime.date(2014, 3, 5)
    return [
        DomainEntry("alpha.com", "GoDaddy", "US", day, None, "A Corp", None),
        DomainEntry("bravo.com", "GoDaddy", "US", day,
                    "WhoisGuard", None, None),
        DomainEntry("charlie.com", "eNom", "CN", day, None, "C Org", None,
                    blacklisted=True),
        DomainEntry("delta.com", "eNom", None, None, "PrivacyPost", None,
                    None, blacklisted=True),
    ]


@pytest.fixture(params=("memory", "sqlite"))
def store(request, tmp_path):
    """``memory`` is a ``":memory:"`` store, ``sqlite`` a file replica."""
    if request.param == "memory":
        backend = SqliteStore()
    else:
        backend = SqliteStore(tmp_path / "replica.db", fresh=True)
    for entry in _entries():
        backend.append(
            entry, record={"domain": entry.domain, "registrar": entry.registrar}
        )
    backend.flush()
    yield backend
    backend.close()


def _domains(store, flt):
    return [e.domain for e in store.iter_entries(flt, by_domain=True)]


def test_registrar_flag_filters_both_backends(store):
    flt = build_query_filter("GoDaddy", None)
    assert _domains(store, flt) == ["alpha.com", "bravo.com"]


def test_status_flags_map_to_filter_dimensions(store):
    assert _domains(store, build_query_filter(None, ["private"])) == [
        "bravo.com", "delta.com",
    ]
    assert _domains(store, build_query_filter(None, ["public"])) == [
        "alpha.com", "charlie.com",
    ]
    assert _domains(store, build_query_filter(None, ["blacklisted"])) == [
        "charlie.com", "delta.com",
    ]
    assert _domains(store, build_query_filter(None, ["clean"])) == [
        "alpha.com", "bravo.com",
    ]


def test_flags_compose_conjunctively(store):
    flt = build_query_filter("eNom", ["private", "blacklisted"])
    assert _domains(store, flt) == ["delta.com"]


def test_contradictory_statuses_raise():
    with pytest.raises(ValueError):
        build_query_filter(None, ["private", "public"])
    with pytest.raises(ValueError):
        build_query_filter(None, ["blacklisted", "clean"])
    # Repeating the same constraint is fine, not a contradiction.
    build_query_filter(None, ["private", "private"])


def _replica(tmp_path):
    path = tmp_path / "replica.db"
    backend = SqliteStore(path, fresh=True)
    for entry in _entries():
        backend.append(
            entry, record={"domain": entry.domain, "registrar": entry.registrar}
        )
    backend.close()
    return path


def test_cli_listing_thin_and_full(tmp_path, capsys):
    db = str(_replica(tmp_path))
    assert main(["query", "--db", db, "--status", "private"]) == 0
    thin = capsys.readouterr().out
    assert "bravo.com" in thin and "delta.com" in thin
    assert "alpha.com" not in thin

    assert main(["query", "--db", db, "--status", "private", "--full"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert [row["domain"] for row in payloads] == ["bravo.com", "delta.com"]


def test_cli_point_query_respects_filter(tmp_path, capsys):
    db = str(_replica(tmp_path))
    assert main(["query", "bravo.com", "--db", db, "--status", "private"]) == 0
    capsys.readouterr()
    assert main(["query", "bravo.com", "--db", db, "--status", "public"]) == 1
    assert "excluded by the filter" in capsys.readouterr().err


def test_cli_contradiction_is_a_usage_error(tmp_path, capsys):
    db = str(_replica(tmp_path))
    assert main(
        ["query", "--db", db, "--status", "private", "--status", "public"]
    ) == 2
    assert "contradicts" in capsys.readouterr().err


def test_cli_no_matches_exits_nonzero(tmp_path, capsys):
    db = str(_replica(tmp_path))
    assert main(["query", "--db", db, "--registrar", "NoSuch"]) == 1
    assert "0 matching" in capsys.readouterr().err
