"""Low-level text analysis for WHOIS lines (Section 3.3).

The paper's features are built from three kinds of signal on each line:

- a *separator* (colon, tab, or a run of dots) splitting the line into a
  field title and a field value (``Registrant Name: John Smith``);
- layout markers (``NL`` for preceding blank lines, ``SHL``/``SHR`` for
  indentation shifts, ``SYM`` for lines starting with symbols like # or %);
- word classes capturing the *shape* of text (five-digit numbers that look
  like U.S. ZIP codes, email addresses, phone numbers, URLs, dates, ...).
"""

from __future__ import annotations

import re

# A separator is the first of: a colon, a tab, or a dot-leader (two or more
# consecutive periods, as in "Created on....: 1997-01-01").  The colon form
# requires either a following space/EOL or a short title prefix, so times
# ("12:30:00") and URLs ("http://") inside values don't get split.
_DOT_LEADER = re.compile(r"\.{2,}:?")
_WORD = re.compile(r"[a-z0-9]+")
# has_email checks outward from each "@"; one search for the whole address
# pattern retries the local-part run from every start, quadratic in length.
_EMAIL_LOCAL_CHAR = re.compile(r"[\w.+-]")
_EMAIL_HOST = re.compile(r"[\w-]+\.[\w-]")
_URL = re.compile(r"(https?://|www\.)\S+", re.IGNORECASE)
_FIVE_DIGIT = re.compile(r"(?<!\d)\d{5}(?!\d)")
_PHONE = re.compile(r"\+?\d[\d\s().-]{6,}\d")
_DATE = re.compile(
    r"(\d{4}[-/.]\d{1,2}[-/.]\d{1,2})|(\d{1,2}[-/.]\d{1,2}[-/.]\d{4})"
    r"|(\d{1,2}-[a-z]{3}-\d{4})",
    re.IGNORECASE,
)
_IPV4 = re.compile(r"(?<!\d)(\d{1,3}\.){3}\d{1,3}(?!\d)")
_DOMAIN = re.compile(
    r"(?<![\w.-])([a-z0-9-]+\.)+(com|net|org|info|biz|io|co|us|uk|cn|jp|de|fr)"
    r"(?![\w-])",
    re.IGNORECASE,
)
_POSTCODE_ALNUM = re.compile(
    r"(?<![\w])([A-Z]{1,2}\d{1,2}[A-Z]?\s?\d[A-Z]{2}|\d{3}-\d{4})(?![\w])"
)

#: gazetteer of country spellings seen in WHOIS records, for the
#: ``CLS:country`` shape feature (a "more general class of words", eq. (7));
#: needed because some templates repeat one field title for every address
#: line and only the content identifies the country line.
_COUNTRY_GAZETTEER: frozenset[str] = frozenset({
    "united states", "united states of america", "usa", "u.s.a.",
    "china", "p.r. china", "united kingdom", "uk", "great britain",
    "germany", "deutschland", "france", "canada", "spain", "espana",
    "australia", "japan", "india", "turkey", "turkiye", "vietnam",
    "viet nam", "russia", "russian federation", "hong kong",
    "netherlands", "the netherlands", "italy", "italia", "brazil",
    "brasil", "south korea", "korea", "republic of korea", "sweden",
    "poland", "polska", "mexico", "switzerland", "denmark", "norway",
    "israel",
    # ISO alpha-2 codes are only matched against a line's *entire* value,
    # so short common words cannot collide.
    "us", "cn", "gb", "de", "fr", "ca", "es", "au", "jp", "in", "tr",
    "vn", "ru", "hk", "nl", "it", "br", "kr", "se", "pl", "mx", "ch",
    "dk", "no", "il",
})


def split_title_value(line: str) -> tuple[str, str, str] | None:
    """Split a line at its first separator into ``(title, value, separator)``.

    Returns ``None`` when no separator is found, in which case every word on
    the line is treated as a value word (suffix ``@V``).
    """
    candidates: list[tuple[int, int, str]] = []  # (position, end, kind)
    tab = line.find("\t")
    if tab != -1:
        candidates.append((tab, tab + 1, "tab"))
    dots = _DOT_LEADER.search(line)
    if dots is not None:
        candidates.append((dots.start(), dots.end(), "dots"))
    colon = _find_colon(line)
    if colon is not None:
        candidates.append((colon, colon + 1, "colon"))
    if not candidates:
        return None
    pos, end, _kind = min(candidates)
    return line[:pos], line[end:], _kind


def _find_colon(line: str) -> int | None:
    """Position of the first title-delimiting colon, skipping URL/time colons."""
    for match in re.finditer(":", line):
        i = match.start()
        rest = line[i + 1 :]
        if rest.startswith("//"):  # http:// inside a value
            continue
        if i + 1 < len(line) and line[i + 1].isdigit() and i > 0 and line[i - 1].isdigit():
            continue  # 12:30:00 timestamps
        return i
    return None


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric words, the paper's dictionary units."""
    return _WORD.findall(text.lower())


def indentation(line: str) -> int:
    """Width of the leading whitespace (tabs count as 4 columns)."""
    width = 0
    for ch in line:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += 4
        else:
            break
    return width


def detect_symbol_start(line: str) -> bool:
    """True when the first non-space character is a symbol such as # or %."""
    stripped = line.lstrip()
    if not stripped:
        return False
    first = stripped[0]
    return not (first.isalnum() or first in "\"'([{<")


def has_email(text: str) -> bool:
    """True when ``text`` contains an email address.

    Equals ``bool(re.search(r"[\\w.+-]+@[\\w-]+(\\.[\\w-]+)+", text))``
    in linear time: the host run after each ``@`` stops at the next
    ``@``, so no character is scanned for more than one ``@``.
    """
    at = text.find("@", 1)
    while at != -1:
        if _EMAIL_LOCAL_CHAR.match(text, at - 1) and _EMAIL_HOST.match(
            text, at + 1
        ):
            return True
        at = text.find("@", at + 1)
    return False


def word_classes(text: str) -> list[str]:
    """Shape features of the form in eq. (7): the classes of text present.

    Class names carry a ``CLS:`` prefix so they can never collide with
    dictionary words.
    """
    classes: list[str] = []
    if has_email(text):
        classes.append("CLS:email")
    if _URL.search(text):
        classes.append("CLS:url")
    if _FIVE_DIGIT.search(text):
        classes.append("CLS:fivedigit")
    if _DATE.search(text):
        classes.append("CLS:date")
    if _IPV4.search(text):
        classes.append("CLS:ipv4")
    if _PHONE.search(text):
        classes.append("CLS:phone")
    if _DOMAIN.search(text):
        classes.append("CLS:domain")
    if _POSTCODE_ALNUM.search(text):
        classes.append("CLS:postcode")
    if text.strip().strip(".").lower() in _COUNTRY_GAZETTEER:
        classes.append("CLS:country")
    letters = [ch for ch in text if ch.isalpha()]
    if letters and all(ch.isupper() for ch in letters):
        classes.append("CLS:allcaps")
    if any(ch.isdigit() for ch in text):
        classes.append("CLS:hasdigit")
    if not any(ch.isdigit() for ch in text) and letters:
        classes.append("CLS:alpha")
    return classes
