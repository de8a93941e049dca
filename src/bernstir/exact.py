"""Reading and writing the exact rationals every formula module returns.

Python integers are arbitrary precision, and ``fractions.Fraction`` is kept
reduced with a strictly positive denominator, so structural equality of
values coincides with mathematical equality.  Every computation in this
package stays in these two types; nothing ever passes through floating
point.

Every record the package prints, a verification report's included, is
written from one table of `%` templates, RECORDS, by `render`.  An
argument below its fixed lower bound is refused by `check_at_least`, so
that error reads the same wherever it is raised, and a rejected input is
echoed in an error by `quote_rejected`, so that a long one stays short.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")
_ECHO = 40  # characters of rejected input quoted back in the error


def quote_rejected(text: str) -> str:
    """`text` quoted as %r quotes it, cut to its first 40 characters and
    followed by "..." when it is longer: how an error message quotes an
    input it rejects."""
    return repr(text[:_ECHO]) + ("..." if len(text) > _ECHO else "")


def check_at_least(name: str, value: int, low: int) -> None:
    """Raise ValueError("<name> must be >= <low>, got <value>") when
    value < low."""
    if value < low:
        raise ValueError("%s must be >= %d, got %d" % (name, low, value))


def _digits_to_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the str-to-int digit limit, which Decimal lacks
        return int(Decimal(digits))


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into a reduced Fraction.

    The whole text must be ASCII digits with an optional sign on either
    part: no spaces, underscores or non-ASCII digits.  "p/1" is accepted
    and normalizes to "p".  Numerals of any length are accepted.
    """
    match = _RATIONAL.fullmatch(text)
    den = _digits_to_int(match[2]) if match and match[2] else 1
    if match is None or den == 0:
        raise ValueError("not a rational: " + quote_rejected(text))
    return Fraction(_digits_to_int(match[1]), den)


def format_rational(value: Fraction | int) -> str:
    """Render as "p" for integers and "p/q" (q > 0, reduced) otherwise."""
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit, which Decimal lacks
        value = Fraction(value)
        text = str(Decimal(value.numerator))
        return text if value.denominator == 1 else "%s/%s" % (text, Decimal(value.denominator))


# Every command's records as text, per record kind and format: (head,
# record, separator, tail, fields).  `render` writes the head, then one copy
# of the record template per record, joined by the separator and filled by
# one `%` with each record's `fields` (positions in its tuple) in turn, then
# the tail.  A json object template lists its keys sorted, at its depth, so
# json output equals json.dumps(..., sort_keys=True, indent=2); every string
# in it is a wire name or a rational, so nothing needs escaping.
RECORDS = {
    # (n, method, value): B_n by every method
    "bernoulli": {
        "plain": ("", "%s %s\n", "", "", (1, 2)),
        "csv": ("n,method,value\n", "%d,%s,%s\n", "", "", range(3)),
        "json": ("[\n", '  {\n    "method": "%s",\n    "n": %d,\n    "value": "%s"\n  }',
                 ",\n", "\n]\n", (1, 0, 2)),
    },
    # (n, k, value): one Bell value, printed alone in plain
    "bell": {
        "plain": ("", "%s\n", "", "", (2,)),
        "csv": ("n,k,value\n", "%d,%d,%s\n", "", "", range(3)),
        "json": ("[\n", '  {\n    "k": %d,\n    "n": %d,\n    "value": "%s"\n  }',
                 ",\n", "\n]\n", (1, 0, 2)),
    },
    # row n of the triangle: filled with n first, then its cells take (k, S(n, k))
    "stirling": {
        "plain": ("", "%d %%d %%s\n", "", "", None),
        "csv": ("n,k,value\n", "%d,%%d,%%s\n", "", "", None),
        "json": ("[\n", '  {\n    "k": %%d,\n    "n": %d,\n    "value": "%%s"\n  }',
                 ",\n", "\n]\n", None),
    },
    # (n, method, value, micros): bench
    "bench": {
        "plain": ("", "%d %s %s %dus\n", "", "", range(4)),
        "csv": ("n,method,value,micros\n", "%d,%s,%s,%d\n", "", "", range(4)),
        "json": ("[\n", '  {\n    "method": "%s",\n    "micros": %d,\n    "n": %d,\n'
                 '    "value": "%s"\n  }', ",\n", "\n]\n", (1, 3, 0, 2)),
    },
    # (n, method, value, agrees): a verify report's entries, json literals in json
    "entry": {
        "plain": ("n method value agrees\n", "%d %s %s %s\n", "", "", range(4)),
        "csv": ("n,method,value,agrees\n", "%d,%s,%s,%s\n", "", "", range(4)),
        "json": ("[\n", '    {\n      "agrees_with_oracle": %s,\n      "method": "%s",\n'
                 '      "n": %d,\n      "value": %s\n    }', ",\n", "\n  ]", (3, 1, 0, 2)),
    },
    # (n, method): a report's mismatch or known discrepancy
    "pair": {
        "plain": ("", "(%d, %s)", ", ", "", range(2)),
        "json": ("[\n", '      [\n        %d,\n        "%s"\n      ]', ",\n", "\n    ]", range(2)),
    },
    # (identity, instances checked, instances passed)
    "identity": {
        "plain": ("", "identity %s: %d/%d passed\n", "", "", (0, 2, 1)),
        "json": ('    "identities": {\n', '      "%s": {\n        "checked": %d,\n'
                 '        "passed": %d\n      }', ",\n", "\n    },\n", range(3)),
    },
    # (entries, max_n, checked, identities, known, mismatches), each part rendered
    "report": {
        "json": ("", '{\n  "entries": %s,\n  "max_n": %d,\n  "summary": {\n    "checked": %d,\n%s'
                 '    "known_discrepancies": %s,\n    "mismatches": %s\n  }\n}\n',
                 "", "", range(6)),
    },
}
# one method prints its value alone
RECORDS["method"] = {**RECORDS["bernoulli"], "plain": RECORDS["bell"]["plain"]}


def render(kind: str, fmt: str, records: Sequence[tuple]) -> str:
    """`records` of `kind` as a `fmt` document, filled by one `%`."""
    head, record, sep, tail, fields = RECORDS[kind][fmt]
    if not records and fmt == "json":  # an empty list is "[]" in json
        return "[" + tail.lstrip()
    body = sep.join([record] * len(records)) % tuple([r[i] for r in records for i in fields])
    return head + body + tail
