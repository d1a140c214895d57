"""One process-wide memo for results that depend only on a field's value.

Fields compare and hash by their minimal polynomial, so a result built for
one field object is valid for every equal one. Entries live for the life of
the process.
"""

import threading

_store = {}
_lock = threading.Lock()


def per_field(kind, field, build, *extra):
    """The value stored under (kind, field.min_poly, *extra); build() on a miss.

    build() runs outside the lock, so a build that needs another entry cannot
    deadlock. When two builds race, the first value stored wins and every
    caller returns it.
    """
    key = (kind, field.min_poly) + extra
    try:
        return _store[key]
    except KeyError:
        pass
    value = build()
    with _lock:
        return _store.setdefault(key, value)
