"""The Mapper's write-event hub: one invalidation point, many listeners.

Before this module the store's mutation paths called the read cache's
invalidation methods directly from a dozen hard-coded sites.  Anything
else that needs to observe writes — today the materialized derived
relations (:mod:`repro.mapper.materialized`), tomorrow replication or
change capture — would have needed its own copies of those call sites,
each a missed-invalidation bug waiting to happen.

:class:`WriteNotifier` centralizes them: the store publishes each
mutation *once* (``record_changed``, ``role_changed``, ``eva_changed``,
``note_write``, ``rollback``) and the notifier fans it out to every
registered subscriber.  The read cache subscribes through
:class:`ReadCacheSubscriber`, which maps the events onto its existing
invalidation API, so cache behaviour is unchanged by the refactor.

Locking: the subscriber list is an immutable tuple swapped under
``mapper.writes`` (rank 24); *publishing* reads the tuple without taking
any lock, so events raised while the store holds a unit latch (rank 42)
only ever acquire the subscribers' own lower-ranked locks
(``mapper.materialized`` 22, ``mapper.read_cache`` 20) — descending,
as the declared hierarchy requires.
"""

from __future__ import annotations

from typing import Tuple

from repro.storage.latch import ranked_lock


class WriteSubscriber:
    """Interface write observers implement (all methods optional in
    spirit; the base class makes every event a no-op)."""

    def note_write(self) -> None:
        """A mutation with no finer-grained description."""

    def record_changed(self, class_name: str, surrogate: int) -> None:
        """A role record's DVA values changed."""

    def role_changed(self, class_name: str, surrogate: int) -> None:
        """A role appeared or disappeared (insert/delete/undo)."""

    def eva_changed(self, rel_id: int, domain_surr: int, range_surr: int,
                    added: bool) -> None:
        """A relationship instance was included (``added``) or excluded."""

    def rollback(self) -> None:
        """Transaction-undo surgery or crash recovery rewrote state out
        from under any derived representation: discard everything."""


class ReadCacheSubscriber(WriteSubscriber):
    """Adapts write events onto the read cache's invalidation API."""

    def __init__(self, read_cache):
        self.read_cache = read_cache

    def note_write(self) -> None:
        self.read_cache.note_write()

    def record_changed(self, class_name: str, surrogate: int) -> None:
        self.read_cache.invalidate_record(class_name, surrogate)

    def role_changed(self, class_name: str, surrogate: int) -> None:
        self.read_cache.invalidate_role(class_name, surrogate)

    def eva_changed(self, rel_id: int, domain_surr: int, range_surr: int,
                    added: bool) -> None:
        self.read_cache.invalidate_eva(rel_id, domain_surr, range_surr)

    def rollback(self) -> None:
        self.read_cache.clear()


class WriteNotifier:
    """Publishes Mapper write events to registered subscribers.

    Subscribe order is notification order; the read cache registers
    first so downstream listeners (materializations) never observe a
    state the cache still serves stale.
    """

    def __init__(self):
        self._subscribers: Tuple[WriteSubscriber, ...] = ()
        # Guards subscription changes only — rank 24 (lock_order.py).
        # Publishing iterates the tuple lock-free: tuples are immutable,
        # and a racing subscribe swaps in a fresh tuple atomically.
        self._lock = ranked_lock("mapper.writes")

    def subscribe(self, subscriber: WriteSubscriber) -> WriteSubscriber:
        with self._lock:
            self._subscribers = self._subscribers + (subscriber,)
        return subscriber

    # ------------------------------------------------------------------ events

    def note_write(self) -> None:
        for subscriber in self._subscribers:
            subscriber.note_write()

    def record_changed(self, class_name: str, surrogate: int) -> None:
        for subscriber in self._subscribers:
            subscriber.record_changed(class_name, surrogate)

    def role_changed(self, class_name: str, surrogate: int) -> None:
        for subscriber in self._subscribers:
            subscriber.role_changed(class_name, surrogate)

    def eva_changed(self, rel_id: int, domain_surr: int, range_surr: int,
                    added: bool) -> None:
        for subscriber in self._subscribers:
            subscriber.eva_changed(rel_id, domain_surr, range_surr, added)

    def rollback(self) -> None:
        for subscriber in self._subscribers:
            subscriber.rollback()

    def __repr__(self):
        return f"<WriteNotifier subscribers={len(self._subscribers)}>"
