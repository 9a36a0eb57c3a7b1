"""Transaction manager tests: undo, savepoints, commit/abort."""

import pytest

from repro.errors import TransactionError
from repro.storage import TransactionManager


class TestLifecycle:
    def test_begin_commit(self):
        manager = TransactionManager()
        txn = manager.begin_detached()
        with manager.activate(txn):
            assert manager.txn_context() == (txn.transaction_id, False)
            manager.commit_detached(txn)
            assert manager.txn_context() == (None, False)
        assert manager.perf.commits == 1

    def test_a_transaction_is_current_only_where_activated(self):
        manager = TransactionManager()
        txn = manager.begin_detached()
        assert manager.current is None
        with manager.activate(txn):
            assert manager.current is txn
        assert manager.current is None

    def test_commit_of_an_ended_transaction_rejected(self):
        manager = TransactionManager()
        txn = manager.begin_detached()
        manager.commit_detached(txn)
        with pytest.raises(TransactionError):
            manager.commit_detached(txn)

    def test_abort_runs_undos_in_reverse(self):
        manager = TransactionManager()
        txn = manager.begin_detached()
        log = []
        with manager.activate(txn):
            manager.record_undo(lambda: log.append("first"))
            manager.record_undo(lambda: log.append("second"))
            manager.abort_detached(txn)
        assert log == ["second", "first"]
        assert manager.perf.aborts == 1

    def test_commit_discards_undos(self):
        manager = TransactionManager()
        txn = manager.begin_detached()
        log = []
        with manager.activate(txn):
            manager.record_undo(lambda: log.append("x"))
            manager.commit_detached(txn)
        assert log == []

    def test_transaction_ids_are_per_manager(self):
        """Regression: ids used to come from a class-global counter, so
        independent databases interleaved their transaction ids (and a
        recovered manager resumed from an unrelated high-water mark)."""
        first = TransactionManager()
        second = TransactionManager()
        assert first.begin_detached().transaction_id == 1
        assert second.begin_detached().transaction_id == 1
        assert first.begin_detached().transaction_id == 2

    def test_start_after_seeds_the_counter(self):
        manager = TransactionManager(start_after=17)
        assert manager.begin_detached().transaction_id == 18

    def test_independent_databases_do_not_share_ids(self):
        from repro import Database
        from repro.workloads import UNIVERSITY_DDL
        db_a = Database(UNIVERSITY_DDL, constraint_mode="off")
        db_b = Database(UNIVERSITY_DDL, constraint_mode="off")
        txn_a = db_a.store.transactions.begin_detached()
        txn_b = db_b.store.transactions.begin_detached()
        assert txn_a.transaction_id == 1
        assert txn_b.transaction_id == 1

    def test_recovered_manager_resumes_past_logged_ids(self):
        from repro import Database
        from repro.workloads import UNIVERSITY_DDL
        db = Database(UNIVERSITY_DDL, constraint_mode="off")
        with db.transaction():
            db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.simulate_crash()
        # the rebuilt manager must not reissue an id the durable log used
        fresh = db.store.transactions.begin_detached()
        assert fresh.transaction_id >= 2

    def test_undo_outside_transaction_is_noop(self):
        manager = TransactionManager()
        manager.record_undo(lambda: (_ for _ in ()).throw(AssertionError))
        # nothing raised, nothing recorded
        assert manager.current is None


class TestSavepoints:
    def test_partial_rollback(self):
        manager = TransactionManager()
        txn = manager.begin_detached()
        log = []
        with manager.activate(txn):
            manager.record_undo(lambda: log.append("a"))
            mark = txn.savepoint()
            manager.record_undo(lambda: log.append("b"))
            manager.record_undo(lambda: log.append("c"))
            txn.rollback_to(mark)
            assert log == ["c", "b"]
            manager.abort_detached(txn)
        assert log == ["c", "b", "a"]

    def test_invalid_savepoint(self):
        manager = TransactionManager()
        txn = manager.begin_detached()
        with pytest.raises(TransactionError):
            txn.rollback_to(5)

    def test_savepoint_on_closed_transaction(self):
        manager = TransactionManager()
        transaction = manager.begin_detached()
        manager.commit_detached(transaction)
        with pytest.raises(TransactionError):
            transaction.savepoint()


class TestDatabaseIntegration:
    def test_abort_restores_entities(self, empty_university):
        db = empty_university
        db.execute('Insert person(name := "Keep", soc-sec-no := 1)')
        db.begin()
        db.execute('Insert person(name := "Drop", soc-sec-no := 2)')
        assert len(db.query("From person Retrieve name")) == 2
        db.abort()
        rows = db.query("From person Retrieve name").rows
        assert rows == [("Keep",)]

    def test_abort_restores_attribute_values(self, empty_university):
        db = empty_university
        db.execute('Insert instructor(name := "I", soc-sec-no := 1,'
                   ' employee-nbr := 1001, salary := 100)')
        db.begin()
        db.execute('Modify instructor(salary := 200) Where employee-nbr = 1001')
        db.abort()
        value = db.query(
            'From instructor Retrieve salary Where employee-nbr = 1001'
        ).scalar()
        assert int(value) == 100

    def test_abort_restores_eva_instances(self, empty_university):
        db = empty_university
        db.execute('Insert person(name := "A", soc-sec-no := 1)')
        db.execute('Insert person(name := "B", soc-sec-no := 2)')
        db.begin()
        db.execute('Modify person(spouse := person with (name = "B"))'
                   ' Where name = "A"')
        db.abort()
        from repro.types.tvl import is_null
        rows = db.query('From person Retrieve name, name of spouse').rows
        assert [name for name, _ in rows] == ["A", "B"]
        assert all(is_null(spouse_name) for _, spouse_name in rows)

    def test_abort_restores_deleted_entities(self, small_university):
        db = small_university
        db.begin()
        db.execute('Delete person Where name = "John Doe"')
        assert len(db.query('From person Retrieve name Where name = "John Doe"')) == 0
        db.abort()
        result = db.query(
            'From student Retrieve name, name of advisor, '
            'count(courses-enrolled) of student Where name = "John Doe"')
        assert result.rows == [("John Doe", "Joe Bloke", 1)]

    def test_transaction_context_manager(self, empty_university):
        db = empty_university
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute('Insert person(name := "X", soc-sec-no := 3)')
                raise RuntimeError("boom")
        assert len(db.query("From person Retrieve name")) == 0
        with db.transaction():
            db.execute('Insert person(name := "Y", soc-sec-no := 4)')
        assert len(db.query("From person Retrieve name")) == 1
