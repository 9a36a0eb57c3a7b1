"""Temporal data (paper §6): reading the past through the commit epoch.

The paper lists "temporal data" among SIM's work-in-progress extensions.
Opened with ``track_history=True``, a database keeps every committed
version of every record, MV DVA and relationship fan-out, and its clock
is the commit epoch: one step per committed transaction that changed
anything.  The state as of any epoch is then an ordinary Mapper read
pinned to it — salaries before a raise, a student's course list
mid-semester, when an entity acquired a role — and what never committed
leaves no trace.

Run:  python examples/time_travel.py
"""

from repro import Database
from repro.workloads import UNIVERSITY_DDL


def main():
    db = Database(UNIVERSITY_DDL, constraint_mode="off",
                  track_history=True)

    # --- One explicit transaction is one epoch ------------------------------
    with db.transaction():
        db.execute('Insert department(dept-nbr := 100, name := "Physics")')
        db.execute('Insert course(course-no := 101, title := "Mechanics",'
                   ' credits := 6)')
        db.execute('Insert course(course-no := 102, title := "Optics",'
                   ' credits := 6)')
    print(f"t{db.clock}: catalogue loaded (three Inserts, one commit)")

    # --- An auto-committed statement is one epoch ---------------------------
    db.execute('Insert instructor(name := "Prof", soc-sec-no := 1,'
               ' employee-nbr := 1001, salary := 50000)')
    hired_at = db.clock
    print(f"t{hired_at}: Prof hired at 50000")

    db.execute('Modify instructor(salary := 1.1 * salary)'
               ' Where name = "Prof"')
    first_raise = db.clock
    print(f"t{first_raise}: first raise")

    # --- What aborts never happened -----------------------------------------
    db.begin()
    db.execute('Modify instructor(salary := 10 * salary)'
               ' Where name = "Prof"')
    db.abort()
    print(f"t{db.clock}: a tenfold raise was aborted (the clock did not move)")

    db.execute('Modify instructor(salary := 1.2 * salary)'
               ' Where name = "Prof"')
    print(f"t{db.clock}: second raise")

    prof = db.query('From instructor Retrieve instructor'
                    ' Where name = "Prof"').scalar()

    print("\nSalary history:")
    for step in db.attribute_history(prof, "instructor", "salary"):
        print("  ", step.describe())
    print("salary as hired:  ",
          db.value_as_of(prof, "instructor", "salary", hired_at))
    print("after first raise:",
          db.value_as_of(prof, "instructor", "salary", first_raise))
    print("today:            ",
          db.query('From instructor Retrieve salary'
                   ' Where name = "Prof"').scalar())

    # --- Relationship history ----------------------------------------------
    db.execute('Insert student(name := "Sam", soc-sec-no := 2,'
               ' courses-enrolled := course with (title = "Mechanics"))')
    sam = db.query('From student Retrieve student'
                   ' Where name = "Sam"').scalar()
    enrolled_at = db.clock
    db.execute('Modify student(courses-enrolled := include course with'
               ' (title = "Optics")) Where name = "Sam"')
    both_at = db.clock
    db.execute('Modify student(courses-enrolled := exclude'
               ' courses-enrolled with (title = "Mechanics"))'
               ' Where name = "Sam"')

    def titles(surrogates):
        if not surrogates:
            return "(nothing)"
        by_surrogate = dict(
            db.query("From course Retrieve course, title").rows)
        return ", ".join(by_surrogate[s] for s in sorted(surrogates))

    print("\nSam's enrolment over time:")
    for epoch, label in [(enrolled_at, "at enrolment"),
                         (both_at, "after adding Optics"),
                         (db.clock, "after dropping Mechanics")]:
        values = db.value_as_of(sam, "student", "courses-enrolled", epoch)
        print(f"  t{epoch} ({label}): {titles(values)}")
    print("the same relationship, read from the course's side:")
    mechanics = db.query('From course Retrieve course'
                         ' Where title = "Mechanics"').scalar()
    for step in db.attribute_history(mechanics, "course",
                                     "students-enrolled"):
        print("  ", step.describe())

    # --- Role history -------------------------------------------------------
    db.execute('Insert instructor From person Where name = "Sam"'
               ' (employee-nbr := 1002)')
    print("\nSam's roles, version by version:")
    for step in db.role_history(sam):
        print("  ", step.describe())
    print("was Sam an instructor at enrolment time?",
          db.had_role_at(sam, "instructor", enrolled_at))
    print("and now?", db.had_role_at(sam, "instructor", db.clock))
    print("Sam's subroles (a system-maintained attribute) at enrolment:",
          db.value_as_of(sam, "person", "profession", enrolled_at))


if __name__ == "__main__":
    main()
