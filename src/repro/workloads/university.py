"""The UNIVERSITY database of the paper's §7, plus a data generator.

``UNIVERSITY_DDL`` is the example schema verbatim (with the paper's two
internal typos normalized to the schema's own spellings: the DML examples
say ``student-no``/``prerequisite`` where §7 declares ``student-nbr``/
``prerequisites``).

:func:`build_university` creates a database and fills it with a
deterministic synthetic population that respects every schema constraint
(advisor limits, course-load limits, credit sums), so it can be built with
VERIFY enforcement on.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.database import Database
from repro.mapper.physical import PhysicalDesign
from repro.types.dates import SimDate

UNIVERSITY_DDL = """
(* The UNIVERSITY database, paper section 7 / figure 2. *)

Type degree = symbolic (BS, MBA, MS, PHD);
Type id-number = integer (1001..39999, 60001..99999);

Class Person (
  name: string[30];
  soc-sec-no: integer, unique, required;
  birthdate: date;
  spouse: person inverse is spouse;
  profession: subrole (student, instructor) mv );

Subclass Student of Person (
  student-nbr: id-number;
  advisor: instructor inverse is advisees;
  instructor-status: subrole (teaching-assistant);
  courses-enrolled: course inverse is students-enrolled mv (distinct);
  major-department: department );

Verify v1 on Student
  assert sum(credits of courses-enrolled) >= 12
  else "student is taking too few credits";

Subclass Instructor of Person (
  employee-nbr: id-number unique required;
  salary: number[9,2];
  bonus: number[9,2];
  student-status: subrole (teaching-assistant);
  advisees: student inverse is advisor mv (max 10);
  courses-taught: course inverse is teachers mv (max 3, distinct);
  assigned-department: department inverse is instructors-employed );

Verify v2 on Instructor
  assert salary + bonus < 100000
  else "instructor makes too much money";

Subclass Teaching-Assistant of Student and Instructor (
  teaching-load: integer (1..20) );

Class Course (
  course-no: integer (1..9999) unique required;
  title: string[30] required;
  credits: integer (1..15) required;
  students-enrolled: student inverse is courses-enrolled mv;
  teachers: instructor inverse is courses-taught mv (max 7);
  prerequisites: course inverse is prerequisite-of mv;
  prerequisite-of: course inverse is prerequisites mv );

Class Department (
  dept-nbr: integer (100..999) required unique;
  name: string[30] required;
  instructors-employed: instructor inverse is assigned-department mv;
  courses-offered: course mv );
"""

#: The canonical UNIVERSITY workload: one query per major DML form of §4
#: (retrieval, implicit joins, TYPE 3 target paths, TYPE 2 existentials,
#: aggregates, quantifiers, ISA tests, AS role conversion, transitive
#: closure).  The lint sweep (``tests/test_analysis.py``) iterates this
#: list; all of them compile without a single simcheck error or warning.
UNIVERSITY_QUERIES = [
    "From student Retrieve name, student-nbr",
    "From student Retrieve name, name of advisor",
    "From student Retrieve name, title of courses-enrolled",
    "From instructor Retrieve name, salary Where salary + bonus > 50000",
    "From student Retrieve name Where credits of courses-enrolled > 3",
    "From student Retrieve name, sum(credits of courses-enrolled)",
    "From instructor Retrieve name, count(advisees)",
    "From instructor Retrieve name"
    " Where 3 = some(credits of courses-taught)",
    'From person Retrieve name'
    ' Where person isa instructor and not person isa student',
    "From student Retrieve name, teaching-load of student as"
    " teaching-assistant",
    "Retrieve title of Transitive(prerequisites) of course"
    ' Where course-no of course = 101',
    "From student, instructor Retrieve name of student, name of instructor"
    " Where advisor of student = instructor",
]

_FIRST = ["John", "Jane", "Joe", "Ada", "Alan", "Grace", "Edsger", "Barbara",
          "Donald", "Leslie", "Tony", "Edgar", "Kristen", "Niklaus", "Dana",
          "Frances", "Ken", "Dennis", "Robin", "Radia"]
_LAST = ["Doe", "Roe", "Bloke", "Lovelace", "Turing", "Hopper", "Dijkstra",
         "Liskov", "Knuth", "Lamport", "Hoare", "Codd", "Nygaard", "Wirth",
         "Scott", "Allen", "Thompson", "Ritchie", "Milner", "Perlman"]
_DEPTS = ["Physics", "Math", "Chemistry", "Biology", "History", "Music",
          "Economics", "Philosophy", "Astronomy", "Geology"]
_SUBJECTS = ["Algebra", "Calculus", "Mechanics", "Optics", "Logic",
             "Number Theory", "Topology", "Statistics", "Thermodynamics",
             "Field Theory", "Analysis", "Geometry"]


def _name(rng: random.Random, index: int) -> str:
    return (f"{_FIRST[index % len(_FIRST)]} "
            f"{_LAST[(index // len(_FIRST) + index) % len(_LAST)]}"
            f"{'' if index < 400 else ' ' + str(index)}")


def build_university(departments: int = 4, instructors: int = 10,
                     students: int = 40, courses: int = 20,
                     ta_fraction: float = 0.1, seed: int = 7,
                     design: Optional[PhysicalDesign] = None,
                     constraint_mode: str = "off",
                     use_optimizer: bool = True) -> Database:
    """Create and populate a UNIVERSITY database deterministically."""
    database = Database(UNIVERSITY_DDL, design=design,
                        constraint_mode=constraint_mode,
                        use_optimizer=use_optimizer)
    populate_university(database, departments, instructors, students,
                        courses, ta_fraction, seed)
    return database


def populate_university(database: Database, departments: int = 4,
                        instructors: int = 10, students: int = 40,
                        courses: int = 20, ta_fraction: float = 0.1,
                        seed: int = 7) -> Dict[str, List[int]]:
    """Populate through the Mapper (fast path); constraint-respecting.

    Returns the surrogates created, keyed by class name.
    """
    rng = random.Random(seed)
    store = database.store
    schema = database.schema

    person = schema.get_class("person")
    student = schema.get_class("student")
    instructor = schema.get_class("instructor")
    course = schema.get_class("course")

    advisor_eva = student.attribute("advisor")
    enrolled_eva = student.attribute("courses-enrolled")
    major_eva = student.attribute("major-department")
    taught_eva = instructor.attribute("courses-taught")
    assigned_eva = instructor.attribute("assigned-department")
    prereq_eva = course.attribute("prerequisites")
    offered_eva = schema.get_class("department").attribute("courses-offered")
    spouse_eva = person.attribute("spouse")

    created: Dict[str, List[int]] = {
        "department": [], "instructor": [], "student": [], "course": [],
        "teaching-assistant": []}
    ssn = 100000000

    for index in range(departments):
        surrogate = store.insert_entity("department", {
            "dept-nbr": 100 + index,
            "name": _DEPTS[index % len(_DEPTS)] + (
                "" if index < len(_DEPTS) else f" {index}"),
        })
        created["department"].append(surrogate)

    for index in range(instructors):
        ssn += rng.randint(1, 50)
        surrogate = store.insert_entity("instructor", {
            "name": _name(rng, index),
            "soc-sec-no": ssn,
            "birthdate": SimDate(1930 + rng.randint(0, 40),
                                 rng.randint(1, 12), rng.randint(1, 28)),
            "employee-nbr": 1001 + index,
            "salary": 30000 + rng.randint(0, 500) * 100,
            "bonus": rng.randint(0, 80) * 100,
        })
        store.eva_include(surrogate, assigned_eva,
                          rng.choice(created["department"]))
        created["instructor"].append(surrogate)

    taught_count = {surr: 0 for surr in created["instructor"]}
    for index in range(courses):
        subject = _SUBJECTS[index % len(_SUBJECTS)]
        level = index // len(_SUBJECTS) + 1
        surrogate = store.insert_entity("course", {
            "course-no": 101 + index,
            "title": f"{subject} {'I' * min(level, 3) or 'I'}"
                     if level <= 3 else f"{subject} {level}",
            "credits": rng.randint(2, 5),
        })
        # Prerequisites among earlier courses (a DAG by construction).
        for earlier in rng.sample(created["course"],
                                  min(len(created["course"]),
                                      rng.randint(0, 2))):
            store.eva_include(surrogate, prereq_eva, earlier)
        # 1-2 teachers, respecting MAX 3 courses per instructor.
        eligible = [i for i in created["instructor"] if taught_count[i] < 3]
        for teacher in rng.sample(eligible, min(len(eligible),
                                                rng.randint(1, 2))):
            store.eva_include(teacher, taught_eva, surrogate)
            taught_count[teacher] += 1
        store.eva_include(rng.choice(created["department"]), offered_eva,
                          surrogate)
        created["course"].append(surrogate)

    advisee_count = {surr: 0 for surr in created["instructor"]}
    for index in range(students):
        ssn += rng.randint(1, 50)
        surrogate = store.insert_entity("student", {
            "name": _name(rng, index + instructors),
            "soc-sec-no": ssn,
            "birthdate": SimDate(1950 + rng.randint(0, 25),
                                 rng.randint(1, 12), rng.randint(1, 28)),
            "student-nbr": 2001 + index,
        })
        eligible = [i for i in created["instructor"] if advisee_count[i] < 10]
        if eligible:
            advisor = rng.choice(eligible)
            store.eva_include(surrogate, advisor_eva, advisor)
            advisee_count[advisor] += 1
        store.eva_include(surrogate, major_eva,
                          rng.choice(created["department"]))
        # Enroll until the credit sum satisfies VERIFY v1 (>= 12).
        credits = 0
        candidates = list(created["course"])
        rng.shuffle(candidates)
        credits_attr = course.attribute("credits")
        for candidate in candidates:
            if credits >= 12:
                break
            store.eva_include(surrogate, enrolled_eva, candidate)
            credits += store.read_dva(candidate, credits_attr)
        created["student"].append(surrogate)

    # Promote a fraction of students to teaching assistants (they gain the
    # INSTRUCTOR role on the way, per the insertion-path rule).
    ta_count = int(students * ta_fraction)
    for index, surrogate in enumerate(created["student"][:ta_count]):
        store.add_role(surrogate, "instructor", {
            "employee-nbr": 60001 + index,
            "salary": 12000 + rng.randint(0, 50) * 100,
            "bonus": 0,
        })
        store.eva_include(surrogate, assigned_eva,
                          rng.choice(created["department"]))
        store.add_role(surrogate, "teaching-assistant", {
            "teaching-load": rng.randint(1, 20)})
        created["teaching-assistant"].append(surrogate)

    # A few marriages (the reflexive SPOUSE EVA).
    persons = created["instructor"] + created["student"]
    rng.shuffle(persons)
    for left, right in zip(persons[0::2], persons[1::2]):
        if rng.random() < 0.3:
            store.eva_include(left, spouse_eva, right)

    return created
