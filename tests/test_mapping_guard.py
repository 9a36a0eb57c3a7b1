"""Guard on the §5.2 mapping decision (a text scan, like — but much
cheaper than — ``test_read_protocol_guard.py``'s AST sweeps).

Which EVA or MV DVA mapping a pair uses is decided in
``mapper/physical.py`` and turned into a storage object by the class
tables of ``mapper/mappings.py``; every operation after that asks the
object.  So ``EvaMapping.<member>`` / ``MvDvaMapping.<member>`` is
spelled nowhere else under ``src/repro`` — an ``if mapping is …`` chain
growing back in the store, the checker or the cost model fails here.
"""

from __future__ import annotations

import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")
MEMBER = re.compile(r"\b(?:EvaMapping|MvDvaMapping)\.[A-Z]")
TABLES = ("EVA_MAPPINGS", "MV_MAPPINGS")


def member_lines(source: str) -> list:
    """Line numbers that spell a mapping member."""
    return [number for number, line in enumerate(source.splitlines(), 1)
            if MEMBER.search(line)]


def table_lines(source: str) -> set:
    """Line numbers inside the module-level class tables."""
    inside, lines = False, set()
    for number, line in enumerate(source.splitlines(), 1):
        inside = inside or line.startswith(tuple(f"{t} = {{" for t in TABLES))
        if inside:
            lines.add(number)
            inside = line != "}"
    return lines


def stray_members(path: str, source: str) -> list:
    """Members spelled outside the places allowed to name them."""
    if path == os.path.join("mapper", "physical.py"):
        return []
    allowed = (table_lines(source)
               if path == os.path.join("mapper", "mappings.py") else set())
    return [number for number in member_lines(source)
            if number not in allowed]


def test_the_guard_fires():
    source = ("EVA_MAPPINGS = {\n"
              "    EvaMapping.POINTER: PointerEva,\n"
              "}\n"
              "if mapping is EvaMapping.COMMON:\n"
              "    width = MvDvaMapping.ARRAY\n")
    mappings = os.path.join("mapper", "mappings.py")
    assert stray_members(mappings, source) == [4, 5]
    assert stray_members(os.path.join("mapper", "store.py"), source) \
        == [2, 4, 5]


def test_mapping_members_are_spelled_only_where_they_are_decided():
    strays = {}
    for directory, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path) as handle:
                    found = stray_members(os.path.relpath(path, SRC),
                                          handle.read())
                if found:
                    strays[os.path.relpath(path, SRC)] = found
    assert strays == {}
