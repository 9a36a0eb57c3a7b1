"""DML parser tests (paper §4 syntax)."""

import pytest
from decimal import Decimal

from repro import parse_dml, parse_expression
from repro.errors import DMLSyntaxError
from repro.dml.ast import (
    Aggregate,
    Binary,
    DeleteStatement,
    EntitySelector,
    Expression,
    FunctionCall,
    InsertStatement,
    IsaTest,
    Literal,
    ModifyStatement,
    Path,
    PathStep,
    Quantified,
    RetrieveQuery,
    Unary,
    children,
    conjuncts,
    walk,
)


class TestRetrieveSyntax:
    def test_minimal(self):
        q = parse_dml("From Student Retrieve Name")
        assert isinstance(q, RetrieveQuery)
        assert q.perspectives[0].class_name == "student"
        assert q.mode == "table" and not q.distinct

    def test_table_distinct(self):
        q = parse_dml("From Student Retrieve Table Distinct Name")
        assert q.distinct

    def test_structure_mode(self):
        q = parse_dml("From Student Retrieve Structure Name")
        assert q.mode == "structure"

    def test_no_from_clause(self):
        q = parse_dml("Retrieve Name of Student")
        assert q.perspectives == []

    def test_multi_perspective_with_vars(self):
        q = parse_dml("From student s1, student s2 Retrieve name of s1")
        assert [p.effective_var for p in q.perspectives] == ["s1", "s2"]

    def test_order_by_before_where(self):
        q = parse_dml("From student Retrieve name Order By name Desc "
                      "Where name neq \"x\"")
        assert q.order_by[0].descending
        assert q.where is not None

    def test_order_by_after_where(self):
        q = parse_dml('From student Retrieve name Where name neq "x" '
                      "Order By name")
        assert not q.order_by[0].descending

    def test_qualification_chain(self):
        q = parse_dml("From Student Retrieve Name of Teachers of "
                      "Courses-Enrolled of Student")
        path = q.targets[0].expression
        assert [s.name for s in path.steps] == [
            "name", "teachers", "courses-enrolled", "student"]

    def test_as_role_conversion(self):
        q = parse_dml("From Student Retrieve Teaching-Load of Student as "
                      "Teaching-Assistant")
        assert q.targets[0].expression.steps[-1].as_class == \
            "teaching-assistant"

    def test_inverse_construct(self):
        q = parse_dml("From instructor Retrieve name of INVERSE(advisor)")
        step = q.targets[0].expression.steps[1]
        assert step.inverse_of and step.name == "advisor"

    def test_transitive_construct(self):
        q = parse_dml("Retrieve Title of Transitive(prerequisites) of Course")
        step = q.targets[0].expression.steps[1]
        assert step.transitive and step.name == "prerequisites"

    def test_parenthetic_factoring(self):
        q = parse_dml("From person Retrieve (name, birthdate) of spouse")
        assert len(q.targets) == 2
        assert [s.name for s in q.targets[0].expression.steps] == [
            "name", "spouse"]
        assert [s.name for s in q.targets[1].expression.steps] == [
            "birthdate", "spouse"]


class TestExpressions:
    def test_precedence_and_or_not(self):
        e = parse_expression("a = 1 or b = 2 and not c = 3")
        assert e.op == "or"
        assert e.right.op == "and"
        assert isinstance(e.right.right, Unary)

    def test_arithmetic_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert e.op == "+" and e.right.op == "*"

    def test_decimal_literal(self):
        e = parse_expression("1.1 * salary")
        assert e.left.value == Decimal("1.1")

    def test_comparison_operators(self):
        for op_text, op in [("=", "="), ("<", "<"), (">=", ">="),
                            ("neq", "neq"), ("!=", "neq"), ("<>", "neq")]:
            e = parse_expression(f"a {op_text} 1")
            assert e.op == op

    def test_like(self):
        e = parse_expression('name like "J%"')
        assert e.op == "like"

    def test_isa(self):
        e = parse_expression("instructor isa teaching-assistant")
        assert isinstance(e, IsaTest)
        assert e.class_name == "teaching-assistant"

    def test_aggregate_with_outer_scope(self):
        e = parse_expression("count(courses-taught) of instructor > 3")
        aggregate = e.left
        assert isinstance(aggregate, Aggregate)
        assert aggregate.func == "count"
        assert [s.name for s in aggregate.outer] == ["instructor"]

    def test_count_distinct_both_spellings(self):
        for text in ("count distinct (x)", "count(distinct x)"):
            e = parse_expression(text)
            assert e.distinct

    def test_quantified_comparison(self):
        e = parse_expression("a neq some(b of c)")
        assert isinstance(e.right, Quantified)
        assert e.right.quantifier == "some"

    def test_quantifier_words(self):
        for word in ("some", "all", "no"):
            e = parse_expression(f"a = {word}(b)")
            assert e.right.quantifier == word

    def test_aggregate_name_without_paren_is_path(self):
        e = parse_expression("count of student")
        assert isinstance(e, Path)

    def test_functions(self):
        e = parse_expression('length(name) > 3')
        assert e.left.name == "length"

    def test_unary_minus(self):
        e = parse_expression("-5 + 3")
        assert isinstance(e.left, Unary)


class TestUpdateSyntax:
    def test_insert_plain(self):
        s = parse_dml('Insert person(name := "A", soc-sec-no := 1)')
        assert isinstance(s, InsertStatement)
        assert s.from_class is None
        assert [a.attribute for a in s.assignments] == ["name", "soc-sec-no"]

    def test_insert_without_assignments(self):
        s = parse_dml("Insert person")
        assert s.assignments == []

    def test_insert_from(self):
        s = parse_dml('Insert instructor From person Where name = "X" '
                      '(employee-nbr := 1729)')
        assert s.from_class == "person"
        assert s.from_where is not None

    def test_with_selector(self):
        s = parse_dml('Insert student(advisor := instructor with '
                      '(name = "Joe"))')
        value = s.assignments[0].value
        assert isinstance(value, EntitySelector)
        assert value.name == "instructor"

    def test_include_exclude(self):
        s = parse_dml('Modify student('
                      'courses-enrolled := exclude courses-enrolled with '
                      '(title = "Algebra I"), '
                      'advisor := instructor with (name = "Joe")) '
                      'Where name = "John"')
        assert isinstance(s, ModifyStatement)
        assert s.assignments[0].op == "exclude"
        assert s.assignments[0].value.name == "courses-enrolled"
        assert s.assignments[1].op == "set"

    def test_modify_requires_assignments(self):
        with pytest.raises(DMLSyntaxError):
            parse_dml("Modify student() Where name = \"x\"")

    def test_delete(self):
        s = parse_dml('Delete student Where name = "John Doe"')
        assert isinstance(s, DeleteStatement)
        assert s.class_name == "student"

    def test_delete_without_where(self):
        s = parse_dml("Delete student")
        assert s.where is None


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(DMLSyntaxError):
            parse_dml("From student Retrieve name name2 name3 :=")

    def test_unknown_statement(self):
        with pytest.raises(DMLSyntaxError):
            parse_dml("Upsert student")

    def test_error_carries_position(self):
        try:
            parse_dml("From Retrieve")
        except DMLSyntaxError as exc:
            assert exc.line == 1
        else:
            pytest.fail("expected a syntax error")


# ------------------------------------------------------------ AST traversal


def _path(*names):
    return Path([PathStep(name) for name in names])


#: one instance of every Expression class, unresolved
NODES = {
    Path: lambda: _path("name", "advisor"),
    Literal: lambda: Literal(7),
    Binary: lambda: Binary("+", _path("salary"), Literal(1)),
    Unary: lambda: Unary("not", _path("tenured")),
    Aggregate: lambda: Aggregate("max", _path("birthdate"),
                                 [PathStep("department")]),
    Quantified: lambda: Quantified("some", _path("advisees")),
    IsaTest: lambda: IsaTest(_path("advisor"), "instructor"),
    FunctionCall: lambda: FunctionCall("year", [_path("birthdate"),
                                                Literal(2)]),
}


def _resolved_aggregate():
    """An aggregate after resolution, which adds its ``outer_path``."""
    aggregate = NODES[Aggregate]()
    aggregate.outer_path = _path("department")
    return aggregate


def _expression_fields(node):
    """Every Expression the node holds, directly or in a list."""
    found = []
    for value in vars(node).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, Expression):
                found.append(item)
    return found


class TestTraversal:
    def test_every_expression_class_has_an_instance(self):
        assert set(Expression.__subclasses__()) == set(NODES)

    @pytest.mark.parametrize(
        "build", list(NODES.values()) + [_resolved_aggregate],
        ids=[cls.__name__ for cls in NODES] + ["ResolvedAggregate"])
    def test_children_are_the_expression_valued_fields(self, build):
        node = build()
        assert ([id(child) for child in children(node)]
                == [id(child) for child in _expression_fields(node)])

    def test_resolved_aggregate_yields_its_outer_path_last(self):
        aggregate = _resolved_aggregate()
        assert children(aggregate) == [aggregate.argument,
                                        aggregate.outer_path]

    def test_walk_is_pre_order_left_to_right(self):
        expression = parse_expression(
            "year(max(birthdate of advisees)) = 3 and not x isa y")
        assert [type(node).__name__ for node in walk(expression)] == [
            "Binary", "Binary", "FunctionCall", "Aggregate", "Path",
            "Literal", "Unary", "IsaTest", "Path"]

    def test_walk_skips_the_children_enter_refuses(self):
        expression = parse_expression("max(a of b) + c")
        visited = walk(expression,
                       enter=lambda node: not isinstance(node, Aggregate))
        assert [type(node).__name__ for node in visited] == [
            "Binary", "Aggregate", "Path"]

    def test_conjuncts(self):
        expression = parse_expression("a = 1 and (b = 2 or c = 3) and d")
        assert [node.describe() for node in conjuncts(expression)] == [
            "(a = 1)", "((b = 2) or (c = 3))", "d"]
        assert conjuncts(None) == []
