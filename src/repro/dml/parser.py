"""Recursive-descent parser for SIM DML.

Grammar (paper §4.3, §4.8, and the worked examples)::

    statement  := retrieve | insert | modify | delete
    retrieve   := [FROM perspectives] RETRIEVE [TABLE [DISTINCT] | STRUCTURE]
                  targets [ORDER BY orders] [WHERE expr]
    perspectives := class [var] {"," class [var]}
    targets    := target {"," target}
    target     := "(" expr {"," expr} ")" OF path   -- parenthetic factoring
                | expr
    insert     := INSERT class [FROM class WHERE expr]
                  ["(" assignments ")"]
    modify     := MODIFY class "(" assignments ")" [WHERE expr]
    delete     := DELETE class [WHERE expr]
    assignment := attr ":=" [INCLUDE|EXCLUDE] (selector | expr)
    selector   := name WITH "(" expr ")"

    expr       := or ; or := and {OR and} ; and := not {AND not}
    not        := [NOT] comparison
    comparison := additive [compop rhs] | additive ISA ident
    rhs        := quantified | additive
    quantified := (SOME|ALL|NO) "(" expr ")"
    additive   := multiplicative {("+"|"-") multiplicative}
    multiplicative := unary {("*"|"/") unary}
    unary      := ["-"] primary
    primary    := literal | aggregate | "(" expr ")" | path | func "(" args ")"
    path       := step {OF step}
    step       := [TRANSITIVE "("] [INVERSE "("] ident [")"] [")"]
                  [AS ident]
    aggregate  := (COUNT|SUM|AVG|MIN|MAX) [DISTINCT] "(" expr ")" {OF step}

Keywords are contextual (SIM has no reserved words): ``count`` is an
aggregate only when followed by ``(``, etc.
"""

from __future__ import annotations

from typing import List

from repro.errors import DMLSyntaxError
from repro.lexer import (
    IDENT,
    SYMBOL,
    TokenStream,
    literal,
    literal_sites,
    skeleton,
    tokenize,
)
from repro.dml.ast import (
    Aggregate,
    Assignment,
    Binary,
    DeleteStatement,
    EntitySelector,
    FunctionCall,
    InsertStatement,
    IsaTest,
    Lifted,
    Literal,
    ModifyStatement,
    OrderItem,
    Path,
    PathStep,
    PerspectiveRef,
    Quantified,
    RetrieveQuery,
    TargetItem,
    Unary,
)

_AGGREGATES = ("count", "sum", "avg", "min", "max")
_QUANTIFIERS = ("some", "all", "no")
_FUNCTIONS = ("abs", "length", "upper", "lower", "year", "month", "day")
_COMPARISONS = {"=": "=", "<": "<", ">": ">", "<=": "<=", ">=": ">=",
                "!=": "neq", "<>": "neq"}
#: identifiers that end a path chain when seen bare (clause keywords)
_CLAUSE_WORDS = frozenset((
    "retrieve", "from", "where", "order", "and", "or", "not", "isa",
    "like", "neq", "asc", "desc", "with", "include", "exclude", "by",
    "table", "structure", "distinct", "else", "of", "as",
))


def parse_dml(text: str, cache=None):
    """Parse one DML statement; returns a statement AST node.

    With a plan ``cache`` (:class:`repro.plan_cache.PlanCache`) the
    result is the statement *compiled and bound* instead: the text's
    literal skeleton is the cache key, and only a miss is tokenized and
    parsed (its literals claiming their tokens' slots).  A miss whose
    tokens disagree with the skeleton parses with inline literals and
    is not stored.
    """
    if cache is None:
        return _DMLParser(tokenize(text, DMLSyntaxError)).parse_dml()
    shape, values, offsets = skeleton(text)

    def parse():
        tokens = tokenize(text, DMLSyntaxError)
        parser = _DMLParser(tokens,
                            literal_sites(tokens, text, values, offsets))
        return parser.parse_dml(), parser.lifted
    return cache.bind(shape, values, offsets, text, parse)


def parse_expression(text: str):
    """Parse a standalone selection expression (used for VERIFY assertions)."""
    parser = _DMLParser(tokenize(text, DMLSyntaxError))
    expression = parser.parse_expr()
    parser.expect_done()
    return expression


class _DMLParser:
    def __init__(self, tokens, sites=None):
        self.stream = TokenStream(tokens, DMLSyntaxError)
        #: plan-cache miss: token index -> slot, and the statement's Lifted
        self._slots = {site: slot for slot, site in enumerate(sites or ())}
        self.lifted = None if sites is None else Lifted(len(sites))

    def parse_dml(self):
        statement = self.parse_statement()
        self.expect_done()
        return statement

    # -- Statements --------------------------------------------------------------

    def parse_statement(self):
        if self.stream.check_keyword("from", "retrieve"):
            return self.parse_retrieve()
        if self.stream.accept_keyword("insert"):
            return self.parse_insert()
        if self.stream.accept_keyword("modify"):
            return self.parse_modify()
        if self.stream.accept_keyword("delete"):
            return self.parse_delete()
        self.stream.fail("expected RETRIEVE, FROM, INSERT, MODIFY or DELETE")

    def expect_done(self):
        self.stream.accept_symbol(";")
        if not self.stream.at_end():
            self.stream.fail("unexpected trailing input")

    def parse_retrieve(self) -> RetrieveQuery:
        perspectives: List[PerspectiveRef] = []
        if self.stream.accept_keyword("from"):
            perspectives.append(self._perspective_ref())
            while self.stream.accept_symbol(","):
                perspectives.append(self._perspective_ref())
        self.stream.expect_keyword("retrieve")

        mode = "table"
        distinct = False
        if self.stream.accept_keyword("table"):
            if self.stream.accept_keyword("distinct"):
                distinct = True
        elif self.stream.accept_keyword("structure"):
            mode = "structure"

        targets = self._target_list()

        # §4.3 puts ORDER BY before WHERE; we accept either order.
        order_by: List[OrderItem] = []
        where = None
        while True:
            if not order_by and self.stream.accept_keyword("order"):
                self.stream.expect_keyword("by")
                order_by.append(self._order_item())
                while self.stream.accept_symbol(","):
                    order_by.append(self._order_item())
                continue
            if where is None and self.stream.accept_keyword("where"):
                where = self.parse_expr()
                continue
            break
        return RetrieveQuery(perspectives, targets, where, order_by,
                             mode, distinct)

    def _perspective_ref(self) -> PerspectiveRef:
        class_name = self.stream.expect_ident("perspective class").value
        var_name = None
        if (self.stream.current.kind == IDENT
                and not self.stream.current.is_keyword(*_CLAUSE_WORDS)):
            var_name = self.stream.advance().value
        return PerspectiveRef(class_name, var_name)

    def _target_list(self) -> List[TargetItem]:
        targets: List[TargetItem] = []
        targets.extend(self._target_item())
        while self.stream.accept_symbol(","):
            targets.extend(self._target_item())
        return targets

    def _target_item(self) -> List[TargetItem]:
        # Parenthetic factoring: "(Name, Salary) of Advisor".
        if self.stream.check_symbol("("):
            mark = self.stream.save()
            self.stream.advance()
            inner: List = [self.parse_expr()]
            factored = False
            while self.stream.accept_symbol(","):
                factored = True
                inner.append(self.parse_expr())
            if (self.stream.accept_symbol(")")
                    and factored and self.stream.check_keyword("of")):
                outer: List[PathStep] = []
                while self.stream.accept_keyword("of"):
                    outer.append(self._path_step())
                expanded = []
                for expression in inner:
                    expanded.append(TargetItem(
                        self._append_outer(expression, outer)))
                return expanded
            self.stream.restore(mark)
        return [TargetItem(self.parse_expr())]

    def _append_outer(self, expression, outer: List[PathStep]):
        """Attach a factored outer qualification to one inner expression."""
        if isinstance(expression, Path):
            return Path(expression.steps + list(outer))
        if isinstance(expression, Aggregate):
            expression.outer = list(expression.outer) + list(outer)
            return expression
        self.stream.fail("parenthetic factoring applies to qualifications")

    def _order_item(self) -> OrderItem:
        expression = self.parse_expr()
        descending = False
        if self.stream.accept_keyword("desc"):
            descending = True
        else:
            self.stream.accept_keyword("asc")
        return OrderItem(expression, descending)

    # -- Updates -----------------------------------------------------------------

    def parse_insert(self) -> InsertStatement:
        class_name = self.stream.expect_ident("class name").value
        from_class = None
        from_where = None
        if self.stream.accept_keyword("from"):
            from_class = self.stream.expect_ident("ancestor class").value
            self.stream.expect_keyword("where")
            from_where = self.parse_expr()
        assignments: List[Assignment] = []
        if self.stream.accept_symbol("("):
            if not self.stream.check_symbol(")"):
                assignments.append(self._assignment())
                while self.stream.accept_symbol(","):
                    assignments.append(self._assignment())
            self.stream.expect_symbol(")")
        return InsertStatement(class_name, assignments, from_class, from_where)

    def parse_modify(self) -> ModifyStatement:
        class_name = self.stream.expect_ident("class name").value
        self.stream.expect_symbol("(")
        assignments = [self._assignment()]
        while self.stream.accept_symbol(","):
            assignments.append(self._assignment())
        self.stream.expect_symbol(")")
        where = None
        if self.stream.accept_keyword("where"):
            where = self.parse_expr()
        return ModifyStatement(class_name, assignments, where)

    def parse_delete(self) -> DeleteStatement:
        class_name = self.stream.expect_ident("class name").value
        where = None
        if self.stream.accept_keyword("where"):
            where = self.parse_expr()
        return DeleteStatement(class_name, where)

    def _assignment(self) -> Assignment:
        attr_token = self.stream.expect_ident("attribute name")
        self.stream.expect_symbol(":=")
        op = "set"
        if self.stream.accept_keyword("include"):
            op = "include"
        elif self.stream.accept_keyword("exclude"):
            op = "exclude"
        value = self._assignment_value()
        return Assignment(attr_token.value, op, value,
                          line=attr_token.line, column=attr_token.column)

    def _assignment_value(self):
        """A WITH-selector if one follows, else a plain expression.

        A bare identifier without WITH parses as an ordinary expression;
        the engine treats a single-step path naming the range class of an
        EVA as "all members" when the attribute is entity-valued.
        """
        if self.stream.current.kind == IDENT:
            mark = self.stream.save()
            name = self.stream.advance().value
            if self.stream.accept_keyword("with"):
                self.stream.expect_symbol("(")
                where = self.parse_expr()
                self.stream.expect_symbol(")")
                return EntitySelector(name, where)
            self.stream.restore(mark)
        return self.parse_expr()

    # -- Expressions ----------------------------------------------------------------

    def parse_expr(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self.stream.accept_keyword("or"):
            left = Binary("or", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self.stream.accept_keyword("and"):
            left = Binary("and", left, self._not_expr())
        return left

    def _not_expr(self):
        if self.stream.accept_keyword("not"):
            return Unary("not", self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        if self.stream.accept_keyword("isa"):
            class_name = self.stream.expect_ident("class name").value
            if not isinstance(left, Path):
                self.stream.fail("ISA needs an entity-valued qualification")
            return IsaTest(left, class_name)
        if self.stream.accept_keyword("like"):
            return Binary("like", left, self._additive())
        op = None
        if self.stream.current.kind == SYMBOL and \
                self.stream.current.value in _COMPARISONS:
            op = _COMPARISONS[self.stream.advance().value]
        elif self.stream.accept_keyword("neq"):
            op = "neq"
        if op is None:
            return left
        right = self._comparison_rhs()
        return Binary(op, left, right)

    def _comparison_rhs(self):
        if (self.stream.current.is_keyword(*_QUANTIFIERS)
                and self.stream.peek().matches(SYMBOL, "(")):
            quantifier = self.stream.advance().value
            self.stream.expect_symbol("(")
            argument = self.parse_expr()
            self.stream.expect_symbol(")")
            return Quantified(quantifier, argument)
        return self._additive()

    def _additive(self):
        left = self._multiplicative()
        while self.stream.check_symbol("+", "-"):
            op = self.stream.advance().value
            left = Binary(op, left, self._multiplicative())
        return left

    def _multiplicative(self):
        left = self._unary()
        while self.stream.check_symbol("*", "/"):
            op = self.stream.advance().value
            left = Binary(op, left, self._unary())
        return left

    def _unary(self):
        if self.stream.accept_symbol("-"):
            return Unary("-", self._unary())
        return self._primary()

    def _literal(self, value) -> Literal:
        """Consume the current token as a literal (claiming its slot)."""
        slot = self._slots.get(self.stream.save())
        token = self.stream.advance()
        node = Literal(value, line=token.line, column=token.column)
        if slot is not None:
            node.lift(self.lifted, slot)
        return node

    def _primary(self):
        token = self.stream.current
        found = literal(token)
        if found is not None:
            return self._literal(found[1])
        if token.kind == SYMBOL and token.value == "(":
            self.stream.advance()
            inner = self.parse_expr()
            self.stream.expect_symbol(")")
            return inner
        if token.kind != IDENT:
            self.stream.fail(f"unexpected token {token.value!r} in expression")

        word = token.value.lower()
        follows_paren = self.stream.peek().matches(SYMBOL, "(")
        if word in _AGGREGATES and (follows_paren
                                    or self.stream.peek().is_keyword("distinct")):
            return self._aggregate()
        if word in _QUANTIFIERS and follows_paren:
            quantifier = self.stream.advance().value
            self.stream.expect_symbol("(")
            argument = self.parse_expr()
            self.stream.expect_symbol(")")
            return Quantified(quantifier, argument)
        if word in _FUNCTIONS and follows_paren:
            name = self.stream.advance().value
            self.stream.expect_symbol("(")
            args = [self.parse_expr()]
            while self.stream.accept_symbol(","):
                args.append(self.parse_expr())
            self.stream.expect_symbol(")")
            return FunctionCall(name, args)
        return self._path()

    def _aggregate(self) -> Aggregate:
        func = self.stream.advance().value
        distinct = bool(self.stream.accept_keyword("distinct"))
        self.stream.expect_symbol("(")
        if not distinct:
            distinct = bool(self.stream.accept_keyword("distinct"))
        argument = self.parse_expr()
        self.stream.expect_symbol(")")
        outer: List[PathStep] = []
        while self.stream.check_keyword("of"):
            # "of" binds to the aggregate scope (paper §4.6).
            self.stream.advance()
            outer.append(self._path_step())
        return Aggregate(func, argument, outer, distinct)

    def _path(self) -> Path:
        steps = [self._path_step()]
        while self.stream.accept_keyword("of"):
            steps.append(self._path_step())
        return Path(steps)

    def _path_step(self) -> PathStep:
        transitive = False
        inverse_of = False
        chain = None
        if (self.stream.check_keyword("transitive")
                and self.stream.peek().matches(SYMBOL, "(")):
            self.stream.advance()
            self.stream.expect_symbol("(")
            transitive = True
        if (self.stream.check_keyword("inverse")
                and self.stream.peek().matches(SYMBOL, "(")):
            self.stream.advance()
            self.stream.expect_symbol("(")
            inverse_of = True
        name_token = self.stream.expect_ident("qualification name")
        name = name_token.value
        if inverse_of:
            self.stream.expect_symbol(")")
        if transitive:
            # §4.7: "any cyclic chain of EVAs" — transitive(a of b of ...).
            chain = [name]
            while self.stream.accept_keyword("of"):
                chain.append(
                    self.stream.expect_ident("qualification name").value)
            self.stream.expect_symbol(")")
        as_class = None
        if self.stream.accept_keyword("as"):
            as_class = self.stream.expect_ident("role class").value
        return PathStep(name, as_class, transitive, inverse_of,
                        transitive_chain=tuple(chain) if chain else None,
                        line=name_token.line, column=name_token.column)
