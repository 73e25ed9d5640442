"""Malformed input to both grammars: error class, position and message.

The invariant language and the DDL subset share one tokenizer and cursor
(`apivet.lexer`), so both follow one rule for where an error points: at the
offending token, naming it, or just past the last token at the end of
input, or at line 1, column 1 when the input has no tokens. At the end of
input an error says what was expected there.
"""

import pytest

from apivet.dsl import parse_invariant, parse_invariants
from apivet.errors import DdlParseError, DslScopeError, DslSyntaxError
from apivet.sources import parse_create_table

H = "INVARIANT x ON a CATEGORY format WHERE "

DSL_ERRORS = [
    ("INVARIANT", 1, 10, "expected identifier"),
    ("INVARIANT x", 1, 12, "expected ON"),
    ("INVARIANT x ON", 1, 15, "expected identifier"),
    ("INVARIANT x ON a", 1, 17, "expected CATEGORY"),
    ("INVARIANT x ON a CATEGORY", 1, 26, "expected identifier"),
    ("INVARIANT x ON a CATEGORY bogus WHERE TRUE", 1, 27,
     "category must be one of common_sense, format, database, environment, "
     "related_api; got 'bogus'"),
    ("INVARIANT x ON a CATEGORY format", 1, 33, "expected WHERE"),
    (H, 1, 39, "expected expression"),
    ("ON a CATEGORY format WHERE TRUE", 1, 1, "expected INVARIANT, got 'ON'"),
    ("INVARIANT ON a CATEGORY format WHERE TRUE", 1, 11, "expected identifier, got 'ON'"),
    ("INVARIANT x ON WHERE CATEGORY format WHERE TRUE", 1, 16, "expected identifier, got 'WHERE'"),
    (H + "a.b ==", 1, 46, "expected operand"),
    (H + "a.b", 1, 43, "expected comparison, IN, MATCHES, or IS"),
    (H + "a.b foo", 1, 44, "expected comparison, IN, MATCHES, or IS, got 'foo'"),
    (H + "a == 1", 1, 40, "field reference requires an entity-qualified path"),
    (H + "a.b IN", 1, 46, "expected '['"),
    (H + "a.b IN [", 1, 48, "expected literal"),
    (H + "a.b IN [1", 1, 49, "expected ']'"),
    (H + "a.b IN [1,]", 1, 50, "expected literal, got ']'"),
    (H + "a.b IN [a.c]", 1, 48, "expected literal, got 'a'"),
    (H + "a.b MATCHES 5", 1, 52, "expected pattern string, got '5'"),
    (H + 'a.b MATCHES "(\\\\d"', 1, 52,
     "bad pattern: missing ), unterminated subpattern at position 0"),
    (H + 'a.b MATCHES "(a)\\\\1"', 1, 52, "backreferences are not supported"),
    (H + "a.b IS", 1, 46, "expected NULL"),
    (H + "a.b IS NOT", 1, 50, "expected NULL"),
    (H + "a.b IS 3", 1, 47, "expected NULL, got '3'"),
    (H + "(TRUE", 1, 45, "expected ')'"),
    (H + "EXISTS", 1, 46, "expected '('"),
    (H + "EXISTS(o", 1, 48, "expected ':'"),
    (H + "EXISTS(o: TRUE", 1, 54, "expected ')'"),
    (H + "EXISTS(: TRUE)", 1, 47, "expected identifier, got ':'"),
    (H + "TRUE extra", 1, 45, "expected INVARIANT, got 'extra'"),
    (H + "a.b == @", 1, 47, "unexpected character '@'"),
    (H + 'a.b == "unterminated', 1, 47, 'unexpected character \'"\''),
    (H + "a. == 1", 1, 43, "expected identifier, got '=='"),
    (H + "a.b.NULL == 1", 1, 44, "expected identifier, got 'NULL'"),
    (H + "TRUE AND", 1, 48, "expected expression"),
    (H + "NOT", 1, 43, "expected expression"),
    (H + "TRUE ==", 1, 47, "expected operand"),
    (H + "1", 1, 41, "expected comparison, IN, MATCHES, or IS"),
    (H + "a.b < ]", 1, 46, "expected literal, got ']'"),
    ("INVARIANT a ON b CATEGORY format WHERE TRUE\n\nINVARIANT c ON", 3, 15,
     "expected identifier"),
    ("# only a comment\nINVARIANT x ON a CATEGORY format\n  WHERE a.b ==\n"
     "  # trailing comment\n", 3, 15, "expected operand"),
    ("INVARIANT x ON a CATEGORY format WHERE\n  a.b == 1 AND\n  a.c ~ 2", 3, 7,
     "unexpected character '~'"),
]

# A field reference must start with the focal entity or a name bound by an
# enclosing quantifier; the error points at the reference's first token.
SCOPE_ERRORS = [
    (H + "ghost.b == 1", 1, 40,
     "reference to ghost.b is outside any quantifier binding 'ghost'"),
    (H + "1 == ghost.b.c", 1, 45,
     "reference to ghost.b.c is outside any quantifier binding 'ghost'"),
    # the binding ends where its quantifier closes
    (H + "EXISTS(o: TRUE) AND o.x == 1", 1, 60,
     "reference to o.x is outside any quantifier binding 'o'"),
    (H + "EXISTS(o: EXISTS(p: TRUE) OR p.k == o.k)", 1, 69,
     "reference to p.k is outside any quantifier binding 'p'"),
    # inside nested quantifiers, only the enclosing names are bound
    (H + "EXISTS(o: EXISTS(p: p.k == q.k))", 1, 67,
     "reference to q.k is outside any quantifier binding 'q'"),
    # each invariant binds its own focal entity, not an earlier one's
    ("INVARIANT a ON b CATEGORY format WHERE TRUE\n\n"
     "INVARIANT c ON d CATEGORY format\n  WHERE d.x == 1 AND b.x == 1", 4, 22,
     "reference to b.x is outside any quantifier binding 'b'"),
]

# parse_invariant also rejects empty input and anything after one invariant
SINGLE_DSL_ERRORS = [
    ("", 1, 1, "expected INVARIANT"),
    ("   # nothing but a comment", 1, 1, "expected INVARIANT"),
    (H + "TRUE extra", 1, 45, "trailing input after invariant, got 'extra'"),
    (H + "TRUE INVARIANT", 1, 45, "trailing input after invariant, got 'INVARIANT'"),
]

# Cases marked "end of input" point just past the last token and name what
# was expected there.
DDL_ERRORS = [
    ("CREATE", 1, 7, "expected TABLE"),  # end of input
    ("CREATE TABLE", 1, 13, "expected identifier"),  # end of input
    ("CREATE TABLE t", 1, 15, "expected '('"),  # end of input
    ("CREATE TABLE t (", 1, 17, "expected identifier"),  # end of input
    ("CREATE TABLE t (id", 1, 19, "expected column type"),  # end of input
    ("CREATE TABLE t (id INT", 1, 23, "expected ',' or ')'"),  # end of input
    ("CREATE TABLE t (id INT)", 1, 24, "expected ';'"),  # end of input
    ("CREATE TABLE t (id INT,", 1, 24, "expected identifier"),  # end of input
    ("CREATE TABLE t (id VARCHAR(", 1, 28, "expected type argument"),  # end of input
    ("CREATE TABLE t (id VARCHAR(64", 1, 30, "expected ',' or ')'"),  # end of input
    ("CREATE TABLE t (id INT PRIMARY", 1, 31, "expected KEY"),  # end of input
    ("CREATE TABLE t (id INT, PRIMARY KEY", 1, 36, "expected '('"),  # end of input
    ("CREATE TABLE t (id INT, PRIMARY KEY (id", 1, 40, "expected ')'"),  # end of input
    ("CREATE TABLE t (id INT, PRIMARY KEY (id,", 1, 41, "expected identifier"),  # end of input
    ("CREATE TABLE t (s ENUM('a',", 1, 28, "expected type argument"),  # end of input
    ("DROP TABLE t;", 1, 1, "expected CREATE, got 'DROP'"),
    ("CREATE VIEW v;", 1, 8, "expected TABLE, got 'VIEW'"),
    ("CREATE TABLE (id INT);", 1, 14, "expected identifier, got '('"),
    ("CREATE TABLE t id INT);", 1, 16, "expected '(', got 'id'"),
    ("CREATE TABLE t (id 5);", 1, 20, "expected column type, got '5'"),
    ("CREATE TABLE t (id BLOB);", 1, 20, "unsupported column type 'BLOB'"),
    ("CREATE TABLE t (id TINYINT(2));", 1, 20, "only TINYINT(1) is supported"),
    ("CREATE TABLE t (s ENUM);", 1, 19, "ENUM requires values"),
    ("CREATE TABLE t (s ENUM(a));", 1, 24, "unexpected type argument 'a'"),
    ("CREATE TABLE t (id INT PRIMARY KEY, PRIMARY KEY (id));", 1, 53,
     "duplicate PRIMARY KEY clause"),
    ("CREATE TABLE t (id INT PRIMARY KEY, n INT PRIMARY KEY);", 1, 54,
     "duplicate PRIMARY KEY clause"),
    ("CREATE TABLE t (id INT;", 1, 23, "expected ',' or ')', got ';'"),
    ("CREATE TABLE t (id INT) x", 1, 25, "expected ';', got 'x'"),
    ("CREATE TABLE t (id INT);\nCREATE TABLE u (id INT", 2, 23,
     "expected ',' or ')'"),  # end of input
    ("CREATE TABLE t (id INT @);", 1, 24, "unexpected character '@'"),
    ("CREATE TABLE t (id VARCHAR(64 64));", 1, 31, "expected ',' or ')', got '64'"),
    ("CREATE TABLE t (id INT PRIMARY id);", 1, 32, "expected KEY, got 'id'"),
    ("CREATE TABLE t (id INT, PRIMARY KEY id);", 1, 37, "expected '(', got 'id'"),
    ("CREATE TABLE t (id INT, PRIMARY KEY (5));", 1, 38, "expected identifier, got '5'"),
    ("-- a comment\nCREATE TABLE t (\n  id INT,\n  n BOGUS\n);", 4, 5,
     "unsupported column type 'BOGUS'"),
    ("CREATE TABLE 'x' (id INT);", 1, 14, 'expected identifier, got "\'x\'"'),
    ("CREATE TABLE t (s ENUM('a' 'b'));", 1, 28, 'expected \',\' or \')\', got "\'b\'"'),]


def _check(exc_info, line, column, message):
    assert (exc_info.value.line, exc_info.value.column) == (line, column)
    assert str(exc_info.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize("text, line, column, message", DSL_ERRORS)
def test_invariant_file_errors(text, line, column, message):
    with pytest.raises(DslSyntaxError) as exc_info:
        parse_invariants(text)
    _check(exc_info, line, column, message)


@pytest.mark.parametrize("text, line, column, message", SCOPE_ERRORS)
def test_scope_errors(text, line, column, message):
    with pytest.raises(DslScopeError) as exc_info:
        parse_invariants(text)
    _check(exc_info, line, column, message)


@pytest.mark.parametrize("text, line, column, message", SINGLE_DSL_ERRORS)
def test_single_invariant_errors(text, line, column, message):
    with pytest.raises(DslSyntaxError) as exc_info:
        parse_invariant(text)
    _check(exc_info, line, column, message)


@pytest.mark.parametrize("text, line, column, message", DDL_ERRORS)
def test_ddl_errors(text, line, column, message):
    with pytest.raises(DdlParseError) as exc_info:
        parse_create_table(text)
    _check(exc_info, line, column, message)
