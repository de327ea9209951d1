import math

import pytest

from multiport_bell.phases import MAX_NESTING, PhaseExprError, parse_phase_expr


@pytest.mark.parametrize(
    "source, expected",
    [
        ("pi/3", math.pi / 3),
        ("-pi/6", -math.pi / 6),
        ("2*(pi/4) - pi/2", 0.0),
        ("pi", math.pi),
        ("0", 0.0),
        ("1.5", 1.5),
        ("  1 + 2 * 3 ", 7.0),
        ("(1+2)*3", 9.0),
        ("--1", 1.0),
        ("-(pi)", -math.pi),
        ("2*pi/3", 2 * math.pi / 3),
        ("1/2/2", 0.25),
        ("1-2-3", -4.0),
        ("10.25", 10.25),
    ],
)
def test_valid_expressions(source, expected):
    assert parse_phase_expr(source) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "source, position",
    [
        ("pi/", 3),
        ("", 0),
        ("(pi", 3),
        ("1+", 2),
        (")", 0),
        ("1 2", 2),
        ("pie", 2),
        ("1.", 2),
        (".5", 0),
        ("1*/2", 2),
        ("PI", 0),
        # NUMBER takes the ASCII digits only, not every Unicode digit
        ("²", 0),
        ("1²", 1),
        ("٣", 0),
        ("pi*²", 3),
    ],
)
def test_syntax_errors_carry_offset(source, position):
    with pytest.raises(PhaseExprError) as excinfo:
        parse_phase_expr(source)
    assert excinfo.value.position == position
    assert "offset" in str(excinfo.value)


def test_division_by_zero():
    with pytest.raises(PhaseExprError) as excinfo:
        parse_phase_expr("1/0")
    assert "division by zero" in str(excinfo.value)
    assert excinfo.value.position == 1
    with pytest.raises(PhaseExprError):
        parse_phase_expr("pi/(1-1)")


def test_nesting_at_the_limit_evaluates():
    assert parse_phase_expr("(" * MAX_NESTING + "pi" + ")" * MAX_NESTING) == math.pi
    assert parse_phase_expr("-" * MAX_NESTING + "1") == 1.0
    assert parse_phase_expr("-(" * (MAX_NESTING // 2) + "2" + ")" * (MAX_NESTING // 2)) == 2.0


@pytest.mark.parametrize(
    "source",
    [
        "(" * 400 + "1" + ")" * 400,
        "-" * 5000 + "1",
        "(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
        "-" * (MAX_NESTING + 1) + "1",
        " 1 + " + "-(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
    ],
)
def test_nesting_beyond_the_limit_is_rejected_at_its_offset(source):
    with pytest.raises(PhaseExprError) as excinfo:
        parse_phase_expr(source)
    # the first '(' or unary '-' past the limit
    assert excinfo.value.position == [k for k, ch in enumerate(source) if ch in "(-"][MAX_NESTING]
    assert "nesting" in str(excinfo.value)
