"""Functions laid out every way the indentation cut of
``repro.core.source.function_def`` has to survive, and classes laid out
every way the class index of ``repro.core.source.class_lines`` has to.
Not a test module: ``tests/test_frontend_replay.py`` parses each function
here by the cut and by ``inspect.getsource`` and compares the trees, and
counts each class's lines both ways.  The odd formatting IS the fixture —
do not run a formatter over this file.
"""

import functools


def plain_decorator(fn):
    return fn


def decorator_with_args(*_args, **_kwargs):
    return plain_decorator


def wrapping_decorator(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


class Shapes:
    def one_liner(self): return 1
    def after_one_liner(self):
        return 2

    @plain_decorator
    def decorated(self):
        return 3

    @decorator_with_args(
        "spread",
        over=["several", "lines"],
    )
    @plain_decorator
    def decorated_with_arguments(self):
        return 4

    @wrapping_decorator
    def wrapped(self):
        """inspect unwraps to this def, not to ``wrapper``."""
        return 5

    async def coroutine(self):
        return 6

    def black_style_signature(
        self,
        first,
        second=None,
    ) -> int:
        return 7

    def nested_def_last(self):
        def inner():
            return 8
        return inner

    def lambda_last(self):
        return lambda: (
    9
        )

    def docstring_only(self):
        """Nothing else."""

    def dead_code_after_return(self):
        return 10
        self.never = "reached"  # no bytecode, still source

    def comment_left_of_the_def_follows(self):
        return 11
# a comment at column 0, between two methods

    def bracket_continuation_at_column_zero(self):
        values = [
1, 2,
3,
        ]
        return values

    def backslash_continuation_at_column_zero(self):
        total = 1 + \
2
        return total

    def string_text_at_column_zero(self):
        # Unparseable after textwrap.dedent on either route (the margin is
        # lost): both must fail the same way.
        return """
column zero
"""

    def trailing_comment_deeper_than_body(self):
        return 12
            # inspect keeps this line, the cut drops it: no AST either way

    handler = lambda self: 13  # noqa: E731 — a function, but not a def

    def last_in_class(self):
        if self:
            return 14


class Tabbed:
	def tab_indented(self):
		if self:
			return 15
		return 16

	def tab_indented_too(self):
		return [
	17,
		]


def module_level():
    return 18


def module_level_string_text_at_column_zero():
    text = """
def not_a_function():
    pass
"""
    return text


def module_level_black_signature(
    first,
    second,
):
    return first, second
# trailing comment at column 0


if True:
    def under_an_if():
        return 19
else:
    def under_an_if():
        return 20


def last_function_of_the_module():
    return 21


# ----------------------------------------------------------------------
# Classes
# ----------------------------------------------------------------------
def class_decorator(cls):
    return cls


@class_decorator
@decorator_with_args(
    "spread",
)
class DecoratedClass:
    value = 22


class Outer:
    class Inner:
        value = 23

        class Innermost:
            value = 24
    after_inner = 25


def make_local_class():
    class Local:
        value = 26

        def method(self):
            return self.value
    return Local


LocalClass = make_local_class()


class TrailingCommentKept:
    value = 27
    # at the body's depth: inspect keeps it
        # deeper: kept too


class TrailingCommentDropped:
    value = 28
  # left of the body: dropped
# column zero: dropped


class TrailingCommentsMixed:
    value = 29
# column zero, by itself dropped...
    # ...but this one is at the body's depth, so the class reaches it


class TrailingBlankLines:
    value = 30



class OneLineBody: value = 31
    # a body on the header's line has no depth: dropped


class SpreadHeader(
    Outer,
):
    """A docstring first."""

    value = 32


if True:
    class DefinedTwice:
        value = 33
else:
    class DefinedTwice:
        value = 34
        longer = 35


class Tabbed2:
	value = 36
	# tab-indented comment at the body's depth
