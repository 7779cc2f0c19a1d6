"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


def join(x):
    """A function docstring
    over two lines."""
    return os.path.join(x, """a multi-line
string argument""")
