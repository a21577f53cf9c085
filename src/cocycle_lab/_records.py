"""Record classes: the package's value and result types, without ``dataclasses``.

``record`` gives a class with field annotations what a frozen ``@dataclass``
gave it: ``__init__`` (by position or keyword, with a ``TypeError`` on a
missing, unknown or repeated argument, then ``__post_init__`` if the
instance has one), ``==`` between instances of one class over the
fields, their ``hash``, a ``Name(field=value, ...)`` repr, and a
``__setattr__`` and ``__delattr__`` that refuse with
``FrozenInstanceError``.  Each is a closure over the field names, and a
record's state is its fields: a ``__post_init__`` that normalises one
sets it through ``object.__setattr__``.

It exists for start-up time.  ``@dataclass`` compiles the source of
every method it generates with ``exec``, and ``dataclasses`` imports
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``).  Every
``cocycle-lab`` command is a fresh process: with the package's bytecode
cached, ``import cocycle_lab`` took 48 ms with dataclasses and takes 8 ms
with records, and ``cocycle-lab --help`` 149 and 108 ms (CPython 3.11.7,
medians, see the README), more than a small command's work.  The one
visible difference: ``dataclasses.fields``, ``replace``, ``asdict`` and
``is_dataclass`` do not apply to records; a record's field names are its
``_fields`` tuple, in declaration order.
"""

from operator import attrgetter

_set = object.__setattr__  # keeps CPython's compact instance values, as dataclasses did


class FrozenInstanceError(AttributeError):
    """Raised on assigning to, or deleting, a field of a record."""


def record(cls):
    """Make ``cls`` a record over its own annotated fields (see the module).

    A field's class attribute is its default.  A method the class defines,
    or inherits from a base other than ``object``, is kept: ``Group``'s
    subclasses keep its ``repr``, their tag.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count, title = len(names), cls.__qualname__
    getter = attrgetter(*names)
    if count == 1:  # attrgetter of one name returns the bare value

        def values(self):
            return (getter(self),)

    else:
        values = getter

    def bind(args, kwargs):
        """The field values in order, from arguments that are not all positional."""
        if len(args) > count:
            raise TypeError(f"{title}() takes {count} arguments but {len(args)} were given")
        out = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                out.append(kwargs.pop(name))
            elif name in defaults:
                out.append(defaults[name])
            else:
                raise TypeError(f"{title}() missing required argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{title}() got {problem} argument {name!r}")
        return out

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        post = getattr(self, "__post_init__", None)
        if post is not None:
            post()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join([f"{name}={value!r}" for name, value in zip(names, values(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        name = method.__name__
        if getattr(cls, name) is getattr(object, name):
            method.__qualname__ = f"{title}.{name}"
            setattr(cls, name, method)
    cls._fields = names
    return cls
