"""RL005 — serialization parity for round-tripping dataclasses.

Every class that ships both a serializer (``as_dict``/``to_dict``) and a
``from_dict`` constructor (``Plan``, ``Step``, ``ConvLayerSpec``,
``PruningRequest``/``PruningReport``, the service job records...) must
round-trip every constructor field: a field added to the class but
forgotten in either method silently drops state across the wire or the
on-disk store.

The analysis is name-based: constructor fields come from ``__init__``
or ``__new__`` parameters (or, for dataclasses, annotated class-body
fields), and a method "covers" a field when it either uses a wholesale
shortcut (``dataclasses.asdict(self)`` / ``cls(**payload)``) or mentions
the field's name as a string key or keyword argument.  Classes taking
``**kwargs`` in their constructor are skipped — their field set is open.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from ..engine import Checker, Finding, ModuleSource, register_checker

_SERIALIZER_NAMES = ("as_dict", "to_dict")


def _annotation_is_classvar(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "ClassVar"
    if isinstance(annotation, ast.Name):
        return annotation.id == "ClassVar"
    return False


def _constructor_fields(class_def: ast.ClassDef) -> Optional[List[str]]:
    """Constructor field names, or ``None`` when the set is open/unknown."""

    init = _method(class_def, "__init__", "__new__")
    if init is not None:
        if init.args.kwarg is not None or init.args.vararg is not None:
            return None
        names = [arg.arg for arg in init.args.posonlyargs]
        names += [arg.arg for arg in init.args.args]
        names += [arg.arg for arg in init.args.kwonlyargs]
        return [name for name in names if name not in ("self", "cls")]
    # Dataclass idiom: annotated class-body fields are init parameters.
    fields: List[str] = []
    for statement in class_def.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            if _annotation_is_classvar(statement.annotation):
                continue
            if statement.target.id.startswith("_"):
                continue  # private runtime state (locks, caches), not payload
            fields.append(statement.target.id)
    return fields or None


def _method(class_def: ast.ClassDef, *names: str) -> Optional[ast.FunctionDef]:
    for statement in class_def.body:
        if isinstance(statement, ast.FunctionDef) and statement.name in names:
            return statement
    return None


def _mentions(method: ast.FunctionDef) -> Set[str]:
    """String keys and keyword-argument names the method touches."""

    mentioned: Set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            mentioned.add(node.value)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            mentioned.add(node.arg)
        elif isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
    return mentioned


def _uses_wholesale_shortcut(method: ast.FunctionDef) -> bool:
    """``dataclasses.asdict(self)``-style or ``cls(**payload)``-style body."""

    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            func = node.func
            tail = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if tail == "asdict":
                return True
            if any(keyword.arg is None for keyword in node.keywords):
                return True  # cls(**payload) / replace(**merged)
    return False


@register_checker
class SerializationParityChecker(Checker):
    code = "RL005"
    name = "serialization-parity"
    description = (
        "classes with as_dict/to_dict + from_dict must round-trip every "
        "constructor field name"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleSource, class_def: ast.ClassDef
    ) -> Iterator[Finding]:
        serializer = _method(class_def, *_SERIALIZER_NAMES)
        loader = _method(class_def, "from_dict")
        if serializer is None or loader is None:
            return
        fields = _constructor_fields(class_def)
        if not fields:
            return
        for method in (serializer, loader):
            if _uses_wholesale_shortcut(method):
                continue
            missing = sorted(set(fields) - _mentions(method))
            if missing:
                yield self.finding(
                    module,
                    method,
                    f"{class_def.name}.{method.name} does not round-trip "
                    f"constructor field(s): {', '.join(missing)}",
                )
