"""Generate ``docs/api_reference.md`` from the package's docstrings.

Walks every ``repro`` module, collects the items its ``__all__`` exports,
and emits one markdown section per module with each item's signature and
docstring summary.  Run from the repository root:

    python scripts/generate_api_reference.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import pkgutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import repro  # noqa: E402


def first_paragraph(doc: str) -> str:
    lines = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def signature_of(item) -> str:
    try:
        return str(inspect.signature(item))
    except (TypeError, ValueError):
        return "(...)"


def render_module(module_name: str) -> "list[str]":
    module = importlib.import_module(module_name)
    names = [
        name
        for name in getattr(module, "__all__", [])
        if getattr(getattr(module, name, None), "__module__", None) == module_name
    ]
    if not names:
        return []
    lines = [f"## `{module_name}`", ""]
    if module.__doc__:
        lines += [first_paragraph(module.__doc__), ""]
    for name in names:
        item = getattr(module, name)
        doc = inspect.getdoc(item) or ""
        if inspect.isclass(item):
            lines.append(f"### class `{name}{signature_of(item)}`")
            lines += ["", first_paragraph(doc), ""]
            for method_name, method in inspect.getmembers(item, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != name:
                    continue
                method_doc = inspect.getdoc(method) or ""
                lines.append(
                    f"- `{method_name}{signature_of(method)}` — "
                    f"{first_paragraph(method_doc)}"
                )
            lines.append("")
        elif inspect.isfunction(item):
            lines.append(f"### `{name}{signature_of(item)}`")
            lines += ["", first_paragraph(doc), ""]
        else:
            lines.append(f"### `{name}`")
            lines += ["", first_paragraph(doc) if doc else "Constant.", ""]
    return lines


def entry_point_note() -> "list[str]":
    return [
        "## Entry point",
        "",
        "`repro.client.connect(...)` is the one entry point for queries; it",
        "returns the same typed `KnnRequest`/`RangeRequest`/`QueryResult`",
        "API over an in-process database, a saved directory, a sharded home,",
        "or a running `repro serve` TCP server (see [serving.md](serving.md)).",
        "",
    ]


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `scripts/generate_api_reference.py` — regenerate after",
        "changing any public signature or docstring.",
        "",
    ]
    lines += entry_point_note()
    module_names = sorted(
        name
        for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not name.endswith("__main__")
    )
    for module_name in module_names:
        lines += render_module(module_name)
    target = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api_reference.md"
    target.write_text("\n".join(lines) + "\n")
    print(f"wrote {target} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
