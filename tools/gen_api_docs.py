"""Generate docs/API.md from the package's docstrings.

Walks every ``repro`` module, collects module docstrings and the public
classes/functions (with signatures and first docstring paragraphs), and
renders one markdown reference.  Run from the repository root:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraph = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in paragraph.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        # only document members defined in this package
        mod = getattr(obj, "__module__", "") or ""
        if not mod.startswith("repro"):
            continue
        yield name, obj


def render_module(qualname: str) -> str:
    module = importlib.import_module(qualname)
    lines = [f"## `{qualname}`", ""]
    lines.append(first_paragraph(module.__doc__))
    lines.append("")
    seen = set()
    for name, obj in public_members(module):
        if getattr(obj, "__module__", None) != qualname:
            continue  # re-exports are documented at their home module
        key = (name, id(obj))
        if key in seen:
            continue
        seen.add(key)
        if inspect.isclass(obj):
            lines.append(f"### class `{name}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
            for mname, meth in inspect.getmembers(obj):
                if mname.startswith("_"):
                    continue
                prop = inspect.getattr_static(obj, mname, None)
                # computed once or every time, a reader sees a property
                is_prop = isinstance(prop, (property, cached_property))
                if not (inspect.isfunction(meth) or is_prop):
                    continue
                if inspect.isfunction(meth) and (
                        meth.__qualname__.split(".")[0] != obj.__name__):
                    continue  # inherited
                if is_prop:
                    lines.append(
                        f"- `{mname}` *(property)* — "
                        f"{first_paragraph(prop.__doc__)}"
                    )
                else:
                    lines.append(
                        f"- `{mname}{signature_of(meth)}` — "
                        f"{first_paragraph(meth.__doc__)}"
                    )
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(
                f"### `{name}{signature_of(obj)}`"
            )
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
    return "\n".join(lines)


def render() -> str:
    """The text of docs/API.md for the package as it is now."""
    modules = []
    pkg_path = Path(repro.__file__).parent
    for info in sorted(
        pkgutil.walk_packages([str(pkg_path)], prefix="repro."),
        key=lambda i: i.name,
    ):
        if info.name.endswith("__main__"):
            continue
        modules.append(info.name)
    out = [
        "# API reference",
        "",
        "*Generated by `tools/gen_api_docs.py` — do not edit by hand.*",
        "",
    ]
    for qualname in modules:
        out.append(render_module(qualname))
        out.append("")
    return "\n".join(out)


def main() -> int:
    target = ROOT / "docs" / "API.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(render())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
