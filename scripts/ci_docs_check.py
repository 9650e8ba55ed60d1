"""CI docs check: markdown links must resolve, documented modules must import,
and no doc may claim the vector engine falls back to the scalar loop.

Three drift classes this catches on every push:

1. **Broken intra-repo links** — every relative ``[text](path)`` link in
   the repository's markdown files (README, ROADMAP, docs/) must point at
   an existing file.  External (``http(s)://``, ``mailto:``) and
   pure-anchor links are skipped; a ``path#anchor`` link is checked for
   the file part.
2. **Stale module references** — every backticked ``repro.*`` dotted
   path mentioned in ``README.md`` or any ``docs/*.md`` page must
   resolve: the longest importable module prefix is imported and any
   remaining components (a class, function or attribute, e.g.
   ``repro.simulation.features.ContextBatch``) are resolved with
   ``getattr``.  Renaming or deleting a module or public name without
   updating the docs fails the job, which is what keeps them
   trustworthy.
3. **Stale fallback claims** — since the mitigation vectorization,
   monitored and mitigated campaigns batch through the lock-step engine
   like everything else; any surviving "fall(s) back to the scalar
   loop" phrasing in the docs or the ``src``/``scripts`` docstrings is
   flagged (historical records — CHANGES.md, ISSUE.md — are exempt).

Run:  python scripts/ci_docs_check.py
"""

import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: markdown inline links [text](target); images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: backticked dotted module paths under the repro package
_MODULE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z_0-9]*)+)`")
#: link schemes that are not repository paths
_EXTERNAL = ("http://", "https://", "mailto:")

#: phrasing that predates the vectorized monitor/mitigator path — the
#: engine no longer falls back to the scalar loop for any run shape
_STALE_FALLBACK = re.compile(r"falls?\s+back\s+to\s+the\s+scalar", re.I)
#: historical/task records where the phrase legitimately survives
_STALE_EXEMPT = {"CHANGES.md", "ISSUE.md"}


def doc_pages():
    """Every ``docs/*.md`` page, sorted."""
    docs = os.path.join(REPO_ROOT, "docs")
    if not os.path.isdir(docs):
        return []
    return [os.path.join(docs, name) for name in sorted(os.listdir(docs))
            if name.endswith(".md")]


def markdown_files():
    for name in sorted(os.listdir(REPO_ROOT)):
        if name.endswith(".md"):
            yield os.path.join(REPO_ROOT, name)
    yield from doc_pages()


def check_links() -> list:
    """Return a list of broken-link descriptions across all markdown."""
    problems = []
    for path in markdown_files():
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        rel = os.path.relpath(path, REPO_ROOT)
        for target in _LINK.findall(text):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), file_part))
            if not os.path.exists(resolved):
                problems.append(f"{rel}: link target {target!r} does not "
                                f"exist (resolved {os.path.relpath(resolved, REPO_ROOT)})")
    return problems


def _resolve_dotted(path: str) -> None:
    """Import the longest module prefix of *path*, then getattr the rest.

    Raises on failure — a dotted reference is valid when it names a
    module (``repro.simulation.replay``) or an attribute reached
    through one (``repro.simulation.features.ContextBatch``).
    """
    parts = path.split(".")
    last_error = None
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError as exc:
            last_error = exc
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)  # AttributeError = stale reference
        return
    raise last_error if last_error is not None else ImportError(path)


def check_module_references() -> list:
    """Return resolution failures for every dotted `repro.*` path named by
    ``README.md`` or a ``docs/*.md`` page."""
    pages = doc_pages()
    if not pages:
        return ["docs/ has no markdown pages — the module-reference drift "
                "check has nothing to verify"]
    pages.insert(0, os.path.join(REPO_ROOT, "README.md"))
    problems = []
    n_total = 0
    for path in pages:
        rel = os.path.relpath(path, REPO_ROOT)
        with open(path, encoding="utf-8") as fh:
            references = sorted(set(_MODULE.findall(fh.read())))
        n_total += len(references)
        for reference in references:
            try:
                _resolve_dotted(reference)
            except Exception as exc:  # import/getattr or anything raised
                problems.append(f"{rel} references {reference!r} "
                                f"which does not resolve: {exc}")
    print(f"docs: {n_total} dotted references across {len(pages)} pages "
          "resolve cleanly" if not problems else
          f"docs: {len(problems)} problem(s) across {n_total} dotted "
          f"references in {len(pages)} pages")
    return problems


def check_stale_fallback_claims() -> list:
    """Return every surviving 'falls back to the scalar' claim in the
    markdown set and the ``src``/``scripts`` Python sources."""
    candidates = [path for path in markdown_files()
                  if os.path.basename(path) not in _STALE_EXEMPT]
    for top in ("src", "scripts"):
        root = os.path.join(REPO_ROOT, top)
        for dirpath, _, names in os.walk(root):
            candidates.extend(os.path.join(dirpath, name)
                              for name in sorted(names)
                              if name.endswith(".py"))
    problems = []
    for path in candidates:
        if os.path.samefile(path, os.path.abspath(__file__)):
            continue  # this checker's own docstring/pattern
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if _STALE_FALLBACK.search(line):
                    rel = os.path.relpath(path, REPO_ROOT)
                    problems.append(
                        f"{rel}:{lineno} still claims a scalar fallback — "
                        "monitored/mitigated runs batch through the "
                        "lock-step engine (see docs/mitigation.md)")
    print(f"stale fallback claims: scanned {len(candidates)} files, "
          f"{len(problems)} stale claim(s)")
    return problems


def main() -> int:
    # allow running from a checkout without installing the package
    src = os.path.join(REPO_ROOT, "src")
    if os.path.isdir(src) and src not in sys.path:
        sys.path.insert(0, src)

    n_files = len(list(markdown_files()))
    problems = check_links()
    print(f"markdown links: scanned {n_files} files, "
          f"{len(problems)} broken link(s)")
    problems += check_module_references()
    problems += check_stale_fallback_claims()
    if problems:
        print("\nFAIL: documentation drift detected:")
        for line in problems:
            print(f"  - {line}")
        return 1
    print("\nOK: all intra-repo links resolve, every documented module "
          "imports, and no stale scalar-fallback claims survive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
